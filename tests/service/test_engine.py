"""Tests for the deterministic pace-decision service engine.

A synthetic two-candidate archetype profile keeps these tests fast and
makes every simulated service time computable by hand: with the default
cost model, a cold evaluation takes ``evaluate + 2 * per_candidate +
profile_build`` and a warm one drops the profile-build term.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.service.api import DecisionRequest
from repro.service.archetypes import ArchetypeProfile, get_profile, plan_or_fallback
from repro.service.engine import PaceDecisionService, ServiceConfig, ServiceCostModel
from repro.types import DvfsConfiguration

FAST = DvfsConfiguration(2.0, 1.0, 2.0)
SLOW = DvfsConfiguration(1.0, 0.5, 1.0)


def _toy_profile(device: str, task: str) -> ArchetypeProfile:
    return ArchetypeProfile.from_candidates(
        device,
        task,
        (FAST, SLOW),
        np.array([0.1, 0.3]),
        np.array([30.0, 10.0]),
        x_max=FAST,
        jobs_per_round=10,
    )


def _service(**config_overrides) -> PaceDecisionService:
    return PaceDecisionService(
        ServiceConfig(**config_overrides), profiles=_toy_profile
    )


def _request(**overrides) -> DecisionRequest:
    fields = dict(device="agx", task="vit", jobs=10, deadline=10.0)
    fields.update(overrides)
    return DecisionRequest(**fields)


COSTS = ServiceCostModel()
COLD_EVAL = COSTS.evaluate + 2 * COSTS.per_candidate + COSTS.profile_build
WARM_EVAL = COSTS.evaluate + 2 * COSTS.per_candidate


class TestEvaluationPath:
    def test_cold_evaluation_pays_the_profile_build(self):
        service = _service()
        decision = service.decide(_request(), at=0.0)
        assert decision.plan.source == "computed"
        assert decision.latency == pytest.approx(COLD_EVAL)
        assert service.evaluations == 1

    def test_warm_archetype_skips_the_profile_build(self):
        service = _service()
        service.decide(_request(), at=0.0)
        decision = service.decide(_request(deadline=11.0), at=1.0)
        assert decision.plan.source == "computed"
        assert decision.latency == pytest.approx(WARM_EVAL)

    def test_repeat_request_is_a_cache_hit(self):
        service = _service()
        first = service.decide(_request(), at=0.0)
        repeat = service.decide(_request(), at=1.0)
        assert repeat.plan.source == "cache"
        assert repeat.plan.steps == first.plan.steps
        assert repeat.latency == pytest.approx(COSTS.hit)
        assert service.evaluations == 1

    def test_impossible_deadline_falls_back_to_x_max(self):
        # 10 jobs at 0.1 s each needs 1 s; a 0.5 s deadline is infeasible.
        service = _service()
        decision = service.decide(_request(deadline=0.5), at=0.0)
        assert decision.plan.source == "fallback"
        assert decision.plan.total_jobs == 10
        assert decision.plan.steps[0].frequencies == FAST.as_tuple()
        assert service.fallbacks == 1

    def test_bad_margin_is_not_masked_as_an_infeasible_deadline(self):
        # A 1000 s deadline is easy; only the margin is wrong, so the
        # planner must say so instead of degrading to the x_max sprint.
        with pytest.raises(ConfigurationError, match="safety_margin"):
            plan_or_fallback(get_profile("agx", "vit"), 100, 1000.0, safety_margin=1.5)


class TestCoalescing:
    def test_identical_inflight_requests_share_one_evaluation(self):
        service = _service()
        service.submit(_request(client_id="a"), at=0.0)
        service.submit(_request(client_id="b"), at=0.001)
        service.submit(_request(client_id="c"), at=0.002)
        service.drain()
        assert service.evaluations == 1
        assert service.coalesced == 2
        leader, *joiners = service.decisions
        assert leader.plan.source == "computed"
        assert not leader.coalesced
        for joiner in joiners:
            assert joiner.plan.source == "coalesced"
            assert joiner.coalesced
            assert joiner.completed == leader.completed
            assert joiner.plan.steps == leader.plan.steps

    def test_different_profiles_never_coalesce(self):
        service = _service()
        service.submit(_request(deadline=10.0), at=0.0)
        service.submit(_request(deadline=11.0), at=0.001)
        service.drain()
        assert service.evaluations == 2
        assert service.coalesced == 0

    def test_tentative_settles_do_not_inflate_cache_counters(self):
        # Every submit peeks at the in-flight head; only the final commit
        # registers real cache traffic.
        service = _service()
        for index in range(20):
            service.submit(_request(client_id=f"c{index}"), at=index * 1e-4)
        service.drain()
        stats = service.cache.stats()
        assert stats.misses == 1
        assert stats.writes == 1

    def test_arrival_after_completion_does_not_coalesce(self):
        service = _service()
        service.submit(_request(), at=0.0)
        service.submit(_request(), at=1.0)  # long after the eval completed
        service.drain()
        assert service.coalesced == 0
        assert service.decisions[1].plan.source == "cache"


class TestDegradation:
    def test_queued_past_timeout_is_answered_by_the_watchdog(self):
        service = _service(timeout=0.04)
        service.submit(_request(deadline=10.0), at=0.0)
        service.submit(_request(deadline=11.0), at=0.001)
        service.drain()
        degraded = service.decisions[-1]
        assert degraded.degraded == "timeout"
        assert degraded.plan.source == "fallback"
        assert degraded.completed == pytest.approx(0.001 + 0.04)
        assert service.timeouts == 1
        assert service.evaluations == 1

    def test_watchdog_serves_stale_cache_when_available(self):
        service = _service(timeout=0.04)
        service.decide(_request(deadline=11.0), at=0.0)  # populate the cache
        # Queue the cached question behind a cold evaluation of another
        # archetype, long enough that the watchdog fires first.
        service.submit(_request(task="lstm"), at=1.0)
        service.submit(_request(deadline=11.0), at=1.001)
        service.drain()
        degraded = service.decisions[-1]
        assert degraded.degraded == "timeout"
        assert degraded.plan.source == "cache"

    def test_bounded_queue_rejects_submits_immediately(self):
        service = _service(max_queue=1)
        service.submit(_request(deadline=10.0), at=0.0)
        service.submit(_request(deadline=11.0), at=0.0)
        assert service.rejections == 1
        rejected = service.decisions[-1]
        assert rejected.degraded == "queue_full"
        assert rejected.latency == pytest.approx(COSTS.degraded)
        service.drain()
        assert service.evaluations == 1

    def test_arrivals_must_be_nondecreasing(self):
        service = _service()
        service.submit(_request(), at=1.0)
        with pytest.raises(ConfigurationError):
            service.submit(_request(), at=0.5)

    def test_arrivals_must_be_finite(self):
        service = _service()
        with pytest.raises(ConfigurationError, match="arrival time .*nan"):
            service.submit(_request(), at=float("nan"))
        # The rejected arrival left the order check intact.
        service.submit(_request(), at=1.0)
        with pytest.raises(ConfigurationError, match="nondecreasing"):
            service.submit(_request(), at=0.5)


class TestUnknownArchetypes:
    """A request with no profile fails at its own submit and nowhere else."""

    def test_bad_request_does_not_poison_later_ones(self):
        service = PaceDecisionService(ServiceConfig())
        with pytest.raises(ConfigurationError, match="unknown device 'nano'"):
            service.submit(_request(device="nano"), at=0.0)
        with pytest.raises(ConfigurationError, match="unknown task 'bert'"):
            service.submit(_request(task="bert"), at=0.0)
        good = _request(jobs=50, deadline=60.0, client_id="good")
        service.submit(good, at=0.0)
        service.drain()
        assert [d.request for d in service.decisions] == [good]
        assert service.decisions[0].plan.source == "computed"
        assert service.requests == 1

    def test_failed_submit_changes_nothing(self):
        def resolver(device: str, task: str) -> ArchetypeProfile:
            if device == "nano":
                raise ConfigurationError(f"unknown device {device!r}")
            return _toy_profile(device, task)

        service = PaceDecisionService(ServiceConfig(), profiles=resolver)
        service.submit(_request(client_id="first"), at=0.5)
        before = (service.clock.now, service.requests, len(service._pending))
        with pytest.raises(ConfigurationError, match="'nano'"):
            service.submit(_request(device="nano"), at=2.0)
        assert (service.clock.now, service.requests, len(service._pending)) == before
        # The failed arrival at 2.0 did not move the nondecreasing floor.
        service.submit(_request(client_id="second"), at=1.0)
        service.drain()
        assert [d.request.client_id for d in service.decisions] == ["first", "second"]


class TestConfiguration:
    """Non-finite settings fail at construction, naming the field."""

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf")])
    def test_timeout_must_be_finite(self, timeout):
        with pytest.raises(ConfigurationError, match="timeout must be a finite"):
            ServiceConfig(timeout=timeout)

    @pytest.mark.parametrize(
        "name", ["hit", "evaluate", "per_candidate", "profile_build", "degraded"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_cost_fields_must_be_finite(self, name, value):
        with pytest.raises(ConfigurationError, match=f"cost model field {name} "):
            ServiceCostModel(**{name: value})


class TestLifecycle:
    def test_decide_returns_the_matching_decision(self):
        service = _service()
        request = _request(client_id="me")
        decision = service.decide(request, at=0.0)
        assert decision.request is request

    def test_close_drains_and_reports(self):
        service = _service()
        service.submit(_request(client_id="a"), at=0.0)
        service.submit(_request(client_id="b"), at=0.001)
        stats = service.close()
        assert stats.decisions == 2
        assert stats.requests == 2
        assert stats.coalesced == 1
        assert stats.peak_queue_depth == 1
        assert 0.0 < stats.coalescing_ratio < 1.0

    def test_identical_streams_produce_identical_logs(self):
        def replay() -> list[str]:
            service = _service()
            for index in range(30):
                service.submit(
                    _request(
                        deadline=10.0 + (index % 3),
                        client_id=f"c{index % 5}",
                    ),
                    at=index * 0.002,
                )
            service.drain()
            return [d.log_line() for d in service.decisions]

        assert replay() == replay()
