"""Tests for the deterministic load generator and its reports."""

import json
import math

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.service import fleet_requests, quantile, run_loadtest
from repro.sim.fleet import FleetSpec
from tests.service.reference_loadgen import reference_fleet_requests

SPEC = FleetSpec(n_clients=12, rounds=2, seed=7)

#: Arrival rates for the reference comparison (requests per second).
RATES = (0.5, 200.0, 1000.0, 7919.25)


@pytest.fixture(scope="module")
def report():
    return run_loadtest(SPEC, rate=200.0, passes=2)


class TestQuantile:
    def test_nearest_rank_percentiles(self):
        values = [float(v) for v in range(1, 101)]
        assert quantile(values, 0.50) == 50.0
        assert quantile(values, 0.99) == 99.0
        assert quantile(values, 1.00) == 100.0

    def test_unsorted_input_and_edge_cases(self):
        assert quantile([3.0, 1.0, 2.0], 0.5) == 2.0
        assert quantile([], 0.5) == 0.0
        assert quantile([7.0], 0.01) == 7.0
        with pytest.raises(ConfigurationError):
            quantile([1.0], 0.0)
        with pytest.raises(ConfigurationError):
            quantile([1.0], 1.5)


class TestFleetRequests:
    def test_one_request_per_client_round(self):
        trace = fleet_requests(SPEC, rate=200.0)
        assert len(trace) == SPEC.n_clients * SPEC.rounds

    def test_offsets_are_sorted_and_nonnegative(self):
        trace = fleet_requests(SPEC, rate=200.0)
        offsets = [t.offset for t in trace]
        assert offsets == sorted(offsets)
        assert offsets[0] >= 0.0

    def test_stream_is_seed_deterministic(self):
        assert fleet_requests(SPEC, rate=200.0) == fleet_requests(SPEC, rate=200.0)
        other = fleet_requests(
            FleetSpec(n_clients=12, rounds=2, seed=8), rate=200.0
        )
        assert other != fleet_requests(SPEC, rate=200.0)

    def test_archetype_mates_ask_identical_questions(self):
        trace = fleet_requests(SPEC, rate=200.0)
        by_round: dict[tuple, set] = {}
        for timed in trace:
            request = timed.request
            key = (request.device, request.task, request.deadline)
            by_round.setdefault((request.device, request.task), set()).add(key)
        # 12 clients over 6 (device, task) archetypes: per archetype the
        # deadline set has exactly `rounds` distinct values, shared by
        # both clients of the archetype.
        assert len(by_round) == 6
        for keys in by_round.values():
            assert len(keys) == SPEC.rounds

    def test_rate_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            fleet_requests(SPEC, rate=0.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_rate_must_be_finite(self, rate):
        with pytest.raises(ConfigurationError, match=f"rate .*{rate}"):
            fleet_requests(SPEC, rate=rate)


class TestStreamMatchesReference:
    """The array-built stream equals the per-client loop kept in tests/."""

    @pytest.mark.parametrize("seed", range(10))
    def test_offsets_order_and_every_field(self, seed):
        for n_clients in (1, 7, 60, 1000):
            # Every rate on the small fleets, one (rotating by seed) on 1,000.
            rates = RATES if n_clients < 1000 else (RATES[seed % len(RATES)],)
            for archetypes in (12, None):
                for chaos in (0.0, 0.3):
                    spec = FleetSpec(
                        n_clients=n_clients, rounds=3, seed=seed,
                        archetypes=archetypes, chaos_fraction=chaos,
                    )
                    for rate in rates:
                        got = fleet_requests(spec, rate)
                        want = reference_fleet_requests(spec, rate)
                        assert all(type(t.offset) is float for t in got)
                        assert [t.offset.hex() for t in got] == [
                            t.offset.hex() for t in want
                        ]
                        assert [t.request for t in got] == [t.request for t in want]
                        assert [t.request.deadline.hex() for t in got] == [
                            t.request.deadline.hex() for t in want
                        ]


class TestRunLoadtest:
    def test_replays_are_byte_identical(self, report):
        again = run_loadtest(SPEC, rate=200.0, passes=2)
        assert report.decision_log_lines() == again.decision_log_lines()

    def test_counts_and_passes(self, report):
        assert report.requests == SPEC.n_clients * SPEC.rounds * 2
        assert [p.index for p in report.per_pass] == [1, 2]
        assert sum(p.requests for p in report.per_pass) == report.requests

    def test_second_pass_is_warm(self, report):
        cold, warm = report.per_pass
        assert warm.cache_hit_rate >= 0.5
        assert warm.cache_hit_rate > cold.cache_hit_rate
        assert warm.p99 <= cold.p99

    def test_latency_percentiles_are_ordered(self, report):
        assert 0.0 < report.p50 <= report.p99 <= report.max

    def test_report_serializes(self, tmp_path, report):
        path = report.write_json(tmp_path / "report.json")
        payload = json.loads(path.read_text())
        assert payload["requests"] == report.requests
        assert payload["p99_latency_s"] == report.p99
        assert len(payload["passes_detail"]) == 2
        assert "Loadtest summary" in report.render()

    def test_decision_log_round_trips(self, tmp_path, report):
        path = report.write_decision_log(tmp_path / "decisions.jsonl")
        lines = path.read_text().splitlines()
        assert lines == report.decision_log_lines()
        assert all(json.loads(line)["seq"] >= 1 for line in lines)

    def test_passes_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            run_loadtest(SPEC, passes=0)


def service_view(path):
    return obs.render_view(obs.iter_trace_events(path), "service")


class TestTraceReplay:
    def test_summary_recomputes_from_the_trace_alone(self, tmp_path):
        with obs.session(deterministic=True) as session:
            report = run_loadtest(SPEC, rate=200.0, passes=2)
        path = obs.write_trace(tmp_path / "service.jsonl", session.log)
        rendered = service_view(path)
        assert f"decisions        : {report.requests}" in rendered
        assert f"p50 {report.p50 * 1e3:.3f} ms" in rendered
        assert f"p99 {report.p99 * 1e3:.3f} ms" in rendered

    def test_columnar_copy_renders_the_same(self, tmp_path):
        with obs.session(deterministic=True) as session:
            run_loadtest(SPEC, rate=200.0, passes=2)
        jsonl = obs.write_trace(tmp_path / "service.jsonl", session.log)
        columnar = obs.write_trace(tmp_path / "service.col", obs.read_jsonl(jsonl))
        assert service_view(columnar) == service_view(jsonl)

    def test_serviceless_trace_fails_cleanly(self, tmp_path):
        with obs.session(deterministic=True) as session:
            obs.emit("campaign.start", t=0.0)
        path = obs.write_trace(tmp_path / "empty.jsonl", session.log)
        with pytest.raises(ConfigurationError, match="no service.decision"):
            service_view(path)
