"""Trace replay, and the ISSUE acceptance cross-check.

The load-bearing tests here record a real ``agx/vit/bofl`` campaign into
a JSONL trace, replay it, and assert that the trace-derived Table 3 rows
and Fig. 13 overhead fractions agree *exactly* (same floats, same
summation order) with what the ``tab3_walkthrough`` and ``fig13_overhead``
drivers compute from the campaign results directly.
"""

import weakref

import pytest

from repro.errors import ConfigurationError
from repro.experiments import fig13_overhead, tab3_walkthrough
from repro.obs import runtime as obs
from repro.obs.columnar import write_trace
from repro.obs.events import Event, read_jsonl
from repro.obs.trace import (
    derive_overhead_fractions,
    derive_tab3_counts,
    fig13_payload_from_trace,
    find_campaign,
    render_summary,
    render_view,
    replay_campaigns,
    tab3_payload_from_trace,
)

ROUNDS = 8
SEED = 0


@pytest.fixture(scope="module")
def traced_events(tmp_path_factory):
    """Record one real agx/vit/bofl campaign and round-trip it through JSONL."""
    from repro.sim.runner import run_campaign

    with obs.session() as session:
        result = run_campaign(
            "agx", "vit", "bofl", 2.0, rounds=ROUNDS, seed=SEED, use_cache=False
        )
    path = write_trace(tmp_path_factory.mktemp("trace") / "campaign.jsonl", session.log)
    return read_jsonl(path), result


class TestReplay:
    def test_one_campaign_with_all_rounds(self, traced_events):
        events, result = traced_events
        [trace] = replay_campaigns(events)
        assert trace.device == "agx"
        assert trace.task == "vit"
        assert trace.controller == "bofl"
        assert trace.deadline_ratio == 2.0
        assert len(trace.rounds) == ROUNDS

    def test_energies_survive_the_round_trip_exactly(self, traced_events):
        events, result = traced_events
        [trace] = replay_campaigns(events)
        assert trace.training_energy == result.training_energy
        assert trace.mbo_energy == result.mbo_energy
        assert trace.total_energy == result.total_energy

    def test_explored_configs_decode_to_tuples(self, traced_events):
        events, result = traced_events
        [trace] = replay_campaigns(events)
        for round_trace, record in zip(trace.rounds, result.records):
            assert len(round_trace.explored) == record.explored_count
            for config, original in zip(round_trace.explored, record.explored):
                assert config == original.as_tuple()

    def test_find_campaign_filters(self, traced_events):
        events, _ = traced_events
        traces = replay_campaigns(events)
        assert find_campaign(traces, task="vit").task == "vit"
        with pytest.raises(ConfigurationError):
            find_campaign(traces, task="resnet50")


class TestTab3CrossCheck:
    """ISSUE acceptance: trace-derived Table 3 == driver Table 3."""

    def test_payload_matches_driver_exactly(self, traced_events):
        events, _ = traced_events
        driver = tab3_walkthrough.run(
            ratio=2.0, device="agx", tasks=("vit",), rounds=ROUNDS, seed=SEED
        )
        derived = tab3_payload_from_trace(replay_campaigns(events))
        assert derived == driver

    def test_rendered_table_matches_driver(self, traced_events):
        events, _ = traced_events
        driver = tab3_walkthrough.run(
            ratio=2.0, device="agx", tasks=("vit",), rounds=ROUNDS, seed=SEED
        )
        assert render_view(events, "tab3") == tab3_walkthrough.render(driver)

    def test_derive_tab3_counts_matches_records(self, traced_events):
        events, result = traced_events
        [trace] = replay_campaigns(events)
        rows = derive_tab3_counts(trace)
        pre_exploit = [r for r in result.records if r.phase != "exploitation"]
        assert len(rows) == len(pre_exploit)
        for (index, phase, explored, pareto), record in zip(rows, pre_exploit):
            assert index == record.round_index
            assert phase == record.phase
            assert explored == record.explored_count
            assert pareto == record.explored_on_final_front

    def test_requires_a_bofl_campaign(self):
        with pytest.raises(ConfigurationError, match="no bofl campaign"):
            tab3_payload_from_trace([])


class TestFig13CrossCheck:
    """ISSUE acceptance: trace-derived Fig. 13 == driver Fig. 13."""

    def test_payload_matches_driver_exactly(self, traced_events):
        events, _ = traced_events
        driver = fig13_overhead.run(
            devices=("agx",), tasks=("vit",), ratio=2.0, rounds=ROUNDS, seed=SEED
        )
        derived = fig13_payload_from_trace(replay_campaigns(events))
        assert derived == driver

    def test_rendered_figure_matches_driver(self, traced_events):
        events, _ = traced_events
        driver = fig13_overhead.run(
            devices=("agx",), tasks=("vit",), ratio=2.0, rounds=ROUNDS, seed=SEED
        )
        assert render_view(events, "fig13") == fig13_overhead.render(driver)

    def test_overhead_fraction_matches_result(self, traced_events):
        events, result = traced_events
        traces = replay_campaigns(events)
        fractions = derive_overhead_fractions(traces)
        assert fractions[("agx", "vit")] == result.mbo_energy / result.total_energy

    def test_requires_a_bofl_campaign(self):
        with pytest.raises(ConfigurationError, match="no bofl campaign"):
            fig13_payload_from_trace([])


class _OneShot:
    """A one-shot event source that counts how many of its events are alive.

    Each event it yields is a fresh copy, so ``peak`` is the most events a
    consumer held at once.
    """

    def __init__(self, events):
        self._events = events
        self._iterated = False
        self.alive = 0
        self.peak = 0

    def _release(self):
        self.alive -= 1

    def __iter__(self):
        assert not self._iterated, "a one-shot stream was read twice"
        self._iterated = True
        for event in self._events:
            copy = Event(kind=event.kind, t=event.t, payload=dict(event.payload))
            weakref.finalize(copy, self._release)
            self.alive += 1
            self.peak = max(self.peak, self.alive)
            yield copy


class TestStreaming:
    @pytest.mark.parametrize("view", ["summary", "tab3", "fig13"])
    def test_view_renders_from_a_one_shot_iterator(self, traced_events, view):
        """The campaign views hold one campaign's events, never the stream:
        the bracketed campaign sits between two runs of unbracketed events."""
        events, _ = traced_events
        filler = [Event(kind="executor.cell", t=float(i), payload={"cell": i}) for i in range(500)]
        stream = filler + events + filler
        source = _OneShot(stream)
        assert render_view(iter(source), view) == render_view(stream, view)
        # The open campaign, the event in hand and the one being copied.
        assert source.peak <= len(events) + 2


class TestSummaryView:
    def test_summary_lists_kinds_and_campaigns(self, traced_events):
        events, _ = traced_events
        text = render_summary(events)
        assert "controller.round" in text
        assert "agx/vit/bofl" in text
        assert "per-round energy" in text

    def test_empty_trace_summary(self):
        assert render_summary([]) == "(empty trace)"

    def test_summary_without_campaign_brackets(self):
        text = render_summary([Event(kind="executor.cell", payload={"seconds": 1})])
        assert "executor.cell" in text

    def test_unknown_view_rejected(self, traced_events):
        events, _ = traced_events
        with pytest.raises(ConfigurationError, match="unknown trace view"):
            render_view(events, "fig99")
