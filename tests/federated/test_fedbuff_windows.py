"""Hypothesis differential suite for the FedBuff window resolver.

The async drain resolves one aggregation window at a time over the
static pop order: knobs read after each commit, the close found by
``searchsorted`` on a prefix count, stale reports pushing it further, and
a halt summing in-flight energy in the heap's list order.  Every one of
those rules is a place to be off by one report or one float bit, so this
suite composes adversarially tie-heavy fleets (integer times, a link
with zero variability, missed and dropped rounds) under drawn buffer
sizes, staleness bounds and scripted controllers, and holds
:meth:`AsyncFederationEngine.run` byte-identical to the per-event oracle
``reference_run`` in both ``detail`` modes.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import RoundRecord
from repro.federated.async_engine import AsyncFederationEngine, FleetClient
from repro.federated.transport import LinkModel
from repro.obs import runtime as obs
from repro.servertune.controllers import ServerController, ServerKnobs, ServerTuneSpec
from repro.sim.fleet import FleetSpec, fleet_summary
from tests.federated.reference_fleet import reference_run

#: Upload time is exactly 1.0 s: arrival times stay integers, so ties
#: between clients (and within one) are the norm.
TIE_LINK = dict(bandwidth_mbps=10.0, variability=0.0, latency=0.0)


class ScriptedController(ServerController):
    """Knobs from a script: a cycle of buffer scales and an optional halt."""

    def __init__(self, scales, halt_at):
        self.scales = scales
        self.halt_at = halt_at
        self.feedback = []
        super().__init__(ServerTuneSpec(controller="fedgpo"))

    def knobs_for(self, round_index):
        return ServerKnobs(
            buffer_scale=self.scales[round_index % len(self.scales)],
            halt=self.halt_at is not None and round_index >= self.halt_at,
        )

    def observe(self, feedback):
        self.feedback.append(feedback)


record = st.builds(
    lambda elapsed, energy, fate: (elapsed, energy, fate),
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0.1, max_value=1000.0),
    st.sampled_from(["ok", "ok", "ok", "missed", "dropped"]),
)

fleets = st.lists(st.lists(record, max_size=5), min_size=1, max_size=10)

#: ``(buffer scales, halt round)``; early halts leave many reports in
#: flight, which is where the heap's list order shows in the energy sum.
controllers = st.one_of(
    st.none(),
    st.tuples(
        st.lists(st.sampled_from([0.4, 1.0, 1.6, 2.5]), min_size=1, max_size=3),
        st.sampled_from([None, 0, 0, 1, 2, 3, 5]),
    ),
)


def make_clients(fleet):
    return [
        FleetClient(
            client_id=f"c{i}",
            index=i,
            device="agx",
            task="vit",
            controller="bofl",
            trace_seed=i,
            n_samples=10 + i,
            model_size_mbit=10.0,
            upload_seed=i,
            records=[
                RoundRecord(
                    round_index=r,
                    phase="dropped" if fate == "dropped" else "exploit",
                    deadline=2.0 * elapsed,
                    jobs=1,
                    elapsed=float(elapsed),
                    energy=energy,
                    missed=fate == "missed",
                )
                for r, (elapsed, energy, fate) in enumerate(records)
            ],
        )
        for i, records in enumerate(fleet)
    ]


def compose(clients, run, *, script, detail="reports", **knobs):
    """(result json, summary json, trace lines, controller feedback)."""
    controller = None if script is None else ScriptedController(*script)
    engine = AsyncFederationEngine(
        clients,
        mode="async",
        link=LinkModel(**TIE_LINK),
        controller=controller,
        detail=detail,
        **knobs,
    )
    with obs.session(deterministic=True) as session:
        result = run(engine, 5)
        trace = [json.dumps(e.to_dict(), sort_keys=True) for e in session.log]
    summary = fleet_summary(FleetSpec(mode="async"), result)
    return (
        json.dumps(result.to_dict(), sort_keys=True),
        json.dumps(summary, sort_keys=True),
        trace,
        None if controller is None else controller.feedback,
    )


@settings(max_examples=250, deadline=None)
@given(
    fleet=fleets,
    buffer_size=st.integers(min_value=1, max_value=5),
    max_staleness=st.sampled_from([None, 0, 1, 2]),
    script=controllers,
)
def test_windows_match_the_per_event_drain(fleet, buffer_size, max_staleness, script):
    clients = make_clients(fleet)
    knobs = dict(buffer_size=buffer_size, max_staleness=max_staleness)
    ref_dict, ref_summary, ref_trace, ref_feedback = compose(
        clients, reference_run, script=script, **knobs
    )
    run_dict, run_summary, run_trace, run_feedback = compose(
        clients, AsyncFederationEngine.run, script=script, **knobs
    )
    assert run_dict == ref_dict
    assert run_summary == ref_summary
    assert run_trace == ref_trace
    assert run_feedback == ref_feedback
    _, stats_summary, stats_trace, stats_feedback = compose(
        clients, AsyncFederationEngine.run, script=script, detail="stats", **knobs
    )
    assert stats_summary == ref_summary
    assert stats_trace == ref_trace
    assert stats_feedback == ref_feedback
