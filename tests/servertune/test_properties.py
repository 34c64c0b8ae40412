"""Property-based (Hypothesis) tests for the servertune subsystem.

The contracts pinned as properties rather than examples:

* every knob a controller ever emits lies inside the bounds its spec
  declares, for arbitrary feedback sequences;
* controllers are deterministic state machines — identical spec +
  identical feedback sequence means an identical knob trajectory, in
  any process (they carry no RNG at all);
* the static spec is a true no-op: it normalizes out of cache keys and
  reproduces pre-subsystem campaign records byte-for-byte.

CI runs these with ``--hypothesis-seed=0`` for reproducible examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.servertune.controllers import (
    RoundFeedback,
    ServerTuneSpec,
    make_server_controller,
    normalize_servertune,
)

POSITIVE = st.floats(
    min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
)
COUNTS = st.integers(min_value=0, max_value=200)


@st.composite
def feedback_sequences(draw, max_rounds=12):
    """Arbitrary (but internally consistent) round feedback histories."""
    n_rounds = draw(st.integers(min_value=1, max_value=max_rounds))
    sequence = []
    for index in range(n_rounds):
        participants = draw(st.integers(min_value=1, max_value=200))
        stragglers = draw(st.integers(min_value=0, max_value=participants))
        buffered = participants - stragglers
        sequence.append(
            RoundFeedback(
                round_index=index,
                participants=participants,
                buffered=buffered,
                stragglers=stragglers,
                energy=draw(POSITIVE),
                latency=draw(POSITIVE),
            )
        )
    return sequence


@st.composite
def adaptive_specs(draw):
    """Valid non-static specs across the whole configuration surface."""
    controller = draw(st.sampled_from(["fedgpo", "fedtune"]))
    lower = draw(st.floats(min_value=0.01, max_value=0.2))
    upper = draw(st.floats(min_value=0.25, max_value=0.9))
    return ServerTuneSpec(
        controller=controller,
        deadline_step=draw(st.floats(min_value=0.01, max_value=0.9)),
        participation_step=draw(st.floats(min_value=0.01, max_value=0.9)),
        straggler_lower=lower,
        straggler_upper=upper,
        smoothing=draw(st.floats(min_value=0.05, max_value=1.0)),
        patience=draw(st.integers(min_value=0, max_value=4)),
        min_deadline_scale=draw(st.floats(min_value=0.1, max_value=1.0)),
        max_deadline_scale=draw(st.floats(min_value=1.0, max_value=4.0)),
        min_participation=draw(st.floats(min_value=0.05, max_value=1.0)),
    )


class TestKnobBounds:
    @settings(deadline=None, max_examples=60)
    @given(spec=adaptive_specs(), sequence=feedback_sequences())
    def test_knobs_stay_inside_declared_bounds(self, spec, sequence):
        controller = make_server_controller(spec)
        for step, feedback in enumerate(sequence):
            knobs = controller.knobs_for(step)
            assert (
                spec.min_deadline_scale - 1e-9
                <= knobs.deadline_scale
                <= spec.max_deadline_scale + 1e-9
            )
            assert (
                spec.min_participation - 1e-9
                <= knobs.participation
                <= 1.0 + 1e-9
            )
            assert knobs.buffer_scale > 0.0
            controller.observe(feedback)
        final = controller.knobs_for(len(sequence))
        assert spec.min_deadline_scale - 1e-9 <= final.deadline_scale


class TestTrajectoryDeterminism:
    @settings(deadline=None, max_examples=60)
    @given(spec=adaptive_specs(), sequence=feedback_sequences())
    def test_identical_feedback_means_identical_trajectory(
        self, spec, sequence
    ):
        """Controllers carry no RNG: the trajectory is a pure function of
        (spec, feedback), so two independent instances stay in lockstep."""
        first = make_server_controller(spec)
        second = make_server_controller(spec)
        for step, feedback in enumerate(sequence):
            assert first.knobs_for(step) == second.knobs_for(step)
            first.observe(feedback)
            second.observe(feedback)
        assert first.knobs_for(len(sequence)) == second.knobs_for(len(sequence))

    @settings(deadline=None, max_examples=60)
    @given(spec=adaptive_specs(), sequence=feedback_sequences())
    def test_reset_replays_the_same_trajectory(self, spec, sequence):
        controller = make_server_controller(spec)
        first_pass = []
        for step, feedback in enumerate(sequence):
            first_pass.append(controller.knobs_for(step))
            controller.observe(feedback)
        controller.reset()
        for step, feedback in enumerate(sequence):
            assert controller.knobs_for(step) == first_pass[step]
            controller.observe(feedback)


class TestStaticIsANoOp:
    """The static spec must be indistinguishable from no subsystem at all."""

    def test_static_spec_normalizes_out_of_cache_keys(self):
        from repro.sim.runner import CampaignSpec

        bare = CampaignSpec("agx", "vit", "performant", 2.0, 3, 0)
        static = CampaignSpec(
            "agx", "vit", "performant", 2.0, 3, 0,
            servertune=normalize_servertune(ServerTuneSpec()),
        )
        assert bare == static

    def test_static_spec_reproduces_pre_subsystem_records(self, tmp_path):
        """Same records, and the byte-identical deterministic trace."""
        from repro.obs import runtime as obs
        from repro.obs.columnar import write_trace
        from repro.sim import clear_campaign_cache
        from repro.sim.runner import run_campaign

        clear_campaign_cache()
        with obs.session(deterministic=True) as session:
            bare = run_campaign(
                "agx", "vit", "performant", 2.0,
                rounds=3, seed=0, use_cache=False,
            )
        bare_trace = write_trace(tmp_path / "bare.jsonl", session.log)
        with obs.session(deterministic=True) as session:
            static = run_campaign(
                "agx", "vit", "performant", 2.0,
                rounds=3, seed=0, use_cache=False,
                servertune=ServerTuneSpec(),
            )
        static_trace = write_trace(tmp_path / "static.jsonl", session.log)
        assert static.records == bare.records
        assert static.total_energy == bare.total_energy
        assert static_trace.read_bytes() == bare_trace.read_bytes()
