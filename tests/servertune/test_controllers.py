"""Unit tests for the server-side knob controllers.

The determinism-critical behaviours pinned here: knob validation, the
static spec's no-op normalization (the cache-key contract), FedGPO's
EWMA-driven widen/tighten moves, and FedTune's direction-reversal plus
patience halt.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.servertune.controllers import (
    DEFAULT_KNOBS,
    FedGPOController,
    FedTuneController,
    RoundFeedback,
    ServerKnobs,
    ServerTuneSpec,
    StaticKnobs,
    make_server_controller,
    normalize_servertune,
)


def feedback(
    round_index=0,
    participants=10,
    buffered=10,
    stragglers=0,
    energy=100.0,
    latency=10.0,
):
    return RoundFeedback(
        round_index=round_index,
        participants=participants,
        buffered=buffered,
        stragglers=stragglers,
        energy=energy,
        latency=latency,
    )


class TestServerKnobs:
    def test_defaults_are_identity(self):
        assert DEFAULT_KNOBS.is_default
        assert ServerKnobs(deadline_scale=1.1).is_default is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_scale": 0.0},
            {"deadline_scale": -1.0},
            {"participation": 0.0},
            {"participation": 1.5},
            {"buffer_scale": 0.0},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServerKnobs(**kwargs)

    @pytest.mark.parametrize("name", ["deadline_scale", "buffer_scale"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_scales_by_name(self, name, value):
        # ``nan <= 0`` is False: a NaN buffer scale used to reach the async
        # drain's ``round(threshold * nan)`` as a bare ValueError.
        with pytest.raises(ConfigurationError, match=f"{name} must be a finite positive"):
            ServerKnobs(**{name: value})


class TestRoundFeedback:
    def test_straggler_rate_and_energy_per_report(self):
        fb = feedback(participants=8, buffered=6, stragglers=2, energy=120.0)
        assert fb.straggler_rate == pytest.approx(0.25)
        assert fb.energy_per_report == pytest.approx(20.0)

    def test_degenerate_rounds_do_not_divide_by_zero(self):
        fb = feedback(participants=0, buffered=0, stragglers=0, energy=5.0)
        assert fb.straggler_rate == 0.0
        assert fb.energy_per_report == 5.0


class TestServerTuneSpec:
    def test_static_is_default(self):
        assert ServerTuneSpec().is_static
        assert not ServerTuneSpec(controller="fedgpo").is_static

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"controller": "nope"},
            {"deadline_step": 0.0},
            {"deadline_step": 1.0},
            {"participation_step": -0.1},
            {"straggler_upper": 0.05, "straggler_lower": 0.25},
            {"smoothing": 0.0},
            {"alpha_time": -1.0},
            {"alpha_time": 0.0, "alpha_energy": 0.0},
            {"patience": -1},
            {"min_deadline_scale": 0.0},
            {"min_deadline_scale": 1.2},
            {"max_deadline_scale": 0.9},
            {"min_participation": 0.0},
        ],
    )
    def test_rejects_invalid_configuration(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServerTuneSpec(**kwargs)

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("alpha_time", float("nan")),
            ("alpha_energy", float("nan")),
            ("alpha_energy", float("inf")),
            ("max_deadline_scale", float("inf")),
        ],
    )
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ServerTuneSpec(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 2.7, "3"])
    def test_rejects_a_non_whole_patience(self, value):
        with pytest.raises(ConfigurationError, match="patience"):
            ServerTuneSpec(controller="fedtune", patience=value)

    def test_from_dict_rejects_a_nan_patience(self):
        raw = json.loads('{"controller": "fedtune", "patience": NaN}')
        with pytest.raises(ConfigurationError, match="patience"):
            ServerTuneSpec.from_dict(raw)

    def test_integral_float_patience_normalizes(self):
        spec = ServerTuneSpec.from_dict({"controller": "fedtune", "patience": 3.0})
        assert type(spec.patience) is int and spec.patience == 3
        assert spec.to_dict()["patience"] == 3

    def test_to_dict_round_trips(self):
        spec = ServerTuneSpec(
            controller="fedtune", deadline_step=0.2, patience=4, smoothing=0.7
        )
        assert ServerTuneSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            ServerTuneSpec.from_dict("not a dict")
        with pytest.raises(ConfigurationError):
            ServerTuneSpec.from_dict({"controller": "fedgpo", "bogus": 1})

    def test_normalize_maps_static_to_none(self):
        assert normalize_servertune(None) is None
        assert normalize_servertune(ServerTuneSpec()) is None
        adaptive = ServerTuneSpec(controller="fedgpo")
        assert normalize_servertune(adaptive) is adaptive


class TestMakeServerController:
    def test_dispatch(self):
        assert isinstance(make_server_controller(None), StaticKnobs)
        assert isinstance(
            make_server_controller(ServerTuneSpec()), StaticKnobs
        )
        assert isinstance(
            make_server_controller(ServerTuneSpec(controller="fedgpo")),
            FedGPOController,
        )
        assert isinstance(
            make_server_controller(ServerTuneSpec(controller="fedtune")),
            FedTuneController,
        )


class TestStaticKnobs:
    def test_always_identity(self):
        controller = StaticKnobs(ServerTuneSpec())
        for i in range(5):
            controller.observe(feedback(round_index=i, stragglers=10))
            assert controller.knobs_for(i) is DEFAULT_KNOBS


class TestFedGPO:
    def spec(self, **kwargs):
        kwargs.setdefault("controller", "fedgpo")
        return ServerTuneSpec(**kwargs)

    def test_straggler_heavy_rounds_widen_the_deadline(self):
        controller = FedGPOController(self.spec(deadline_step=0.2))
        controller.observe(feedback(participants=10, buffered=4, stragglers=6))
        knobs = controller.knobs_for(1)
        assert knobs.deadline_scale == pytest.approx(1.2)

    def test_comfortable_rounds_tighten_and_shed_participants(self):
        controller = FedGPOController(
            self.spec(deadline_step=0.1, participation_step=0.2)
        )
        controller.observe(feedback(stragglers=0))
        knobs = controller.knobs_for(1)
        assert knobs.deadline_scale == pytest.approx(0.9)
        assert knobs.participation == pytest.approx(0.8)

    def test_between_thresholds_holds_steady(self):
        controller = FedGPOController(
            self.spec(straggler_lower=0.05, straggler_upper=0.5)
        )
        controller.observe(feedback(participants=10, buffered=9, stragglers=1))
        assert controller.knobs_for(1) == controller.knobs_for(0)
        assert controller.knobs_for(1).deadline_scale == pytest.approx(1.0)

    def test_knobs_for_is_a_pure_read(self):
        controller = FedGPOController(self.spec())
        controller.observe(feedback(stragglers=10, buffered=0))
        first = controller.knobs_for(1)
        for _ in range(3):
            assert controller.knobs_for(1) == first

    def test_clamped_into_declared_bounds(self):
        spec = self.spec(
            deadline_step=0.3,
            participation_step=0.3,
            min_deadline_scale=0.7,
            max_deadline_scale=1.4,
            min_participation=0.5,
        )
        widen = FedGPOController(spec)
        tighten = FedGPOController(spec)
        for i in range(20):
            widen.observe(feedback(round_index=i, buffered=0, stragglers=10))
            tighten.observe(feedback(round_index=i, stragglers=0))
        assert widen.knobs_for(20).deadline_scale == pytest.approx(1.4)
        assert tighten.knobs_for(20).deadline_scale == pytest.approx(0.7)
        assert tighten.knobs_for(20).participation == pytest.approx(0.5)

    def test_reset_restores_initial_state(self):
        controller = FedGPOController(self.spec())
        controller.observe(feedback(buffered=0, stragglers=10))
        assert not controller.knobs_for(1).is_default
        controller.reset()
        assert controller.knobs_for(0).is_default
        assert controller.straggler_ewma is None


class TestFedTune:
    def spec(self, **kwargs):
        kwargs.setdefault("controller", "fedtune")
        return ServerTuneSpec(**kwargs)

    def test_initial_direction_tightens(self):
        controller = FedTuneController(self.spec(deadline_step=0.1))
        controller.observe(feedback(energy=100.0, latency=10.0))
        assert controller.knobs_for(1).deadline_scale == pytest.approx(0.9)

    def test_worsening_score_reverses_course(self):
        controller = FedTuneController(self.spec(deadline_step=0.1))
        controller.observe(feedback(energy=100.0, latency=10.0))
        tightened = controller.knobs_for(1).deadline_scale
        # Much worse round: the controller must reverse, moving back up.
        controller.observe(feedback(energy=500.0, latency=50.0))
        assert controller.knobs_for(2).deadline_scale > tightened

    def test_patience_raises_the_halt_knob(self):
        controller = FedTuneController(self.spec(patience=2))
        controller.observe(feedback(energy=100.0, latency=10.0))
        assert not controller.halted
        for i in range(1, 4):
            controller.observe(
                feedback(round_index=i, energy=200.0, latency=20.0)
            )
        assert controller.halted
        assert controller.knobs_for(5).halt

    def test_zero_patience_never_halts(self):
        controller = FedTuneController(self.spec(patience=0))
        for i in range(10):
            controller.observe(
                feedback(round_index=i, energy=200.0, latency=20.0)
            )
        assert not controller.halted

    def test_score_before_baseline_raises(self):
        controller = FedTuneController(self.spec())
        with pytest.raises(ConfigurationError):
            controller._score(feedback())

    def test_reset_restores_initial_state(self):
        controller = FedTuneController(self.spec(patience=1))
        for i in range(4):
            controller.observe(feedback(round_index=i, energy=200.0 + i))
        assert controller.halted
        controller.reset()
        assert not controller.halted
        assert controller.knobs_for(0).is_default
