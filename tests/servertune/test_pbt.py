"""PBT driver tests: determinism, resume, and the frontier artifact.

The load-bearing assertions mirror the CI ``servertune-smoke`` job:
same-seed PBT runs — serial or sharded over workers — must produce
byte-identical deterministic traces, identical surviving populations,
and identical frontier artifacts; an interrupted run resumed from its
serialized :class:`PBTState` must land on exactly the trajectory the
uninterrupted run took.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import runtime as obs
from repro.obs.columnar import write_trace
from repro.servertune.controllers import ServerTuneSpec
from repro.servertune.pbt import (
    PBT_CONTROLLERS,
    SEARCH_SPACE,
    MemberRecord,
    PBTResult,
    PBTSpec,
    PBTState,
    init_population,
    member_rng,
    pareto_front,
    render_frontier_artifact,
    run_pbt,
)
from repro.sim import clear_campaign_cache
from repro.sim.fleet import FleetSpec

#: Tiny on purpose: 2 archetypes means prepare_fleet computes two traces
#: and every member evaluation is a cheap pure composition.
SMALL_FLEET = FleetSpec(n_clients=6, rounds=2, archetypes=2, seed=0)
SMALL_PBT = PBTSpec(population=2, generations=2, seed=0)


@pytest.fixture(scope="module", autouse=True)
def _clean_cache():
    clear_campaign_cache()
    yield
    clear_campaign_cache()


def record(generation=0, member=0, energy=1.0, latency=1.0, score=1.0):
    return MemberRecord(
        generation=generation,
        member=member,
        controller="fedgpo",
        score=score,
        energy_per_aggregation=energy,
        mean_latency=latency,
        aggregations=4,
        total_energy=energy * 4,
        makespan=latency * 4,
        spec=ServerTuneSpec(controller="fedgpo"),
    )


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population": 1},
            {"generations": 0},
            {"exploit_fraction": 0.0},
            {"exploit_fraction": 1.0},
            {"explore_factors": ()},
            {"explore_factors": (0.0,)},
            {"controllers": ()},
            {"controllers": ("static",)},
            {"controllers": ("nope",)},
            {"alpha_energy": -1.0},
            {"alpha_energy": 0.0, "alpha_time": 0.0},
            {"patience": -1},
        ],
    )
    def test_rejects_invalid_configuration(self, kwargs):
        with pytest.raises(ConfigurationError):
            PBTSpec(**kwargs)

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("alpha_time", float("nan")),
            ("alpha_energy", float("nan")),
            ("alpha_time", float("inf")),
        ],
    )
    def test_rejects_non_finite_weights(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            PBTSpec(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("-inf"), 2.7])
    def test_rejects_a_non_whole_patience(self, value):
        with pytest.raises(ConfigurationError, match="patience"):
            PBTSpec(patience=value)

    def test_integral_float_patience_normalizes(self):
        spec = PBTSpec(patience=2.0)
        assert type(spec.patience) is int and spec.to_dict()["patience"] == 2

    def test_elite_count_floors_at_one(self):
        assert PBTSpec(population=2, exploit_fraction=0.25).elite_count == 1
        assert PBTSpec(population=8, exploit_fraction=0.25).elite_count == 2


class TestInitPopulation:
    def test_members_sampled_inside_search_space(self):
        members = init_population(PBTSpec(population=8, seed=3))
        assert len(members) == 8
        for member in members:
            for name, (lo, hi) in SEARCH_SPACE.items():
                assert lo <= getattr(member, name) <= hi

    def test_controllers_seeded_round_robin(self):
        members = init_population(PBTSpec(population=4, seed=0))
        expected = [
            PBT_CONTROLLERS[i % len(PBT_CONTROLLERS)] for i in range(4)
        ]
        assert [m.controller for m in members] == expected

    def test_same_seed_same_population(self):
        spec = PBTSpec(population=6, seed=11)
        assert init_population(spec) == init_population(spec)
        shifted = PBTSpec(population=6, seed=12)
        assert init_population(spec) != init_population(shifted)

    def test_member_rng_is_addressed_not_streamed(self):
        a = member_rng(0, 1, 2).uniform()
        b = member_rng(0, 1, 2).uniform()
        assert a == b
        assert member_rng(0, 1, 3).uniform() != a


class TestParetoFront:
    def test_strictly_dominated_points_removed(self):
        good = record(member=0, energy=1.0, latency=1.0)
        dominated = record(member=1, energy=2.0, latency=2.0)
        tradeoff = record(member=2, energy=0.5, latency=3.0)
        front = pareto_front([good, dominated, tradeoff])
        assert dominated not in front
        assert good in front and tradeoff in front

    def test_ties_survive(self):
        a = record(member=0, energy=1.0, latency=2.0)
        b = record(member=1, energy=1.0, latency=1.0)
        # a is not *strictly* worse on energy, so it survives.
        assert pareto_front([a, b]) == [b, a]

    def test_sorted_by_energy(self):
        points = [
            record(member=i, energy=float(5 - i), latency=float(i + 1))
            for i in range(5)
        ]
        front = pareto_front(points)
        energies = [r.energy_per_aggregation for r in front]
        assert energies == sorted(energies)


class TestStateRoundTrip:
    def test_state_survives_json(self):
        state = PBTState(
            next_generation=2,
            members=init_population(PBTSpec(population=3, seed=5)),
            history=[record(), record(generation=1, member=1, score=0.9)],
        )
        raw = json.loads(json.dumps(state.to_dict(), sort_keys=True))
        assert PBTState.from_dict(raw).to_dict() == state.to_dict()

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            PBTState.from_dict({"kind": "nope"})
        with pytest.raises(ConfigurationError):
            PBTState.from_dict({"kind": "pbt_state", "members": 3})

    def test_from_dict_rejects_a_member_with_nan_patience(self):
        member = ServerTuneSpec(controller="fedtune", patience=2).to_dict()
        text = json.dumps({"kind": "pbt_state", "members": [member]})
        raw = json.loads(text.replace('"patience": 2', '"patience": NaN'))
        with pytest.raises(ConfigurationError, match="patience"):
            PBTState.from_dict(raw)

    @pytest.mark.parametrize("value", [2.7, "x", None, -1, True])
    def test_from_dict_rejects_a_bad_next_generation(self, value):
        with pytest.raises(ConfigurationError, match="next_generation"):
            PBTState.from_dict({"kind": "pbt_state", "next_generation": value})


class TestMemberRecord:
    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("generation", 1.5),
            ("member", "0"),
            ("score", float("nan")),
            ("score", float("-inf")),
            ("mean_latency", float("inf")),
            ("aggregations", True),
            ("total_energy", None),
            ("controller", "pbt"),
            ("spec", "fedgpo"),
        ],
    )
    def test_from_dict_rejects_ill_typed_fields(self, field, value):
        """``"generation": 1.5`` used to truncate to 1 and ``"score": NaN`` to stay."""
        raw = json.loads(json.dumps({**record().to_dict(), field: value}))
        with pytest.raises(ConfigurationError, match=field):
            MemberRecord.from_dict(raw)

    def test_a_member_without_aggregations_scores_infinity(self):
        worst = record(score=float("inf"))
        assert MemberRecord.from_dict(json.loads(json.dumps(worst.to_dict()))) == worst

    def test_the_baseline_round_trips(self):
        baseline = record(generation=-1, member=-1)
        assert MemberRecord.from_dict(baseline.to_dict()) == baseline

    def test_from_dict_names_missing_and_unknown_fields(self):
        raw = record().to_dict()
        with pytest.raises(ConfigurationError, match="missing field 'makespan'"):
            MemberRecord.from_dict({k: v for k, v in raw.items() if k != "makespan"})
        with pytest.raises(ConfigurationError, match="'wall'"):
            MemberRecord.from_dict({**raw, "wall": 1.0})


class TestRunPBT:
    def test_rejects_fleet_with_servertune(self):
        tuned = FleetSpec(
            n_clients=4, rounds=2,
            servertune=ServerTuneSpec(controller="fedgpo"),
        )
        with pytest.raises(ConfigurationError):
            run_pbt(SMALL_PBT, tuned)

    def test_rejects_population_mismatch_on_resume(self):
        state = PBTState(members=init_population(PBTSpec(population=4)))
        with pytest.raises(ConfigurationError):
            run_pbt(SMALL_PBT, SMALL_FLEET, state=state)

    def test_serial_and_sharded_runs_are_byte_identical(self, tmp_path):
        with obs.session(deterministic=True) as session:
            serial = run_pbt(SMALL_PBT, SMALL_FLEET)
        serial_trace = write_trace(tmp_path / "serial.jsonl", session.log)
        with obs.session(deterministic=True) as session:
            sharded = run_pbt(SMALL_PBT, SMALL_FLEET, workers=4)
        sharded_trace = write_trace(tmp_path / "sharded.jsonl", session.log)
        assert serial_trace.read_bytes() == sharded_trace.read_bytes()
        assert serial.to_dict() == sharded.to_dict()
        assert serial.population == sharded.population

    def test_resume_lands_on_the_uninterrupted_trajectory(self):
        full = run_pbt(SMALL_PBT, SMALL_FLEET)
        partial = run_pbt(
            PBTSpec(population=2, generations=1, seed=0), SMALL_FLEET
        )
        resumed = run_pbt(SMALL_PBT, SMALL_FLEET, state=partial.state)
        assert resumed.history == full.history
        assert resumed.population == full.population
        assert resumed.to_dict() == full.to_dict()

    def test_baseline_scores_one_and_members_are_scored_against_it(self):
        result = run_pbt(SMALL_PBT, SMALL_FLEET)
        assert result.baseline.score == 1.0
        assert result.baseline.controller == "static"
        assert len(result.history) == (
            SMALL_PBT.population * SMALL_PBT.generations
        )
        assert all(r.score > 0 for r in result.history)
        assert result.frontier  # never empty: the baseline is a candidate


class TestFrontierArtifact:
    def test_render_round_trips_through_json(self):
        result = run_pbt(SMALL_PBT, SMALL_FLEET)
        raw = json.loads(json.dumps(result.to_dict(), sort_keys=True))
        assert render_frontier_artifact(raw) == result.render()

    def test_rejects_non_artifacts(self):
        with pytest.raises(ConfigurationError):
            render_frontier_artifact({"kind": "pbt_state"})
        with pytest.raises(ConfigurationError):
            render_frontier_artifact({"kind": "pbt_result", "spec": {}})
