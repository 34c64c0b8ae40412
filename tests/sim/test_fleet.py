"""Unit tests for the fleet orchestration layer (repro.sim.fleet)."""

import dataclasses
import math

import pytest

from repro.errors import ConfigurationError
from repro.obs import runtime as obs
from repro.sim import clear_campaign_cache
from repro.sim.fleet import (
    FLEET_SELECTORS,
    FleetSpec,
    build_fleet_clients,
    campaign_spec_for,
    client_slot,
    compose_fleet,
    fleet_report_from_trace,
    fleet_summary,
    prepare_fleet,
    render_fleet_summary,
    run_fleet,
)

#: A fleet cheap enough for unit tests: performant-only pacing, few
#: archetypes, so trace gathering is a couple of fast campaigns.
TINY = dict(
    n_clients=8,
    rounds=2,
    controllers=("performant",),
    archetypes=2,
    deadline_ratio=2.5,
)


class TestFleetSpecValidation:
    def test_defaults_are_valid(self):
        spec = FleetSpec()
        assert spec.mode == "sync"
        assert spec.selector in FLEET_SELECTORS

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_clients=0),
            dict(rounds=0),
            dict(mode="firehose"),
            dict(deadline_ratio=0.0),
            dict(devices=()),
            dict(tasks=("transformer-xxl",)),
            dict(controllers=()),
            dict(archetypes=0),
            dict(participants=0),
            dict(over_selection=0.9),
            dict(buffer_size=0),
            dict(staleness_exponent=-0.1),
            dict(max_staleness=-1),
            dict(selector="psychic"),
            dict(chaos_fraction=1.5),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigurationError):
            FleetSpec(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field", ["deadline_ratio", "over_selection", "staleness_exponent"]
    )
    def test_rejects_non_finite_floats(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be .*finite"):
            FleetSpec(**{field: value})

    def test_effective_participants_caps_at_fleet_size(self):
        assert FleetSpec(n_clients=10).effective_participants() == 10
        assert FleetSpec(n_clients=10, participants=4).effective_participants() == 4
        assert FleetSpec(n_clients=10, participants=40).effective_participants() == 10


class TestClientSlot:
    def test_interleaved_cycles_and_archetype_pooling(self):
        spec = FleetSpec(
            n_clients=13, devices=("agx", "tx2"), tasks=("vit", "lstm", "resnet50"),
            controllers=("bofl", "performant"), archetypes=5, seed=10,
        )
        assert client_slot(spec, 0) == ("agx", "vit", "bofl", 0, 10, "client-0000")
        assert client_slot(spec, 7) == ("tx2", "vit", "performant", 2, 12, "client-0007")
        assert client_slot(spec, 9) == ("tx2", "lstm", "performant", 4, 14, "client-0009")
        unpooled = dataclasses.replace(spec, archetypes=None)
        assert client_slot(unpooled, 7)[3:5] == (7, 17)

    def test_population_takes_its_clients_from_the_slots(self):
        spec = FleetSpec(n_clients=30, archetypes=4, seed=3, chaos_fraction=0.5)
        for client in build_fleet_clients(spec):
            device, task, controller, _, trace_seed, client_id = client_slot(
                spec, client.index
            )
            assert (device, task, controller, trace_seed, client_id) == (
                client.device, client.task, client.controller,
                client.trace_seed, client.client_id,
            )


class TestBuildFleetClients:
    def test_population_shape(self):
        spec = FleetSpec(n_clients=12, archetypes=4)
        clients = build_fleet_clients(spec)
        assert len(clients) == 12
        assert [c.client_id for c in clients[:2]] == ["client-0000", "client-0001"]
        # Round-robin attribute cycles: device alternates fastest.
        assert [c.device for c in clients[:4]] == ["agx", "tx2", "agx", "tx2"]
        assert all(c.task in spec.tasks for c in clients)
        assert all(c.controller in spec.controllers for c in clients)
        assert all(200 <= c.n_samples <= 1000 for c in clients)

    def test_archetype_pooling_shares_trace_seeds(self):
        spec = FleetSpec(n_clients=9, archetypes=3, seed=7)
        clients = build_fleet_clients(spec)
        assert {c.trace_seed for c in clients} == {7, 8, 9}
        assert clients[0].trace_seed == clients[3].trace_seed

    def test_no_pooling_when_archetypes_is_none(self):
        clients = build_fleet_clients(FleetSpec(n_clients=6, archetypes=None))
        assert len({c.trace_seed for c in clients}) == 6

    def test_population_is_a_pure_function_of_the_spec(self):
        spec = FleetSpec(n_clients=20, chaos_fraction=0.3)
        assert build_fleet_clients(spec) == build_fleet_clients(spec)

    def test_upload_seeds_are_per_client(self):
        clients = build_fleet_clients(FleetSpec(n_clients=10))
        assert len({c.upload_seed for c in clients}) == 10


class TestClientChaos:
    def test_zero_fraction_means_no_chaos(self):
        clients = build_fleet_clients(FleetSpec(n_clients=10, chaos_fraction=0.0))
        assert all(c.fault_schedule is None for c in clients)
        assert all(c.stall_windows == () for c in clients)

    def test_full_fraction_makes_every_client_chaotic(self):
        clients = build_fleet_clients(FleetSpec(n_clients=10, chaos_fraction=1.0))
        assert all(
            c.fault_schedule is not None or c.stall_windows for c in clients
        )

    def test_fault_kinds_are_split_by_layer(self):
        clients = build_fleet_clients(FleetSpec(n_clients=30, chaos_fraction=1.0))
        for client in clients:
            if client.fault_schedule is not None:
                assert all(
                    f.kind == "client_dropout" for f in client.fault_schedule.faults
                )
            assert all(f.kind == "transport_stall" for f in client.stall_windows)

    def test_chaotic_archetype_mates_share_campaign_windows(self):
        # Windows hash from the archetype, not the client id, so pooled
        # trace gathering survives chaos (at most 2x unique campaigns).
        spec = FleetSpec(n_clients=24, archetypes=2, chaos_fraction=1.0)
        clients = build_fleet_clients(spec)
        mates = [c for c in clients if c.index % 12 == 0]  # same archetype cycle
        keys = {
            campaign_spec_for(c, spec).key()
            for c in clients
            if c.trace_seed == clients[0].trace_seed
            and (c.device, c.task, c.controller)
            == (clients[0].device, clients[0].task, clients[0].controller)
        }
        assert len(keys) == 1
        assert mates  # the slice above actually selected something


class TestCampaignSpecFor:
    def test_maps_the_client_onto_a_campaign(self):
        spec = FleetSpec(**TINY)
        client = build_fleet_clients(spec)[0]
        campaign = campaign_spec_for(client, spec)
        assert campaign.device == client.device
        assert campaign.task == client.task
        assert campaign.controller == "performant"
        assert campaign.rounds == spec.rounds
        assert campaign.seed == client.trace_seed
        assert campaign.deadline_ratio == spec.deadline_ratio


class TestPrepareAndCompose:
    @pytest.fixture(scope="class")
    def prepared(self):
        spec = FleetSpec(**TINY)
        return spec, prepare_fleet(spec, workers=1, use_cache=False)

    def test_prepare_fills_every_trace(self, prepared):
        spec, clients = prepared
        assert all(len(c.records) == spec.rounds for c in clients)

    def test_archetype_mates_share_trace_content_not_lists(self, prepared):
        _, clients = prepared
        a, b = clients[0], clients[6]  # same (device, task, archetype) cycle
        assert (a.device, a.task, a.trace_seed) == (b.device, b.task, b.trace_seed)
        # Equal content is the contract, not list identity: composition
        # never modifies a trace, so mates may share one record list.
        assert a.records == b.records

    def test_compose_is_repeatable_over_one_preparation(self, prepared):
        spec, clients = prepared
        first = compose_fleet(spec, clients)
        second = compose_fleet(spec, clients)
        assert first.to_dict() == second.to_dict()

    def test_compose_does_not_consume_the_prepared_traces(self, prepared):
        spec, clients = prepared
        lengths = [len(c.records) for c in clients]
        compose_fleet(dataclasses.replace(spec, mode="async"), clients)
        assert [len(c.records) for c in clients] == lengths

    def test_modes_share_energy_accounting_at_full_participation(self, prepared):
        spec, clients = prepared
        sync = compose_fleet(spec, clients)
        buffered = compose_fleet(
            dataclasses.replace(spec, mode="async", buffer_size=4), clients
        )
        assert buffered.total_energy == pytest.approx(sync.total_energy)

    def test_semisync_respects_over_selection(self, prepared):
        spec, clients = prepared
        semi = dataclasses.replace(
            spec, mode="semisync", participants=4, over_selection=1.5
        )
        result = compose_fleet(semi, clients)
        for rnd in result.rounds:
            assert len(rnd.participants) == 6  # ceil(4 x 1.5)

    def test_energy_selector_composes(self, prepared):
        spec, clients = prepared
        result = compose_fleet(
            dataclasses.replace(spec, selector="energy", participants=3), clients
        )
        for rnd in result.rounds:
            assert len(rnd.participants) == 3


class TestWarmPrepare:
    def test_warm_memo_shares_one_record_list_per_campaign(self):
        spec = FleetSpec(**{**TINY, "n_clients": 2_000})
        clear_campaign_cache()
        try:
            cold = prepare_fleet(spec, workers=1)
            warm = prepare_fleet(spec, workers=1)
        finally:
            clear_campaign_cache()
        keys = {campaign_spec_for(client, spec).key() for client in warm}
        assert len({id(client.records) for client in warm}) == len(keys)
        assert fleet_summary(spec, compose_fleet(spec, warm)) == fleet_summary(
            spec, compose_fleet(spec, cold)
        )


class TestRunFleetDeterminism:
    def test_serial_and_sharded_runs_are_identical(self):
        spec = FleetSpec(**TINY)
        serial = run_fleet(spec, workers=1, use_cache=False)
        sharded = run_fleet(spec, workers=2, use_cache=False)
        assert serial.to_dict() == sharded.to_dict()


class TestFleetSummary:
    def test_summary_and_rendering(self):
        spec = FleetSpec(**TINY)
        result = run_fleet(spec, workers=1, use_cache=False)
        summary = fleet_summary(spec, result)
        assert summary["mode"] == "sync"
        assert summary["clients"] == spec.n_clients
        assert summary["rounds"] == spec.rounds
        assert summary["total_energy"] > 0
        rendered = render_fleet_summary(summary)
        for key in summary:
            assert key in rendered


class TestFleetReportFromTrace:
    def test_round_trips_a_recorded_composition(self, tmp_path):
        spec = FleetSpec(**TINY)
        clients = prepare_fleet(spec, workers=1, use_cache=False)
        with obs.session(deterministic=True) as session:
            compose_fleet(spec, clients)
        trace = session.log.dump_jsonl(tmp_path / "fleet.jsonl")
        report = fleet_report_from_trace(trace)
        assert "fleet.start" in report
        assert "fleet.round" in report
        assert "mode=sync" in report
        assert "aggregations" in report

    def test_rejects_traces_without_fleet_events(self, tmp_path):
        with obs.session(deterministic=True) as session:
            obs.emit("campaign.start", device="agx")
        trace = session.log.dump_jsonl(tmp_path / "other.jsonl")
        with pytest.raises(ConfigurationError, match="no fleet events"):
            fleet_report_from_trace(trace)
