"""Tests for the parallel campaign executor.

The load-bearing property is paired determinism: a grid executed over
worker processes must be byte-identical to the serial path, because every
work unit derives its scenario seed from (device, task, ratio, seed)
exactly as ``run_campaign`` does.
"""

import copy

import pytest

from repro.errors import ConfigurationError
from repro.sim import (
    CampaignExecutor,
    CampaignSpec,
    PersistentCampaignCache,
    clear_campaign_cache,
    execute_campaigns,
    expand_grid,
    install_persistent_cache,
    resolve_workers,
    run_campaign,
)
from repro.sim import runner as runner_module


@pytest.fixture(autouse=True)
def isolated_cache():
    clear_campaign_cache()
    install_persistent_cache(None)
    yield
    clear_campaign_cache()
    install_persistent_cache(None)


def count_deepcopies(monkeypatch):
    """Record every top-level ``copy.deepcopy`` call from now on.

    ``deepcopy`` recurses through the module global it is patched over,
    always passing its ``memo`` dict; only calls without one are counted.
    """
    calls = []
    real = copy.deepcopy

    def counting(x, memo=None):
        if memo is None:
            calls.append(x)
        return real(x, memo)

    monkeypatch.setattr(copy, "deepcopy", counting)
    return calls


class TestSpecAndGrid:
    def test_spec_key_matches_runner_key(self):
        spec = CampaignSpec("agx", "vit", "performant", 2.0, rounds=3, seed=1)
        assert spec.key() == runner_module.campaign_key(
            "agx", "vit", "performant", 2.0, 3, 1, None
        )

    def test_spec_run_is_plain_run_campaign(self):
        spec = CampaignSpec("agx", "vit", "performant", 2.0, rounds=2, seed=0)
        assert spec.run(use_cache=False) == run_campaign(
            "agx", "vit", "performant", 2.0, rounds=2, seed=0, use_cache=False
        )

    def test_expand_grid_is_full_cross_product(self):
        specs = expand_grid(
            devices=("agx", "tx2"),
            tasks=("vit",),
            controllers=("performant", "oracle"),
            ratios=(2.0, 4.0),
            seeds=(0, 1, 2),
            rounds=5,
        )
        assert len(specs) == 2 * 1 * 2 * 2 * 3
        assert len({s.key() for s in specs}) == len(specs)

    def test_expand_grid_attaches_config_only_to_bofl(self, fast_config):
        specs = expand_grid(
            tasks=("vit",), controllers=("bofl", "performant"),
            rounds=5, bofl_config=fast_config,
        )
        by_controller = {s.controller: s for s in specs}
        assert by_controller["bofl"].bofl_config == fast_config
        assert by_controller["performant"].bofl_config is None

    def test_resolve_workers(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        with pytest.raises(ConfigurationError):
            resolve_workers(0)


SPECS = [
    CampaignSpec("agx", "vit", controller, 2.0, rounds=3, seed=seed)
    for seed in (0, 1)
    for controller in ("performant", "oracle")
]


class TestExecution:
    def test_serial_and_parallel_results_identical(self):
        serial = CampaignExecutor(workers=1).run(SPECS, use_cache=False)
        clear_campaign_cache()
        parallel = CampaignExecutor(workers=2).run(SPECS, use_cache=False)
        assert serial.results == parallel.results

    def test_parallel_matches_direct_run_campaign(self):
        report = CampaignExecutor(workers=2).run(SPECS[:2])
        for spec, result in zip(SPECS[:2], report.results):
            clear_campaign_cache()
            assert result == spec.run(use_cache=False)

    def test_results_preserve_submission_order(self):
        report = CampaignExecutor(workers=2).run(SPECS)
        for spec, result in zip(SPECS, report.results):
            assert (result.controller, result.device) == (spec.controller, spec.device)

    def test_duplicate_specs_share_one_computation(self):
        spec = SPECS[0]
        report = CampaignExecutor(workers=2).run([spec, spec, spec])
        assert report.results[0] == report.results[1] == report.results[2]
        computed = [t for t in report.timings if t.source == "computed"]
        assert len(computed) == 3  # all three reported, one execution
        assert len({id(r) for r in report.results}) == 1

    def test_workers_one_primes_the_memo(self):
        CampaignExecutor(workers=1).run([SPECS[0]])
        assert SPECS[0].key() in runner_module._CAMPAIGN_CACHE

    def test_parallel_run_primes_the_memo(self):
        CampaignExecutor(workers=2).run([SPECS[0]])
        assert SPECS[0].key() in runner_module._CAMPAIGN_CACHE

    def test_second_run_is_memory_served(self):
        executor = CampaignExecutor(workers=2)
        first = executor.run(SPECS)
        second = executor.run(SPECS)
        assert second.results == first.results
        assert all(t.source == "memory" for t in second.timings)

    def test_progress_callback_streams_every_cell(self):
        events = []
        executor = CampaignExecutor(
            workers=2, progress=lambda done, total, t: events.append((done, total))
        )
        executor.run(SPECS)
        assert [e[0] for e in events] == list(range(1, len(SPECS) + 1))
        assert all(total == len(SPECS) for _, total in events)

    def test_report_accounting(self):
        executor = CampaignExecutor(workers=1)
        report = executor.run(SPECS)
        assert report.computed == len(SPECS)
        assert report.from_cache == 0
        again = executor.run(SPECS)
        assert again.from_cache == len(SPECS)
        assert "campaigns" in report.render()

    def test_execute_campaigns_helper(self):
        report = execute_campaigns(SPECS[:2], workers=1)
        assert len(report.results) == 2

    def test_executor_results_do_not_alias_the_memo(self):
        executor = CampaignExecutor(workers=1)
        first = executor.run([SPECS[0]]).results[0]
        first.records.clear()  # caller mutates its copy
        second = executor.run([SPECS[0]]).results[0]
        assert second.rounds == 3


#: A submission with duplicates: A at 0, 2, 3 and B at 1, 4.
DUPLICATED = [SPECS[0], SPECS[1], SPECS[0], SPECS[0], SPECS[1]]
A_INDICES = (0, 2, 3)


class TestDistinctKeysResolvedOnce:
    def test_memo_warm_duplicates_share_one_copy(self, monkeypatch):
        executor = CampaignExecutor(workers=1)
        executor.run(SPECS[:2])
        copies = count_deepcopies(monkeypatch)
        report = executor.run(DUPLICATED)
        assert len(copies) == 2  # one defensive copy per distinct key
        assert len({id(report.results[i]) for i in A_INDICES}) == 1
        assert [t.source for t in report.timings] == ["memory"] * 5

    def test_disk_warm_duplicates_share_one_result(self, tmp_path):
        cold = CampaignExecutor(
            workers=1, cache=PersistentCampaignCache(tmp_path)
        ).run(DUPLICATED)
        clear_campaign_cache()
        cache = PersistentCampaignCache(tmp_path)
        warm = CampaignExecutor(workers=1, cache=cache).run(DUPLICATED)
        assert [t.source for t in warm.timings] == [
            "disk", "disk", "memory", "memory", "memory",
        ]
        assert cache.hits == 2
        assert len({id(warm.results[i]) for i in A_INDICES}) == 1
        assert warm.results == cold.results

    @pytest.mark.parametrize("installed", [False, True])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_cold_spec_is_looked_up_and_written_once(
        self, tmp_path, workers, installed
    ):
        cache = PersistentCampaignCache(tmp_path)
        if installed:
            install_persistent_cache(cache)
        CampaignExecutor(workers=workers, cache=cache).run([SPECS[0]])
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.writes) == (0, 1, 1)
