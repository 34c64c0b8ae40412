"""Tests for the persistent on-disk campaign cache."""

import json

import pytest

from repro.core.config import BoFLConfig
from repro.errors import ConfigurationError
from repro.sim import (
    CampaignSpec,
    PersistentCampaignCache,
    clear_campaign_cache,
    install_persistent_cache,
    run_campaign,
)
from repro.sim import runner as runner_module
from repro.sim.cache import (
    CACHE_SCHEMA_VERSION,
    STATS_SIDECAR,
    cache_key_hash,
    cache_token,
)


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_campaign_cache()
    install_persistent_cache(None)
    yield
    clear_campaign_cache()
    install_persistent_cache(None)


@pytest.fixture()
def cache(tmp_path):
    return PersistentCampaignCache(tmp_path / "campaigns")


def _key(seed=0, rounds=3, config=None):
    return CampaignSpec("agx", "vit", "performant", 2.0, rounds, seed, config)


def _result(seed=0, rounds=3):
    return run_campaign(
        "agx", "vit", "performant", 2.0, rounds=rounds, seed=seed, use_cache=False
    )


class TestKeyHashing:
    def test_hash_is_stable_and_hex(self):
        assert cache_key_hash(_key()) == cache_key_hash(_key())
        int(cache_key_hash(_key()), 16)

    def test_hash_distinguishes_every_key_field(self):
        base = cache_key_hash(_key())
        assert cache_key_hash(_key(seed=1)) != base
        assert cache_key_hash(_key(rounds=4)) != base
        assert cache_key_hash(_key(config=BoFLConfig(seed=0))) != base

    def test_hash_distinguishes_config_fields(self):
        a = cache_key_hash(_key(config=BoFLConfig(tau=5.0)))
        b = cache_key_hash(_key(config=BoFLConfig(tau=4.0)))
        assert a != b

    def test_token_embeds_schema_version(self):
        assert cache_token(_key())["schema"] == CACHE_SCHEMA_VERSION


class TestRoundTrip:
    def test_get_on_empty_cache_misses(self, cache):
        assert cache.get(_key()) is None
        assert cache.stats().misses == 1

    def test_put_get_round_trip_is_equal(self, cache):
        result = _result()
        cache.put(_key(), result)
        loaded = cache.get(_key())
        assert loaded == result
        assert loaded is not result

    def test_bofl_round_trip_preserves_fronts_and_mbo(self, cache):
        result = run_campaign(
            "agx", "vit", "bofl", 2.0, rounds=5, seed=0, use_cache=False
        )
        key = CampaignSpec("agx", "vit", "bofl", 2.0, 5, 0)
        cache.put(key, result)
        assert cache.get(key) == result

    def test_corrupt_entry_is_a_miss(self, cache):
        cache.put(_key(), _result())
        cache.path_for(_key()).write_text("{ not json")
        assert cache.get(_key()) is None

    def test_schema_mismatch_is_a_miss(self, cache):
        cache.put(_key(), _result())
        path = cache.path_for(_key())
        payload = json.loads(path.read_text())
        payload["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert cache.get(_key()) is None

    @pytest.mark.parametrize(
        ("field", "value"),
        [("energy", "abc"), ("missed", "no"), ("jobs", 2.5), ("deadline", None)],
    )
    def test_an_ill_typed_record_is_a_miss_never_a_hit(self, cache, field, value):
        """A parseable entry whose record carries a wrong type used to load:
        ``"energy": "abc"`` as a hit that later died in ``total_energy``,
        ``"missed": "no"`` as a silently missed round."""
        cache.put(_key(), _result())
        path = cache.path_for(_key())
        payload = json.loads(path.read_text())
        payload["campaign"]["records"][0][field] = value
        path.write_text(json.dumps(payload))
        assert cache.get(_key()) is None
        assert cache.stats().hits == 0

    def test_key_token_mismatch_is_a_miss(self, cache):
        cache.put(_key(), _result())
        path = cache.path_for(_key())
        payload = json.loads(path.read_text())
        payload["key"]["seed"] = 999
        path.write_text(json.dumps(payload))
        assert cache.get(_key()) is None


class TestEvictionAndMaintenance:
    def test_max_entries_evicts_oldest(self, tmp_path):
        cache = PersistentCampaignCache(tmp_path, max_entries=2)
        import os

        for seed in range(3):
            path = cache.put(_key(seed=seed), _result(seed=seed))
            # Strictly order mtimes (filesystem timestamps can tie).
            os.utime(path, (1000 + seed, 1000 + seed))
            cache._evict()
        assert len(cache) == 2
        assert cache.get(_key(seed=0)) is None
        assert cache.get(_key(seed=2)) is not None

    def test_max_bytes_bounds_total_size(self, tmp_path):
        probe = PersistentCampaignCache(tmp_path / "probe")
        entry_bytes = probe.put(_key(), _result()).stat().st_size
        cache = PersistentCampaignCache(
            tmp_path / "bounded", max_bytes=int(entry_bytes * 1.5)
        )
        cache.put(_key(seed=0), _result(seed=0))
        cache.put(_key(seed=1), _result(seed=1))
        assert len(cache) == 1

    def test_clear_removes_everything(self, cache):
        cache.put(_key(seed=0), _result(seed=0))
        cache.put(_key(seed=1), _result(seed=1))
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_stats_counts_entries_and_traffic(self, cache):
        cache.put(_key(), _result())
        cache.get(_key())
        cache.get(_key(seed=9))
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.total_bytes > 0
        assert (stats.hits, stats.misses, stats.writes) == (1, 1, 1)
        assert "entries" in stats.render()

    def test_validates_bounds(self, tmp_path):
        with pytest.raises(ConfigurationError):
            PersistentCampaignCache(tmp_path, max_entries=0)
        with pytest.raises(ConfigurationError):
            PersistentCampaignCache(tmp_path, max_bytes=0)

    @pytest.mark.parametrize("name", ["max_entries", "max_bytes"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 2.5])
    def test_bounds_must_be_whole(self, tmp_path, name, value):
        # A NaN bound used to construct, and eviction never triggered.
        with pytest.raises(ConfigurationError, match=f"{name} must be a whole number >= 1"):
            PersistentCampaignCache(tmp_path, **{name: value})


class TestRunnerIntegration:
    def test_install_get_uninstall(self, cache):
        install_persistent_cache(cache)
        assert runner_module._PERSISTENT_CACHE is cache
        install_persistent_cache(None)
        assert runner_module._PERSISTENT_CACHE is None

    def test_run_campaign_writes_through_and_reads_back(self, cache):
        install_persistent_cache(cache)
        first = run_campaign("agx", "vit", "performant", 2.0, rounds=3, seed=0)
        assert cache.stats().writes == 1
        clear_campaign_cache()  # kill the in-memory layer
        second = run_campaign("agx", "vit", "performant", 2.0, rounds=3, seed=0)
        assert second == first
        assert cache.stats().hits == 1

    def test_disk_hit_repopulates_memory_layer(self, cache):
        install_persistent_cache(cache)
        run_campaign("agx", "vit", "performant", 2.0, rounds=3, seed=0)
        clear_campaign_cache()
        run_campaign("agx", "vit", "performant", 2.0, rounds=3, seed=0)
        hits_after_disk = cache.stats().hits
        run_campaign("agx", "vit", "performant", 2.0, rounds=3, seed=0)
        assert cache.stats().hits == hits_after_disk  # served from memory

    def test_use_cache_false_never_touches_disk(self, cache):
        install_persistent_cache(cache)
        run_campaign(
            "agx", "vit", "performant", 2.0, rounds=3, seed=0, use_cache=False
        )
        stats = cache.stats()
        assert (stats.writes, stats.hits, stats.misses) == (0, 0, 0)


class TestIncrementalStatsPersistence:
    """Lifetime counters are persisted per operation, not on shutdown.

    A campaign killed mid-flight never runs any shutdown hook, so the
    sidecar must already hold every hit/miss/write/eviction the dead
    session performed; `repro cache stats` then reports them as the
    ``lifetime`` rows.
    """

    def test_totals_survive_an_interrupted_session(self, cache):
        cache.put(_key(seed=0), _result(seed=0))
        cache.get(_key(seed=0))
        cache.get(_key(seed=9))
        # Simulate the interruption: drop the instance without any
        # cleanup and reopen the directory cold.
        reopened = PersistentCampaignCache(cache.directory)
        stats = reopened.stats()
        assert (stats.writes, stats.hits, stats.misses) == (0, 0, 0)
        assert (stats.total_writes, stats.total_hits, stats.total_misses) == (1, 1, 1)

    def test_totals_accumulate_across_sessions(self, cache):
        cache.put(_key(seed=0), _result(seed=0))
        second = PersistentCampaignCache(cache.directory)
        second.get(_key(seed=0))
        second.get(_key(seed=0))
        stats = PersistentCampaignCache(cache.directory).stats()
        assert stats.total_writes == 1
        assert stats.total_hits == 2

    def test_cold_session_misses_reach_the_sidecar(self, cache):
        """Misses before the directory exists wait for the first write."""
        cache.get(_key(seed=0))
        cache.get(_key(seed=1))
        assert not cache.directory.exists()  # a pure miss creates nothing
        cache.put(_key(seed=0), _result(seed=0))
        stats = PersistentCampaignCache(cache.directory).stats()
        assert (stats.total_misses, stats.total_writes) == (2, 1)

    def test_cold_then_warm_executor_runs_count_every_lookup(self, cache):
        """A cold executor run looks every spec up before it stores any, so
        all of its misses happen while the directory does not exist."""
        from repro.sim.executor import CampaignExecutor

        specs = [_key(seed=0), _key(seed=1)]
        CampaignExecutor(workers=1, cache=cache).run(specs)
        clear_campaign_cache()
        CampaignExecutor(workers=1, cache=PersistentCampaignCache(cache.directory)).run(specs)
        stats = PersistentCampaignCache(cache.directory).stats()
        assert (stats.total_misses, stats.total_writes, stats.total_hits) == (2, 2, 2)

    def test_evictions_are_persisted(self, tmp_path):
        cache = PersistentCampaignCache(tmp_path / "campaigns", max_entries=1)
        cache.put(_key(seed=0), _result(seed=0))
        cache.put(_key(seed=1), _result(seed=1))
        stats = PersistentCampaignCache(cache.directory).stats()
        assert stats.total_evictions == 1
        assert stats.total_writes == 2

    def test_sidecar_never_reads_as_a_cache_entry(self, cache):
        cache.put(_key(seed=0), _result(seed=0))
        cache.get(_key(seed=0))
        assert len(cache) == 1  # the sidecar is not in the entry glob
        assert (cache.directory / STATS_SIDECAR).is_file()

    def test_corrupt_sidecar_reads_as_zero(self, cache):
        cache.put(_key(seed=0), _result(seed=0))
        (cache.directory / STATS_SIDECAR).write_text("{not json")
        stats = cache.stats()
        assert stats.total_writes == 0
        # The next operation restarts accumulation from zero.
        cache.get(_key(seed=0))
        assert cache.stats().total_hits == 1

    def test_clear_resets_lifetime_counters(self, cache):
        cache.put(_key(seed=0), _result(seed=0))
        cache.get(_key(seed=0))
        cache.clear()
        stats = PersistentCampaignCache(cache.directory).stats()
        assert (stats.total_writes, stats.total_hits, stats.total_misses) == (0, 0, 0)

    def test_render_reports_lifetime_rows(self, cache):
        cache.put(_key(seed=0), _result(seed=0))
        rendered = PersistentCampaignCache(cache.directory).stats().render()
        assert "lifetime writes : 1" in rendered
        assert "session writes  : 0" in rendered
