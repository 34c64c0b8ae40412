"""A warmed artifact's serial run is pure lookups through the shared memo.

``warm_experiment_cache`` computes an artifact's grid through the
executor; the driver's own ``run_campaign`` calls must then resolve every
campaign from the memory layer the executor filled.
"""

from repro.experiments import fig9_energy, warm_experiment_cache
from repro.obs import runtime as obs
from repro.sim import clear_campaign_cache, install_persistent_cache


def test_warmed_fig9_run_is_all_memory_hits():
    clear_campaign_cache()
    install_persistent_cache(None)
    try:
        timings = warm_experiment_cache("fig9", workers=2, rounds=4)
        with obs.session() as session:
            fig9_energy.run(rounds=4)
    finally:
        clear_campaign_cache()
    assert len(timings) == 9
    assert session.metrics.counter("campaign.cache_memory") == 9
    assert session.metrics.counter("campaign.cache_miss") == 0
