"""``CampaignSpec`` is the campaign's one identity.

The spec is frozen and normalized on construction, so equivalent runs
compare and hash equal: it is the in-process memo key, the executor's
dedup key and the argument of the durable cache's token.  The durable
key hashes are pinned at the values the cache wrote before the spec
became the key, so existing cache directories stay valid.
"""

import math

import pytest

from repro.core.config import BoFLConfig
from repro.errors import ConfigurationError
from repro.faults import FaultSchedule, FaultSpec, RecoveryPolicy
from repro.servertune.controllers import ServerTuneSpec
from repro.sim.cache import cache_key_hash
from repro.sim.chaos import preset_schedule
from repro.sim.runner import CampaignSpec


def _spec(**overrides):
    return CampaignSpec(
        **{"device": "agx", "task": "vit", "controller": "bofl",
           "deadline_ratio": 2.0, "rounds": 5, "seed": 0, **overrides}
    )


SCHEDULE = FaultSchedule(
    faults=(FaultSpec(kind="straggler", start_round=2, magnitude=1.4),), seed=7
)

#: Pairs of spellings of one campaign.
EQUIVALENT = {
    "empty-schedule": (dict(fault_schedule=FaultSchedule()), {}),
    "implied-policy": (
        dict(fault_schedule=SCHEDULE),
        dict(fault_schedule=SCHEDULE, recovery_policy=RecoveryPolicy()),
    ),
    "policy-without-schedule": (dict(recovery_policy=RecoveryPolicy()), {}),
    "static-servertune": (dict(servertune=ServerTuneSpec()), {}),
    "integral-ratio": (dict(deadline_ratio=2), dict(deadline_ratio=2.0)),
}


class TestNormalization:
    @pytest.mark.parametrize("case", sorted(EQUIVALENT))
    def test_equivalent_spellings_are_one_campaign(self, case):
        a, b = (_spec(**kwargs) for kwargs in EQUIVALENT[case])
        assert a == b
        assert hash(a) == hash(b)
        assert cache_key_hash(a) == cache_key_hash(b)

    def test_normalized_fields(self):
        spec = _spec(deadline_ratio=2, rounds=5.0, fault_schedule=SCHEDULE)
        assert type(spec.deadline_ratio) is float
        assert type(spec.rounds) is int
        assert spec.recovery_policy == RecoveryPolicy()

    def test_distinct_campaigns_stay_distinct(self):
        base = _spec()
        for other in (
            _spec(seed=1),
            _spec(rounds=6),
            _spec(fault_schedule=SCHEDULE),
            _spec(servertune=ServerTuneSpec(controller="fedtune")),
            _spec(bofl_config=BoFLConfig(tau=4.0)),
        ):
            assert other != base
            assert cache_key_hash(other) != cache_key_hash(base)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rounds", 2.5),
            ("rounds", 0),
            ("deadline_ratio", math.nan),
            ("deadline_ratio", -1.0),
            ("seed", -1),
            ("seed", math.inf),
        ],
    )
    def test_invalid_fields_are_rejected_by_name(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            _spec(**{field: value})


class TestDurableKeyIsPinned:
    """Hashes the cache wrote when its key was a separately built tuple."""

    @pytest.mark.parametrize(
        "spec, digest",
        [
            (
                CampaignSpec("agx", "vit", "bofl", 2.0, 100, 0),
                "f610c7b36d24a3aeade0e4523fb8fdd45f685e8b65ee4a4fa97c146a55557d65",
            ),
            (
                CampaignSpec("agx", "vit", "bofl", 2.0, 100, 0, BoFLConfig(tau=4.0)),
                "c27c23a3b1f0ec98a39ba613092d81c5b5ffa16837044f24f56e766a6642920b",
            ),
            (
                CampaignSpec(
                    "agx", "vit", "bofl", 2.0, 20, 0,
                    fault_schedule=preset_schedule("mixed", 0, 20),
                ),
                "696d9a9de3d23ad7bc4f0f34ab18560373017dff1d67387125feafeeecdd32af",
            ),
            (
                CampaignSpec(
                    "tx2", "lstm", "performant", 2.0, 10, 3,
                    servertune=ServerTuneSpec(controller="fedtune"),
                ),
                "71ceb954d664367ea615c233dff928a7e02885567c2c715d24e384e72ca81e17",
            ),
        ],
        ids=["bofl", "bofl-tau4", "chaos-mixed", "fedtune"],
    )
    def test_cache_key_hash(self, spec, digest):
        assert cache_key_hash(spec) == digest

