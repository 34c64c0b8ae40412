"""Recovery policy validation and the per-campaign recovery log."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import RecoveryLog, RecoveryPolicy
from repro.faults.recovery import NO_RECOVERY


class TestRecoveryPolicy:
    def test_defaults_defend_everything(self):
        policy = RecoveryPolicy()
        assert policy.checkpoints_enabled
        assert policy.restore_on_corruption
        assert policy.escalate_on_anomaly
        assert policy.escalation_rounds == 2

    def test_zero_interval_disables_checkpoints(self):
        assert not RecoveryPolicy(checkpoint_interval=0).checkpoints_enabled

    def test_negative_interval_rejected(self):
        with pytest.raises(ConfigurationError, match="checkpoint_interval"):
            RecoveryPolicy(checkpoint_interval=-1)

    def test_escalation_rounds_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="escalation_rounds"):
            RecoveryPolicy(escalation_rounds=0)

    def test_no_recovery_is_defenseless(self):
        assert not NO_RECOVERY.checkpoints_enabled
        assert not NO_RECOVERY.restore_on_corruption
        assert not NO_RECOVERY.escalate_on_anomaly

    def test_dict_roundtrip(self):
        policy = RecoveryPolicy(
            checkpoint_interval=3,
            restore_on_corruption=False,
            escalate_on_anomaly=True,
            escalation_rounds=5,
        )
        assert RecoveryPolicy.from_dict(policy.to_dict()) == policy

    @pytest.mark.parametrize(
        ("payload", "field"),
        [
            ({"checkpoint_interval": 2.7}, "checkpoint_interval"),
            ({"escalation_rounds": "3"}, "escalation_rounds"),
            ({"restore_on_corruption": "false"}, "restore_on_corruption"),
            ({"escalate_on_anomaly": 0}, "escalate_on_anomaly"),
        ],
    )
    def test_from_dict_rejects_ill_typed_fields(self, payload, field):
        """``2.7`` used to truncate to 2 and ``"false"`` to read as true."""
        with pytest.raises(ConfigurationError, match=field):
            RecoveryPolicy.from_dict(payload)

    def test_from_dict_fills_absent_fields_from_the_defaults(self):
        assert RecoveryPolicy.from_dict({}) == RecoveryPolicy()
        with pytest.raises(ConfigurationError, match="'interval'"):
            RecoveryPolicy.from_dict({"interval": 2})

    def test_hashable_for_cache_keys(self):
        assert {RecoveryPolicy(): "hit"}[RecoveryPolicy()] == "hit"
        assert RecoveryPolicy() != NO_RECOVERY


class TestRecoveryLog:
    def test_recovery_actions_sum_restores_and_escalations(self):
        log = RecoveryLog(restores=2, escalations=3)
        assert log.recovery_actions == 5

    def test_to_dict_serializes_injections_as_pairs(self):
        log = RecoveryLog(injected=[(2, "straggler")], checkpoints=1)
        payload = log.to_dict()
        assert payload["injected"] == [[2, "straggler"]]
        assert payload["checkpoints"] == 1
        assert payload["dropped_rounds"] == 0
