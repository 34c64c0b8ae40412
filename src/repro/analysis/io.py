"""JSON persistence for campaign results.

Campaigns are cheap to re-run in simulation but expensive on real boards;
a JSON round-trip lets harnesses archive results, diff reruns, and feed
external plotting without pickling Python objects.
"""

from __future__ import annotations

import json
import pathlib
from typing import Union

from repro.core.records import CampaignResult, ChaosSummary, MBOReport, RoundRecord
from repro.errors import ConfigurationError
from repro.types import (
    DvfsConfiguration,
    require_flag,
    require_number,
    require_text,
    require_whole,
)

FORMAT_VERSION = 1


def _config_to_list(config: DvfsConfiguration) -> list:
    return [config.cpu, config.gpu, config.mem]


def _record_to_dict(record: RoundRecord) -> dict:
    payload = {
        "round_index": record.round_index,
        "phase": record.phase,
        "deadline": record.deadline,
        "jobs": record.jobs,
        "elapsed": record.elapsed,
        "energy": record.energy,
        "missed": record.missed,
        "explored": [_config_to_list(c) for c in record.explored],
        "explored_on_final_front": record.explored_on_final_front,
        "exploited_jobs": record.exploited_jobs,
        "guardian_triggered": record.guardian_triggered,
    }
    if record.mbo is not None:
        payload["mbo"] = {
            "latency": record.mbo.latency,
            "energy": record.mbo.energy,
            "n_observations": record.mbo.n_observations,
            "batch_size": record.mbo.batch_size,
            "suggestions": [_config_to_list(c) for c in record.mbo.suggestions],
        }
    return payload


#: The check each round-record field's JSON value must pass.  Values are
#: checked, not converted: a record reads back exactly as it was written.
_RECORD_FIELDS = {
    "round_index": require_whole,
    "phase": require_text,
    "deadline": require_number,
    "jobs": require_whole,
    "elapsed": require_number,
    "energy": require_number,
    "missed": require_flag,
    "explored_on_final_front": lambda name, value: value is None or require_whole(name, value),
    "exploited_jobs": require_whole,
    "guardian_triggered": require_flag,
}
#: Record fields older writers left out; absent ones take the defaults.
_RECORD_OPTIONAL = frozenset({"explored_on_final_front", "exploited_jobs", "guardian_triggered"})
_MBO_FIELDS = {
    "latency": require_number,
    "energy": require_number,
    "n_observations": require_whole,
    "batch_size": require_whole,
}
#: The counters of a serialized :class:`ChaosSummary`.
_CHAOS_COUNTS = ("checkpoints", "restores", "escalations", "dropped_rounds", "lost_reports")


def _checked(
    payload: object, checks: dict, what: str, optional: frozenset = frozenset()
) -> dict:
    """The fields of the JSON object ``payload`` that ``checks`` names, each checked."""
    if not isinstance(payload, dict):
        raise ConfigurationError(f"{what} must be a JSON object, got {payload!r}")
    fields = {}
    for name, check in checks.items():
        if name in payload:
            check(name, payload[name])
            fields[name] = payload[name]
        elif name not in optional:
            raise ConfigurationError(f"{what} is missing field {name!r}")
    return fields


def _tuples(name: str, raw: object, size: int) -> list:
    """The JSON list ``raw`` of ``size``-item lists; nothing in it is a bool."""
    if not isinstance(raw, list) or not all(
        isinstance(item, (list, tuple))
        and len(item) == size
        and not any(isinstance(value, bool) for value in item)
        for item in raw
    ):
        raise ConfigurationError(f"{name} must be a list of {size}-item lists, got {raw!r}")
    return raw


def _configs(name: str, raw: object) -> list[DvfsConfiguration]:
    """A JSON list of ``[cpu, gpu, mem]`` triples as configurations."""
    triples = _tuples(name, raw, 3)
    try:
        return [DvfsConfiguration(*c) for c in triples]
    except ConfigurationError as error:
        raise ConfigurationError(f"{name}: {error}") from None


def _record_from_dict(payload: dict) -> RoundRecord:
    fields = _checked(payload, _RECORD_FIELDS, "round record", _RECORD_OPTIONAL)
    mbo = payload.get("mbo")
    if mbo is not None:
        mbo = MBOReport(
            **_checked(mbo, _MBO_FIELDS, "mbo report"),
            suggestions=tuple(_configs("suggestions", mbo.get("suggestions"))),
        )
    return RoundRecord(**fields, explored=_configs("explored", payload.get("explored")), mbo=mbo)


def campaign_to_dict(result: CampaignResult) -> dict:
    """A JSON-safe representation of a campaign result."""
    payload = {
        "format_version": FORMAT_VERSION,
        "controller": result.controller,
        "device": result.device,
        "task": result.task,
        "deadline_ratio": result.deadline_ratio,
        "records": [_record_to_dict(r) for r in result.records],
        "final_front": result.final_front,
    }
    if result.chaos is not None:
        payload["chaos"] = {
            "injected": [[r, k] for r, k in result.chaos.injected],
            "checkpoints": result.chaos.checkpoints,
            "restores": result.chaos.restores,
            "escalations": result.chaos.escalations,
            "dropped_rounds": result.chaos.dropped_rounds,
            "lost_reports": result.chaos.lost_reports,
        }
    return payload


def campaign_from_dict(payload: dict) -> CampaignResult:
    """Rebuild a :class:`CampaignResult` from :func:`campaign_to_dict` output.

    Every field is type-checked as it is read, so a corrupt file raises
    :class:`ConfigurationError` naming the field (and a corrupt campaign
    cache entry reads as a miss) instead of loading a wrong result.
    """
    if not isinstance(payload, dict):
        raise ConfigurationError(f"a campaign must be a JSON object, got {payload!r}")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported campaign format version {version!r} "
            f"(this library reads version {FORMAT_VERSION})"
        )
    records = payload.get("records")
    if not isinstance(records, list):
        raise ConfigurationError(f"records must be a list, got {records!r}")
    result = CampaignResult(
        controller=require_text("controller", payload.get("controller")),
        device=require_text("device", payload.get("device")),
        task=require_text("task", payload.get("task")),
        deadline_ratio=require_number("deadline_ratio", payload.get("deadline_ratio")),
        records=[_record_from_dict(r) for r in records],
    )
    front = payload.get("final_front")
    if front is not None:
        result.final_front = [
            (require_number("final_front", t), require_number("final_front", e))
            for t, e in _tuples("final_front", front, 2)
        ]
    chaos = payload.get("chaos")
    if chaos is not None:
        counts = _checked(chaos, dict.fromkeys(_CHAOS_COUNTS, require_whole), "chaos")
        result.chaos = ChaosSummary(
            injected=tuple(
                (require_whole("injected", r), require_text("injected", k))
                for r, k in _tuples("injected", chaos.get("injected"), 2)
            ),
            **counts,
        )
    return result


def save_campaign(result: CampaignResult, path: Union[str, pathlib.Path]) -> None:
    """Write a campaign result to ``path`` as JSON."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(campaign_to_dict(result), indent=2))


def load_campaign(path: Union[str, pathlib.Path]) -> CampaignResult:
    """Read a campaign result previously written by :func:`save_campaign`."""
    path = pathlib.Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"{path} is not valid campaign JSON: {error}") from error
    return campaign_from_dict(payload)
