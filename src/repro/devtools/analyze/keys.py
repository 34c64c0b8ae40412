"""Checker 2 — cache/token key completeness.

The silent-stale-cache bug class: a field is added to a keyed spec
dataclass, changes behaviour, but never makes it into the cache key —
so two different configurations collide on one cache entry.  Each
:class:`KeyContract` names a spec dataclass and the functions that build
its key; every dataclass field must be *read as an attribute* somewhere
in the transitive project-call closure of those functions, or carry an
explicit ``# key_exempt: <why>`` marker on its definition line.

The attribute-read closure is deliberately name-based (``.field`` reads
anywhere in the closure), trading a little precision for zero false
negatives on the ``asdict``/``to_dict`` compositions the real key
functions use.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devtools.analyze.callgraph import CallGraph
from repro.devtools.analyze.findings import Finding
from repro.devtools.analyze.project import ProjectIndex

CHECKER_ID = "key-completeness"


@dataclass(frozen=True)
class KeyContract:
    """One keyed dataclass and the functions that must consume its fields."""

    dataclass: str
    key_functions: tuple[str, ...]
    description: str


#: The keyed spec types this repo caches on (ISSUE 8 contract set, plus
#: the servertune specs whose tokens join campaign and PBT cache keys).
DEFAULT_CONTRACTS: tuple[KeyContract, ...] = (
    KeyContract(
        dataclass="repro.sim.runner.CampaignSpec",
        key_functions=("repro.sim.cache.cache_token",),
        description="the durable campaign cache token",
    ),
    KeyContract(
        dataclass="repro.faults.schedule.FaultSchedule",
        key_functions=("repro.faults.schedule.FaultSchedule.to_dict",),
        description="the fault-schedule token",
    ),
    KeyContract(
        dataclass="repro.sim.fleet.FleetSpec",
        key_functions=(
            "repro.sim.fleet.build_fleet_clients",
            "repro.sim.fleet.campaign_spec_for",
            "repro.sim.fleet.compose_fleet",
        ),
        description="fleet composition (every field must shape the trace)",
    ),
    KeyContract(
        dataclass="repro.service.api.DecisionRequest",
        key_functions=("repro.service.api.DecisionRequest.token",),
        description="the decision-cache token",
    ),
    KeyContract(
        dataclass="repro.servertune.controllers.ServerTuneSpec",
        key_functions=("repro.servertune.controllers.ServerTuneSpec.to_dict",),
        description="the servertune campaign-key token",
    ),
    KeyContract(
        dataclass="repro.servertune.pbt.PBTSpec",
        key_functions=("repro.servertune.pbt.PBTSpec.to_dict",),
        description="the PBT campaign token",
    ),
)


def check_keys(
    project: ProjectIndex,
    graph: CallGraph,
    contracts: tuple[KeyContract, ...] = DEFAULT_CONTRACTS,
) -> list[Finding]:
    findings: list[Finding] = []
    for contract in contracts:
        info = project.classes.get(contract.dataclass)
        if info is None:
            continue  # contract target absent from this tree (fixtures)
        relpath = project.modules[info.module].source.relpath
        missing_functions = sorted(
            name for name in contract.key_functions if name not in graph.facts
        )
        if missing_functions:
            findings.append(
                Finding(
                    checker=CHECKER_ID,
                    path=relpath,
                    line=info.node.lineno,
                    col=info.node.col_offset,
                    message=(
                        f"key contract for {contract.dataclass} names missing "
                        f"function(s): {', '.join(missing_functions)}"
                    ),
                )
            )
            continue
        consumed = graph.attr_loads_closure(list(contract.key_functions))
        for field in info.fields:
            if field.has_marker:
                if not field.exempt_reason:
                    findings.append(
                        Finding(
                            checker=CHECKER_ID,
                            path=relpath,
                            line=field.line,
                            col=0,
                            message=(
                                f"key_exempt marker on {contract.dataclass}."
                                f"{field.name} needs a justification: "
                                "'# key_exempt: <why this never affects the key>'"
                            ),
                        )
                    )
                continue
            if field.name not in consumed:
                key_names = ", ".join(contract.key_functions)
                findings.append(
                    Finding(
                        checker=CHECKER_ID,
                        path=relpath,
                        line=field.line,
                        col=0,
                        message=(
                            f"field {field.name!r} of {contract.dataclass} never "
                            f"flows into {contract.description} ({key_names}); "
                            "add it to the key or mark it "
                            "'# key_exempt: <why>'"
                        ),
                    )
                )
    return findings
