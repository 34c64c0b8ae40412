"""The six per-module checkers, and the import-aware name resolver.

Each checker guards one reproducibility invariant of this codebase and
flags the construct where it appears in one module (a ``time.time()``
call, a bare ``assert``); the whole-program checkers follow *flows*
across modules.  A checker takes a :class:`ModuleInfo` — its walked
tree, repo-relative path and the import-alias map the project index
built with :func:`import_aliases` — and yields :class:`Finding` s.  Which
files it reads is its scope in the checker table
(:data:`repro.devtools.analyze.findings.CHECKERS`); the docstrings below
tie every checker to the dynamic guarantee it protects.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterable, Iterator
from typing import TYPE_CHECKING, Optional

from repro.devtools.analyze.findings import Finding
from repro.obs.events import EVENT_KINDS

if TYPE_CHECKING:
    from repro.devtools.analyze.project import ModuleInfo

# --------------------------------------------------------------------------
# Import-aware name resolution
# --------------------------------------------------------------------------


def _resolve_relative(package: str, level: int, module: Optional[str]) -> Optional[str]:
    """The absolute module a ``from ...X import`` refers to, or None.

    ``level`` counts leading dots; ``level=1`` is the current package.
    Climbing past the top of ``package`` is unresolvable (and would be an
    ImportError at runtime anyway).
    """
    if not package:
        return None
    parts = package.split(".")
    if level - 1 > len(parts):
        return None
    base = parts[: len(parts) - (level - 1)]
    if module:
        base = [*base, *module.split(".")]
    return ".".join(base) if base else None


def import_aliases(nodes: Iterable[ast.AST], package: str = "") -> dict[str, str]:
    """Map local names to canonical dotted origins for the imports in ``nodes``.

    ``import numpy as np`` -> ``{"np": "numpy"}``; ``from time import
    perf_counter as pc`` -> ``{"pc": "time.perf_counter"}``.  Relative
    imports resolve against ``package`` (the importing module's dotted
    package): in ``repro.sim``, ``from .timing import now as n`` ->
    ``{"n": "repro.sim.timing.now"}``.  Without a package, relative
    imports stay unresolved.
    """
    aliases: dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".", 1)[0]
                canonical = item.name if item.asname else item.name.split(".", 1)[0]
                aliases[local] = canonical
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                origin = node.module
            else:
                origin = _resolve_relative(package, node.level, node.module)
            if origin is None:
                continue
            for item in node.names:
                local = item.asname or item.name
                aliases[local] = f"{origin}.{item.name}"
    return aliases


def dotted_parts(node: ast.AST) -> Optional[list[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``; None for non-name expressions."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return list(reversed(parts))


def _canonical_call(
    node: ast.Call, aliases: dict[str, str]
) -> Optional[str]:
    """The canonical dotted name a call resolves to through the imports.

    Returns None when the callee's base name was not introduced by an
    import (locals never count — a variable named ``random`` is not the
    ``random`` module).
    """
    parts = dotted_parts(node.func)
    if not parts:
        return None
    base = parts[0]
    if base not in aliases:
        return None
    return ".".join([aliases[base], *parts[1:]])


def _finding(
    module: ModuleInfo, node: ast.AST, checker: str, message: str
) -> Finding:
    return Finding(
        checker=checker,
        path=module.source.relpath,
        line=getattr(node, "lineno", 0),
        col=getattr(node, "col_offset", 0),
        message=message,
    )


# --------------------------------------------------------------------------
# wall-clock
# --------------------------------------------------------------------------

#: Wall-clock reads; the determinism-taint checker's sources too.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


def _check_wall_clock(module: ModuleInfo) -> Iterator[Finding]:
    """No wall-clock reads outside the allowlisted timing modules.

    Campaign results are keyed and cached by simulated time from
    ``repro.clock``; a wall-clock read makes results machine-dependent
    and silently breaks the serial==parallel executor guarantee and the
    schema-versioned campaign cache.
    """
    for node in module.source.nodes:
        if not isinstance(node, ast.Call):
            continue
        name = _canonical_call(node, module.aliases)
        if name in WALL_CLOCK_CALLS:
            yield _finding(
                module,
                node,
                "wall-clock",
                f"{name}() reads the wall clock; simulation code must use "
                "repro.clock (simulated time) — wall time belongs only in "
                "the allowlisted timing modules",
            )


# --------------------------------------------------------------------------
# unseeded-random
# --------------------------------------------------------------------------

#: Seeded-generator constructors remain allowed; the module-level API
#: (global hidden state) is what destroys reproducibility.
ALLOWED_RANDOM_CALLS = frozenset(
    {
        "random.Random",
        "random.SystemRandom",
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
        "numpy.random.BitGenerator",
        "numpy.random.PCG64",
        "numpy.random.PCG64DXSM",
        "numpy.random.Philox",
        "numpy.random.SFC64",
        "numpy.random.MT19937",
    }
)


def _check_unseeded_random(module: ModuleInfo) -> Iterator[Finding]:
    """No module-level ``random.*`` / ``np.random.*`` API in library code.

    Every stochastic component takes a Generator derived from the
    campaign seed; global-state randomness would give different results
    per process and break the executor's paired-determinism and the
    persistent result cache.
    """
    for node in module.source.nodes:
        if not isinstance(node, ast.Call):
            continue
        name = _canonical_call(node, module.aliases)
        if name is None or name in ALLOWED_RANDOM_CALLS:
            continue
        if name.startswith("random.") or name.startswith("numpy.random."):
            yield _finding(
                module,
                node,
                "unseeded-random",
                f"{name}() draws from global random state; thread a seeded "
                "numpy.random.Generator (or random.Random) through the call "
                "chain instead",
            )


# --------------------------------------------------------------------------
# assert-validation
# --------------------------------------------------------------------------


def _check_assert_validation(module: ModuleInfo) -> Iterator[Finding]:
    """No assert-as-validation in library code.

    Library invariants enforced via assert silently disappear when Python
    runs with -O/-OO, turning guarded states (unfitted models, infeasible
    solver output) into corrupt downstream results instead of clean
    ReproError failures.
    """
    for node in module.source.nodes:
        if isinstance(node, ast.Assert):
            yield _finding(
                module,
                node,
                "assert-validation",
                "assert statements vanish under 'python -O'; validate with "
                "an explicit raise of a repro.errors exception",
            )


# --------------------------------------------------------------------------
# float-equality
# --------------------------------------------------------------------------

#: Identifier substrings that mark a value as a latency/energy objective.
_OBJECTIVE_NAME_PARTS = ("latency", "energy", "objective", "hypervolume")


def _objective_like(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        terminal = node.attr
    elif isinstance(node, ast.Name):
        terminal = node.id
    else:
        return None
    lowered = terminal.lower()
    for part in _OBJECTIVE_NAME_PARTS:
        if part in lowered:
            return terminal
    return None


def _check_float_equality(module: ModuleInfo) -> Iterator[Finding]:
    """No ==/!= on latency/energy objective floats.

    Latency and energy objectives are accumulated floats; exact equality
    depends on summation order, which the parallel executor deliberately
    does not fix — comparisons must be tolerance-based (the guardian's
    Eqn. 2 margin is, too).
    """
    for node in module.source.nodes:
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            name = _objective_like(left) or _objective_like(right)
            if name is not None:
                yield _finding(
                    module,
                    node,
                    "float-equality",
                    f"float ==/!= on objective value {name!r}; use "
                    "math.isclose / a tolerance — exact float comparison on "
                    "latency/energy objectives is representation-dependent",
                )


# --------------------------------------------------------------------------
# pickle-safety
# --------------------------------------------------------------------------


def _lambdas_under(node: ast.AST) -> Iterator[ast.Lambda]:
    for child in ast.walk(node):
        if isinstance(child, ast.Lambda):
            yield child


def _check_pickle_safety(module: ModuleInfo) -> Iterator[Finding]:
    """No lambdas/closures crossing the process-pool boundary.

    CampaignSpec objects and submit() payloads are pickled into worker
    processes; lambdas and closures fail to pickle only at runtime and
    only on the workers>1 path, which unit tests (workers=1) never
    exercise.
    """
    for node in module.source.nodes:
        if not isinstance(node, ast.Call):
            continue
        parts = dotted_parts(node.func)
        target: Optional[str] = None
        if parts and parts[-1] == "CampaignSpec":
            target = "CampaignSpec(...)"
        elif isinstance(node.func, ast.Attribute) and node.func.attr == "submit":
            target = ".submit(...)"
        if target is None:
            continue
        subtrees = [*node.args, *(kw.value for kw in node.keywords)]
        for subtree in subtrees:
            for lam in _lambdas_under(subtree):
                yield _finding(
                    module,
                    lam,
                    "pickle-safety",
                    f"lambda passed into {target} cannot cross the "
                    "ProcessPoolExecutor boundary (not picklable); use a "
                    "module-level function",
                )


# --------------------------------------------------------------------------
# obs-event-kind
# --------------------------------------------------------------------------


def _check_obs_event_kind(module: ModuleInfo) -> Iterator[Finding]:
    """Events emitted only with kinds from the typed registry.

    ``repro trace`` replays archived JSONL traces through schema-aware
    renderers; an unregistered or dynamically-built event kind produces
    traces the replayer cannot interpret, which the trace format version
    cannot catch.
    """
    for node in module.source.nodes:
        if not isinstance(node, ast.Call):
            continue
        if not (isinstance(node.func, ast.Attribute) and node.func.attr == "emit"):
            continue
        for keyword in node.keywords:
            if keyword.arg is None:
                yield _finding(
                    module,
                    node,
                    "obs-event-kind",
                    "emit() payload must be explicit keyword arguments, not "
                    "an unpacked ad-hoc dict — the trace schema is typed",
                )
        if not node.args:
            continue
        kind_node = node.args[0]
        if not (
            isinstance(kind_node, ast.Constant) and isinstance(kind_node.value, str)
        ):
            yield _finding(
                module,
                node,
                "obs-event-kind",
                "emit() kind must be a string literal from "
                "repro.obs.events.EVENT_KINDS so traces stay replayable",
            )
            continue
        if kind_node.value not in EVENT_KINDS:
            yield _finding(
                module,
                node,
                "obs-event-kind",
                f"event kind {kind_node.value!r} is not registered in "
                "repro.obs.events.EVENT_KINDS; register and document it in "
                "docs/observability.md",
            )


#: Checker id -> per-module checker; scopes live in the checker table.
MODULE_CHECKERS: dict[str, Callable[[ModuleInfo], Iterable[Finding]]] = {
    "assert-validation": _check_assert_validation,
    "float-equality": _check_float_equality,
    "obs-event-kind": _check_obs_event_kind,
    "pickle-safety": _check_pickle_safety,
    "unseeded-random": _check_unseeded_random,
    "wall-clock": _check_wall_clock,
}
