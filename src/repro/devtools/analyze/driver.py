"""The ``repro analyze`` driver: index, graph, checkers, suppressions.

One run = parse every ``.py`` under the given paths into a
:class:`ProjectIndex`, build the :class:`CallGraph`, run the six
per-module checkers over the modules in their scope and the four
whole-program contract checkers over the graph, apply the one
suppression pass, and return a sorted :class:`AnalysisReport`.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Optional

from repro.devtools.analyze.boundaries import DEFAULT_WORKER_ROOTS, check_boundaries
from repro.devtools.analyze.callgraph import CallGraph
from repro.devtools.analyze.findings import (
    AnalysisReport,
    CHECKER_IDS,
    CHECKERS,
    Finding,
)
from repro.devtools.analyze.keys import DEFAULT_CONTRACTS, KeyContract, check_keys
from repro.devtools.analyze.project import ProjectIndex
from repro.devtools.analyze.registry import PLUMBING_EVENT_KINDS, check_registries
from repro.devtools.analyze.rules import MODULE_CHECKERS
from repro.devtools.analyze.taint import DEFAULT_TAINT_EXEMPT, check_taint
from repro.errors import ConfigurationError

#: Ids an allow-comment may name: all but ``suppression``, whose findings
#: are about the allow-comments themselves.
_ALLOWABLE_IDS = frozenset(CHECKER_IDS) - {"suppression"}


@dataclass(frozen=True)
class AnalyzeConfig:
    """Tunable contract surface; the defaults describe this repo."""

    taint_exempt: tuple[str, ...] = DEFAULT_TAINT_EXEMPT
    contracts: tuple[KeyContract, ...] = DEFAULT_CONTRACTS
    worker_roots: tuple[str, ...] = DEFAULT_WORKER_ROOTS
    plumbing_kinds: frozenset = PLUMBING_EVENT_KINDS


DEFAULT_CONFIG = AnalyzeConfig()


def find_repo_root(start: pathlib.Path) -> pathlib.Path:
    """The nearest ancestor of ``start`` holding a ``pyproject.toml``."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return current


def analyze_paths(
    paths: Sequence[pathlib.Path],
    *,
    root: Optional[pathlib.Path] = None,
    config: AnalyzeConfig = DEFAULT_CONFIG,
) -> AnalysisReport:
    """Run every checker over the project rooted at ``root``.

    ``root`` anchors the repo-relative paths that checker scopes and
    report locations use; by default it is discovered from the first path.
    """
    paths = [pathlib.Path(p) for p in paths]
    if not paths:
        raise ConfigurationError("analyze_paths needs at least one path")
    resolved_root = root if root is not None else find_repo_root(paths[0])
    project = ProjectIndex.load(paths, resolved_root)
    graph = CallGraph.build(project)

    findings: list[Finding] = []
    for relpath, line, col, message in project.parse_failures:
        findings.append(
            Finding(
                checker="parse-error",
                path=relpath,
                line=line,
                col=col,
                message=f"file does not parse: {message}",
            )
        )
    for info in project.files:
        for checker in CHECKERS:
            if checker.scope is not None and checker.scope.applies_to(
                info.source.relpath
            ):
                findings.extend(MODULE_CHECKERS[checker.id](info))
    findings.extend(check_taint(project, graph, config.taint_exempt))
    findings.extend(check_keys(project, graph, config.contracts))
    findings.extend(check_registries(project, graph, config.plumbing_kinds))
    findings.extend(check_boundaries(project, graph, config.worker_roots))
    findings = _apply_suppressions(project, findings)

    report = AnalysisReport(
        findings=findings,
        checked_modules=len(project.files) + len(project.parse_failures),
        checker_ids=list(CHECKER_IDS),
    )
    report.sort()
    return report


def _apply_suppressions(
    project: ProjectIndex, findings: list[Finding]
) -> list[Finding]:
    """Drop findings under a justified same-line allow; flag misused allows.

    A bare allow does not suppress and is reported, as is one naming an
    id no checker has.
    """
    allowed = {
        (info.source.relpath, s.checker, s.line)
        for info in project.files
        for s in info.source.suppressions
        if s.justification
    }
    kept = [f for f in findings if (f.path, f.checker, f.line) not in allowed]
    for info in project.files:
        for suppression in info.source.suppressions:
            if not suppression.justification:
                message = (
                    f"suppression of [{suppression.checker}] needs a "
                    "justification: '# repro: allow"
                    f"[{suppression.checker}] -- <why this is safe>'"
                )
            elif suppression.checker not in _ALLOWABLE_IDS:
                message = f"suppression names unknown rule {suppression.checker!r}"
            else:
                continue
            kept.append(
                Finding(
                    checker="suppression",
                    path=info.source.relpath,
                    line=suppression.line,
                    col=0,
                    message=message,
                )
            )
    return kept
