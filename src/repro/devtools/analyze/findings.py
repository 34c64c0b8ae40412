"""The checker table, findings, reports, SARIF output and the ratchet.

:data:`CHECKERS` is the one table of finding ids: six per-module
checkers (each with the repo-relative scope of files it reads), four
whole-program checkers, and the engine's own ``parse-error`` and
``suppression`` ids.  A :class:`Finding` is one breach at one source
location.  Everything downstream of the checkers is deterministic by
construction — findings sort on ``(path, line, col, checker, message)``,
every serializer dumps with ``sort_keys=True`` and no timestamps, and
the baseline is a sorted multiset of content fingerprints so re-running
the analyzer twice (or on another machine) yields byte-identical
artifacts.

The fingerprint deliberately omits line/column: moving a violating call
a few lines does not mint a "new" violation, so the ratchet only fires
when genuinely new contract breaches appear.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import pathlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError

#: Bump when the JSON report layout changes; CI consumers pin on this.
ANALYSIS_REPORT_VERSION = 1

#: Bump when the baseline layout or fingerprint recipe changes.
BASELINE_VERSION = 1


def glob_match(relpath: str, pattern: str) -> bool:
    """``fnmatch`` with ``**`` spanning directory separators."""
    if fnmatch.fnmatch(relpath, pattern):
        return True
    # "pkg/**" should also match "pkg" itself and files directly under it.
    if pattern.endswith("/**"):
        base = pattern[:-3]
        return relpath == base or relpath.startswith(base + "/")
    return False


@dataclass(frozen=True)
class Scope:
    """The files a per-module checker reads, as repo-relative globs.

    ``exempt`` is the *structural* allowlist (e.g. the two timing modules
    for ``wall-clock``), distinct from per-line allow-comments, which
    require a justification.
    """

    include: tuple[str, ...]
    exempt: tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        if not any(glob_match(relpath, pattern) for pattern in self.include):
            return False
        return not any(glob_match(relpath, pattern) for pattern in self.exempt)


@dataclass(frozen=True)
class Checker:
    """One finding id: per-module checkers carry a scope, the rest none."""

    id: str
    summary: str
    scope: Optional[Scope] = None


_LIBRARY = Scope(include=("src/repro/**",))

#: Every finding id, in id order (drives --list-checkers and SARIF rules).
CHECKERS: tuple[Checker, ...] = (
    Checker("assert-validation", "no assert-as-validation in library code", _LIBRARY),
    Checker(
        "determinism-taint",
        "no wall-clock / unseeded-RNG / filesystem-ordering value may reach "
        "trace emission, cache-key construction, or decision-plan solving",
    ),
    Checker(
        "float-equality", "no ==/!= on latency/energy objective floats", _LIBRARY
    ),
    Checker(
        "key-completeness",
        "every field of a keyed spec dataclass flows into its cache/token "
        "key, or carries an explicit '# key_exempt: <why>' marker",
    ),
    Checker(
        "obs-event-kind",
        "events emitted only with kinds from the typed registry",
        # The obs package itself is the plumbing that forwards kinds.
        Scope(include=("src/repro/**",), exempt=("src/repro/obs/**",)),
    ),
    Checker(
        "parse-error", "the file must parse before any contract can be checked"
    ),
    Checker(
        "pickle-safety",
        "no lambdas/closures crossing the process-pool boundary",
        _LIBRARY,
    ),
    Checker(
        "process-boundary",
        "no mutable module-level state is written on paths reachable from "
        "worker entry points or the service coalescing path",
    ),
    Checker(
        "registry-closure",
        "every emitted obs event kind / counter name is registered, and "
        "every registered one has at least one emitter",
    ),
    Checker(
        "suppression",
        "every '# repro: allow[id]' names known ids and gives a justification",
    ),
    Checker(
        "unseeded-random",
        "no module-level random.* / np.random.* API in library code",
        _LIBRARY,
    ),
    Checker(
        "wall-clock",
        "no wall-clock reads outside the allowlisted timing modules",
        # The two modules whose whole point is measuring wall time, and
        # the benchmark tree (outside src/ but listed for clarity).
        Scope(
            include=("src/repro/**",),
            exempt=(
                "src/repro/obs/metrics.py",
                "src/repro/sim/executor.py",
                "benchmarks/**",
            ),
        ),
    ),
)

#: Stable, sorted tuple of every finding id.
CHECKER_IDS: tuple[str, ...] = tuple(sorted(checker.id for checker in CHECKERS))

_SUMMARIES = {checker.id: checker.summary for checker in CHECKERS}


@dataclass(frozen=True)
class Finding:
    """One contract breach at one source location."""

    checker: str
    path: str  # repo-root-relative, posix separators
    line: int
    col: int
    message: str

    def fingerprint(self) -> str:
        """Location-drift-tolerant content hash used by the baseline."""
        payload = json.dumps(
            [self.checker, self.path, self.message],
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict[str, object]:
        return {
            "checker": self.checker,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.checker}] {self.message}"


@dataclass
class AnalysisReport:
    """The outcome of one ``analyze_paths`` run."""

    findings: list[Finding] = field(default_factory=list)
    checked_modules: int = 0
    checker_ids: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def sort(self) -> None:
        self.findings.sort(key=lambda f: (f.path, f.line, f.col, f.checker, f.message))

    def to_dict(self) -> dict[str, object]:
        return {
            "version": ANALYSIS_REPORT_VERSION,
            "ok": self.ok,
            "checked_modules": self.checked_modules,
            "checkers": list(self.checker_ids),
            "findings": [f.to_dict() for f in self.findings],
        }

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_human(self) -> str:
        lines = [finding.render() for finding in self.findings]
        lines.append(
            f"repro analyze: {len(self.findings)} finding(s) in "
            f"{self.checked_modules} module(s) "
            f"({len(self.checker_ids)} checker(s))"
        )
        return "\n".join(lines)

    def render_sarif(self) -> str:
        """Minimal SARIF 2.1.0 — one run, one rule per checker."""
        rules = [
            {
                "id": checker_id,
                "name": checker_id.replace("-", " ").title().replace(" ", ""),
                "shortDescription": {"text": _SUMMARIES[checker_id]},
            }
            for checker_id in sorted(self.checker_ids)
        ]
        results = [
            {
                "ruleId": finding.checker,
                "level": "error",
                "message": {"text": finding.message},
                "partialFingerprints": {"reproAnalyze/v1": finding.fingerprint()},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": finding.path},
                            "region": {
                                "startLine": max(finding.line, 1),
                                "startColumn": finding.col + 1,
                            },
                        }
                    }
                ],
            }
            for finding in self.findings
        ]
        document = {
            "$schema": (
                "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json"
            ),
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "repro-analyze",
                            "informationUri": "docs/static_analysis.md",
                            "rules": rules,
                        }
                    },
                    "results": results,
                }
            ],
        }
        return json.dumps(document, indent=2, sort_keys=True)


# --------------------------------------------------------------------------
# Baseline + ratchet
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RatchetResult:
    """New-vs-baseline comparison: what the ratchet lets through."""

    new: tuple[Finding, ...]
    baselined: int
    stale: int

    @property
    def ok(self) -> bool:
        return not self.new

    def render(self) -> str:
        lines = [finding.render() for finding in self.new]
        lines.append(
            f"repro analyze --ratchet: {len(self.new)} new finding(s), "
            f"{self.baselined} baselined, {self.stale} stale baseline entr"
            f"{'y' if self.stale == 1 else 'ies'}"
        )
        return "\n".join(lines)


def baseline_fingerprints(report: AnalysisReport) -> list[str]:
    return sorted(finding.fingerprint() for finding in report.findings)


def render_baseline(report: AnalysisReport) -> str:
    document = {
        "version": BASELINE_VERSION,
        "fingerprints": baseline_fingerprints(report),
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def load_baseline(path: pathlib.Path) -> "Counter[str]":
    """The committed fingerprint multiset; a missing file is an empty one."""
    if not path.is_file():
        return Counter()
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"baseline {path} is not valid JSON: {error}")
    if not isinstance(document, dict) or document.get("version") != BASELINE_VERSION:
        raise ConfigurationError(
            f"baseline {path} has unsupported layout (want version "
            f"{BASELINE_VERSION}); regenerate with 'repro analyze "
            "--write-baseline'"
        )
    fingerprints = document.get("fingerprints")
    if not isinstance(fingerprints, list) or not all(
        isinstance(item, str) for item in fingerprints
    ):
        raise ConfigurationError(f"baseline {path}: 'fingerprints' must be strings")
    return Counter(fingerprints)


def ratchet(report: AnalysisReport, baseline: "Counter[str]") -> RatchetResult:
    """Split findings into baselined and new; count stale baseline entries.

    The baseline is a *multiset*: two identical-fingerprint findings need
    two baseline entries, so duplicating a baselined violation still
    fails the ratchet.
    """
    remaining = Counter(baseline)
    new: list[Finding] = []
    baselined = 0
    for finding in report.findings:  # already sorted by the driver
        fingerprint = finding.fingerprint()
        if remaining[fingerprint] > 0:
            remaining[fingerprint] -= 1
            baselined += 1
        else:
            new.append(finding)
    stale = sum(remaining.values())
    return RatchetResult(new=tuple(new), baselined=baselined, stale=stale)
