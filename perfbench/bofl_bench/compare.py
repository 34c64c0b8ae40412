"""``run.py compare BASE NEW``: two ledgers, metric by metric, workload by workload.

For every end-to-end metric of every workload, bounded in BENCHMARK.json
(the only source of bounds and directions), it prints each side's median
and quartiles and one verdict:

* ``unresolved`` — either side's spread (interquartile distance over
  median) exceeds the metric's bound, and the runs do not all fall on
  one side (every new run better than every base run reads
  ``improved``; every one worse reads ``regressed``);
* ``regressed`` — the new median is worse than the base median by more
  than the bound;
* ``improved`` — the new median is better by more than the base's own
  spread, and the new run wins at least 9 in 10 of the seeds both
  ledgers ran;
* ``within bound`` — anything else.

Host cost (``host_ms_per_op``, the throughput) is not bounded: a
workload's host cost depends on its seed, so it is compared seed by
seed, as the median over shared seeds of the per-seed change, with how
many seeds got worse, and no verdict.  ``failed_share``, the simulated
metrics and the output digests are deterministic per seed, so they are
compared seed by seed and read ``identical`` or ``changed``; a
``failed_share`` that rises on any seed counts as a regression.  For
traced runs it ranks the layers by how far their median self time moved.
"""

from __future__ import annotations

import argparse
import json
import pathlib
from collections import defaultdict
from collections.abc import Sequence
from typing import Any

from bofl_bench.stats import quartiles, spread

#: Share of seed pairs the new side must win before a gain is claimed.
WIN_SHARE = 0.9


def load(path: pathlib.Path) -> list[dict[str, Any]]:
    """Every record of a ledger file (one JSON object per line)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def verdict(
    base: Sequence[float],
    new: Sequence[float],
    better: str,
    bound: float,
    pairs: Sequence[tuple[float, float]] = (),
) -> tuple[str, float]:
    """(verdict, signed relative change of the medians; positive is better)."""
    sign = 1.0 if better == "higher" else -1.0
    base_median = quartiles(base)[1]
    new_median = quartiles(new)[1]
    change = sign * (new_median - base_median) / abs(base_median) if base_median else 0.0
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    all_worse = max(sign * v for v in new) < min(sign * v for v in base)
    if max(spread(base), spread(new)) > bound:
        if all_better:
            return "improved", change
        if all_worse:
            return "regressed", change
        return "unresolved", change
    if change < -bound:
        return "regressed", change
    wins = sum(1 for b, n in pairs if sign * n > sign * b)
    if change > spread(base) and (not pairs or wins >= WIN_SHARE * len(pairs)):
        return "improved", change
    return "within bound", change


def _by_seed(records: list[dict[str, Any]]) -> dict[int, dict[str, Any]]:
    """The last record per seed (a re-run replaces an earlier one)."""
    return {r["seed"]: r for r in records}


def _fmt(values: Sequence[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:12.4f} [{q1:.4f}, {q3:.4f}]"


def compare_untraced(
    name: str, base: list[dict[str, Any]], new: list[dict[str, Any]],
    spec: dict[str, dict[str, Any]],
) -> tuple[list[str], bool]:
    """Report lines for one workload's untraced runs, and whether any metric regressed."""
    regressed = False
    lines = [f"{name} (untraced): base {len(base)} run(s), new {len(new)} run(s)",
             f"  {'metric':28s} {'base median [q1, q3]':>34s} {'new median [q1, q3]':>34s}"
             f" {'change':>8s}  verdict"]
    base_seed, new_seed = _by_seed(base), _by_seed(new)
    shared = sorted(set(base_seed) & set(new_seed))
    for metric, meta in spec.items():
        b = [r["metrics"][metric]["value"] for r in base if metric in r.get("metrics", {})]
        n = [r["metrics"][metric]["value"] for r in new if metric in r.get("metrics", {})]
        if not b or not n:
            continue
        pairs = [(base_seed[s]["metrics"][metric]["value"], new_seed[s]["metrics"][metric]["value"])
                 for s in shared
                 if metric in base_seed[s].get("metrics", {})
                 and metric in new_seed[s].get("metrics", {})]
        result, change = verdict(b, n, meta["better"], meta["bound"], pairs)
        regressed |= result == "regressed"
        lines.append(f"  {metric:28s} {_fmt(b):>34s} {_fmt(n):>34s} {change:+8.2%}  {result}"
                     f" (bound {meta['bound']:.2%}, {meta['unit']})")
    for metric, meta in sorted(new[-1].get("host", {}).items()):
        pairs = [(base_seed[s]["host"][metric]["value"], new_seed[s]["host"][metric]["value"])
                 for s in shared if metric in base_seed[s].get("host", {})]
        if not pairs:
            continue
        sign = 1.0 if meta["better"] == "higher" else -1.0
        changes = [sign * (n / b - 1.0) for b, n in pairs]
        worse = sum(1 for change in changes if change < 0)
        lines.append(f"  {metric:28s} {_fmt([b for b, _ in pairs]):>34s} "
                     f"{_fmt([n for _, n in pairs]):>34s} {quartiles(changes)[1]:+8.2%}  "
                     f"not bounded: worse on {worse} of {len(pairs)} seed(s) ({meta['unit']})")
    for metric in sorted(new[-1].get("workload_metrics", {})):
        def value(records: dict[int, dict[str, Any]], seed: int) -> Any:
            return records[seed].get("workload_metrics", {}).get(metric, {}).get("value")

        differ = [s for s in shared if value(base_seed, s) != value(new_seed, s)]
        rose = [s for s in differ if metric == "failed_share"
                and (value(base_seed, s) or 0.0) < (value(new_seed, s) or 0.0)]
        regressed |= bool(rose)
        lines.append(f"  {metric:28s} " + (
            f"ROSE on seed(s) {rose}: regressed" if rose
            else f"changed on seed(s) {differ}" if differ
            else f"identical on {len(shared)} seed(s)"))
    changed = [s for s in shared if base_seed[s].get("digest") != new_seed[s].get("digest")]
    lines.append(f"  {'output digest':28s} " + (
        f"CHANGED on seed(s) {changed}" if changed else f"identical on {len(shared)} seed(s)"))
    return lines, regressed


def compare_traced(name: str, base: list[dict[str, Any]], new: list[dict[str, Any]]) -> list[str]:
    def layer_medians(records: list[dict[str, Any]]) -> dict[str, float]:
        values: dict[str, list[float]] = defaultdict(list)
        for r in records:
            for metric, entry in r.get("metrics", {}).items():
                parts = metric.split(".")
                if len(parts) == 2 and parts[1] == "self_s":
                    values[parts[0]].append(entry["value"])
        return {layer: quartiles(v)[1] for layer, v in values.items()}

    b, n = layer_medians(base), layer_medians(new)
    moved = sorted(set(b) & set(n), key=lambda layer: -abs(n[layer] - b[layer]))
    lines = [f"{name} (traced): base {len(base)} run(s), new {len(new)} run(s); "
             "layers by how far their median self time moved:"]
    for layer in moved:
        delta = n[layer] - b[layer]
        share = f"{delta / b[layer]:+.1%}" if b[layer] else "n/a"
        lines.append(f"  {layer:12s} {b[layer]:10.4f} s -> {n[layer]:10.4f} s"
                     f"  ({delta:+.4f} s, {share})")
    return lines


def compare(base: list[dict[str, Any]], new: list[dict[str, Any]],
            spec: dict[str, dict[str, Any]]) -> tuple[list[str], bool]:
    """Report lines, and whether any metric regressed."""
    groups: dict[tuple[str, int], tuple[list[dict[str, Any]], list[dict[str, Any]]]] = (
        defaultdict(lambda: ([], []))
    )
    for side, records in enumerate((base, new)):
        for r in records:
            groups[(r["workload"], int(r["trace"]))][side].append(r)
    lines: list[str] = []
    regressed = False
    for (name, trace), (b, n) in sorted(groups.items()):
        if not b or not n:
            lines.append(f"{name} (trace {trace}): only in {'new' if n else 'base'}; skipped")
            continue
        if trace:
            block = compare_traced(name, b, n)
        else:
            block, worse = compare_untraced(name, b, n, spec)
            regressed |= worse
        lines.extend(block + [""])
    return lines, regressed


def main(argv: Sequence[str], benchmark_json: pathlib.Path) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare", description=__doc__.splitlines()[0])
    parser.add_argument("base", type=pathlib.Path, help="ledger of the parent commit")
    parser.add_argument("new", type=pathlib.Path, help="ledger of the change")
    args = parser.parse_args(list(argv))
    spec = {m["name"]: m for m in json.loads(benchmark_json.read_text())["end_to_end"]}
    lines, regressed = compare(load(args.base), load(args.new), spec)
    print("\n".join(lines))
    return 1 if regressed else 0
