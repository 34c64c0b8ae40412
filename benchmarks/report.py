"""Machine-readable benchmark summary: the CI regression artifact.

Runs a fixed, representative campaign grid under an observability session,
times every cell, and writes one JSON document (``BENCH_<date>.json`` in
CI) recording wall-clock numbers, event/metric totals, and enough
environment detail to make cross-run comparisons meaningful.  The
scheduled benchmark-regression workflow uploads the file as an artifact;
diffing two of them shows where time went.

Usage::

    python benchmarks/report.py --out BENCH_2026-08-06.json \
        [--trace-dir obs-traces] [--rounds 12] [--seeds 0 1]
"""

from __future__ import annotations

import argparse
import datetime
import json
import pathlib
import platform
import sys
import time

from repro import obs
from repro._version import __version__
from repro.sim.runner import clear_campaign_cache, run_campaign

#: The timed grid: small enough for a scheduled job, wide enough to touch
#: every controller family the paper compares.
CELLS = tuple(
    (device, task, controller)
    for device in ("agx",)
    for task in ("vit", "lstm")
    for controller in ("bofl", "performant", "oracle")
)


def time_cell(
    device: str, task: str, controller: str, *, rounds: int, seed: int
) -> dict:
    """Run one uncached campaign cell and summarize it."""
    t0 = time.perf_counter()
    result = run_campaign(
        device, task, controller, 2.0, rounds=rounds, seed=seed, use_cache=False
    )
    return {
        "cell": f"{device}/{task}/{controller}/s{seed}",
        "wall_seconds": time.perf_counter() - t0,
        "rounds": rounds,
        "training_energy_j": result.training_energy,
        "mbo_energy_j": result.mbo_energy,
        "missed_rounds": result.missed_rounds,
        "explored_total": result.explored_total,
    }


def build_report(rounds: int, seeds: list[int], trace_dir: str = "") -> dict:
    """Time the whole grid (traced) and assemble the JSON document."""
    clear_campaign_cache()
    cells = []
    with obs.session() as session:
        started = time.perf_counter()
        for seed in seeds:
            for device, task, controller in CELLS:
                cells.append(
                    time_cell(device, task, controller, rounds=rounds, seed=seed)
                )
        total_seconds = time.perf_counter() - started
    if trace_dir:
        obs.write_trace(pathlib.Path(trace_dir) / "bench_report.jsonl", session.log)
    return {
        "schema": 1,
        "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "repro_version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "rounds": rounds,
        "seeds": seeds,
        "cells": cells,
        "total_wall_seconds": total_seconds,
        "event_counts": session.log.counts_by_kind(),
        "metrics": session.metrics.snapshot(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="output JSON path")
    parser.add_argument("--trace-dir", default="", help="also dump the obs trace here")
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    args = parser.parse_args(argv)

    report = build_report(args.rounds, args.seeds, trace_dir=args.trace_dir)
    out = args.out or f"BENCH_{datetime.date.today().isoformat()}.json"
    pathlib.Path(out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(
        f"{out}: {len(report['cells'])} cells in {report['total_wall_seconds']:.2f}s "
        f"({report['metrics']['counters'].get('controller.rounds', 0):g} controller "
        "rounds traced)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
