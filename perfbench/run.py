#!/usr/bin/env python3
"""Benchmark of the BoFL reproduction: run a workload, all of them, or compare ledgers.

Run from the root of a checkout (no install needed; ``src/`` is put on
the path)::

    python3 perfbench/run.py --workload campaign-grid --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py compare BASE.jsonl NEW.jsonl

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same inputs once untraced and once traced and reports per-layer
metrics.  Every run prints its metrics by name with their units, appends
one record to the ledger (``.perfbench/ledger.jsonl`` unless
``--ledger`` says otherwise) and ends with one JSON line::

    {"correct": true, "attempted": 600, "failed": 0, "metrics": {...}}

A failed correctness check, a nondeterministic digest or an exception
makes ``correct`` false and the exit code 1.  See perfbench/README.md.
"""

from __future__ import annotations

import os
import pathlib
import sys
import time

PROCESS_START = time.perf_counter()
HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bofl_bench.speed import PERIOD_S, REFERENCE_KERNEL_S, SpeedSampler  # noqa: E402

#: Samples host speed from process start, so set-up is normalized too.
SAMPLER = SpeedSampler()
if __name__ == "__main__":
    SAMPLER.start()

#: BLAS pools are pinned to one thread before numpy loads: the workloads
#: are many small linear-algebra calls, which threading only slows and
#: makes noisier.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

CHECKOUT = HERE.parent
SOURCE = CHECKOUT / "src"
STATE_DIR = CHECKOUT / ".perfbench"
sys.path.insert(0, str(SOURCE))

from bofl_bench import probes  # noqa: E402
from bofl_bench.workloads import (  # noqa: E402
    EXECUTOR_WORKERS,
    WORKLOADS,
    UnitResult,
    Workload,
    failed_share,
)

#: The end-to-end metrics of every untraced run, as bounded in BENCHMARK.json.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_share": "fraction",
}

#: Extra set-ups timed in fresh processes, so ``setup_s`` is a median of 7.
SETUP_PROBES = 6


def environment() -> dict[str, object]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "executor_workers": EXECUTOR_WORKERS,
        "speed_sampler": {"period_s": PERIOD_S, "reference_kernel_s": REFERENCE_KERNEL_S},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def peak_rss_mib() -> float:
    """Peak resident set of this process (every layer runs in it)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """(normalized, wall) set-up seconds of ``workload`` in a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=120, check=True,
    )
    normalized, wall = completed.stdout.split()
    return float(normalized), float(wall)


def source_fingerprint() -> str:
    """sha256 of the program source and the workload definitions."""
    digest = hashlib.sha256()
    for path in sorted([*SOURCE.rglob("*.py"), HERE / "bofl_bench" / "workloads.py"]):
        digest.update(str(path.relative_to(CHECKOUT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def earlier_digests(ledger: pathlib.Path, record: dict) -> set[str]:
    """Digests of correct ledger runs with this record's workload, seed and source."""
    if not ledger.exists():
        return set()
    key = ("workload", "seed", "source")
    earlier = (json.loads(line) for line in ledger.read_text(encoding="utf-8").splitlines()
               if line.strip())
    return {r["digest"] for r in earlier
            if r.get("correct") and all(r.get(k) == record[k] for k in key)}


def print_metric(name: str, value: float, unit: str) -> None:
    print(f"  {name:32s} {value:>16.6f} {unit}")


def measure(
    workload: Workload, state: object, seconds: float
) -> list[tuple[UnitResult, float, float]]:
    """Run units until the next one would overrun ``seconds`` (at least one).

    Returns (result, wall seconds, normalized seconds) per unit.  Each
    unit starts from a collected heap, so one unit's garbage is not
    collected on the next one's time.
    """
    units: list[tuple[UnitResult, float, float]] = []
    began = time.perf_counter()
    while True:
        gc.collect()
        started = time.perf_counter()
        outputs = workload.run(state)
        ended = time.perf_counter()
        units.append((workload.summarize(state, outputs), ended - started,
                      SAMPLER.normalized(started, ended)))
        del outputs
        if time.perf_counter() - began + (ended - started) > seconds:
            return units


def check_units(results: list[UnitResult]) -> list[str]:
    """Every unit's violations, plus any digest that differs from the first."""
    violations = [v for r in results for v in r.violations]
    digests = {r.digest for r in results}
    if len(digests) > 1:
        violations.append(f"nondeterministic: units produced {len(digests)} digests")
    return violations


def run_untraced(args: argparse.Namespace, workload: Workload, state: object,
                 setup: tuple[float, float], record: dict) -> tuple[dict, list[UnitResult]]:
    units = measure(workload, state, args.seconds)
    SAMPLER.stop()
    rss = peak_rss_mib()
    results = [r for r, _, _ in units]
    wall_s = sum(wall for _, wall, _ in units)
    ops = sum(r.ops for r in results)
    failed = failed_share(results)
    setups = [setup] + [setup_probe(workload.name, args.seed) for _ in range(SETUP_PROBES)]
    metrics = {
        "setup_s": statistics.median(norm for norm, _ in setups),
        "peak_rss_mib": rss,
        "ok_share": 1.0 - failed,
    }
    host = {
        "host_ms_per_op": (statistics.median(1e3 * norm / r.ops for r, _, norm in units),
                           "ms", "lower"),
        workload.throughput_name: (ops / wall_s, workload.throughput_unit, "higher"),
    }
    first = results[0]
    deterministic = {"failed_share": (failed, "fraction", "lower"), **first.sim}
    print(f"end-to-end ({len(units)} unit(s) in {wall_s:.3f} s wall; "
          "setup_s is normalized to the reference host speed):")
    for name, value in metrics.items():
        print_metric(name, value, END_TO_END_UNITS[name])
    print(f"host cost (one op = one {workload.op_unit}; host_ms_per_op: normalized, median "
          f"over units; {workload.throughput_name}: ops over wall seconds):")
    for name, (value, unit, _) in host.items():
        print_metric(name, value, unit)
    print("deterministic per seed (failed_share = 1 - ok_share; sim_*: simulated):")
    for name, (value, unit, _) in deterministic.items():
        print_metric(name, value, unit)
    for note in first.notes:
        print(f"  note: {note}")
    record.update(
        attempted=ops,
        metrics={k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        host={k: {"value": v, "unit": u, "better": b} for k, (v, u, b) in host.items()},
        workload_metrics={
            k: {"value": v, "unit": u, "better": b} for k, (v, u, b) in deterministic.items()
        },
        units=[{"wall_s": wall, "normalized_s": norm, "ops": r.ops} for r, wall, norm in units],
        setup_samples=[{"normalized_s": norm, "wall_s": wall} for norm, wall in setups],
        notes=first.notes,
    )
    return metrics, results


def run_traced(args: argparse.Namespace, workload: Workload, state: object,
               record: dict) -> tuple[dict, list[UnitResult]]:
    from bofl_bench.tracer import ROOT, Tracer

    SAMPLER.stop()  # its interrupts would land in whichever span is open
    gc.collect()
    started = time.perf_counter()
    outputs = workload.run(state)
    untraced_s = time.perf_counter() - started
    plain = workload.summarize(state, outputs)
    del outputs
    tracer = Tracer()
    probes.install(tracer)
    gc.collect()
    try:
        with tracer.span(ROOT):
            outputs = workload.run(state)
    finally:
        tracer.uninstall()
    traced = workload.summarize(state, outputs)
    metrics, notes = probes.per_layer_metrics(tracer, untraced_s)
    spans_dir = STATE_DIR / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / f"{workload.name}-seed{args.seed}.jsonl"
    tracer.write_jsonl(spans_path)
    print(f"per-layer (traced unit vs an untraced unit of {untraced_s:.3f} s; "
          f"spans in {spans_path.relative_to(CHECKOUT)}):")
    for name, value in metrics.items():
        print_metric(name, value, probes.PER_LAYER_UNITS[name])
    for note in notes:
        print(f"  note: {note}")
    record.update(
        attempted=plain.ops + traced.ops,
        metrics={k: {"value": v, "unit": probes.PER_LAYER_UNITS[k]} for k, v in metrics.items()},
        untraced_unit_s=untraced_s,
        notes=notes,
    )
    return metrics, [plain, traced]


def run_one(args: argparse.Namespace) -> int:
    if not (SOURCE / "repro").is_dir():
        print(f"error: no program source at {SOURCE}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    STATE_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=STATE_DIR)
    try:
        state = workload.setup(args.seed, workdir)
        setup_end = time.perf_counter()
        setup = (SAMPLER.normalized(PROCESS_START, setup_end), setup_end - PROCESS_START)
        if args.setup_probe:
            SAMPLER.stop()
            print(*setup)
            return 0
        env = environment()
        print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}, "
              f"seconds {args.seconds:g}")
        print("environment: " + json.dumps(env, sort_keys=True))
        record: dict = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                        "seconds": args.seconds, "env": env, "source": source_fingerprint()}
        try:
            if args.trace:
                metrics, results = run_traced(args, workload, state, record)
            else:
                metrics, results = run_untraced(args, workload, state, setup, record)
            violations = check_units(results)
            failed = 0
        except Exception:  # a crashed unit is a failed op, reported, never hidden
            traceback.print_exc()
            metrics, results = {}, []
            violations = ["exception: " + traceback.format_exc().strip().splitlines()[-1]]
            record.setdefault("attempted", 1)
            failed = 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    digest = results[0].digest if results else ""
    print(f"output digest (sha256 of the deterministic outputs): {digest}")
    ledger = pathlib.Path(args.ledger) if args.ledger else STATE_DIR / "ledger.jsonl"
    earlier = earlier_digests(ledger, record) if results else set()
    if earlier and digest not in earlier:
        violations.append("nondeterministic: an earlier run of the same source and seed "
                          f"in {ledger.name} produced digest {sorted(earlier)[0]}")
    for violation in violations:
        print(f"  CHECK FAILED: {violation}")
    correct = not violations
    record.update(correct=correct, failed=failed, digest=digest, violations=violations)
    ledger.parent.mkdir(parents=True, exist_ok=True)
    with ledger.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    units = probes.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": correct,
        "attempted": int(record.get("attempted", 1)),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, one after another."""
    status = {}
    for name in WORKLOADS:
        command = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.ledger:
            command += ["--ledger", args.ledger]
        print(f"=== {name}", flush=True)
        status[name] = subprocess.run(command, cwd=CHECKOUT, timeout=900).returncode
    print("=== summary: " + ", ".join(
        f"{name} {'ok' if code == 0 else f'FAILED (exit {code})'}"
        for name, code in status.items()))
    return 0 if all(code == 0 for code in status.values()) else 1


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"] or "all" in argv:
        SAMPLER.stop()  # nothing is timed in this process
    if argv[:1] == ["compare"]:
        from bofl_bench import compare

        return compare.main(argv[1:], CHECKOUT / "BENCHMARK.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure whole units until the next would overrun this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ledger", default="", help="ledger file (default .perfbench/ledger.jsonl)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    try:
        status = main(sys.argv[1:])
    finally:
        SAMPLER.stop()  # an interval timer left running kills the exiting process
    sys.exit(status)
