"""Shared benchmark plumbing.

Every benchmark regenerates one paper artifact: it runs the experiment
driver (campaign results are memoized process-wide, so artifacts sharing
campaigns — fig9/fig11/tab3, fig12/fig13 — pay for them once), prints the
paper-style rows, asserts the qualitative "shape" claims, and times a
representative computational kernel via the ``benchmark`` fixture.

Rendered outputs are also written to ``benchmarks/out/<id>.txt`` so
EXPERIMENTS.md can reference the exact regenerated rows.

Set ``REPRO_BENCH_WORKERS=N`` (N > 1, or 0 for all cores) to precompute
every registered campaign grid through the parallel executor before the
benchmark modules run; the drivers then find all campaigns memoized.
Results are identical to serial execution — only wall-clock changes.
"""

from __future__ import annotations

import os
import pathlib
import re
import sys

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"

# bench_fleet_scale.py gates against the per-event reference loop in
# tests/federated/reference_fleet.py; `pytest benchmarks/` started as a
# console script does not put the repository root on the import path.
REPO_ROOT = str(pathlib.Path(__file__).resolve().parent.parent)
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)


def pytest_sessionstart(session):
    """Optionally warm the campaign caches in parallel (opt-in via env)."""
    raw = os.environ.get("REPRO_BENCH_WORKERS", "")
    if not raw:
        return
    workers = None if raw == "0" else int(raw)
    if workers == 1:
        return
    from repro.experiments.registry import EXPERIMENTS
    from repro.sim.executor import CampaignExecutor

    # A spec is its own cache key: dict.fromkeys drops repeats, in order.
    specs = list(dict.fromkeys(
        spec
        for experiment in EXPERIMENTS.values()
        if experiment.grid is not None
        for spec in experiment.grid()
    ))

    def progress(done, total, timing):
        print(f"[prefetch {done}/{total}] {timing.render()}", file=sys.stderr)

    executor = CampaignExecutor(workers=workers, progress=progress)
    report = executor.run(specs)
    print(
        f"prefetched {len(specs)} campaigns in {report.wall_seconds:.1f}s "
        f"on {executor.workers} workers",
        file=sys.stderr,
    )


@pytest.fixture(autouse=True)
def obs_trace(request):
    """Record a per-test observability trace when ``REPRO_OBS_DIR`` is set.

    The benchmark-regression CI job sets the variable and uploads the
    JSONL files as failure diagnostics; locally (unset) this is a no-op
    and benchmarks run with observability disabled, as always.
    """
    trace_dir = os.environ.get("REPRO_OBS_DIR")
    if not trace_dir:
        yield
        return
    from repro import obs

    with obs.session() as session:
        yield
    safe = re.sub(r"[^\w.-]+", "_", request.node.nodeid)
    obs.write_trace(pathlib.Path(trace_dir) / f"{safe}.jsonl", session.log)


@pytest.fixture(scope="session")
def report_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture()
def publish(report_dir, capsys):
    """Print a rendered artifact through capture and persist it to disk."""

    def _publish(experiment_id: str, text: str) -> None:
        (report_dir / f"{experiment_id}.txt").write_text(text + "\n")
        with capsys.disabled():
            print(f"\n{'=' * 72}\n{text}\n{'=' * 72}")

    return _publish
