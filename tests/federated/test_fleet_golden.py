"""Golden-trace regression test for the ``ext_fleet`` experiment.

Pins the experiment's rendered summary table and its deterministic
observability trace byte-for-byte at a fixed seed and a small round
count.  Any change to the federation stack, the simulator, or the obs
layer that shifts these artifacts must be deliberate:

    PYTHONPATH=src:. python tests/federated/golden/regen.py

regenerates both files; review the diff before committing it.
"""

import pathlib

from repro.experiments import ext_fleet
from repro.obs import runtime as obs
from repro.obs.columnar import write_trace

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: Small on purpose: 2 rounds keeps the BoFL clients in their cheap
#: early-exploration regime so the test stays fast while still covering
#: selection, deadline assignment, straggler accounting and aggregation.
ROUNDS = 2
DEADLINE_RATIO = 2.5
SEED = 0


def produce_artifacts(trace_path):
    """Run the pinned ``ext_fleet`` configuration and record its trace.

    Returns the rendered summary; writes the deterministic obs trace
    (wall-clock payloads stripped) to ``trace_path``.  Shared by the test
    below and by ``golden/regen.py``.
    """
    with obs.session(deterministic=True) as session:
        payload = ext_fleet.run(rounds=ROUNDS, deadline_ratio=DEADLINE_RATIO, seed=SEED)
    write_trace(trace_path, session.log)
    return ext_fleet.render(payload) + "\n"


def test_ext_fleet_matches_golden_artifacts(tmp_path):
    trace_path = tmp_path / "ext_fleet_trace.jsonl"
    summary = produce_artifacts(trace_path)

    golden_summary = (GOLDEN_DIR / "ext_fleet_summary.txt").read_text()
    assert summary == golden_summary, (
        "ext_fleet summary drifted from the golden snapshot; if the change "
        "is intentional, regenerate with tests/federated/golden/regen.py"
    )

    golden_trace = (GOLDEN_DIR / "ext_fleet_trace.jsonl").read_bytes()
    assert trace_path.read_bytes() == golden_trace, (
        "ext_fleet deterministic obs trace is no longer byte-identical to "
        "the golden snapshot; if the change is intentional, regenerate with "
        "tests/federated/golden/regen.py"
    )
