"""Regenerate the fleet golden artifacts.

Usage (from the repository root):

    PYTHONPATH=src:. python tests/federated/golden/regen.py

Overwrites ``ext_fleet_summary.txt`` and ``ext_fleet_trace.jsonl`` next
to this script with a fresh run of the pinned configuration (see
``tests/federated/test_fleet_golden.py`` for the parameters), and
``smoke_results.sha256`` with the digests of the smoke spec's results
(see ``tests/federated/test_report_columns.py``).  Review the diff before
committing — the whole point of the goldens is that drift is a
deliberate act.
"""

from tests.federated.test_fleet_golden import GOLDEN_DIR, produce_artifacts
from tests.federated.test_report_columns import GOLDEN, smoke_digests

if __name__ == "__main__":
    summary = produce_artifacts(GOLDEN_DIR / "ext_fleet_trace.jsonl")
    (GOLDEN_DIR / "ext_fleet_summary.txt").write_text(summary)
    GOLDEN.write_text(
        "".join(f"{digest}  {mode}\n" for mode, digest in smoke_digests().items())
    )
    print(f"regenerated goldens under {GOLDEN_DIR}")
