"""Golden digest of the ``service-smoke`` loadtest's decision log.

CI's ``service-smoke`` job runs the loadtest below twice and ``cmp``s
the two decision logs, which only proves a commit agrees with itself.
This pins the log across commits: its sha256 is recorded in
``golden/smoke_decisions.sha256`` (``sha256sum -c`` format, naming the
file CI writes), and a change that alters any decision must regenerate
it deliberately:

    PYTHONPATH=src:. python tests/service/golden/regen.py

Like the ``ext_fleet`` golden, this assumes the simulation produces the
same bytes on every host.
"""

import hashlib
import pathlib

from repro.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "smoke_decisions.sha256"

#: The CI smoke run: 60 clients x 3 rounds x 2 passes, seed 7 (360 lines).
SMOKE_ARGS = ["loadtest", "--clients", "60", "--rounds", "3", "--passes", "2", "--seed", "7"]

#: The log file name CI's smoke step writes, as recorded in the golden.
LOG_NAME = "decisions_a.jsonl"


def produce_decision_log(directory: pathlib.Path) -> pathlib.Path:
    """Run the smoke loadtest and return the path of its decision log."""
    path = directory / LOG_NAME
    if main([*SMOKE_ARGS, "--decision-log", str(path)]) != 0:
        raise RuntimeError("the smoke loadtest failed")
    return path


def test_smoke_decision_log_matches_golden_digest(tmp_path):
    log = produce_decision_log(tmp_path).read_bytes()
    assert log.count(b"\n") == 360
    digest, name = GOLDEN.read_text().split()
    assert name == LOG_NAME
    assert hashlib.sha256(log).hexdigest() == digest, (
        "the smoke decision log drifted from the golden digest; if the change "
        "is intentional, regenerate with tests/service/golden/regen.py"
    )
