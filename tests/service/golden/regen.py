"""Regenerate the ``service-smoke`` decision-log digest.

Usage (from the repository root):

    PYTHONPATH=src:. python tests/service/golden/regen.py

Overwrites ``smoke_decisions.sha256`` next to this script with the
digest of a fresh run of the smoke loadtest (see
``tests/service/test_smoke_golden.py`` for its arguments).  Review why
the decisions changed before committing the new digest.
"""

import hashlib
import pathlib
import tempfile

from tests.service.test_smoke_golden import GOLDEN, LOG_NAME, produce_decision_log

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        log = produce_decision_log(pathlib.Path(directory)).read_bytes()
    GOLDEN.write_text(f"{hashlib.sha256(log).hexdigest()}  {LOG_NAME}\n")
    print(f"regenerated {GOLDEN}")
