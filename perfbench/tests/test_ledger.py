"""A run's digest is checked against earlier ledger runs of the same source and seed."""

import json


def test_earlier_digests_match_workload_seed_and_source_of_correct_runs(tmp_path):
    import run

    ledger = tmp_path / "ledger.jsonl"
    assert run.earlier_digests(ledger, {"workload": "w", "seed": 1, "source": "s"}) == set()
    rows = [
        {"workload": "w", "seed": 1, "source": "s", "correct": True, "digest": "a"},
        {"workload": "w", "seed": 1, "source": "s", "correct": False, "digest": "bad"},
        {"workload": "w", "seed": 2, "source": "s", "correct": True, "digest": "other seed"},
        {"workload": "w", "seed": 1, "source": "edited", "correct": True, "digest": "other code"},
        {"workload": "v", "seed": 1, "source": "s", "correct": True, "digest": "other workload"},
    ]
    ledger.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert run.earlier_digests(ledger, {"workload": "w", "seed": 1, "source": "s"}) == {"a"}


def test_source_fingerprint_is_stable():
    import run

    assert run.source_fingerprint() == run.source_fingerprint()
