"""Key-completeness checker: every spec field reaches its cache key."""


def key_hits(report):
    return [f for f in report.findings if f.checker == "key-completeness"]


def campaign_tree(fields, token):
    """A miniature repo: ``CampaignSpec`` in runner.py, ``cache_token`` in cache.py."""
    return {
        "src/repro/sim/runner.py": (
            "from dataclasses import dataclass\n"
            "\n"
            "@dataclass(frozen=True)\n"
            "class CampaignSpec:\n"
            + "".join(f"    {line}\n" for line in fields)
        ),
        "src/repro/sim/cache.py": token,
    }


class TestKeyCompleteness:
    def test_dropped_field_is_flagged(self, analyze_tree):
        report = analyze_tree(campaign_tree(
            ["device: str", "task: str", 'debug_label: str = ""'],
            """\
                def cache_token(spec):
                    return {"device": spec.device, "task": spec.task}
            """,
        ))
        hits = key_hits(report)
        assert len(hits) == 1
        assert "debug_label" in hits[0].message
        assert "key_exempt" in hits[0].message
        assert hits[0].path == "src/repro/sim/runner.py"
        assert hits[0].line == 7  # the field definition line

    def test_token_that_drops_a_field_is_flagged(self, analyze_tree):
        # The durable key is the one that can go wrong: a token that writes
        # a constant where a field belongs serves one campaign for another.
        report = analyze_tree(campaign_tree(
            ["device: str", "rounds: int = 100", "seed: int = 0"],
            """\
                def cache_token(spec):
                    return {"device": spec.device, "rounds": spec.rounds, "seed": 0}

                def cache_key_hash(spec):
                    return str(cache_token(spec))
            """,
        ))
        hits = key_hits(report)
        assert len(hits) == 1
        assert "'seed'" in hits[0].message
        assert "repro.sim.cache.cache_token" in hits[0].message

    def test_field_consumed_transitively_passes(self, analyze_tree):
        report = analyze_tree(campaign_tree(
            ["device: str", "rounds: int = 100"],
            """\
                def cache_token(spec):
                    return {"device": spec.device, "tail": _tail(spec)}

                def _tail(spec):
                    return spec.rounds
            """,
        ))
        assert key_hits(report) == []

    def test_exempt_marker_with_reason_passes(self, analyze_tree):
        report = analyze_tree(campaign_tree(
            [
                "device: str",
                'debug_label: str = ""  # key_exempt: display only, never affects results',
            ],
            """\
                def cache_token(spec):
                    return {"device": spec.device}
            """,
        ))
        assert key_hits(report) == []

    def test_bare_marker_needs_justification(self, analyze_tree):
        report = analyze_tree(campaign_tree(
            ["device: str", 'debug_label: str = ""  # key_exempt'],
            """\
                def cache_token(spec):
                    return {"device": spec.device}
            """,
        ))
        hits = key_hits(report)
        assert len(hits) == 1
        assert "needs a justification" in hits[0].message

    def test_missing_key_function_is_flagged(self, analyze_tree):
        report = analyze_tree(campaign_tree(
            ["device: str"],
            """\
                def other_token(spec):
                    return {"device": spec.device}
            """,
        ))
        hits = key_hits(report)
        assert len(hits) == 1
        assert "missing function" in hits[0].message
        assert "cache_token" in hits[0].message

    def test_absent_contract_dataclasses_are_skipped(self, analyze_tree):
        # A tree with none of the contract dataclasses: nothing to check.
        report = analyze_tree({
            "src/repro/sim/other.py": """\
                def f():
                    return 1
            """,
        })
        assert key_hits(report) == []

    def test_request_token_contract(self, analyze_tree):
        report = analyze_tree({
            "src/repro/service/api.py": """\
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class DecisionRequest:
                    device: str
                    jobs: int
                    client_id: str = ""  # key_exempt: routing metadata only
                    priority: int = 0

                    def token(self):
                        return {"device": self.device, "jobs": self.jobs}
            """,
        })
        hits = key_hits(report)
        assert len(hits) == 1
        assert "priority" in hits[0].message
        assert "client_id" not in hits[0].message
