"""Tests for the six per-module checkers of ``repro analyze``.

Each checker gets a flagging and a non-flagging fixture, built as a
throwaway repo tree (``<tmp>/pyproject.toml`` + ``<tmp>/src/repro/...``)
so the repo-root-relative include/exempt scopes resolve exactly as they
do on the real tree.  The engine paths the checkers share — scopes,
allow-comments, parse errors, reports and the ratchet gate — are tested
here too.
"""

import json
import pathlib
from collections import Counter

import pytest

from repro.devtools.analyze import (
    ANALYSIS_REPORT_VERSION,
    CHECKERS,
    AnalysisReport,
    analyze_paths,
    find_repo_root,
    render_baseline,
)
from repro.devtools.analyze.rules import MODULE_CHECKERS
from repro.errors import ConfigurationError

RULE_IDS = (
    "assert-validation",
    "float-equality",
    "obs-event-kind",
    "pickle-safety",
    "unseeded-random",
    "wall-clock",
)


def hits(report, *checker_ids):
    return [f for f in report.findings if f.checker in checker_ids]


def clean(report, *checker_ids):
    """No finding of ``checker_ids`` or of the always-on engine ids."""
    return not hits(report, *checker_ids, "parse-error", "suppression")


class TestRegistry:
    def test_all_builtin_rules_registered(self):
        assert tuple(sorted(MODULE_CHECKERS)) == RULE_IDS
        assert tuple(c.id for c in CHECKERS if c.scope is not None) == RULE_IDS

    def test_every_rule_documents_itself(self):
        for checker in CHECKERS:
            assert checker.summary
        for rule_id in RULE_IDS:
            # The rationale: a real sentence, not a stub.
            assert len(MODULE_CHECKERS[rule_id].__doc__) > 40
        assert all(c.scope.include for c in CHECKERS if c.scope is not None)


class TestWallClock:
    def test_flags_direct_and_aliased_reads(self, analyze_tree):
        report = analyze_tree({
            "src/repro/sim/runner.py": """\
                import time
                from time import perf_counter as pc

                def stamp():
                    return time.time() + pc()
            """,
        })
        found = hits(report, "wall-clock")
        assert len(found) == 2
        assert "time.time" in found[0].message
        assert found[0].path == "src/repro/sim/runner.py"

    def test_flags_datetime_now(self, analyze_tree):
        report = analyze_tree({
            "src/repro/core/run.py": """\
                import datetime

                def stamp():
                    return datetime.datetime.now()
            """,
        })
        assert len(hits(report, "wall-clock")) == 1

    def test_exempt_timing_modules_are_skipped(self, analyze_tree):
        report = analyze_tree({
            "src/repro/obs/metrics.py": """\
                import time

                def span():
                    return time.perf_counter()
            """,
        })
        assert clean(report, "wall-clock")

    def test_local_variable_named_time_is_not_the_module(self, analyze_tree):
        report = analyze_tree({
            "src/repro/core/run.py": """\
                def simulated(clock):
                    time = clock
                    return time.time()
            """,
        })
        assert clean(report, "wall-clock")


class TestUnseededRandom:
    def test_flags_global_state_apis(self, analyze_tree):
        report = analyze_tree({
            "src/repro/bayesopt/warmup.py": """\
                import random
                import numpy as np

                def draw():
                    return random.random() + np.random.rand()
            """,
        })
        assert len(hits(report, "unseeded-random")) == 2

    def test_seeded_generator_constructors_allowed(self, analyze_tree):
        report = analyze_tree({
            "src/repro/bayesopt/warmup.py": """\
                import random
                import numpy as np

                def generators(seed):
                    return np.random.default_rng(seed), random.Random(seed)
            """,
        })
        assert clean(report, "unseeded-random")

    def test_method_calls_on_a_generator_allowed(self, analyze_tree):
        report = analyze_tree({
            "src/repro/bayesopt/warmup.py": """\
                def draw(rng):
                    return rng.random()
            """,
        })
        assert clean(report, "unseeded-random")


class TestAssertValidation:
    def test_flags_assert(self, analyze_tree):
        report = analyze_tree({
            "src/repro/ilp/check.py": """\
                def validate(x):
                    assert x is not None, "missing"
                    return x
            """,
        })
        found = hits(report, "assert-validation")
        assert len(found) == 1
        assert "python -O" in found[0].message

    def test_explicit_raise_is_clean(self, analyze_tree):
        report = analyze_tree({
            "src/repro/ilp/check.py": """\
                def validate(x):
                    if x is None:
                        raise ValueError("missing")
                    return x
            """,
        })
        assert clean(report, "assert-validation")


class TestFloatEquality:
    def test_flags_eq_and_ne_on_objective_names(self, analyze_tree):
        report = analyze_tree({
            "src/repro/core/front.py": """\
                def same(a, b):
                    return a.latency == b.latency or a.energy != b.energy
            """,
        })
        assert len(hits(report, "float-equality")) == 2

    def test_ordering_comparisons_and_other_names_clean(self, analyze_tree):
        report = analyze_tree({
            "src/repro/core/front.py": """\
                def dominates(a, b, rounds):
                    return a.latency <= b.latency and rounds == 3
            """,
        })
        assert clean(report, "float-equality")


class TestPickleSafety:
    def test_flags_lambda_into_spec_and_submit(self, analyze_tree):
        report = analyze_tree({
            "src/repro/sim/plan.py": """\
                def build(pool, CampaignSpec):
                    spec = CampaignSpec(on_job=lambda r: r)
                    pool.submit(lambda: 1)
                    return spec
            """,
        })
        found = hits(report, "pickle-safety")
        assert len(found) == 2
        assert "picklable" in found[0].message

    def test_module_level_callables_clean(self, analyze_tree):
        report = analyze_tree({
            "src/repro/sim/plan.py": """\
                def on_job(r):
                    return r

                def build(pool, CampaignSpec):
                    pool.submit(on_job)
                    return CampaignSpec(on_job=on_job)
            """,
        })
        assert clean(report, "pickle-safety")

    def test_lambda_elsewhere_is_fine(self, analyze_tree):
        report = analyze_tree({
            "src/repro/sim/plan.py": """\
                def order(rows):
                    return sorted(rows, key=lambda r: r[0])
            """,
        })
        assert clean(report, "pickle-safety")


class TestObsEventKind:
    def test_flags_unregistered_kind(self, analyze_tree):
        report = analyze_tree({
            "src/repro/core/loop.py": """\
                from repro import obs

                def tick():
                    obs.emit("bogus.kind", 0.0, value=1)
            """,
        })
        found = hits(report, "obs-event-kind")
        assert len(found) == 1
        assert "bogus.kind" in found[0].message

    def test_flags_dynamic_kind_and_payload_unpacking(self, analyze_tree):
        report = analyze_tree({
            "src/repro/core/loop.py": """\
                from repro import obs

                def tick(kind, payload):
                    obs.emit(kind, 0.0)
                    obs.emit("controller.round", 0.0, **payload)
            """,
        })
        assert len(hits(report, "obs-event-kind")) == 2

    def test_registered_literal_kind_clean(self, analyze_tree):
        report = analyze_tree({
            "src/repro/core/loop.py": """\
                from repro import obs

                def tick(t):
                    obs.emit("controller.round", t, round=1)
            """,
        })
        assert clean(report, "obs-event-kind")

    def test_fault_and_recovery_kinds_registered(self, analyze_tree):
        report = analyze_tree({
            "src/repro/faults/loop.py": """\
                from repro import obs

                def tick(t):
                    obs.emit("chaos.schedule", t, faults=3)
                    obs.emit("fault.injected", t, round=2, fault="straggler")
                    obs.emit("fault.cleared", t, round=4, fault="straggler")
                    obs.emit("recovery.checkpoint", t, round=2)
                    obs.emit("recovery.restore", t, round=3, kinds=["sensor_spike"])
                    obs.emit("recovery.escalation", t, round=3, rounds=2)
                    obs.emit("server.round_failed", t, round=5)
                    obs.emit("server.aggregation_fallback", t, round=6)
            """,
        })
        assert clean(report, "obs-event-kind")

    def test_mbo_fastpath_kinds_registered(self, analyze_tree):
        report = analyze_tree({
            "src/repro/bayesopt/loop.py": """\
                from repro import obs

                def tick(t):
                    obs.emit("mbo.jitter_escalated", t, where="refactorize",
                             size=60, jitter=1e-4, retries=1)
            """,
        })
        assert clean(report, "obs-event-kind")

    def test_misspelled_fault_kind_flagged(self, analyze_tree):
        report = analyze_tree({
            "src/repro/faults/loop.py": """\
                from repro import obs

                def tick(t):
                    obs.emit("fault.injectd", t, round=2)
            """,
        })
        found = hits(report, "obs-event-kind")
        assert len(found) == 1
        assert "fault.injectd" in found[0].message

    def test_obs_package_itself_exempt(self, analyze_tree):
        report = analyze_tree({
            "src/repro/obs/runtime.py": """\
                def emit_via(log, kind, t):
                    log.emit(kind, t)
            """,
        })
        assert clean(report, "obs-event-kind")


class TestSuppressions:
    def test_justified_suppression_silences_the_line(self, analyze_tree):
        report = analyze_tree({
            "src/repro/ilp/check.py": """\
                def validate(x):
                    assert x  # repro: allow[assert-validation] -- perf-critical inner loop
                    return x
            """,
        })
        assert clean(report, "assert-validation")

    def test_bare_suppression_does_not_suppress_and_is_flagged(self, analyze_tree):
        report = analyze_tree({
            "src/repro/ilp/check.py": """\
                def validate(x):
                    assert x  # repro: allow[assert-validation]
                    return x
            """,
        })
        assert len(hits(report, "assert-validation")) == 1
        suppression_hits = hits(report, "suppression")
        assert len(suppression_hits) == 1
        assert "justification" in suppression_hits[0].message

    def test_suppression_naming_unknown_rule_is_flagged(self, analyze_tree):
        report = analyze_tree({
            "src/repro/ilp/check.py": """\
                def ok():  # repro: allow[no-such-rule] -- because
                    return 1
            """,
        })
        found = hits(report, "suppression")
        assert len(found) == 1
        assert "unknown rule" in found[0].message

    def test_multi_rule_suppression_on_one_line(self, analyze_tree):
        # One line hit by two checkers; one comma-list comment covers both.
        report = analyze_tree({
            "src/repro/sim/probe.py": """\
                import random
                import time

                def probe():
                    return time.time() + random.random()  # repro: allow[wall-clock, unseeded-random] -- paired machine probe, not simulation state
            """,
        })
        assert clean(report, "wall-clock", "unseeded-random"), report.render_human()

    def test_multi_rule_suppression_covers_only_listed_rules(self, analyze_tree):
        report = analyze_tree({
            "src/repro/sim/probe.py": """\
                import random
                import time

                def probe():
                    return time.time() + random.random()  # repro: allow[wall-clock] -- timing probe only
            """,
        })
        assert len(hits(report, "unseeded-random")) == 1
        assert hits(report, "wall-clock") == []

    def test_bare_multi_rule_suppression_flags_each_id(self, analyze_tree):
        report = analyze_tree({
            "src/repro/sim/probe.py": """\
                import random
                import time

                def probe():
                    return time.time() + random.random()  # repro: allow[wall-clock, unseeded-random]
            """,
        })
        assert len(hits(report, "wall-clock")) == 1
        assert len(hits(report, "unseeded-random")) == 1
        suppression_hits = hits(report, "suppression")
        assert len(suppression_hits) == 2
        assert all("justification" in hit.message for hit in suppression_hits)

    def test_unknown_rule_inside_multi_rule_list_is_flagged(self, analyze_tree):
        report = analyze_tree({
            "src/repro/ilp/check.py": """\
                def validate(x):
                    assert x  # repro: allow[assert-validation, no-such-rule] -- inner loop
                    return x
            """,
        })
        assert hits(report, "assert-validation") == []
        found = hits(report, "suppression")
        assert len(found) == 1
        assert "unknown rule 'no-such-rule'" in found[0].message

    def test_analyzer_checker_ids_are_known_to_lint(self, analyze_tree):
        # A whole-program checker id is as known to the one suppression
        # pass as a per-module one.
        report = analyze_tree({
            "src/repro/sim/state.py": """\
                _MEMO = {}

                def prime(key):
                    _MEMO[key] = 1  # repro: allow[process-boundary] -- primed before fork
            """,
        })
        assert report.ok

    def test_suppression_syntax_in_docstring_is_ignored(self, analyze_tree):
        report = analyze_tree({
            "src/repro/ilp/check.py": '''\
                """Docs may mention # repro: allow[wall-clock] without effect."""

                def ok():
                    return 1
            ''',
        })
        assert report.ok


class TestEngine:
    def test_report_json_schema(self, analyze_tree):
        report = analyze_tree({
            "src/repro/core/bad.py": "def f():\n    assert True\n",
        })
        payload = json.loads(report.render_json())
        assert payload["version"] == ANALYSIS_REPORT_VERSION
        assert payload["ok"] is False
        assert payload["checked_modules"] == 1
        assert set(RULE_IDS) <= set(payload["checkers"])
        (finding,) = payload["findings"]
        assert set(finding) == {"checker", "path", "line", "col", "message", "fingerprint"}
        assert finding["checker"] == "assert-validation"
        assert finding["path"] == "src/repro/core/bad.py"

    def test_human_rendering_has_location_and_summary(self, analyze_tree):
        rendered = analyze_tree({
            "src/repro/core/bad.py": "def f():\n    assert True\n",
        }).render_human()
        assert "src/repro/core/bad.py:2:" in rendered
        assert "[assert-validation]" in rendered
        assert rendered.splitlines()[-1].startswith("repro analyze: 1 finding(s)")

    def test_unparseable_file_reports_parse_error(self, analyze_tree):
        report = analyze_tree({
            "src/repro/core/broken.py": "def f(:\n",
        })
        assert len(hits(report, "parse-error")) == 1
        assert not report.ok

    def test_violations_sorted_by_location(self, analyze_tree):
        report = analyze_tree({
            "src/repro/core/a.py": "def f():\n    assert True\n    assert True\n",
            "src/repro/core/b.py": "def g():\n    assert True\n",
        })
        keys = [(f.path, f.line) for f in hits(report, "assert-validation")]
        assert len(keys) == 3
        assert keys == sorted(keys)

    def test_scope_excludes_files_outside_src(self, make_tree):
        root = make_tree({
            "src/repro/core/ok.py": "def f():\n    return 1\n",
            "tests/test_x.py": "def test():\n    assert 1 == 1\n",
        })
        report = analyze_paths([root / "src", root / "tests"], root=root)
        assert report.ok  # per-module scopes include only src/repro/**
        assert report.checked_modules == 2

    def test_files_sharing_a_module_name_are_each_checked(self, make_tree):
        root = make_tree({
            "src/repro/core/x.py": "def f():\n    assert True\n",
            "repro/core/x.py": "def f():\n    assert True  # repro: allow[assert-validation]\n",
        })
        report = analyze_paths([root / "src", root / "repro"], root=root)
        assert report.checked_modules == 2
        assert [f.path for f in hits(report, "assert-validation")] == ["src/repro/core/x.py"]
        assert [f.path for f in hits(report, "suppression")] == ["repro/core/x.py"]

    def test_needs_at_least_one_path(self):
        with pytest.raises(ConfigurationError):
            analyze_paths([])

    def test_find_repo_root_walks_to_pyproject(self, make_tree):
        root = make_tree({"src/repro/core/x.py": "A = 1\n"})
        assert find_repo_root(root / "src" / "repro" / "core" / "x.py") == root


#: One tree holding a finding of every per-module checker, every form of
#: allow-comment, an exempt module, a file outside the scopes and a file
#: that does not parse.
DIFFERENTIAL_TREE = {
    "src/repro/sim/stamp.py": """\
        import time


        def stamp():
            return time.time()
    """,
    "src/repro/bayesopt/warmup.py": """\
        import numpy as np


        def draw():
            return np.random.rand()
    """,
    "src/repro/ilp/check.py": """\
        def validate(x):
            assert x is not None, "missing"
            return x
    """,
    "src/repro/core/front.py": """\
        def same(a, b):
            return a.energy == b.energy
    """,
    "src/repro/sim/plan.py": """\
        def build(pool):
            return pool.submit(lambda: 1)
    """,
    "src/repro/core/loop.py": """\
        from repro import obs


        def tick(t):
            obs.emit("bogus.kind", t)
    """,
    "src/repro/sim/probe.py": '''\
        """Prose may quote # repro: allow[wall-clock] without effect."""
        import random
        import time


        def elapsed():
            return time.monotonic()  # repro: allow[wall-clock] -- progress display only


        def probe():
            return time.time() + random.random()  # repro: allow[wall-clock, unseeded-random] -- paired machine probe


        def bare(x):
            assert x  # repro: allow[assert-validation]
            return x


        def unknown():  # repro: allow[no-such-rule] -- because
            return 1


        LEVEL = 1  # repro: allow[suppression] -- meta allow
    ''',
    "src/repro/sim/state.py": """\
        _MEMO = {}


        def prime(key):
            _MEMO[key] = 1  # repro: allow[process-boundary] -- primed before fork
    """,
    "src/repro/core/broken.py": "def f(:\n",
    "src/repro/obs/metrics.py": """\
        import time


        def span():
            return time.perf_counter()
    """,
    "tests/test_x.py": """\
        def test():
            assert 1 == 1
    """,
}

#: (id, path, line, col, message) as the standalone ``repro lint`` engine
#: reported them on DIFFERENTIAL_TREE (``--format json``) before its six
#: rules became analyze checkers.
PINNED_LINT_FINDINGS = (
    ("unseeded-random", "src/repro/bayesopt/warmup.py", 5, 11,
     "numpy.random.rand() draws from global random state; thread a seeded numpy.random.Generator (or random.Random) through the call chain instead"),
    ("parse-error", "src/repro/core/broken.py", 1, 7,
     "file does not parse: invalid syntax"),
    ("float-equality", "src/repro/core/front.py", 2, 11,
     "float ==/!= on objective value 'energy'; use math.isclose / a tolerance — exact float comparison on latency/energy objectives is representation-dependent"),
    ("obs-event-kind", "src/repro/core/loop.py", 5, 4,
     "event kind 'bogus.kind' is not registered in repro.obs.events.EVENT_KINDS; register and document it in docs/observability.md"),
    ("assert-validation", "src/repro/ilp/check.py", 2, 4,
     "assert statements vanish under 'python -O'; validate with an explicit raise of a repro.errors exception"),
    ("pickle-safety", "src/repro/sim/plan.py", 2, 23,
     "lambda passed into .submit(...) cannot cross the ProcessPoolExecutor boundary (not picklable); use a module-level function"),
    ("suppression", "src/repro/sim/probe.py", 15, 0,
     "suppression of [assert-validation] needs a justification: '# repro: allow[assert-validation] -- <why this is safe>'"),
    ("assert-validation", "src/repro/sim/probe.py", 15, 4,
     "assert statements vanish under 'python -O'; validate with an explicit raise of a repro.errors exception"),
    ("suppression", "src/repro/sim/probe.py", 19, 0,
     "suppression names unknown rule 'no-such-rule'"),
    ("suppression", "src/repro/sim/probe.py", 23, 0,
     "suppression names unknown rule 'suppression'"),
    ("wall-clock", "src/repro/sim/stamp.py", 5, 11,
     "time.time() reads the wall clock; simulation code must use repro.clock (simulated time) — wall time belongs only in the allowlisted timing modules"),
)


class TestDifferential:
    def test_same_findings_as_the_pinned_lint_report(self, make_tree):
        root = make_tree(DIFFERENTIAL_TREE)
        report = analyze_paths([root / "src", root / "tests"], root=root)
        found = Counter(
            (f.checker, f.path, f.line, f.col, f.message)
            for f in hits(report, *RULE_IDS, "parse-error", "suppression")
        )
        assert found == Counter(PINNED_LINT_FINDINGS)


class TestRealTree:
    def test_repo_head_is_clean(self):
        repo = find_repo_root(pathlib.Path(__file__))
        report = analyze_paths([repo / "src"], root=repo)
        assert report.ok, report.render_human()
        assert report.checked_modules > 100


class TestCli:
    def test_lint_violations_exit_nonzero(self, make_tree, capsys):
        from repro.cli import main

        root = make_tree({
            "src/repro/core/bad.py": "def f():\n    assert True\n",
        })
        assert main(["analyze", str(root / "src"), "--root", str(root)]) == 1
        assert "[assert-validation]" in capsys.readouterr().out

    def test_lint_clean_tree_exits_zero(self, make_tree, capsys):
        from repro.cli import main

        root = make_tree({
            "src/repro/core/ok.py": "def f():\n    return 1\n",
        })
        assert main(["analyze", str(root / "src"), "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_lint_json_format_is_parseable(self, make_tree, capsys):
        from repro.cli import main

        root = make_tree({
            "src/repro/core/bad.py": "def f():\n    assert True\n",
        })
        code = main(
            ["analyze", str(root / "src"), "--root", str(root), "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == ANALYSIS_REPORT_VERSION
        assert payload["findings"]

    def test_list_rules(self, capsys):
        from repro.cli import main

        assert main(["analyze", "--list-checkers"]) == 0
        out = capsys.readouterr().out
        for checker in CHECKERS:
            assert checker.id in out
        assert out.count("scope: src/repro/**") == len(RULE_IDS)


class TestRatchetGate:
    @pytest.mark.parametrize(
        ("source", "checker"),
        [
            ("def f(x):\n    assert x\n", "assert-validation"),
            ("LEVEL = 1  # repro: allow[wall-clock]\n", "suppression"),
        ],
        ids=["assert-validation", "suppression"],
    )
    def test_new_per_module_finding_fails_the_ratchet(
        self, make_tree, capsys, source, checker
    ):
        from repro.cli import main

        root = make_tree({"src/repro/core/mod.py": source})
        (root / "analysis-baseline.json").write_text(render_baseline(AnalysisReport()))
        assert main(["analyze", "--ratchet", "--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert f"[{checker}]" in out
        assert "1 new finding(s)" in out
