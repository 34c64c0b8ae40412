"""Report serialization, the baseline ratchet, and real-tree guarantees."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.devtools.analyze import (
    ANALYSIS_REPORT_VERSION,
    AnalysisReport,
    BASELINE_VERSION,
    Finding,
    analyze_paths,
    load_baseline,
    ratchet,
    render_baseline,
)
from repro.errors import ConfigurationError

REPO = pathlib.Path(__file__).resolve().parents[2]


def finding(line=3, message="m", checker="determinism-taint", path="src/repro/a.py"):
    return Finding(checker=checker, path=path, line=line, col=0, message=message)


class TestSerialization:
    def test_json_layout_and_version(self):
        report = AnalysisReport(
            findings=[finding()], checked_modules=1, checker_ids=["determinism-taint"]
        )
        document = json.loads(report.render_json())
        assert document["version"] == ANALYSIS_REPORT_VERSION
        assert document["ok"] is False
        assert document["findings"][0]["checker"] == "determinism-taint"
        assert document["findings"][0]["fingerprint"]

    def test_sarif_structure(self):
        report = AnalysisReport(
            findings=[finding()], checked_modules=1, checker_ids=["determinism-taint"]
        )
        sarif = json.loads(report.render_sarif())
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-analyze"
        result = run["results"][0]
        assert result["ruleId"] == "determinism-taint"
        assert result["partialFingerprints"]["reproAnalyze/v1"]
        assert result["locations"][0]["physicalLocation"]["region"]["startLine"] == 3

    def test_fingerprint_ignores_location_drift(self):
        assert finding(line=3).fingerprint() == finding(line=99).fingerprint()
        assert finding().fingerprint() != finding(message="other").fingerprint()


class TestRatchet:
    def test_baselined_findings_pass_new_ones_fail(self, tmp_path):
        old = AnalysisReport(findings=[finding()])
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(render_baseline(old))
        new = AnalysisReport(findings=[finding(), finding(message="fresh")])
        result = ratchet(new, load_baseline(baseline_path))
        assert not result.ok
        assert len(result.new) == 1
        assert result.new[0].message == "fresh"
        assert result.baselined == 1
        assert result.stale == 0

    def test_baseline_is_a_multiset(self, tmp_path):
        # One baselined occurrence does not cover a duplicated violation.
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(render_baseline(AnalysisReport(findings=[finding()])))
        doubled = AnalysisReport(findings=[finding(line=3), finding(line=9)])
        result = ratchet(doubled, load_baseline(baseline_path))
        assert len(result.new) == 1

    def test_stale_entries_reported_not_fatal(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(render_baseline(AnalysisReport(findings=[finding()])))
        result = ratchet(AnalysisReport(), load_baseline(baseline_path))
        assert result.ok
        assert result.stale == 1

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == {}

    def test_damaged_baseline_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_baseline(bad)
        bad.write_text(json.dumps({"version": 99, "fingerprints": []}))
        with pytest.raises(ConfigurationError, match="unsupported layout"):
            load_baseline(bad)

    def test_baseline_version_pinned(self):
        document = json.loads(render_baseline(AnalysisReport()))
        assert document["version"] == BASELINE_VERSION


class TestRealTree:
    def test_real_tree_clean_against_committed_baseline(self):
        report = analyze_paths([REPO / "src" / "repro"], root=REPO)
        assert report.checked_modules > 100
        baseline = load_baseline(REPO / "analysis-baseline.json")
        result = ratchet(report, baseline)
        assert result.ok, "\n".join(f.render() for f in result.new)
        assert result.stale == 0, "stale analysis-baseline.json entries"

    def test_report_byte_identical_across_runs(self):
        first = analyze_paths([REPO / "src" / "repro"], root=REPO)
        second = analyze_paths([REPO / "src" / "repro"], root=REPO)
        assert first.render_json() == second.render_json()
        assert first.render_sarif() == second.render_sarif()

    def test_cli_ratchet_exits_clean(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", "--ratchet"],
            cwd=REPO,
            capture_output=True,
            text=True,
            check=False,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "0 new finding(s)" in completed.stdout

    def test_cli_sarif_and_json_formats(self, tmp_path):
        sarif_path = tmp_path / "out.sarif"
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro", "analyze",
                "--format", "json", "--sarif", str(sarif_path),
            ],
            cwd=REPO,
            capture_output=True,
            text=True,
            check=False,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert json.loads(completed.stdout)["ok"] is True
        assert json.loads(sarif_path.read_text())["version"] == "2.1.0"


class TestCliWrites:
    @pytest.mark.parametrize(
        ("option", "first_exit"), [("--write-baseline", 0), ("--sarif", 1)]
    )
    def test_failed_write_keeps_the_previous_file(
        self, make_tree, tmp_path_factory, capsys, monkeypatch, option, first_exit
    ):
        from repro.cli import main

        root = make_tree({"src/repro/core/bad.py": "def f():\n    assert True\n"})
        out = tmp_path_factory.mktemp("out")
        path = out / "out.json"
        target = ["--baseline", str(path)] if option == "--write-baseline" else [str(path)]
        argv = ["analyze", "--root", str(root), option, *target]
        assert main(argv) == first_exit
        before = path.read_bytes()
        assert json.loads(before)
        capsys.readouterr()
        (root / "src" / "repro" / "core" / "bad.py").write_text("def f():\n    return 1\n")
        replace = os.replace

        def crash_before_the_rename(src, dst):
            if pathlib.Path(dst) == path:
                assert json.loads(pathlib.Path(src).read_text())  # fully written
                raise OSError("killed between write and rename")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", crash_before_the_rename)
        assert main(argv) == 1
        assert "killed between write and rename" in capsys.readouterr().err
        assert path.read_bytes() == before
        assert [p.name for p in out.iterdir()] == ["out.json"]
