"""Smoke tests for the static-analysis wiring (pyproject, CI, pre-commit).

The runtime container deliberately ships neither ruff nor mypy — they are
CI-only optional dependencies — so the mypy run is skipped when the tool
is absent and the remaining tests pin the *configuration* so a refactor
cannot silently drop the strictness ratchet.
"""

import pathlib
import shutil
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
PYPROJECT = REPO / "pyproject.toml"

#: The determinism-critical packages checked with the strict flag set.
STRICT_PACKAGES = (
    "repro.core",
    "repro.ilp",
    "repro.sim",
    "repro.obs",
    "repro.service",
    "repro.federated",
    "repro.faults",
    "repro.servertune",
)


def pyproject_text() -> str:
    return PYPROJECT.read_text()


class TestPyprojectConfig:
    def test_mypy_section_present_with_strict_overrides(self):
        text = pyproject_text()
        assert "[tool.mypy]" in text
        assert "[[tool.mypy.overrides]]" in text
        for package in STRICT_PACKAGES:
            assert f'"{package}.*"' in text
        # The load-bearing strict flags (mypy rejects `strict = true` in
        # per-module overrides, so these are enumerated).
        for flag in (
            "disallow_untyped_defs",
            "disallow_incomplete_defs",
            "disallow_any_generics",
            "strict_equality",
        ):
            assert flag in text

    def test_mypy_config_parses_as_toml(self):
        if sys.version_info < (3, 11):
            pytest.skip("tomllib requires python >= 3.11")
        import tomllib

        with PYPROJECT.open("rb") as handle:
            config = tomllib.load(handle)
        mypy = config["tool"]["mypy"]
        assert mypy["python_version"] == "3.9"
        assert mypy["mypy_path"] == "src"
        strict = next(
            o for o in mypy["overrides"]
            if "repro.core.*" in o.get("module", [])
        )
        assert set(strict["module"]) == {f"{p}.*" for p in STRICT_PACKAGES}
        assert strict["disallow_untyped_defs"] is True
        assert strict["disallow_any_generics"] is True

    def test_ruff_select_includes_bugbear_and_pyupgrade(self):
        text = pyproject_text()
        for code in ('"E"', '"F"', '"W"', '"B"', '"C4"', '"UP"'):
            assert code in text
        # Optional/Union stay spelled out: py39 runtime positions.
        assert '"UP007"' in text and '"UP045"' in text

    def test_lint_optional_dependency_group(self):
        text = pyproject_text()
        assert "lint = [" in text
        assert "ruff" in text and "mypy" in text

    def test_package_ships_py_typed_marker(self):
        assert (REPO / "src" / "repro" / "py.typed").exists()


class TestPreCommit:
    def test_config_exists_and_mirrors_ci(self):
        text = (REPO / ".pre-commit-config.yaml").read_text()
        assert "ruff" in text
        assert "mypy" in text
        assert "repro analyze --ratchet" in text
        assert "repro lint" not in text

    def test_mypy_hook_scopes_to_strict_packages(self):
        text = (REPO / ".pre-commit-config.yaml").read_text()
        for package in STRICT_PACKAGES:
            assert package.split(".", 1)[1] in text


class TestCiWorkflow:
    def test_static_analysis_job_runs_all_four_gates(self):
        text = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "static-analysis" in text
        assert "ruff check" in text
        assert "mypy" in text
        assert "analyze --ratchet" in text
        assert "repro lint" not in text

    def test_mypy_step_covers_every_strict_package(self):
        text = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        for package in STRICT_PACKAGES:
            assert f"-p {package}" in text

    def test_analyze_determinism_and_sarif_steps(self):
        text = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "cmp analyze_a.json analyze_b.json" in text
        # One step gates and reports; the upload runs even when it fails.
        assert "analyze --ratchet --sarif repro-analyze.sarif" in text
        upload = text[text.index("Upload SARIF artifact"):]
        assert upload.index("if: always()") < upload.index("uses:")


class TestMypyStrictPackages:
    @pytest.mark.skipif(
        shutil.which("mypy") is None,
        reason="mypy is a CI-only optional dependency ([project.optional-"
        "dependencies] lint); the runtime container does not ship it",
    )
    def test_strict_packages_pass(self):
        result = subprocess.run(
            [
                "mypy",
                "--config-file", str(PYPROJECT),
                *(arg for p in STRICT_PACKAGES for arg in ("-p", p)),
            ],
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stdout + result.stderr
