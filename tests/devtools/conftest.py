"""Shared fixtures for the devtools test suites.

The analyzer suites build throwaway miniature repos
(``<tmp>/pyproject.toml`` + ``<tmp>/src/repro/...``) so repo-root-
relative scopes, module-name derivation, and contract qualnames resolve
exactly as they do on the real tree.
"""

import pathlib
import textwrap

import pytest

from repro.devtools.analyze import analyze_paths


@pytest.fixture
def make_tree(tmp_path):
    """Factory: lay out a miniature repo, return its root."""

    def _make(files: dict) -> pathlib.Path:
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        for rel, text in files.items():
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(text))
        return tmp_path

    return _make


@pytest.fixture
def analyze_tree(make_tree):
    """Factory: build a miniature repo and analyze its src/ tree."""

    def _run(files: dict):
        root = make_tree(files)
        return analyze_paths([root / "src"], root=root)

    return _run
