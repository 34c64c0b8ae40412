"""Import layering, checked in fresh interpreters.

Every module must import on its own, whatever was imported before it,
and the service, fleet, ILP, hardware and tooling entry points must not
load scipy: only the GP stack (``bayesopt.gp``, ``bayesopt.acquisition``)
needs it.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SOURCE_ROOT = pathlib.Path(repro.__file__).resolve().parent.parent

#: Entry points whose import must leave scipy out of ``sys.modules``.
SCIPY_FREE = (
    "repro",
    "repro.obs",
    "repro.cli",
    "repro.service.engine",
    "repro.service.loadgen",
    "repro.service.archetypes",
    "repro.sim.fleet",
    "repro.ilp.schedule",
    "repro.devtools.analyze",
    "repro.hardware",
    "repro.workloads",
)

_IMPORT_EACH = """
import importlib, sys, traceback
failures = []
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failures.append(f"{name}: {traceback.format_exc().strip().splitlines()[-1]}")
print("\\n".join(failures))
"""

_SCIPY_LOADED = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _python(code: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SOURCE_ROOT)}
    completed = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return completed.stdout


def _all_modules() -> list[str]:
    names = []
    for path in sorted((SOURCE_ROOT / "repro").rglob("*.py")):
        parts = path.relative_to(SOURCE_ROOT).with_suffix("").parts
        if parts[-1] == "__main__":
            continue
        names.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return names


def test_every_module_imports_on_its_own():
    modules = _all_modules()
    assert "repro.bayesopt.gp" in modules and "repro.cli" in modules
    failures = _python(_IMPORT_EACH, *modules).strip()
    assert not failures, failures


@pytest.mark.parametrize("module", SCIPY_FREE)
def test_import_loads_no_scipy(module):
    assert json.loads(_python(_SCIPY_LOADED, module)) == []


def test_controller_import_loads_no_scipy_stats():
    loaded = json.loads(_python(_SCIPY_LOADED, "repro.core.controller"))
    assert "scipy.linalg" in loaded  # the GP's own imports are seen
    assert not [m for m in loaded if m == "scipy.stats" or m.startswith("scipy.stats.")]
