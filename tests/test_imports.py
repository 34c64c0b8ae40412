"""Import layering, checked in fresh interpreters.

Every module must import on its own, whatever was imported before it,
and the service, fleet, ILP, hardware and tooling entry points must not
load scipy: only the GP stack (``bayesopt.gp``, ``bayesopt.acquisition``)
needs it.

A run loads only the layers it uses: importing a package loads none of
its submodules (re-exports are lazy, see ``repro._lazy``), and the
closures below pin the layers that the paper's campaign grid, the
decision service, a bare ``FleetSpec``, ``import repro.cli`` and the
CLI's argparse tree must never load.  The argparse tree loads no numpy
either, so stdlib-only commands (``repro analyze``, ``--version``) start
without it.
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

_REPRO_LOADED = """
import json, sys
exec(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
"""

_NUMPY_LOADED = """
import json, sys
exec(sys.argv[1])
print(json.dumps("numpy" in sys.modules))
"""

#: What importing a package may load besides the package and its parents.
PACKAGE_IMPORT_BASE = {"repro", "repro._version", "repro._lazy"}

#: What the paper's grid (BoFL, Performant, Oracle on one board) never runs.
GRID_UNUSED = (
    "repro.federated.async_engine",
    "repro.federated.vector_engine",
    "repro.service.engine",
    "repro.service.loadgen",
    "repro.sim.fleet",
    "repro.sim.executor",
    "repro.sim.chaos",
    "repro.sim.cache",
    "repro.faults.engine",
    "repro.faults.injectors",
    "repro.obs.columnar",
    "repro.servertune.pbt",
)

#: What ``repro.sim.fleet`` loads only where it builds or composes a fleet.
FLEET_ENGINE = (
    "repro.federated.async_engine",
    "repro.federated.aggregation",
    "repro.federated.selection",
    "repro.federated.hierarchy",
    "repro.faults",
    "repro.faults.schedule",
    "repro.servertune",
    "repro.servertune.controllers",
    "repro.core.records",
)

#: What a fleet request stream served by the decision service never runs.
SERVICE_UNUSED = (
    "repro.core.controller",
    "repro.bayesopt.gp",
    "repro.sim.executor",
    "repro.sim.runner",
    "repro.sim.cache",
    "repro.sim.chaos",
    "repro.faults.engine",
    "repro.federated.vector_engine",
    *FLEET_ENGINE,
)

#: Engines the CLI imports only inside the handlers that run them.
CLI_UNUSED = (
    "repro.sim.executor",
    "repro.sim.fleet",
    "repro.service.engine",
    "repro.federated.async_engine",
)

#: Engines whose argparse choices ``build_parser`` takes from plain tuples.
PARSER_UNUSED = (
    "repro.sim.runner",
    "repro.sim.chaos",
    "repro.sim.executor",
    "repro.sim.fleet",
    "repro.faults.schedule",
    "repro.federated.async_engine",
    "repro.federated.transport",
    "repro.servertune.controllers",
)

_GRID_RUN = """
import repro.service.archetypes  # what the benchmark grid's set-up touches
from repro.sim.runner import run_campaign
for device, task in (("agx", "vit"), ("tx2", "lstm")):
    for controller in ("bofl", "performant", "oracle"):
        run_campaign(device, task, controller, 2.0, rounds=12, seed=0, use_cache=False)
"""

_SERVICE_RUN = """
from repro.service.engine import PaceDecisionService, ServiceConfig
from repro.service.loadgen import fleet_requests
from repro.sim.fleet import FleetSpec
stream = fleet_requests(FleetSpec(n_clients=12, rounds=2, seed=0), 1000.0)
service = PaceDecisionService(ServiceConfig())
for timed in stream:
    service.submit(timed.request, at=timed.offset)
service.drain()
service.close()
assert len(service.decisions) == len(stream) > 0
"""


#: A one-worker fleet run: every campaign computes inline, so the process
#: pool (``concurrent.futures.process``, multiprocessing) is never built.
_INLINE_FLEET_RUN = """
import json, sys
from repro.sim.fleet import FleetSpec, run_fleet
spec = FleetSpec(n_clients=4, rounds=2, archetypes=2, controllers=("performant",))
assert run_fleet(spec, workers=1).rounds
print(json.dumps(sorted(
    m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing")
)))
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


def _packages() -> list[str]:
    return [
        ".".join(path.parent.relative_to(SOURCE_ROOT).parts)
        for path in sorted((SOURCE_ROOT / "repro").rglob("__init__.py"))
    ]


def _repro_loaded(code: str) -> set[str]:
    return set(json.loads(_python(_REPRO_LOADED, code)))


def _unexpected(loaded: set[str], unused: tuple[str, ...], *layers: str) -> list[str]:
    return sorted(
        m for m in loaded
        if m in unused or any(m == layer or m.startswith(layer + ".") for layer in layers)
    )


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


@pytest.mark.parametrize("package", _packages())
def test_package_import_loads_no_submodule(package):
    parents = {".".join(package.split(".")[:i]) for i in range(1, package.count(".") + 2)}
    loaded = _repro_loaded(f"import {package}")
    assert loaded - parents - PACKAGE_IMPORT_BASE == set()


def test_campaign_grid_loads_only_its_layers():
    loaded = _repro_loaded(_GRID_RUN)
    assert "repro.core.controller" in loaded and "repro.baselines.oracle" in loaded
    assert _unexpected(loaded, GRID_UNUSED, "repro.ml", "repro.analysis") == []


def test_decision_service_loads_only_its_layers():
    loaded = _repro_loaded(_SERVICE_RUN)
    assert "repro.service.engine" in loaded and "repro.ilp.schedule" in loaded
    assert _unexpected(
        loaded, SERVICE_UNUSED, "repro.baselines", "repro.ml", "repro.analysis"
    ) == []


def test_fleet_spec_loads_no_fleet_engine():
    loaded = _repro_loaded(
        "from repro.sim.fleet import FleetSpec\n"
        "FleetSpec(n_clients=40, rounds=4, mode='async', chaos_fraction=0.5)"
    )
    assert "repro.sim.fleet" in loaded
    assert [m for m in FLEET_ENGINE if m in loaded] == []


def test_cli_import_loads_no_engine():
    loaded = _repro_loaded("import repro.cli")
    assert [m for m in CLI_UNUSED if m in loaded] == []


def test_cli_parser_loads_no_engine():
    loaded = _repro_loaded("from repro.cli import build_parser\nbuild_parser()")
    assert "repro.sim.choices" in loaded  # FLEET_SELECTORS: the parser's own import
    assert [m for m in PARSER_UNUSED if m in loaded] == []


def test_cli_parser_loads_no_numpy():
    code = "from repro.cli import build_parser\nbuild_parser()"
    assert json.loads(_python(_NUMPY_LOADED, code)) is False


def test_inline_executor_run_loads_no_process_pool():
    loaded = json.loads(_python(_INLINE_FLEET_RUN))
    assert "concurrent.futures" in loaded  # the executor's own import is seen
    assert "concurrent.futures.process" not in loaded
    assert not [m for m in loaded if m.split(".")[0] == "multiprocessing"]
