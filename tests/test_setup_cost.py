"""Workload set-up builds only the configuration objects it keeps.

The DVFS coordinates, the objective tensors and the archetype profiles
are built from arrays; only the ~50 Pareto-kept points per (device,
task) become :class:`~repro.types.DvfsConfiguration` objects.  Each
check runs a benchmark workload's real set-up in a fresh interpreter,
so no cache warmed by another test can hide a construction.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Counts ``DvfsConfiguration`` constructions during one workload set-up.
_PROBE = """
import json, sys, tempfile
sys.path[:0] = [{src!r}, {bench!r}]
from repro.types import DvfsConfiguration
built = [0]
original = DvfsConfiguration.__post_init__
def counting(self):
    built[0] += 1
    original(self)
DvfsConfiguration.__post_init__ = counting
from bofl_bench.workloads import WORKLOADS
with tempfile.TemporaryDirectory() as workdir:
    WORKLOADS[{name!r}].setup(0, workdir)
print(json.dumps(built[0]))
"""


def _constructions_in_setup(name: str) -> int:
    code = _PROBE.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"), name=name)
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return int(json.loads(completed.stdout.strip().splitlines()[-1]))


@pytest.mark.parametrize(
    ("workload", "ceiling"),
    [
        # six tensors warmed, six profiles (~300 Pareto points), a
        # 10,000-request stream
        ("service-replay", 400),
        # six tensors warmed: one x_max per performance model
        ("fleet-sweep", 10),
    ],
)
def test_setup_builds_few_configuration_objects(workload, ceiling):
    assert _constructions_in_setup(workload) <= ceiling
