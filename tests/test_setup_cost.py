"""Workload set-up builds only the objects it keeps.

The DVFS coordinates, the objective tensors and the archetype profiles
are built from arrays; only the ~50 Pareto-kept points per (device,
task) become :class:`~repro.types.DvfsConfiguration` objects.  The
decision service's request stream builds no fleet client and validates
each distinct (archetype, round) question once.  Each check runs a
benchmark workload's real set-up in a fresh interpreter, so no cache
warmed by another test can hide a construction.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Counts calls of each probed method during one workload set-up.
_PROBE = """
import json, sys, tempfile
sys.path[:0] = [{src!r}, {bench!r}]
from repro.federated.async_engine import FleetClient
from repro.service.api import DecisionRequest
from repro.types import DvfsConfiguration
calls = {{}}
def count(cls, method):
    original = getattr(cls, method)
    name = f"{{cls.__name__}}.{{method}}"
    calls[name] = 0
    def counting(self, *args, **kwargs):
        calls[name] += 1
        return original(self, *args, **kwargs)
    setattr(cls, method, counting)
count(DvfsConfiguration, "__post_init__")
count(DecisionRequest, "__post_init__")
count(FleetClient, "__init__")
from bofl_bench.workloads import WORKLOADS
with tempfile.TemporaryDirectory() as workdir:
    WORKLOADS[{name!r}].setup(0, workdir)
print(json.dumps(calls))
"""


def _calls_in_setup(name: str) -> dict[str, int]:
    code = _PROBE.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"), name=name)
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _constructions_in_setup(name: str) -> int:
    return _calls_in_setup(name)["DvfsConfiguration.__post_init__"]


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


def test_service_stream_validates_each_question_once_and_builds_no_client():
    calls = _calls_in_setup("service-replay")
    # 6 (device, task) archetypes x 10 rounds of distinct questions for a
    # 1,000-client stream of 10,000 requests.
    assert calls["DecisionRequest.__post_init__"] <= 60
    assert calls["FleetClient.__init__"] == 0
