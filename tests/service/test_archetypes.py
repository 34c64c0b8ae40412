"""Archetype profiles taken by flat index equal the list-filter construction.

:meth:`ArchetypeProfile.from_surfaces` builds only the Pareto-kept
configurations, by flat index into the space.  The reference below is
the construction it replaced: filter the whole
``all_configurations()`` list through the Pareto mask, then append
``x_max`` when it is dominated.  Both must agree on every field, bit for
bit, including for a calibration whose ``x_max`` is dominated.
"""

import dataclasses

import numpy as np
import pytest

from repro.bayesopt.pareto import pareto_mask
from repro.federated import task as fl_task
from repro.hardware.devices import get_device
from repro.service.archetypes import ArchetypeProfile, task_by_name

PAIRS = [(d, t) for d in ("agx", "tx2") for t in ("vit", "resnet50", "lstm")]


def _list_filter_profile(device: str, task: str) -> ArchetypeProfile:
    spec = get_device(device)
    task_spec = task_by_name(task)
    tensor = task_spec.workload.performance_model(spec).objective_tensor()
    values = np.stack([tensor.latencies, tensor.energies], axis=1)
    mask = pareto_mask(values)
    all_configs = spec.space.all_configurations()
    configs = [c for c, keep in zip(all_configs, mask) if keep]
    kept = values[mask]
    x_max = spec.space.max_configuration()
    if x_max not in configs:
        index = all_configs.index(x_max)
        configs.append(x_max)
        kept = np.vstack([kept, values[index]])
    anchor = configs.index(x_max)
    return ArchetypeProfile(
        device=device,
        task=task,
        configs=tuple(configs),
        latencies=kept[:, 0].copy(),
        energies=kept[:, 1].copy(),
        x_max=x_max,
        t_xmax=float(kept[anchor, 0]),
        e_xmax=float(kept[anchor, 1]),
        jobs_per_round=task_spec.jobs_per_round(spec),
    )


def _assert_same_profile(got: ArchetypeProfile, want: ArchetypeProfile) -> None:
    assert got.configs == want.configs
    assert got.latencies.dtype == want.latencies.dtype
    assert got.latencies.tobytes() == want.latencies.tobytes()
    assert got.energies.tobytes() == want.energies.tobytes()
    assert got.x_max == want.x_max
    assert got.t_xmax.hex() == want.t_xmax.hex()
    assert got.e_xmax.hex() == want.e_xmax.hex()
    assert got.jobs_per_round == want.jobs_per_round
    assert (got.device, got.task) == (want.device, want.task)


@pytest.mark.parametrize(("device", "task"), PAIRS)
def test_from_surfaces_matches_the_list_filter(device, task):
    _assert_same_profile(
        ArchetypeProfile.from_surfaces(device, task), _list_filter_profile(device, task)
    )


@pytest.mark.parametrize("device", ["agx", "tx2"])
def test_dominated_x_max_is_appended_last(monkeypatch, device):
    # With no serial overlap the latency is the bottleneck unit's alone, so
    # slowing a non-bottleneck unit saves energy at x_max's latency: x_max
    # is dominated and the append branch runs.
    base = task_by_name("vit")
    target = base.workload.target_for(get_device(device))
    flat = dataclasses.replace(
        base,
        workload=base.workload.with_target(
            device, dataclasses.replace(target, serial_fraction=0.0)
        ),
    )
    monkeypatch.setitem(fl_task._TASKS, "flat-vit", lambda: flat)
    spec = get_device(device)
    tensor = flat.workload.performance_model(spec).objective_tensor()
    mask = pareto_mask(np.stack([tensor.latencies, tensor.energies], axis=1))
    assert not mask[-1], "calibration no longer dominates x_max"

    profile = ArchetypeProfile.from_surfaces(device, "flat-vit")
    _assert_same_profile(profile, _list_filter_profile(device, "flat-vit"))
    assert profile.configs[-1] == spec.space.max_configuration()
    assert profile.n_candidates == int(mask.sum()) + 1
