"""The per-client request-stream loop: the test oracle for ``fleet_requests``.

This builds the stream one (client, round) pair at a time: a per-client
walk that derives each archetype's deadlines on first sight, one scalar
offset ``round * wave_interval + jitter`` per request, and a stable
``list.sort`` keyed on ``(offset, client index)``.
:func:`repro.service.loadgen.fleet_requests` computes the same stream
from arrays (one offset expression, ``np.lexsort``), so agreement in
offset bits, order and every request field is meaningful.

It reuses the production helpers that decide *what* is asked rather
than how the stream is laid out: the fleet population, the archetype
profiles, the scenario seed and the deadline generator.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.federated.deadlines import UniformDeadlines
from repro.service.api import DecisionRequest
from repro.service.archetypes import get_profile
from repro.service.loadgen import TimedRequest, _scenario_seed
from repro.sim.fleet import FleetSpec, build_fleet_clients
from repro.types import Seconds


def reference_fleet_requests(spec: FleetSpec, rate: float) -> list[TimedRequest]:
    """The request stream of :func:`~repro.service.loadgen.fleet_requests`."""
    if rate <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate}")
    clients = build_fleet_clients(spec)
    wave_spread = spec.n_clients / rate
    wave_interval = wave_spread * 1.25
    rng = np.random.default_rng(spec.seed + 0x5E41)
    jitter = rng.uniform(0.0, wave_spread, size=(spec.rounds, spec.n_clients))
    deadline_cache: dict[tuple[str, str], list[Seconds]] = {}
    stream: list[tuple[Seconds, int, DecisionRequest]] = []
    for client in clients:
        profile = get_profile(client.device, client.task)
        jobs = profile.jobs_per_round
        key = (client.device, client.task)
        deadlines = deadline_cache.get(key)
        if deadlines is None:
            seed = _scenario_seed(client.device, client.task, spec.seed)
            t_min = profile.t_xmax * jobs
            deadlines = UniformDeadlines(spec.deadline_ratio).generate(
                t_min, spec.rounds, seed=seed + 1
            )
            deadline_cache[key] = deadlines
        for round_index in range(spec.rounds):
            offset = (
                round_index * wave_interval
                + float(jitter[round_index, client.index])
            )
            stream.append(
                (
                    offset,
                    client.index,
                    DecisionRequest(
                        device=client.device,
                        task=client.task,
                        jobs=jobs,
                        deadline=deadlines[round_index],
                        client_id=client.client_id,
                    ),
                )
            )
    stream.sort(key=lambda item: (item[0], item[1]))
    return [TimedRequest(offset=offset, request=request) for offset, _, request in stream]
