"""The fleet engine's closed choice sets, importable without the engine.

:class:`~repro.sim.fleet.FleetSpec` validation and the CLI's argparse
choices need these names but never run a composition, so they live here
rather than in :mod:`repro.federated.async_engine`, whose import loads
the whole composition stack.  The engine re-exports both.
"""

#: Aggregation disciplines the engine understands.
FLEET_MODES: tuple[str, ...] = ("sync", "semisync", "async")

#: Result granularities: ``reports`` keeps every client report (as
#: :class:`~repro.federated.async_engine.ReportColumns`, built into
#: ``FleetReport`` objects on read); ``stats`` keeps only per-round
#: aggregate counters (``RoundStats``), the O(rounds)-memory shape that
#: makes 100k–1M-client compositions fit in bounded RSS.
FLEET_DETAILS: tuple[str, ...] = ("reports", "stats")
