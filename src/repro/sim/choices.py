"""The campaign runner's controller names, importable without the runner.

The CLI's argparse choices need them, and importing
:mod:`repro.sim.runner` for a tuple would load every layer a campaign
runs.  The runner re-exports the tuple.
"""

#: Controller names accepted by :func:`repro.sim.runner.make_controller`
#: and :func:`repro.sim.runner.run_campaign`.
CONTROLLER_NAMES: tuple[str, ...] = (
    "bofl",
    "performant",
    "oracle",
    "random_search",
    "linear_pace",
    "ondemand",
)
