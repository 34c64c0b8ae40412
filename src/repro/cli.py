"""Command-line interface: ``python -m repro <command>``.

Twelve subcommands:

* ``list`` — enumerate the reproducible paper artifacts;
* ``run <experiment>`` — regenerate one table/figure and print its rows
  (e.g. ``python -m repro run fig12 --rounds 40 --workers 8``);
* ``campaign`` — run a single controller campaign and print its summary
  (e.g. ``python -m repro campaign --controller bofl --task lstm``);
* ``sweep`` — run a multi-seed campaign sweep, optionally in parallel
  (e.g. ``python -m repro sweep --task vit --seeds 0 1 2 3 --workers 4``);
* ``chaos run|report`` — fault-injection campaigns: run a faulted
  campaign next to its fault-free twin and report resilience metrics, or
  summarize a recorded chaos trace (``docs/fault_injection.md``);
* ``fleet run|report`` — fleet-scale federation: prepare a heterogeneous
  client population (traces shard over ``--workers``) and compose it
  under sync / semi-sync / async aggregation, or summarize a recorded
  fleet trace (``docs/async_federation.md``);
* ``servertune run|report`` — server-side co-optimization: run a
  population-based search over adaptive global-knob controllers against
  a fleet workload and print the (energy, latency) frontier, or render a
  recorded frontier artifact (``docs/server_cooptimization.md``);
* ``serve`` — answer a JSONL stream of pace-decision requests through
  the long-running decision service and print the canonical decision log
  (``docs/pace_decision_service.md``);
* ``loadtest`` — replay a deterministic fleet trace as decision traffic
  and report p50/p99 latency, throughput, cache hit rate and coalescing
  (e.g. ``python -m repro loadtest --clients 60 --passes 2``);
* ``cache`` — inspect or clear the persistent campaign result cache;
* ``trace`` — replay a recorded observability trace (``campaign
  --trace out.jsonl`` records one) as a summary or as the trace-derived
  Table 3 / Fig. 13 views;
* ``lint`` — run the determinism-aware static-analysis rules over the
  source tree (``docs/static_analysis.md``); exits non-zero on
  violations, ``--format json`` is the stable CI interface;
* ``analyze`` — the whole-program companion to ``lint``: an
  interprocedural call-graph pass proving cross-module determinism
  contracts (taint, key completeness, registry closure, process-boundary
  safety), with SARIF output and a committed-baseline ratchet.

``--workers N`` fans campaign grids out over worker processes through
:class:`repro.sim.CampaignExecutor`; results are identical to the serial
path.  ``--cache-dir`` (or ``$REPRO_CACHE_DIR``) enables the durable
on-disk result cache so repeated invocations skip recomputation.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import TYPE_CHECKING, Optional

from repro import obs
from repro._version import __version__
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.service.engine import ServiceConfig
    from repro.sim.executor import CampaignTiming, ProgressCallback

#: Views ``repro trace`` can render from a JSONL event trace.
TRACE_VIEWS = ("summary", "tab3", "fig13")


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the ``repro`` CLI."""
    from repro.faults.schedule import CHAOS_PRESETS
    from repro.federated.choices import FLEET_DETAILS, FLEET_MODES
    from repro.sim.choices import CONTROLLER_NAMES
    from repro.sim.fleet import FLEET_SELECTORS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="BoFL reproduction (Middleware '22): regenerate paper artifacts.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list reproducible artifacts")

    run = commands.add_parser("run", help="regenerate one table/figure")
    run.add_argument("experiment", help="artifact id, e.g. fig9 or tab3")
    run.add_argument("--rounds", type=int, default=None, help="override round count")
    run.add_argument("--ratio", type=float, default=None, help="override T_max/T_min")
    run.add_argument("--seed", type=int, default=0)
    _add_parallel_options(run)

    campaign = commands.add_parser("campaign", help="run one controller campaign")
    campaign.add_argument("--device", default="agx", choices=("agx", "tx2"))
    campaign.add_argument("--task", default="vit", choices=("vit", "resnet50", "lstm"))
    campaign.add_argument("--controller", default="bofl", choices=CONTROLLER_NAMES)
    campaign.add_argument("--ratio", type=float, default=2.0)
    campaign.add_argument("--rounds", type=int, default=40)
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument(
        "--cache-dir", default=None, help="persistent result cache directory"
    )
    campaign.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record an observability trace of the campaign to PATH (JSONL); "
        "forces a fresh (uncached) run so the trace is complete",
    )

    sweep = commands.add_parser("sweep", help="multi-seed sweep (BoFL vs baselines)")
    sweep.add_argument("--device", default="agx", choices=("agx", "tx2"))
    sweep.add_argument("--task", default="vit", choices=("vit", "resnet50", "lstm"))
    sweep.add_argument("--ratio", type=float, default=2.0)
    sweep.add_argument("--rounds", type=int, default=40)
    sweep.add_argument(
        "--seeds", type=int, nargs="+", default=[0, 1, 2], metavar="SEED"
    )
    _add_parallel_options(sweep)

    serve = commands.add_parser(
        "serve",
        help="run the pace-decision service over a JSONL request stream "
        "(see docs/pace_decision_service.md)",
    )
    serve.add_argument(
        "file", nargs="?", default=None,
        help="JSONL file of DecisionRequest objects (default: stdin)",
    )
    serve.add_argument(
        "--rate", type=float, default=200.0, metavar="RPS",
        help="simulated arrival rate for the stream (default 200 req/s)",
    )
    _add_service_options(serve)
    serve.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a deterministic obs trace of the service to PATH (JSONL)",
    )

    loadtest = commands.add_parser(
        "loadtest",
        help="deterministic service load test: replay a fleet trace as "
        "decision traffic and report p50/p99 latency",
    )
    loadtest.add_argument("--clients", type=int, default=60, metavar="N")
    loadtest.add_argument("--rounds", type=int, default=3)
    loadtest.add_argument(
        "--passes", type=int, default=2,
        help="replay the same trace this many times (pass 2+ measures a "
        "warm cache; default 2)",
    )
    loadtest.add_argument("--rate", type=float, default=200.0, metavar="RPS")
    loadtest.add_argument("--ratio", type=float, default=2.0)
    loadtest.add_argument("--seed", type=int, default=0)
    loadtest.add_argument(
        "--archetypes", type=int, default=12, metavar="K",
        help="pool clients onto K archetypes (0 = all distinct)",
    )
    _add_service_options(loadtest)
    loadtest.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the full JSON report to PATH",
    )
    loadtest.add_argument(
        "--decision-log", default=None, metavar="PATH",
        help="write the canonical decision log (byte-stable JSONL) to PATH",
    )
    loadtest.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a deterministic obs trace of the replay to PATH (JSONL)",
    )
    loadtest.add_argument(
        "--from-trace", default=None, metavar="PATH",
        help="skip the replay: recompute the summary from a recorded trace",
    )

    cache = commands.add_parser("cache", help="persistent result cache maintenance")
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument(
        "--cache-dir", default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro/campaigns)",
    )

    chaos = commands.add_parser(
        "chaos", help="fault-injection campaigns (see docs/fault_injection.md)"
    )
    chaos_commands = chaos.add_subparsers(dest="chaos_command", required=True)
    chaos_run = chaos_commands.add_parser(
        "run", help="run a faulted campaign plus its fault-free twin"
    )
    chaos_run.add_argument("--device", default="agx", choices=("agx", "tx2"))
    chaos_run.add_argument("--task", default="vit", choices=("vit", "resnet50", "lstm"))
    chaos_run.add_argument("--controller", default="bofl", choices=CONTROLLER_NAMES)
    chaos_run.add_argument("--ratio", type=float, default=2.0)
    chaos_run.add_argument("--rounds", type=int, default=20)
    chaos_run.add_argument("--seed", type=int, default=0)
    chaos_run.add_argument(
        "--preset", default="mixed", choices=sorted(CHAOS_PRESETS),
        help="which fault mix to derive the schedule from",
    )
    chaos_run.add_argument(
        "--faults", type=int, default=4, metavar="N",
        help="number of fault windows to inject (default 4)",
    )
    chaos_run.add_argument(
        "--no-recovery", action="store_true",
        help="ablation: disable checkpoints, restores and escalation",
    )
    chaos_run.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record an observability trace to PATH (JSONL); forces a "
        "serial, uncached run so the trace is complete and byte-stable",
    )
    _add_parallel_options(chaos_run)
    chaos_report = chaos_commands.add_parser(
        "report", help="summarize the fault/recovery activity of a trace"
    )
    chaos_report.add_argument("file", help="trace written by chaos run --trace")

    fleet = commands.add_parser(
        "fleet", help="fleet-scale federation runs (see docs/async_federation.md)"
    )
    fleet_commands = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_run = fleet_commands.add_parser(
        "run", help="prepare and compose one heterogeneous fleet"
    )
    fleet_run.add_argument("--clients", type=int, default=100, metavar="N")
    fleet_run.add_argument("--rounds", type=int, default=10)
    fleet_run.add_argument("--mode", default="sync", choices=FLEET_MODES)
    fleet_run.add_argument("--ratio", type=float, default=2.0)
    fleet_run.add_argument("--seed", type=int, default=0)
    fleet_run.add_argument(
        "--archetypes", type=int, default=12, metavar="K",
        help="pool clients onto K shared trace seeds (0 = all distinct)",
    )
    fleet_run.add_argument(
        "--participants", type=int, default=None, metavar="N",
        help="aggregation target per round (default: everyone)",
    )
    fleet_run.add_argument(
        "--over-selection", type=float, default=1.3,
        help="semisync: select ceil(participants x this) clients",
    )
    fleet_run.add_argument(
        "--buffer", type=int, default=16,
        help="async: reports per buffered aggregation",
    )
    fleet_run.add_argument(
        "--staleness-exponent", type=float, default=0.5,
        help="async: staleness-discount exponent for report weights",
    )
    fleet_run.add_argument(
        "--max-staleness", type=int, default=None, metavar="S",
        help="async: drop reports staler than S model versions",
    )
    fleet_run.add_argument(
        "--selector", default="random", choices=FLEET_SELECTORS,
    )
    fleet_run.add_argument(
        "--controllers", default=None, metavar="A,B",
        help="comma-separated pace-controller mix (default: bofl,performant)",
    )
    fleet_run.add_argument(
        "--chaos", type=float, default=0.0, metavar="FRACTION",
        help="fraction of clients under dropout/stall chaos schedules",
    )
    fleet_run.add_argument(
        "--detail", default="reports", choices=FLEET_DETAILS,
        help="result granularity: per-report objects (default) or "
        "O(rounds)-memory per-round stats for 100k+ fleets",
    )
    fleet_run.add_argument(
        "--edges", type=int, default=None, metavar="E",
        help="hierarchical aggregation through E edge aggregators "
        "(server folds E partials instead of every client)",
    )
    fleet_run.add_argument(
        "--compose-shards", type=int, default=None, metavar="K",
        help="shard the composition's trace-column build over K threads "
        "(byte-identical to serial)",
    )
    fleet_run.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a deterministic obs trace of the composition to PATH; "
        "a .jsonl suffix writes row-per-event JSON Lines (byte-identical "
        "for any --workers value), anything else streams the bounded-"
        "memory columnar format",
    )
    _add_parallel_options(fleet_run)
    fleet_report = fleet_commands.add_parser(
        "report", help="summarize the fleet activity of a recorded trace"
    )
    fleet_report.add_argument("file", help="trace written by fleet run --trace")

    servertune = commands.add_parser(
        "servertune",
        help="server co-optimization: PBT over adaptive global-knob "
        "controllers (see docs/server_cooptimization.md)",
    )
    servertune_commands = servertune.add_subparsers(
        dest="servertune_command", required=True
    )
    servertune_run = servertune_commands.add_parser(
        "run", help="run a PBT campaign over one fleet workload"
    )
    servertune_run.add_argument("--clients", type=int, default=24, metavar="N")
    servertune_run.add_argument("--rounds", type=int, default=6)
    servertune_run.add_argument("--mode", default="sync", choices=FLEET_MODES)
    servertune_run.add_argument("--ratio", type=float, default=2.0)
    servertune_run.add_argument("--seed", type=int, default=0)
    servertune_run.add_argument(
        "--archetypes", type=int, default=8, metavar="K",
        help="pool clients onto K shared trace seeds (0 = all distinct)",
    )
    servertune_run.add_argument(
        "--participants", type=int, default=None, metavar="N",
        help="aggregation target per round (default: everyone)",
    )
    servertune_run.add_argument(
        "--population", type=int, default=8, metavar="P",
        help="PBT population size",
    )
    servertune_run.add_argument(
        "--generations", type=int, default=3, metavar="G",
        help="PBT generations",
    )
    servertune_run.add_argument(
        "--pbt-seed", type=int, default=0,
        help="seed addressing every PBT init/exploit/explore draw",
    )
    servertune_run.add_argument(
        "--controllers", default=None, metavar="A,B",
        help="comma-separated adaptive controller mix (default: fedgpo,fedtune)",
    )
    servertune_run.add_argument("--alpha-energy", type=float, default=0.5)
    servertune_run.add_argument("--alpha-time", type=float, default=0.5)
    servertune_run.add_argument(
        "--state", default=None, metavar="PATH",
        help="resume-state JSON: read before the run when it exists, "
        "rewritten after (deterministic resume)",
    )
    servertune_run.add_argument(
        "--frontier", default=None, metavar="PATH",
        help="write the frontier artifact (JSON) to PATH",
    )
    servertune_run.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a deterministic obs trace of the PBT run to PATH "
        "(JSONL); the trace is byte-identical for any --workers value",
    )
    _add_parallel_options(servertune_run)
    servertune_report = servertune_commands.add_parser(
        "report", help="summarize a frontier artifact JSON"
    )
    servertune_report.add_argument(
        "file", help="artifact written by servertune run --frontier"
    )

    trace = commands.add_parser(
        "trace", help="replay a recorded observability trace (JSONL)"
    )
    trace.add_argument("file", help="trace file written by campaign --trace")
    trace.add_argument(
        "--view", default="summary", choices=TRACE_VIEWS,
        help="what to render: an activity summary, or the trace-derived "
        "Table 3 / Fig. 13 artifacts",
    )

    lint = commands.add_parser(
        "lint", help="determinism-aware static analysis (see docs/static_analysis.md)"
    )
    lint.add_argument(
        "paths", nargs="*", default=None, metavar="PATH",
        help="files or directories to check (default: the src/ tree)",
    )
    lint.add_argument(
        "--format", default="human", choices=("human", "json"),
        help="report format (json is the stable CI interface)",
    )
    lint.add_argument(
        "--select", default=None, metavar="RULE[,RULE...]",
        help="run only these rule ids (default: every registered rule)",
    )
    lint.add_argument(
        "--root", default=None, metavar="DIR",
        help="repo root anchoring rule scopes (default: discovered from "
        "the first path's ancestors via pyproject.toml)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule registry (id, scope, rationale) and exit",
    )

    analyze = commands.add_parser(
        "analyze",
        help="whole-program determinism analysis: interprocedural taint, "
        "key completeness, registry closure, process-boundary safety",
    )
    analyze.add_argument(
        "paths", nargs="*", default=None, metavar="PATH",
        help="files or directories to analyze (default: the src/ tree)",
    )
    analyze.add_argument(
        "--format", default="human", choices=("human", "json", "sarif"),
        help="report format (json/sarif are the stable CI interfaces)",
    )
    analyze.add_argument(
        "--root", default=None, metavar="DIR",
        help="repo root anchoring relative paths (default: discovered from "
        "the first path's ancestors via pyproject.toml)",
    )
    analyze.add_argument(
        "--sarif", default=None, metavar="FILE",
        help="additionally write the SARIF report to FILE",
    )
    analyze.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline file for --ratchet/--write-baseline "
        "(default: <root>/analysis-baseline.json)",
    )
    analyze.add_argument(
        "--ratchet", action="store_true",
        help="fail only on findings absent from the committed baseline",
    )
    analyze.add_argument(
        "--write-baseline", action="store_true",
        help="regenerate the baseline from this run's findings and exit 0",
    )
    analyze.add_argument(
        "--list-checkers", action="store_true",
        help="print the checker registry (id, contract) and exit",
    )
    return parser


def _add_service_options(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--timeout", type=float, default=0.25, metavar="S",
        help="simulated decision deadline before the degraded path answers "
        "(default 0.25 s)",
    )
    subparser.add_argument(
        "--max-queue", type=int, default=256, metavar="N",
        help="bounded request queue depth (default 256)",
    )
    subparser.add_argument(
        "--cache-entries", type=int, default=2048, metavar="N",
        help="decision cache capacity (default 2048)",
    )


def _add_parallel_options(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes for campaign grids (default 1 = serial; "
        "0 = all cores)",
    )
    subparser.add_argument(
        "--cache-dir", default=None, help="persistent result cache directory"
    )
    subparser.add_argument(
        "--progress", action="store_true",
        help="print per-campaign timing records to stderr",
    )


def _setup_persistence(args: argparse.Namespace) -> None:
    """Install the durable cache when a directory was requested."""
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir:
        from repro.sim.cache import PersistentCampaignCache
        from repro.sim.runner import install_persistent_cache

        install_persistent_cache(PersistentCampaignCache(cache_dir))


def _progress_printer(enabled: bool) -> Optional[ProgressCallback]:
    if not enabled:
        return None

    def _print(done: int, total: int, timing: CampaignTiming) -> None:
        print(f"[{done}/{total}] {timing.render()}", file=sys.stderr)

    return _print


def _normalize_workers(workers: int) -> Optional[int]:
    """CLI convention: 0 means "all cores" (executor's ``None``)."""
    return None if workers == 0 else workers


def _cmd_list() -> str:
    # The registry imports every experiment driver, the BO stack (and
    # scipy) with them; only ``list`` and ``run`` need it.
    from repro.experiments import EXPERIMENTS

    lines = ["Reproducible artifacts:"]
    for experiment_id in sorted(EXPERIMENTS):
        experiment = EXPERIMENTS[experiment_id]
        parallel = " [parallelizable]" if experiment.grid is not None else ""
        lines.append(f"  {experiment_id:16s} {experiment.description}{parallel}")
    return "\n".join(lines)


def _cmd_run(args: argparse.Namespace) -> str:
    from repro.experiments import get_experiment, warm_experiment_cache

    experiment = get_experiment(args.experiment)
    kwargs = {}
    if args.rounds is not None:
        kwargs["rounds"] = args.rounds
    if args.ratio is not None:
        kwargs["ratio"] = args.ratio
    if args.seed:
        kwargs["seed"] = args.seed
    workers = _normalize_workers(args.workers)
    if workers is None or workers > 1:
        warm_experiment_cache(
            args.experiment,
            workers=workers,
            progress=_progress_printer(args.progress),
            **kwargs,
        )
    payload = experiment.run(**kwargs)
    return experiment.render(payload)


def _cmd_campaign(args: argparse.Namespace) -> str:
    from repro.analysis.tables import render_kv
    from repro.sim.runner import run_campaign

    if args.trace:
        # A cached result would leave the trace empty; always recompute.
        with obs.session() as session:
            result = run_campaign(
                args.device,
                args.task,
                args.controller,
                args.ratio,
                rounds=args.rounds,
                seed=args.seed,
                use_cache=False,
            )
        trace_path = session.log.dump_jsonl(args.trace)
        print(f"trace: {session.log.emitted} events -> {trace_path}", file=sys.stderr)
    else:
        result = run_campaign(
            args.device,
            args.task,
            args.controller,
            args.ratio,
            rounds=args.rounds,
            seed=args.seed,
        )
    pairs = [
        ("controller", result.controller),
        ("device / task", f"{result.device} / {result.task}"),
        ("rounds", result.rounds),
        ("deadline ratio", result.deadline_ratio),
        ("training energy (J)", result.training_energy),
        ("MBO energy (J)", result.mbo_energy),
        ("missed rounds", result.missed_rounds),
        ("configs explored", result.explored_total),
    ]
    return render_kv(pairs, title="Campaign summary")


def _cmd_sweep(args: argparse.Namespace) -> str:
    from repro.analysis.tables import render_kv
    from repro.sim.executor import CampaignExecutor
    from repro.sim.sweep import sweep_campaign

    workers = _normalize_workers(args.workers)
    executor = CampaignExecutor(
        workers=workers, progress=_progress_printer(args.progress)
    )
    result = sweep_campaign(
        args.device,
        args.task,
        args.ratio,
        rounds=args.rounds,
        seeds=tuple(args.seeds),
        executor=executor,
    )
    pairs = [
        ("device / task", f"{result.device} / {result.task}"),
        ("deadline ratio", result.deadline_ratio),
        ("rounds x seeds", f"{result.rounds} x {len(result.seeds)}"),
        ("seeds", ", ".join(str(s) for s in result.seeds)),
        ("improvement vs Performant", str(result.improvement)),
        ("regret vs Oracle", str(result.regret)),
        ("missed rounds (BoFL, total)", result.missed_total),
        ("workers", executor.workers),
    ]
    return render_kv(pairs, title="Sweep summary")


def _service_config(args: argparse.Namespace) -> ServiceConfig:
    from repro.service.engine import ServiceConfig

    return ServiceConfig(
        max_queue=args.max_queue,
        timeout=args.timeout,
        cache_entries=args.cache_entries,
    )


def _cmd_serve(args: argparse.Namespace) -> str:
    """Answer a JSONL request stream; the decision log goes to stdout."""
    import json as _json

    from repro.service.api import DecisionRequest
    from repro.service.engine import PaceDecisionService
    from repro.types import require_positive

    require_positive("rate", args.rate)
    if args.file:
        lines = pathlib.Path(args.file).read_text().splitlines()
    else:
        lines = sys.stdin.read().splitlines()
    requests = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            requests.append((lineno, DecisionRequest.from_dict(_json.loads(line))))
        except Exception as error:
            raise ConfigurationError(f"request line {lineno}: {error}") from error
    if not requests:
        raise ConfigurationError("the request stream is empty")

    def _replay() -> PaceDecisionService:
        service = PaceDecisionService(_service_config(args))
        for index, (lineno, request) in enumerate(requests):
            try:
                service.submit(request, at=index / args.rate)
            except ConfigurationError as error:
                raise ConfigurationError(f"request line {lineno}: {error}") from error
        service.close()
        return service

    if args.trace:
        with obs.session(deterministic=True) as session:
            service = _replay()
        trace_path = session.log.dump_jsonl(args.trace)
        print(f"trace: {session.log.emitted} events -> {trace_path}", file=sys.stderr)
    else:
        service = _replay()
    stats = service.stats()
    print(
        f"served {stats.decisions} decision(s): "
        f"{stats.evaluations} evaluation(s), "
        f"hit rate {stats.cache_hit_rate:.1%}, "
        f"{stats.coalesced} coalesced, "
        f"{stats.timeouts + stats.rejections} degraded",
        file=sys.stderr,
    )
    return "\n".join(d.log_line() for d in service.decisions)


def _cmd_loadtest(args: argparse.Namespace) -> str:
    from repro.service.loadgen import run_loadtest, service_report_from_trace
    from repro.sim.fleet import FleetSpec

    if args.from_trace:
        return service_report_from_trace(args.from_trace)
    spec = FleetSpec(
        n_clients=args.clients,
        rounds=args.rounds,
        deadline_ratio=args.ratio,
        seed=args.seed,
        archetypes=args.archetypes if args.archetypes else None,
    )
    config = _service_config(args)
    if args.trace:
        with obs.session(deterministic=True) as session:
            report = run_loadtest(
                spec, rate=args.rate, passes=args.passes, config=config
            )
        trace_path = session.log.dump_jsonl(args.trace)
        print(f"trace: {session.log.emitted} events -> {trace_path}", file=sys.stderr)
    else:
        with obs.session():
            report = run_loadtest(
                spec, rate=args.rate, passes=args.passes, config=config
            )
    if args.report:
        path = report.write_json(args.report)
        print(f"report: {path}", file=sys.stderr)
    if args.decision_log:
        path = report.write_decision_log(args.decision_log)
        print(f"decision log: {len(report.decisions)} line(s) -> {path}",
              file=sys.stderr)
    return report.render()


def _cmd_cache(args: argparse.Namespace) -> str:
    from repro.sim.cache import PersistentCampaignCache

    cache = PersistentCampaignCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        return f"removed {removed} cached campaign(s) from {cache.directory}"
    return cache.stats().render()


def _cmd_chaos(args: argparse.Namespace) -> str:
    from repro.sim.chaos import chaos_report_from_trace, run_chaos
    from repro.sim.executor import CampaignExecutor

    if args.chaos_command == "report":
        return chaos_report_from_trace(args.file)
    recovery = not args.no_recovery
    if args.trace:
        # Tracing forces a serial, uncached, deterministic-capture run:
        # cached cells would leave the trace empty, and wall-clock payload
        # fields would break byte-for-byte trace stability.
        with obs.session(deterministic=True) as session:
            result = run_chaos(
                args.device,
                args.task,
                args.controller,
                args.ratio,
                rounds=args.rounds,
                seed=args.seed,
                preset=args.preset,
                n_faults=args.faults,
                recovery=recovery,
                use_cache=False,
            )
        trace_path = session.log.dump_jsonl(args.trace)
        print(f"trace: {session.log.emitted} events -> {trace_path}", file=sys.stderr)
    else:
        executor = CampaignExecutor(
            workers=_normalize_workers(args.workers),
            progress=_progress_printer(args.progress),
        )
        result = run_chaos(
            args.device,
            args.task,
            args.controller,
            args.ratio,
            rounds=args.rounds,
            seed=args.seed,
            preset=args.preset,
            n_faults=args.faults,
            recovery=recovery,
            executor=executor,
        )
    return result.render()


def _cmd_fleet(args: argparse.Namespace) -> str:
    from repro.federated.async_engine import check_detail
    from repro.servertune.controllers import normalize_servertune
    from repro.sim.fleet import (
        FleetSpec,
        compose_fleet,
        fleet_report_from_trace,
        fleet_summary,
        prepare_fleet,
        render_fleet_summary,
    )

    if args.fleet_command == "report":
        return fleet_report_from_trace(args.file)
    extra: dict = {}
    if args.controllers:
        extra["controllers"] = tuple(args.controllers.split(","))
    spec = FleetSpec(
        n_clients=args.clients,
        rounds=args.rounds,
        mode=args.mode,
        deadline_ratio=args.ratio,
        seed=args.seed,
        archetypes=args.archetypes if args.archetypes else None,
        participants=args.participants,
        over_selection=args.over_selection,
        buffer_size=args.buffer,
        staleness_exponent=args.staleness_exponent,
        max_staleness=args.max_staleness,
        selector=args.selector,
        chaos_fraction=args.chaos,
        edges=args.edges,
        **extra,
    )
    # Reject a composition the engine would refuse before any campaign is
    # simulated: a cold trace gathering spends seconds computing campaigns.
    check_detail(
        args.detail,
        mode=spec.mode,
        controlled=normalize_servertune(spec.servertune) is not None,
        max_staleness=spec.max_staleness,
    )
    compose_kwargs = dict(detail=args.detail, shards=args.compose_shards)
    # Trace gathering may shard over workers and hit caches; the
    # composition below is serial and pure, so the deterministic trace
    # captured around it is byte-identical regardless of --workers.
    clients = prepare_fleet(
        spec,
        workers=_normalize_workers(args.workers),
        progress=_progress_printer(args.progress),
    )
    if args.trace and not args.trace.endswith(".jsonl"):
        # Columnar capture streams chunks to disk at emit time; a tiny
        # ring keeps session memory O(1) however many events the fleet
        # emits.
        from repro.obs.columnar import ColumnarTraceWriter

        with ColumnarTraceWriter(args.trace) as writer:
            with obs.session(
                capacity=1, deterministic=True,
                event_sink=writer.write_event,
            ) as session:
                result = compose_fleet(spec, clients, **compose_kwargs)
        print(
            f"trace: {session.log.emitted} events -> {writer.path}",
            file=sys.stderr,
        )
    elif args.trace:
        with obs.session(deterministic=True) as session:
            result = compose_fleet(spec, clients, **compose_kwargs)
        trace_path = session.log.dump_jsonl(args.trace)
        print(f"trace: {session.log.emitted} events -> {trace_path}", file=sys.stderr)
    else:
        result = compose_fleet(spec, clients, **compose_kwargs)
    return render_fleet_summary(fleet_summary(spec, result))


def _cmd_servertune(args: argparse.Namespace) -> str:
    import json

    from repro.servertune.pbt import (
        PBTSpec,
        PBTState,
        render_frontier_artifact,
        run_pbt,
    )
    from repro.sim.fleet import FleetSpec

    if args.servertune_command == "report":
        try:
            payload = json.loads(pathlib.Path(args.file).read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise ConfigurationError(
                f"cannot read frontier artifact {args.file}: {error}"
            ) from error
        return render_frontier_artifact(payload)

    fleet = FleetSpec(
        n_clients=args.clients,
        rounds=args.rounds,
        mode=args.mode,
        deadline_ratio=args.ratio,
        seed=args.seed,
        archetypes=args.archetypes if args.archetypes else None,
        participants=args.participants,
    )
    pbt_kwargs: dict = {}
    if args.controllers:
        pbt_kwargs["controllers"] = tuple(args.controllers.split(","))
    pbt = PBTSpec(
        population=args.population,
        generations=args.generations,
        seed=args.pbt_seed,
        alpha_energy=args.alpha_energy,
        alpha_time=args.alpha_time,
        **pbt_kwargs,
    )
    state = None
    if args.state and pathlib.Path(args.state).exists():
        try:
            state = PBTState.from_dict(
                json.loads(pathlib.Path(args.state).read_text())
            )
        except (OSError, json.JSONDecodeError) as error:
            raise ConfigurationError(
                f"cannot read PBT state {args.state}: {error}"
            ) from error
        print(
            f"resuming from {args.state} at generation {state.next_generation}",
            file=sys.stderr,
        )
    run_kwargs = dict(
        workers=_normalize_workers(args.workers),
        progress=_progress_printer(args.progress),
        state=state,
    )
    # Trace gathering inside the driver suspends obs (executor events
    # depend on worker count); everything this session captures is the
    # pure composition + PBT decision stream, byte-stable per seed.
    if args.trace:
        with obs.session(deterministic=True) as session:
            result = run_pbt(pbt, fleet, **run_kwargs)
        trace_path = session.log.dump_jsonl(args.trace)
        print(f"trace: {session.log.emitted} events -> {trace_path}", file=sys.stderr)
    else:
        result = run_pbt(pbt, fleet, **run_kwargs)
    if args.state:
        path = pathlib.Path(args.state)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(result.state.to_dict(), indent=2, sort_keys=True) + "\n"
        )
    if args.frontier:
        path = pathlib.Path(args.frontier)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"frontier artifact -> {path}", file=sys.stderr)
    return result.render()


def _cmd_trace(args: argparse.Namespace) -> str:
    # Sniffs the container: legacy JSONL and columnar traces of the same
    # event stream render identical views.
    events = obs.read_trace_events(args.file)
    return obs.render_view(events, args.view)


def _cmd_lint(args: argparse.Namespace) -> tuple[str, int]:
    """Returns (rendered report, exit code): 0 clean, 1 violations."""
    from repro.devtools import lint as devlint

    if args.list_rules:
        lines = ["Registered repro lint rules:"]
        for rule in devlint.iter_rules():
            lines.append(f"  {rule.id:18s} {rule.summary}")
            lines.append(f"  {'':18s} scope: {', '.join(rule.include)}"
                         + (f"  exempt: {', '.join(rule.exempt)}" if rule.exempt else ""))
        return "\n".join(lines), 0

    root = pathlib.Path(args.root) if args.root else None
    if args.paths:
        paths = [pathlib.Path(p) for p in args.paths]
    else:
        anchor = root if root is not None else devlint.find_repo_root(
            pathlib.Path.cwd()
        )
        paths = [anchor / "src"]
    select = args.select.split(",") if args.select else None
    report = devlint.lint_paths(paths, root=root, select=select)
    rendered = (
        report.render_json() if args.format == "json" else report.render_human()
    )
    return rendered, 0 if report.ok else 1


def _cmd_analyze(args: argparse.Namespace) -> tuple[str, int]:
    """Returns (rendered report, exit code): 0 clean/ratcheted, 1 findings."""
    from repro.devtools import analyze as devanalyze

    if args.list_checkers:
        lines = ["Registered repro analyze checkers:"]
        for checker_id in devanalyze.CHECKER_IDS:
            if checker_id == "parse-error":
                continue
            lines.append(f"  {checker_id:20s} {devanalyze.CHECKER_SUMMARIES[checker_id]}")
        return "\n".join(lines), 0

    root = pathlib.Path(args.root) if args.root else None
    if args.paths:
        paths = [pathlib.Path(p) for p in args.paths]
        anchor = root if root is not None else _find_devtools_root(paths[0])
    else:
        anchor = root if root is not None else _find_devtools_root(
            pathlib.Path.cwd()
        )
        paths = [anchor / "src"]
    report = devanalyze.analyze_paths(paths, root=anchor)
    if args.sarif:
        pathlib.Path(args.sarif).write_text(
            report.render_sarif() + "\n", encoding="utf-8"
        )
    baseline_path = (
        pathlib.Path(args.baseline)
        if args.baseline
        else anchor / "analysis-baseline.json"
    )
    if args.write_baseline:
        devanalyze.write_baseline(baseline_path, report)
        return f"repro analyze: baseline written to {baseline_path}", 0
    if args.ratchet:
        baseline = devanalyze.load_baseline(baseline_path)
        result = devanalyze.ratchet(report, baseline)
        return result.render(), 0 if result.ok else 1
    rendered = {
        "json": report.render_json,
        "sarif": report.render_sarif,
        "human": report.render_human,
    }[args.format]()
    return rendered, 0 if report.ok else 1


def _find_devtools_root(start: pathlib.Path) -> pathlib.Path:
    from repro.devtools.lint import find_repo_root

    return find_repo_root(start)


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            print(_cmd_list())
        elif args.command == "run":
            _setup_persistence(args)
            print(_cmd_run(args))
        elif args.command == "campaign":
            _setup_persistence(args)
            print(_cmd_campaign(args))
        elif args.command == "sweep":
            _setup_persistence(args)
            print(_cmd_sweep(args))
        elif args.command == "chaos":
            _setup_persistence(args)
            print(_cmd_chaos(args))
        elif args.command == "fleet":
            _setup_persistence(args)
            print(_cmd_fleet(args))
        elif args.command == "servertune":
            _setup_persistence(args)
            print(_cmd_servertune(args))
        elif args.command == "serve":
            print(_cmd_serve(args))
        elif args.command == "loadtest":
            print(_cmd_loadtest(args))
        elif args.command == "cache":
            print(_cmd_cache(args))
        elif args.command == "trace":
            print(_cmd_trace(args))
        elif args.command == "lint":
            rendered, code = _cmd_lint(args)
            print(rendered)
            return code
        elif args.command == "analyze":
            rendered, code = _cmd_analyze(args)
            print(rendered)
            return code
    except Exception as error:  # surface library errors as clean CLI errors
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
