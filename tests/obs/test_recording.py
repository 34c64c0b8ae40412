"""One trace path: every ``--trace`` records through one writer, and every
trace report is a ``repro trace`` view.

The six recording commands stream their events to disk as they are
emitted (the session keeps one), take either container by suffix, and
replace the target only when the run succeeds.  For the deterministic
commands the streamed JSON Lines are byte-identical to writing an
in-memory session of the same run after it ends.
"""

import contextlib
import json

import pytest

import repro.obs
from repro import cli
from repro.cli import main
from repro.obs import runtime as obs_runtime
from repro.obs.columnar import iter_trace_events, read_trace_events, sniff_format, write_trace
from repro.obs.events import WALL_CLOCK_PAYLOAD_KEYS
from repro.obs.trace import TRACE_VIEWS

FLEET = [
    "--clients", "6", "--rounds", "2", "--archetypes", "2",
    "--controllers", "performant", "--workers", "1",
]
SERVERTUNE = [
    "--clients", "6", "--rounds", "2", "--archetypes", "2",
    "--population", "2", "--generations", "1", "--workers", "1",
]
STREAM = (
    '{"device": "agx", "task": "vit", "jobs": 50, "deadline": 60.0}\n'
    '{"device": "tx2", "task": "lstm", "jobs": 40, "deadline": 90.0}\n'
)

#: The recording commands, small enough for tier-1.
COMMANDS = {
    "campaign": ["campaign", "--controller", "performant", "--task", "lstm", "--rounds", "2"],
    "serve": ["serve", "{stream}"],
    "loadtest": ["loadtest", "--clients", "6", "--rounds", "2", "--seed", "7"],
    "chaos": ["chaos", "run", "--controller", "performant", "--rounds", "6", "--faults", "2"],
    "fleet": ["fleet", "run", *FLEET],
    "servertune": ["servertune", "run", *SERVERTUNE],
}

#: Commands whose traces strip wall-clock payload keys.
DETERMINISTIC = ("serve", "loadtest", "chaos", "fleet", "servertune")


def argv(command, tmp_path):
    stream = tmp_path / "requests.jsonl"
    stream.write_text(STREAM)
    return [arg.format(stream=stream) for arg in COMMANDS[command]]


def recorded_call(command):
    """The library call ``command`` records, made the way the CLI makes it.

    What the CLI runs before its recording session opens (parsing the
    request stream, preparing the fleet) runs here; the returned callable
    is the recorded part.
    """
    from repro.service.engine import ServiceConfig
    from repro.sim.fleet import FleetSpec

    if command == "serve":
        from repro.service.api import DecisionRequest
        from repro.service.engine import PaceDecisionService

        requests = [DecisionRequest.from_dict(json.loads(line)) for line in STREAM.splitlines()]

        def serve():
            service = PaceDecisionService(ServiceConfig())
            for index, request in enumerate(requests):
                service.submit(request, at=index / 200.0)
            service.close()

        return serve
    if command == "loadtest":
        from repro.service.loadgen import run_loadtest

        spec = FleetSpec(n_clients=6, rounds=2, seed=7)
        return lambda: run_loadtest(spec, rate=200.0, passes=2, config=ServiceConfig())
    if command == "chaos":
        from repro.sim.chaos import run_chaos

        return lambda: run_chaos(
            "agx", "vit", "performant", 2.0, rounds=6, n_faults=2, use_cache=False
        )
    if command == "fleet":
        from repro.sim.fleet import compose_fleet, prepare_fleet

        spec = FleetSpec(n_clients=6, rounds=2, archetypes=2, controllers=("performant",))
        clients = prepare_fleet(spec, workers=1)
        return lambda: compose_fleet(spec, clients)
    from repro.servertune.pbt import PBTSpec, run_pbt

    fleet = FleetSpec(n_clients=6, rounds=2, archetypes=2)
    return lambda: run_pbt(PBTSpec(population=2, generations=1), fleet, workers=1)


@pytest.fixture
def sessions(monkeypatch):
    """Every session the CLI opens, outermost first."""
    opened = []
    real = obs_runtime.session

    @contextlib.contextmanager
    def spy(*args, **kwargs):
        with real(*args, **kwargs) as session:
            opened.append(session)
            yield session

    monkeypatch.setattr(repro.obs, "session", spy)
    return opened


def stripped(events):
    return [
        {k: v for k, v in e.to_dict().items() if k not in WALL_CLOCK_PAYLOAD_KEYS}
        for e in events
    ]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_both_containers_record_the_same_events(command, tmp_path, capsys, sessions):
    traces = {}
    for suffix in ("jsonl", "col"):
        traces[suffix] = tmp_path / f"trace.{suffix}"
        sessions.clear()
        assert main([*argv(command, tmp_path), "--trace", str(traces[suffix])]) == 0
        events = read_trace_events(traces[suffix])
        assert f"trace: {len(events)} events -> {traces[suffix]}" in capsys.readouterr().err
        # The recording session streams: it keeps one event, counts all.
        recording = sessions[0]
        assert recording.log.capacity == 1
        assert len(recording.log) <= 1
        assert recording.log.emitted == len(events) > 1
    assert sniff_format(traces["jsonl"]) == "jsonl"
    assert sniff_format(traces["col"]) == "columnar"
    jsonl, columnar = (read_trace_events(traces[s]) for s in ("jsonl", "col"))
    if command in DETERMINISTIC:
        assert [e.to_dict() for e in jsonl] == [e.to_dict() for e in columnar]
    else:
        assert stripped(jsonl) == stripped(columnar)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["requests.jsonl", "trace.jsonl", "trace.col"]
    )


@pytest.mark.parametrize("command", DETERMINISTIC)
def test_streamed_jsonl_equals_the_after_the_fact_dump(command, tmp_path, capsys):
    streamed = tmp_path / "streamed.jsonl"
    assert main([*argv(command, tmp_path), "--trace", str(streamed)]) == 0
    capsys.readouterr()
    call = recorded_call(command)
    with obs_runtime.session(deterministic=True) as session:
        call()
    dumped = write_trace(tmp_path / "dumped.jsonl", session.log)
    assert streamed.read_bytes() == dumped.read_bytes()


def test_untraced_loadtest_keeps_one_event(capsys, sessions):
    assert main(COMMANDS["loadtest"]) == 0
    assert "req/s wall" in capsys.readouterr().out  # the session timed the replay
    [session] = sessions
    assert len(session.log) <= 1 < session.log.emitted


class TestFailedRunsLeaveNoTrace:
    def test_failed_serve_keeps_the_earlier_trace(self, tmp_path, capsys):
        stream = tmp_path / "nano.jsonl"
        stream.write_text(
            '{"device": "agx", "task": "vit", "jobs": 50, "deadline": 60.0}\n'
            '{"device": "nano", "task": "vit", "jobs": 50, "deadline": 60.0}\n'
        )
        trace = tmp_path / "t.jsonl"
        trace.write_text("earlier\n")
        assert main(["serve", str(stream), "--trace", str(trace)]) == 1
        assert "unknown device 'nano'" in capsys.readouterr().err
        assert trace.read_text() == "earlier\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["nano.jsonl", "t.jsonl"]

    @pytest.mark.parametrize("suffix", ["jsonl", "col"])
    def test_crashed_fleet_composition_leaves_no_file(self, tmp_path, capsys, monkeypatch, suffix):
        """A columnar capture used to leave a partial file that read back
        as a valid, shorter trace."""

        def crash(spec, clients, **kwargs):
            for index in range(5000):
                obs_runtime.emit("fleet.enqueue", t=float(index), client=index)
            raise RuntimeError("composition crashed")

        monkeypatch.setattr("repro.sim.fleet.compose_fleet", crash)
        trace = tmp_path / f"fleet.{suffix}"
        assert main(["fleet", "run", *FLEET, "--trace", str(trace)]) == 1
        assert "composition crashed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

        trace.write_text("earlier\n")
        assert main(["fleet", "run", *FLEET, "--trace", str(trace)]) == 1
        assert trace.read_text() == "earlier\n"
        assert [p.name for p in tmp_path.iterdir()] == [trace.name]


class TestDomainViews:
    @pytest.mark.parametrize(
        ("view", "command"),
        [("fleet", "fleet"), ("chaos", "chaos"), ("service", "loadtest")],
    )
    def test_view_renders_the_same_from_either_container(self, view, command, tmp_path, capsys):
        jsonl = tmp_path / "trace.jsonl"
        assert main([*argv(command, tmp_path), "--trace", str(jsonl)]) == 0
        columnar = write_trace(tmp_path / "copy.col", iter_trace_events(jsonl))
        capsys.readouterr()
        rendered = []
        for path in (jsonl, columnar):
            assert main(["trace", str(path), "--view", view]) == 0
            rendered.append(capsys.readouterr().out)
        assert rendered[0] == rendered[1]
        assert rendered[0].strip()

    @pytest.mark.parametrize(
        ("view", "message"),
        [
            ("fleet", "no fleet events"),
            ("chaos", "no fault or recovery events"),
            ("service", "no service.decision events"),
        ],
    )
    def test_view_without_its_events_fails_cleanly(self, view, message, tmp_path, capsys):
        trace = tmp_path / "campaign.col"
        assert main([*argv("campaign", tmp_path), "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace", str(trace), "--view", view]) == 1
        assert message in capsys.readouterr().err

    def test_cli_offers_every_view(self):
        assert cli.TRACE_VIEWS == TRACE_VIEWS
        for view in TRACE_VIEWS:
            assert cli.build_parser().parse_args(["trace", "t.col", "--view", view]).view == view
