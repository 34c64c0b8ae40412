"""Tests for the typed event records, the event log, and JSONL traces."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.columnar import JsonlTraceWriter, write_trace
from repro.obs.events import (
    TRACE_FORMAT_VERSION,
    Event,
    EventLog,
    events_between,
    read_jsonl,
)


class TestEvent:
    def test_kind_must_be_non_empty(self):
        with pytest.raises(ConfigurationError):
            Event(kind="")

    def test_layer_is_the_kind_prefix(self):
        assert Event(kind="guardian.decision").layer == "guardian"
        assert Event(kind="plain").layer == "plain"

    def test_dict_round_trip(self):
        event = Event(kind="mbo.fit", t=12.5, payload={"seconds": 0.3, "n": 7})
        restored = Event.from_dict(event.to_dict())
        assert restored == event

    def test_from_dict_rejects_non_events(self):
        with pytest.raises(ConfigurationError):
            Event.from_dict({"t": 1.0})
        with pytest.raises(ConfigurationError):
            Event.from_dict("not a dict")

    @pytest.mark.parametrize(
        ("raw", "field"),
        [
            ({"kind": "x", "t": "abc"}, "t"),
            ({"kind": "x", "t": True}, "t"),
            ({"kind": "x", "t": float("nan")}, "t"),
            ({"kind": "x", "t": None}, "t"),
            ({"kind": 3, "t": 1.0}, "kind"),
            ({"kind": "", "t": 1.0}, "kind"),
        ],
    )
    def test_from_dict_names_an_ill_typed_kind_or_time(self, raw, field):
        """``"t": "abc"`` used to escape as a bare ValueError, ``true`` to read as 1.0."""
        with pytest.raises(ConfigurationError, match=f"^{field} must"):
            Event.from_dict(raw)

    def test_from_dict_defaults_a_missing_time(self):
        assert Event.from_dict({"kind": "x", "n": 1}) == Event(kind="x", payload={"n": 1})


class TestEventLog:
    def test_emit_retains_and_counts(self):
        log = EventLog()
        log.emit("a.one", t=1.0, x=1)
        log.emit("a.one", t=2.0, x=2)
        log.emit("b.two")
        assert len(log) == 3
        assert log.emitted == 3
        assert log.counts_by_kind() == {"a.one": 2, "b.two": 1}

    def test_kind_filter(self):
        log = EventLog()
        log.emit("a.one", x=1)
        log.emit("b.two")
        [only] = log.events("a.one")
        assert only.payload == {"x": 1}
        assert len(log.events()) == 2

    def test_ring_capacity_bounds_memory_but_not_emitted(self):
        log = EventLog(capacity=3)
        for i in range(10):
            log.emit("tick", i=i)
        assert len(log) == 3
        assert log.emitted == 10
        assert [e.payload["i"] for e in log] == [7, 8, 9]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            EventLog(capacity=0)

    def test_sink_streams_json_lines(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with JsonlTraceWriter(path) as writer:
            log = EventLog(capacity=1, event_sink=writer.write_event)
            log.emit("a.one", t=1.5, x=1)
            log.emit("b.two")
        lines = path.read_text().splitlines()
        assert len(lines) == 3  # the header, then one line per event
        assert json.loads(lines[1]) == {"kind": "a.one", "t": 1.5, "x": 1}
        assert len(log) == 1 and log.emitted == 2

    def test_clear_drops_retained_events(self):
        log = EventLog()
        log.emit("a.one")
        log.clear()
        assert len(log) == 0
        assert log.emitted == 1


class TestJsonlRoundTrip:
    def test_dump_and_read_round_trip(self, tmp_path):
        log = EventLog()
        log.emit("campaign.start", t=0.0, device="agx", seed=3)
        log.emit("controller.round", t=10.0, round=0, energy=1.25)
        path = write_trace(tmp_path / "trace.jsonl", log)
        events = read_jsonl(path)
        assert [e.kind for e in events] == ["campaign.start", "controller.round"]
        assert events[1].payload == {"round": 0, "energy": 1.25}
        assert events[1].t == 10.0

    def test_dump_writes_a_version_header(self, tmp_path):
        path = write_trace(tmp_path / "empty.jsonl", EventLog())
        header = json.loads(path.read_text().splitlines()[0])
        assert header["kind"] == "trace.header"
        assert header["format_version"] == TRACE_FORMAT_VERSION

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            read_jsonl(tmp_path / "nope.jsonl")

    def test_malformed_json_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "ok", "t": 0.0}\nnot json\n')
        with pytest.raises(ConfigurationError, match=":2"):
            read_jsonl(path)

    def test_non_object_line_raises(self, tmp_path):
        path = tmp_path / "list.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ConfigurationError, match="not an event object"):
            read_jsonl(path)

    def test_future_format_version_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"kind": "trace.header", "format_version": 999}) + "\n"
        )
        with pytest.raises(ConfigurationError, match="format version"):
            read_jsonl(path)

    def test_headerless_trace_tolerated(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text('{"kind": "a.one", "t": 1.0}\n\n{"kind": "b.two", "t": 2.0}\n')
        assert [e.kind for e in read_jsonl(path)] == ["a.one", "b.two"]


class TestEventsBetween:
    def _stream(self, kinds):
        return [Event(kind=k) for k in kinds]

    def test_brackets_split_into_segments(self):
        events = self._stream(
            ["noise", "start", "a", "end", "noise", "start", "b", "end"]
        )
        segments = events_between(events, "start", "end")
        assert [[e.kind for e in s] for s in segments] == [
            ["start", "a", "end"],
            ["start", "b", "end"],
        ]

    def test_unterminated_bracket_yields_partial_segment(self):
        events = self._stream(["start", "a"])
        [segment] = events_between(events, "start", "end")
        assert [e.kind for e in segment] == ["start", "a"]

    def test_events_outside_brackets_are_dropped(self):
        events = self._stream(["orphan", "end"])
        assert events_between(events, "start", "end") == []
