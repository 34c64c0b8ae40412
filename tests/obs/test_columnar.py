"""Tests for the streaming columnar trace format and format dispatch."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import runtime as obs
from repro.obs.columnar import (
    COLUMNAR_FORMAT,
    COLUMNAR_VERSION,
    ColumnarTraceWriter,
    JsonlTraceWriter,
    iter_columnar,
    iter_trace_events,
    read_trace_events,
    sniff_format,
    trace_writer,
    write_trace,
)
from repro.obs.events import TRACE_FORMAT_VERSION, Event
from repro.obs.trace import render_view
from repro.sim.fleet import FleetSpec, compose_fleet, prepare_fleet


def make_events(n, kinds=("fleet.enqueue", "fleet.round", "mbo.step")):
    """A heterogeneous event stream with sparse, varied payloads."""
    events = []
    for i in range(n):
        kind = kinds[i % len(kinds)]
        payload = {"round": i // len(kinds), "seq": i}
        if kind == "fleet.enqueue":
            payload["client"] = f"client-{i:04d}"
            payload["staleness"] = i % 3
        elif kind == "mbo.step":
            payload["accepted"] = bool(i % 2)
        events.append(Event(kind=kind, t=float(i) * 0.5, payload=payload))
    return events


def dump_events(events):
    return [json.dumps(e.to_dict(), sort_keys=True) for e in events]


def write_chunked(path, events, chunk_events):
    """A columnar trace of ``events`` in chunks of ``chunk_events``."""
    with ColumnarTraceWriter(path, chunk_events=chunk_events) as writer:
        for event in events:
            writer.write_event(event)
    return path


class TestRoundTrip:
    def test_events_survive_byte_exact(self, tmp_path):
        events = make_events(100)
        path = write_chunked(tmp_path / "trace.col", events, chunk_events=16)
        assert dump_events(iter_columnar(path)) == dump_events(events)

    @pytest.mark.parametrize("chunk_events", [1, 7, 100, 4096])
    def test_chunk_boundaries_are_invisible(self, tmp_path, chunk_events):
        events = make_events(100)
        path = write_chunked(tmp_path / "trace.col", events, chunk_events)
        assert dump_events(iter_columnar(path)) == dump_events(events)

    def test_empty_trace(self, tmp_path):
        path = write_trace(tmp_path / "empty.col", [])
        assert read_trace_events(path) == []
        assert sniff_format(path) == "columnar"

    def test_writes_are_deterministic(self, tmp_path):
        events = make_events(50)
        a = write_chunked(tmp_path / "a.col", events, chunk_events=8)
        b = write_chunked(tmp_path / "b.col", events, chunk_events=8)
        assert a.read_bytes() == b.read_bytes()

    def test_columnar_is_smaller_than_jsonl(self, tmp_path):
        events = make_events(2000)
        jsonl = tmp_path / "trace.jsonl"
        jsonl.write_text("".join(line + "\n" for line in dump_events(events)))
        columnar = write_trace(tmp_path / "trace.col", events)
        assert columnar.stat().st_size < jsonl.stat().st_size


class TestWriter:
    def test_header_is_written_eagerly(self, tmp_path):
        writer = ColumnarTraceWriter(tmp_path / "crash.col")
        try:
            header = json.loads(
                (tmp_path / "crash.col").read_text().splitlines()[0]
            )
        finally:
            writer.close()
        assert header == {
            "format": COLUMNAR_FORMAT,
            "version": COLUMNAR_VERSION,
            "trace_format_version": TRACE_FORMAT_VERSION,
        }

    def test_jsonl_header_is_written_eagerly(self, tmp_path):
        writer = JsonlTraceWriter(tmp_path / "crash.jsonl")
        try:
            first = (tmp_path / "crash.jsonl").read_text().splitlines()[0]
        finally:
            writer.close()
        assert first == (
            '{"kind": "trace.header", "t": 0.0, '
            f'"format_version": {TRACE_FORMAT_VERSION}}}'
        )

    @pytest.mark.parametrize(
        ("name", "container"),
        [("t.jsonl", "jsonl"), ("t.col", "columnar"), ("trace", "columnar")],
    )
    def test_suffix_picks_the_container(self, tmp_path, name, container):
        events = make_events(5)
        with trace_writer(tmp_path / name) as writer:
            for event in events:
                writer.write_event(event)
        assert writer.written == 5
        assert sniff_format(tmp_path / name) == container
        assert dump_events(read_trace_events(tmp_path / name)) == dump_events(events)

    def test_write_after_close_raises(self, tmp_path):
        writer = ColumnarTraceWriter(tmp_path / "t.col")
        writer.close()
        with pytest.raises(ConfigurationError, match="closed"):
            writer.write_event(Event(kind="fleet.round"))

    def test_close_is_idempotent_and_flushes_partial_chunk(self, tmp_path):
        events = make_events(5)
        writer = ColumnarTraceWriter(tmp_path / "t.col", chunk_events=100)
        for event in events:
            writer.write_event(event)
        writer.close()
        writer.close()
        assert writer.written == 5
        assert dump_events(iter_columnar(tmp_path / "t.col")) == dump_events(
            events
        )

    def test_rejects_non_positive_chunk_size(self, tmp_path):
        with pytest.raises(ConfigurationError, match="chunk_events"):
            ColumnarTraceWriter(tmp_path / "t.col", chunk_events=0)

    def test_works_as_live_event_sink(self, tmp_path):
        """The writer plugged into an obs session captures the identical
        deterministic stream the in-memory log holds, with O(1) retention."""
        spec = FleetSpec(n_clients=8, rounds=2, mode="async")
        clients = prepare_fleet(spec)
        path = tmp_path / "live.col"
        with ColumnarTraceWriter(path) as writer:
            with obs.session(
                deterministic=True, event_sink=writer.write_event
            ) as session:
                compose_fleet(spec, clients)
                expected = dump_events(session.log)
        assert dump_events(iter_columnar(path)) == expected


class TestFormatDispatch:
    def test_sniff_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "fleet.round", "t": 1.0}\n')
        assert sniff_format(path) == "jsonl"

    def test_sniff_empty_and_invalid_default_to_jsonl(self, tmp_path):
        empty = tmp_path / "empty"
        empty.write_text("")
        garbled = tmp_path / "garbled"
        garbled.write_text("not json\n")
        assert sniff_format(empty) == "jsonl"
        assert sniff_format(garbled) == "jsonl"

    def test_both_formats_stream_identical_events(self, tmp_path):
        events = make_events(60)
        jsonl = tmp_path / "t.jsonl"
        jsonl.write_text("".join(line + "\n" for line in dump_events(events)))
        columnar = write_chunked(tmp_path / "t.col", events, chunk_events=16)
        assert dump_events(iter_trace_events(jsonl)) == dump_events(
            iter_trace_events(columnar)
        )

    def test_iter_columnar_rejects_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "fleet.round", "t": 1.0}\n')
        with pytest.raises(ConfigurationError, match="columnar header"):
            list(iter_columnar(path))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            read_trace_events(tmp_path / "nope.col")

    def test_replayed_views_agree_across_formats(self, tmp_path):
        """`repro trace` views render identically from either container."""
        spec = FleetSpec(n_clients=8, rounds=2, mode="semisync")
        clients = prepare_fleet(spec)
        with obs.session(deterministic=True) as session:
            compose_fleet(spec, clients)
        jsonl = write_trace(tmp_path / "t.jsonl", session.log)
        columnar = write_chunked(tmp_path / "t.col", session.log, chunk_events=32)
        for view in ("summary", "fleet"):
            assert render_view(
                read_trace_events(jsonl), view
            ) == render_view(read_trace_events(columnar), view)


class TestValidation:
    def header(self):
        return json.dumps(
            {
                "format": COLUMNAR_FORMAT,
                "version": COLUMNAR_VERSION,
                "trace_format_version": TRACE_FORMAT_VERSION,
            }
        )

    def test_rejects_newer_container_version(self, tmp_path):
        path = tmp_path / "t.col"
        path.write_text(
            json.dumps(
                {
                    "format": COLUMNAR_FORMAT,
                    "version": COLUMNAR_VERSION + 1,
                    "trace_format_version": TRACE_FORMAT_VERSION,
                }
            )
            + "\n"
        )
        with pytest.raises(ConfigurationError, match="container version"):
            list(iter_columnar(path))

    def test_rejects_newer_schema_version(self, tmp_path):
        path = tmp_path / "t.col"
        path.write_text(
            json.dumps(
                {
                    "format": COLUMNAR_FORMAT,
                    "version": COLUMNAR_VERSION,
                    "trace_format_version": TRACE_FORMAT_VERSION + 1,
                }
            )
            + "\n"
        )
        with pytest.raises(ConfigurationError, match="trace format version"):
            list(iter_columnar(path))

    def test_rejects_chunk_length_mismatch(self, tmp_path):
        path = tmp_path / "t.col"
        chunk = {
            "chunk": 2,
            "kinds": ["fleet.round"],
            "kind": [0],
            "t": [1.0],
            "cols": {},
        }
        path.write_text(self.header() + "\n" + json.dumps(chunk) + "\n")
        with pytest.raises(ConfigurationError, match="declares 2 events"):
            list(iter_columnar(path))

    def test_rejects_column_row_out_of_bounds(self, tmp_path):
        path = tmp_path / "t.col"
        chunk = {
            "chunk": 1,
            "kinds": ["fleet.round"],
            "kind": [0],
            "t": [1.0],
            "cols": {"round": [[5], [1]]},
        }
        path.write_text(self.header() + "\n" + json.dumps(chunk) + "\n")
        with pytest.raises(ConfigurationError, match="outside the chunk"):
            list(iter_columnar(path))

    def test_rejects_ragged_column(self, tmp_path):
        path = tmp_path / "t.col"
        chunk = {
            "chunk": 1,
            "kinds": ["fleet.round"],
            "kind": [0],
            "t": [1.0],
            "cols": {"round": [[0], [1, 2]]},
        }
        path.write_text(self.header() + "\n" + json.dumps(chunk) + "\n")
        with pytest.raises(ConfigurationError, match="1 rows"):
            list(iter_columnar(path))

    def test_rejects_kind_code_out_of_bounds(self, tmp_path):
        path = tmp_path / "t.col"
        chunk = {
            "chunk": 1,
            "kinds": ["fleet.round"],
            "kind": [3],
            "t": [1.0],
            "cols": {},
        }
        path.write_text(self.header() + "\n" + json.dumps(chunk) + "\n")
        with pytest.raises(ConfigurationError, match="kind code"):
            list(iter_columnar(path))

    def test_jsonl_streaming_checks_schema_version(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps(
                {
                    "kind": "trace.header",
                    "format_version": TRACE_FORMAT_VERSION + 1,
                }
            )
            + "\n"
        )
        with pytest.raises(ConfigurationError, match="trace format version"):
            list(iter_trace_events(path))
