"""Trace containers: one streaming writer, JSON Lines or columnar.

* **Writing** (:class:`TraceWriter`): the writer opens the file, writes
  its container's header eagerly, and takes each event at emit time as
  an :class:`~repro.obs.events.EventLog` ``event_sink``, so writer
  memory never grows with the trace.  :func:`trace_writer` picks the
  container from the suffix: ``.jsonl`` is JSON Lines
  (:class:`JsonlTraceWriter`, one sorted-key object per event), anything
  else columnar (:class:`ColumnarTraceWriter`).  Row-per-event JSONL is
  the wrong shape at fleet scale, where millions of events repeat their
  payload keys: the columnar writer encodes each chunk of at most
  ``chunk_events`` as *one* JSON line in which each payload key appears
  **once**, followed by the rows that carry it.
* **Reading** (:func:`iter_columnar`): chunks decode lazily, one line at
  a time, yielding :class:`~repro.obs.events.Event` objects in emit
  order; reader memory is likewise O(chunk).
* **Dispatch** (:func:`iter_trace_events`): sniffs the first line and
  streams either format, so every ``repro trace`` view replays JSONL and
  columnar traces through one code path.

Columnar on-disk layout (text, JSON Lines — no new dependencies,
diffable, and deterministic: the same event stream always produces the
same bytes):

    {"format": "repro-columnar-trace", "version": 1, "trace_format_version": 1}
    {"chunk": 3, "kinds": ["fleet.enqueue", "fleet.round"], "kind": [0, 0, 1],
     "t": [1.5, 2.5, 2.5], "cols": {"client": [[0, 1], ["c0", "c1"]], ...}}
    ...

``kinds`` is the chunk-local kind dictionary (first-appearance order),
``kind`` the per-event code into it, ``t`` the per-event timestamp, and
each column in ``cols`` is a ``[rows, values]`` pair: the ascending
chunk-local row indices that carry the key, and their values.  The header
carries both the columnar container version and the event-schema version
(:data:`~repro.obs.events.TRACE_FORMAT_VERSION`), and readers reject
either being newer than they understand.
"""

from __future__ import annotations

import json
import pathlib
from collections.abc import Iterable, Iterator
from typing import IO, Optional, Union

from repro.errors import ConfigurationError
from repro.obs.events import TRACE_FORMAT_VERSION, Event, iter_jsonl

#: First-line marker distinguishing columnar containers from JSONL.
COLUMNAR_FORMAT = "repro-columnar-trace"

#: Bump when the chunk encoding changes shape.
COLUMNAR_VERSION = 1

#: Default events per chunk: large enough to amortize keys, small enough
#: that reader/writer memory stays in the low megabytes.
DEFAULT_CHUNK_EVENTS = 4096


class TraceWriter:
    """Stream events to one trace file; subclasses fix the container.

    A context manager, and an ``event_sink`` for
    :class:`~repro.obs.events.EventLog` through :meth:`write_event`.  The
    header line is written and flushed on open, so even an empty (or
    crashed) capture is sniffable.
    """

    #: The container's first line.
    header: dict[str, object]

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: Optional[IO[str]] = self.path.open("w")
        self._handle.write(json.dumps(self.header) + "\n")
        self._handle.flush()
        #: Total events written (header and chunk framing excluded).
        self.written = 0

    def _write(self, handle: IO[str], event: Event) -> None:
        raise NotImplementedError

    def _finish(self, handle: IO[str]) -> None:
        """Write whatever the container still buffers (nothing by default)."""

    def write_event(self, event: Event) -> None:
        """Append one event to the trace."""
        if self._handle is None:
            raise ConfigurationError(f"trace {self.path} is already closed")
        self._write(self._handle, event)
        self.written += 1

    def close(self) -> None:
        """Flush what is buffered and close the file (idempotent)."""
        if self._handle is not None:
            self._finish(self._handle)
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class JsonlTraceWriter(TraceWriter):
    """JSON Lines: a version header, then one sorted-key object per event."""

    header = {"kind": "trace.header", "t": 0.0, "format_version": TRACE_FORMAT_VERSION}

    def _write(self, handle: IO[str], event: Event) -> None:
        handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")


class ColumnarTraceWriter(TraceWriter):
    """The columnar container: one JSON line of column vectors per chunk."""

    header = {
        "format": COLUMNAR_FORMAT,
        "version": COLUMNAR_VERSION,
        "trace_format_version": TRACE_FORMAT_VERSION,
    }

    def __init__(
        self,
        path: Union[str, pathlib.Path],
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
    ) -> None:
        if chunk_events < 1:
            raise ConfigurationError(
                f"chunk_events must be >= 1, got {chunk_events}"
            )
        self.chunk_events = chunk_events
        self._buffer: list[Event] = []
        super().__init__(path)

    def _write(self, handle: IO[str], event: Event) -> None:
        self._buffer.append(event)
        if len(self._buffer) >= self.chunk_events:
            self._finish(handle)

    def _finish(self, handle: IO[str]) -> None:
        """Spill the buffered events as one chunk line."""
        if not self._buffer:
            return
        kinds: list[str] = []
        kind_index: dict[str, int] = {}
        codes: list[int] = []
        times: list[float] = []
        cols: dict[str, tuple[list[int], list[object]]] = {}
        for row, event in enumerate(self._buffer):
            code = kind_index.get(event.kind)
            if code is None:
                code = len(kinds)
                kind_index[event.kind] = code
                kinds.append(event.kind)
            codes.append(code)
            times.append(event.t)
            for key, value in event.payload.items():
                column = cols.get(key)
                if column is None:
                    column = ([], [])
                    cols[key] = column
                column[0].append(row)
                column[1].append(value)
        chunk = {
            "chunk": len(self._buffer),
            "kinds": kinds,
            "kind": codes,
            "t": times,
            "cols": {
                key: [rows, values]
                for key, (rows, values) in sorted(cols.items())
            },
        }
        handle.write(json.dumps(chunk, sort_keys=True) + "\n")
        self._buffer = []


def trace_writer(path: Union[str, pathlib.Path]) -> TraceWriter:
    """Open a writer for ``path``: ``.jsonl`` is JSON Lines, anything else columnar."""
    if pathlib.Path(path).suffix == ".jsonl":
        return JsonlTraceWriter(path)
    return ColumnarTraceWriter(path)


def write_trace(path: Union[str, pathlib.Path], events: Iterable[Event]) -> pathlib.Path:
    """Write ``events`` to ``path`` in the container its suffix names."""
    with trace_writer(path) as writer:
        for event in events:
            writer.write_event(event)
    return writer.path


# -- reading ----------------------------------------------------------------


def _decode_chunk(
    raw: dict[str, object], path: pathlib.Path, lineno: int
) -> Iterator[Event]:
    try:
        n = int(raw["chunk"])  # type: ignore[arg-type]
        kinds = list(raw["kinds"])  # type: ignore[call-overload]
        codes = list(raw["kind"])  # type: ignore[call-overload]
        times = list(raw["t"])  # type: ignore[call-overload]
        cols = dict(raw["cols"])  # type: ignore[call-overload, arg-type]
    except (KeyError, TypeError, ValueError) as error:
        raise ConfigurationError(
            f"{path}:{lineno} is not a valid columnar chunk: {error}"
        ) from error
    if len(codes) != n or len(times) != n:
        raise ConfigurationError(
            f"{path}:{lineno} chunk declares {n} events but carries "
            f"{len(codes)} kind codes and {len(times)} timestamps"
        )
    payloads: list[dict[str, object]] = [{} for _ in range(n)]
    for key, column in cols.items():
        rows, values = column
        if len(rows) != len(values):
            raise ConfigurationError(
                f"{path}:{lineno} column {key!r} has {len(rows)} rows "
                f"but {len(values)} values"
            )
        for row, value in zip(rows, values):
            if not 0 <= row < n:
                raise ConfigurationError(
                    f"{path}:{lineno} column {key!r} references row {row} "
                    f"outside the chunk of {n}"
                )
            payloads[row][key] = value
    for i in range(n):
        code = codes[i]
        if not 0 <= code < len(kinds):
            raise ConfigurationError(
                f"{path}:{lineno} event {i} has kind code {code} outside "
                f"the chunk dictionary of {len(kinds)}"
            )
        yield Event(
            kind=str(kinds[code]), t=float(times[i]), payload=payloads[i]
        )


def _check_header(raw: dict[str, object], path: pathlib.Path) -> None:
    version = raw.get("version")
    if version != COLUMNAR_VERSION:
        raise ConfigurationError(
            f"{path} has columnar container version {version!r}; "
            f"this library reads version {COLUMNAR_VERSION}"
        )
    schema = raw.get("trace_format_version")
    if schema != TRACE_FORMAT_VERSION:
        raise ConfigurationError(
            f"{path} has trace format version {schema!r}; "
            f"this library reads version {TRACE_FORMAT_VERSION}"
        )


def iter_columnar(path: Union[str, pathlib.Path]) -> Iterator[Event]:
    """Stream events out of a columnar trace, one chunk in memory at a time."""
    path = pathlib.Path(path)
    try:
        handle = path.open()
    except OSError as error:
        raise ConfigurationError(f"cannot read trace {path}: {error}") from error
    with handle:
        header_seen = False
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as error:
                raise ConfigurationError(
                    f"{path}:{lineno} is not valid JSON: {error}"
                ) from error
            if not isinstance(raw, dict):
                raise ConfigurationError(
                    f"{path}:{lineno} is not a columnar record"
                )
            if not header_seen:
                if raw.get("format") != COLUMNAR_FORMAT:
                    raise ConfigurationError(
                        f"{path} does not start with a columnar header "
                        f"(use iter_trace_events for format dispatch)"
                    )
                _check_header(raw, path)
                header_seen = True
                continue
            yield from _decode_chunk(raw, path, lineno)


def sniff_format(path: Union[str, pathlib.Path]) -> str:
    """``"columnar"`` or ``"jsonl"``, from the first line of ``path``.

    Anything that is not a columnar header — including an empty file —
    is treated as JSONL, whose reader then applies its own validation.
    """
    path = pathlib.Path(path)
    try:
        with path.open() as handle:
            first = handle.readline()
    except OSError as error:
        raise ConfigurationError(f"cannot read trace {path}: {error}") from error
    try:
        raw = json.loads(first) if first.strip() else None
    except json.JSONDecodeError:
        return "jsonl"
    if isinstance(raw, dict) and raw.get("format") == COLUMNAR_FORMAT:
        return "columnar"
    return "jsonl"


def iter_trace_events(path: Union[str, pathlib.Path]) -> Iterator[Event]:
    """Stream a trace in either format (sniffed from the first line).

    The one entry point every trace consumer should use: JSONL and
    columnar traces of the same event stream yield identical
    :class:`Event` sequences, with memory bounded by one line / one
    chunk rather than the file size.
    """
    path = pathlib.Path(path)
    if sniff_format(path) == "columnar":
        return iter_columnar(path)
    return iter_jsonl(path)


def read_trace_events(path: Union[str, pathlib.Path]) -> list[Event]:
    """Materialize :func:`iter_trace_events` (small traces, tests)."""
    return list(iter_trace_events(path))
