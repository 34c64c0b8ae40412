"""Streaming columnar trace format: chunked column groups, bounded memory.

Row-per-event JSONL is the wrong shape at fleet scale: a 100k-client
composition emits millions of events, every one repeating its payload
keys.  The columnar format bounds memory and repetition at both ends:

* **Writing** (:class:`ColumnarTraceWriter`): events accumulate in an
  in-memory chunk of at most ``chunk_events``; a full chunk is encoded as
  *one* JSON line of column vectors and spilled to disk immediately, so
  writer memory is O(chunk), never O(trace).  Within a chunk, each
  payload key appears **once**, followed by the rows that carry it —
  sparse columns for a heterogeneous event stream.
* **Reading** (:func:`iter_columnar`): chunks decode lazily, one line at
  a time, yielding :class:`~repro.obs.events.Event` objects in emit
  order; reader memory is likewise O(chunk).
* **Dispatch** (:func:`iter_trace_events`): sniffs the first line and
  streams either format, so every trace consumer (``repro trace``,
  ``repro fleet report``) replays legacy JSONL and columnar traces
  through one code path.

On-disk layout (text, JSON Lines — no new dependencies, diffable, and
deterministic: the same event stream always produces the same bytes):

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
from types import TracebackType
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


class ColumnarTraceWriter:
    """Stream events to a columnar trace file with bounded memory.

    Usable as a context manager, and directly as an
    ``event_sink`` for :class:`~repro.obs.events.EventLog` — pass
    :meth:`write_event`.  The header line is written eagerly on open so
    even an empty (or crashed) capture is sniffable.
    """

    def __init__(
        self,
        path: Union[str, pathlib.Path],
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
    ) -> None:
        if chunk_events < 1:
            raise ConfigurationError(
                f"chunk_events must be >= 1, got {chunk_events}"
            )
        self.path = pathlib.Path(path)
        self.chunk_events = chunk_events
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: Optional[IO[str]] = self.path.open("w")
        self._handle.write(
            json.dumps(
                {
                    "format": COLUMNAR_FORMAT,
                    "version": COLUMNAR_VERSION,
                    "trace_format_version": TRACE_FORMAT_VERSION,
                }
            )
            + "\n"
        )
        #: Flush eagerly: a crashed capture must still sniff as columnar.
        self._handle.flush()
        self._buffer: list[Event] = []
        #: Total events written (header and chunk framing excluded).
        self.written = 0

    # -- writing -----------------------------------------------------------

    def write_event(self, event: Event) -> None:
        """Append one event; spills a chunk line when the buffer fills."""
        if self._handle is None:
            raise ConfigurationError(
                f"columnar trace {self.path} is already closed"
            )
        self._buffer.append(event)
        self.written += 1
        if len(self._buffer) >= self.chunk_events:
            self._flush_chunk()

    def _flush_chunk(self) -> None:
        if not self._buffer or self._handle is None:
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
        self._handle.write(json.dumps(chunk, sort_keys=True) + "\n")
        self._buffer = []

    def close(self) -> None:
        """Flush the partial chunk and close the file (idempotent)."""
        if self._handle is None:
            return
        self._flush_chunk()
        self._handle.close()
        self._handle = None

    def __enter__(self) -> "ColumnarTraceWriter":
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()


def write_columnar(
    path: Union[str, pathlib.Path],
    events: Iterable[Event],
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
) -> pathlib.Path:
    """Write ``events`` to ``path`` in the columnar format."""
    with ColumnarTraceWriter(path, chunk_events=chunk_events) as writer:
        for event in events:
            writer.write_event(event)
    return pathlib.Path(path)


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

    The one entry point every trace consumer should use: legacy JSONL
    and columnar traces of the same event stream yield identical
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
