"""``repro.obs`` — the structured observability layer.

Zero-dependency instrumentation for the controller, guardian, MBO loop,
ILP solver, campaign harness and FL server:

* :mod:`repro.obs.events` — typed, timestamped events with an emit-time
  sink and a bounded-memory ring option;
* :mod:`repro.obs.columnar` — the trace writer (JSONL or columnar) and
  the reader that streams either;
* :mod:`repro.obs.metrics` — counters, gauges and histogram timers cheap
  enough to leave on in benchmarks;
* :mod:`repro.obs.runtime` — the process-global on/off switch (default
  **off**; disabled emits cost one ``None`` check);
* :mod:`repro.obs.trace` — ``render_view``: every ``repro trace`` view
  of a recorded trace.

Typical use::

    from repro import obs
    from repro.sim import run_campaign

    with obs.trace_writer("trace.jsonl") as writer:
        with obs.session(capacity=1, event_sink=writer.write_event):
            run_campaign("agx", "vit", "bofl", 2.0, rounds=10, use_cache=False)
    print(obs.render_view(obs.iter_trace_events("trace.jsonl"), "summary"))

Event kinds and metric names are documented in ``docs/observability.md``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
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
    from repro.obs.events import (
        TRACE_FORMAT_VERSION,
        Event,
        EventLog,
        events_between,
        read_jsonl,
    )
    from repro.obs.metrics import Histogram, Metrics, Timer
    from repro.obs.runtime import (
        ObsSession,
        count,
        current,
        disable,
        emit,
        enable,
        enabled,
        gauge,
        observe,
        session,
        suspended,
        timer,
    )
    from repro.obs.trace import (
        CampaignTrace,
        MBORunTrace,
        RoundTrace,
        derive_overhead_fractions,
        derive_tab3_counts,
        fig13_payload_from_trace,
        find_campaign,
        render_summary,
        render_view,
        replay_campaigns,
        tab3_payload_from_trace,
    )

__all__ = [
    "COLUMNAR_FORMAT",
    "COLUMNAR_VERSION",
    "TRACE_FORMAT_VERSION",
    "CampaignTrace",
    "ColumnarTraceWriter",
    "Event",
    "EventLog",
    "Histogram",
    "JsonlTraceWriter",
    "MBORunTrace",
    "Metrics",
    "ObsSession",
    "RoundTrace",
    "Timer",
    "count",
    "current",
    "derive_overhead_fractions",
    "derive_tab3_counts",
    "disable",
    "emit",
    "enable",
    "enabled",
    "events_between",
    "fig13_payload_from_trace",
    "find_campaign",
    "gauge",
    "iter_columnar",
    "iter_trace_events",
    "observe",
    "read_jsonl",
    "read_trace_events",
    "render_summary",
    "render_view",
    "replay_campaigns",
    "session",
    "sniff_format",
    "suspended",
    "tab3_payload_from_trace",
    "timer",
    "trace_writer",
    "write_trace",
]

__getattr__, __dir__ = lazy_exports(__name__)
