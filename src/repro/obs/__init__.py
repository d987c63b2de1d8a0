"""repro.obs — unified observability for DMW executions.

Six layers (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.spans` — timestamped span tracing of protocol runs
  (``run -> task -> phase``) with per-span wall-clock, counted-operation,
  and network-delta attribution;
* :mod:`repro.obs.metrics` — a labeled counter/gauge/histogram registry
  unifying per-agent operation counters, network metrics, complaint and
  abort counts, verification-check stats, and fastexp cache statistics;
* :mod:`repro.obs.flight` — the message-level flight recorder: one
  structured event per unicast copy at each lifecycle step
  (send/deliver/drop/retransmit/recovery) in a bounded ring buffer,
  with dump-on-abort and a Chrome-trace (Perfetto-loadable) exporter;
* :mod:`repro.obs.history` — the append-only run-history store (JSONL
  keyed by config fingerprint) with diff/trend analytics against the
  Theorem 11/12 closed forms;
* :mod:`repro.obs.profile` — opt-in per-phase cProfile capture with
  top-N hotspot attribution, merged across process-pool workers;
* :mod:`repro.obs.export` — the JSON run-report artifact (stable,
  versioned schema with built-in validation), the Prometheus text
  exposition (with a round-trip parser), and human-readable timelines.

The layer is strictly *read-only* with respect to the counted model:
recording spans or flight events never changes an agent's
:class:`~repro.crypto.modular.OperationCounter` totals, transcripts, or
outcomes, and the disabled paths (:data:`~repro.obs.spans.NULL_RECORDER`
and :data:`~repro.obs.flight.NULL_FLIGHT`, the defaults) add no
per-event allocation.
"""

from .export import (
    PrometheusParseError,
    ReportSchemaError,
    parse_prometheus,
    provenance_summary,
    run_report,
    to_prometheus,
    validate_run_report,
    write_run_report,
)
from .flight import (
    NULL_FLIGHT,
    FlightEvent,
    FlightRecorder,
    to_chrome_trace,
    write_chrome_trace,
)
from .history import (
    HistoryStore,
    config_fingerprint,
    diff_entries,
    entry_from_report,
    theorem11_message_bounds,
    trend_rows,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bind_fastexp_metrics,
    registry_for_run,
)
from .profile import PhaseProfiler
from .spans import (
    NULL_RECORDER,
    PAYMENTS_PHASE,
    PHASES,
    Span,
    SpanEvent,
    SpanRecorder,
)

__all__ = [
    "Counter",
    "FlightEvent",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "HistoryStore",
    "MetricsRegistry",
    "NULL_FLIGHT",
    "NULL_RECORDER",
    "PAYMENTS_PHASE",
    "PHASES",
    "PhaseProfiler",
    "PrometheusParseError",
    "ReportSchemaError",
    "Span",
    "SpanEvent",
    "SpanRecorder",
    "config_fingerprint",
    "diff_entries",
    "entry_from_report",
    "parse_prometheus",
    "provenance_summary",
    "bind_fastexp_metrics",
    "registry_for_run",
    "run_report",
    "theorem11_message_bounds",
    "to_chrome_trace",
    "to_prometheus",
    "trend_rows",
    "validate_run_report",
    "write_chrome_trace",
    "write_run_report",
]
