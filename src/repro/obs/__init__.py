"""repro.obs — observability for DMW executions.

Five modules (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.recorder` — the one recorder of a run: nested
  ``run -> task -> phase`` spans with per-span wall-clock,
  counted-operation and network-delta attribution, the protocol events,
  and (with a nonzero message capacity) one event per unicast copy at
  each lifecycle step in a bounded ring buffer, all in one id space that
  a process-pool shard merges with one id shift and one time offset;
* :mod:`repro.obs.metrics` — a labeled counter/gauge/histogram registry
  unifying per-agent operation counters, network metrics, complaint and
  abort counts, verification-check stats, and fastexp cache statistics;
* :mod:`repro.obs.history` — the append-only run-history store (JSONL
  keyed by config fingerprint) with diff/trend analytics against the
  Theorem 11/12 closed forms;
* :mod:`repro.obs.profile` — opt-in per-phase cProfile capture with
  top-N hotspot attribution, merged across process-pool workers;
* :mod:`repro.obs.export` — the views of a recording that leave the
  process: the JSON run report (stable, versioned schema with built-in
  validation), the Prometheus text exposition (with a round-trip
  parser) and the Chrome trace.

The layer is strictly *read-only* with respect to the counted model:
recording never changes an agent's
:class:`~repro.crypto.modular.OperationCounter` totals, transcripts, or
outcomes, and the disabled recorder
(:data:`~repro.obs.recorder.NULL_RECORDER`, the default) adds no
per-event allocation.
"""

from .export import (
    PrometheusParseError,
    ReportSchemaError,
    parse_prometheus,
    provenance_summary,
    run_report,
    to_chrome_trace,
    to_prometheus,
    validate_run_report,
    write_chrome_trace,
    write_run_report,
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
from .recorder import (
    NULL_RECORDER,
    PAYMENTS_PHASE,
    PHASES,
    Event,
    MessageEvent,
    Recorder,
    Span,
)

__all__ = [
    "Counter",
    "Event",
    "Gauge",
    "Histogram",
    "HistoryStore",
    "MessageEvent",
    "MetricsRegistry",
    "NULL_RECORDER",
    "PAYMENTS_PHASE",
    "PHASES",
    "PhaseProfiler",
    "PrometheusParseError",
    "Recorder",
    "ReportSchemaError",
    "Span",
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
