"""A labeled metrics registry unifying every DMW telemetry source.

The registry speaks the Prometheus data model — named metrics carrying
labeled samples — in three instrument flavours:

* :class:`Counter` — monotone totals (messages, operations, complaints);
* :class:`Gauge` — point-in-time values (cache sizes, hit rate, rounds);
* :class:`Histogram` — bucketed distributions (span durations).

:func:`registry_for_run` populates the canonical DMW metric set from one
finished execution: per-agent :class:`~repro.crypto.modular.OperationCounter`
snapshots, :class:`~repro.network.metrics.NetworkMetrics` totals and
per-kind counts, verification check counts from
:class:`~repro.core.verification.CheckStats`, fastexp
:class:`~repro.crypto.fastexp.PublicValueCache` hit/miss/size statistics,
and complaint events and span durations from a
:class:`~repro.obs.recorder.Recorder`.  The
full metric name/label reference lives in ``docs/OBSERVABILITY.md``.

Everything here *reads* counters that already exist — building a registry
never perturbs counted totals, and no registry is built unless asked for.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

LabelValues = Tuple[str, ...]

#: Default histogram buckets for span durations (seconds).
DEFAULT_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0)


class _Metric:
    """Base class: one named metric holding labeled samples."""

    type_name = "untyped"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str] = ()) -> None:
        _validate_metric_name(name)
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(label_names)
        self._samples: Dict[LabelValues, float] = {}

    def _key(self, labels: Dict[str, Any]) -> LabelValues:
        if set(labels) != set(self.label_names):
            raise ValueError(
                "metric %s expects labels %r, got %r"
                % (self.name, self.label_names, tuple(sorted(labels))))
        return tuple(str(labels[name]) for name in self.label_names)

    def value(self, **labels: Any) -> float:
        """Current value of one labeled sample (0 when never touched)."""
        return self._samples.get(self._key(labels), 0.0)

    def samples(self) -> List[Tuple[LabelValues, float]]:
        """All ``(label_values, value)`` pairs, sorted for stable output."""
        return sorted(self._samples.items())


class Counter(_Metric):
    """Monotonically increasing total."""

    type_name = "counter"

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up (got %r)" % amount)
        key = self._key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + amount


class Gauge(_Metric):
    """Point-in-time value."""

    type_name = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        self._samples[self._key(labels)] = float(value)

    def inc(self, amount: float = 1, **labels: Any) -> None:
        key = self._key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + amount


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    type_name = "histogram"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help_text, label_names)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")
        self._bucket_counts: Dict[LabelValues, List[int]] = {}
        self._sums: Dict[LabelValues, float] = {}
        self._counts: Dict[LabelValues, int] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        counts = self._bucket_counts.setdefault(
            key, [0] * (len(self.buckets) + 1))
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                counts[index] += 1
        counts[-1] += 1  # +Inf
        self._sums[key] = self._sums.get(key, 0.0) + value
        self._counts[key] = self._counts.get(key, 0) + 1

    def snapshot(self, **labels: Any) -> Dict[str, Any]:
        """Return ``{buckets, sum, count}`` for one labeled series."""
        key = self._key(labels)
        return {
            "buckets": list(self._bucket_counts.get(
                key, [0] * (len(self.buckets) + 1))),
            "sum": self._sums.get(key, 0.0),
            "count": self._counts.get(key, 0),
        }

    def series(self) -> List[LabelValues]:
        return sorted(self._counts)


def _validate_metric_name(name: str) -> None:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError("invalid metric name %r" % name)
    if name[0].isdigit():
        raise ValueError("metric names must not start with a digit")


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """A collection of named metrics with a Prometheus text exposition."""

    def __init__(self, namespace: str = "dmw") -> None:
        self.namespace = namespace
        self._metrics: Dict[str, _Metric] = {}

    # -- creation -------------------------------------------------------------
    def _register(self, metric: _Metric) -> _Metric:
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if type(existing) is not type(metric) or \
                    existing.label_names != metric.label_names:
                raise ValueError(
                    "metric %s already registered with a different shape"
                    % metric.name)
            return existing
        self._metrics[metric.name] = metric
        return metric

    def _full_name(self, name: str) -> str:
        return "%s_%s" % (self.namespace, name) if self.namespace else name

    def counter(self, name: str, help_text: str,
                labels: Sequence[str] = ()) -> Counter:
        return self._register(Counter(self._full_name(name), help_text,
                                      labels))

    def gauge(self, name: str, help_text: str,
              labels: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge(self._full_name(name), help_text,
                                    labels))

    def histogram(self, name: str, help_text: str,
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram(self._full_name(name), help_text,
                                        labels, buckets))

    # -- queries --------------------------------------------------------------
    def get(self, name: str) -> Optional[_Metric]:
        """Look up a metric by its full (namespaced) name."""
        return self._metrics.get(name)

    def __iter__(self) -> Iterable[_Metric]:
        return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    def __len__(self) -> int:
        return len(self._metrics)

    # -- export ---------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly dump: name -> {type, help, samples}."""
        result: Dict[str, Any] = {}
        for metric in self:
            if isinstance(metric, Histogram):
                samples = [
                    {"labels": dict(zip(metric.label_names, key)),
                     **metric.snapshot(**dict(zip(metric.label_names, key)))}
                    for key in metric.series()
                ]
            else:
                samples = [
                    {"labels": dict(zip(metric.label_names, key)),
                     "value": value}
                    for key, value in metric.samples()
                ]
            result[metric.name] = {
                "type": metric.type_name,
                "help": metric.help_text,
                "samples": samples,
            }
        return result

    def to_prometheus(self) -> str:
        """Render the Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for metric in self:
            # A labeled metric (or histogram) that never saw a sample has
            # nothing to expose; emitting bare HELP/TYPE for it would not
            # round-trip, so skip it entirely.
            if isinstance(metric, Histogram):
                if not metric.series():
                    continue
            elif metric.label_names and not metric.samples():
                continue
            lines.append("# HELP %s %s" % (metric.name, metric.help_text))
            lines.append("# TYPE %s %s" % (metric.name, metric.type_name))
            if isinstance(metric, Histogram):
                for key in metric.series():
                    labels = dict(zip(metric.label_names, key))
                    snap = metric.snapshot(**labels)
                    cumulative = 0
                    for bound, in_bucket in zip(
                            list(metric.buckets) + [float("inf")],
                            snap["buckets"]):
                        cumulative = in_bucket
                        bucket_labels = dict(labels)
                        bucket_labels["le"] = _format_number(float(bound))
                        lines.append("%s_bucket%s %s" % (
                            metric.name, _render_labels(bucket_labels),
                            _format_number(float(cumulative))))
                    lines.append("%s_sum%s %s" % (
                        metric.name, _render_labels(labels),
                        repr(snap["sum"])))
                    lines.append("%s_count%s %s" % (
                        metric.name, _render_labels(labels),
                        _format_number(float(snap["count"]))))
            else:
                rendered_any = False
                for key, value in metric.samples():
                    labels = dict(zip(metric.label_names, key))
                    lines.append("%s%s %s" % (metric.name,
                                              _render_labels(labels),
                                              _format_number(value)))
                    rendered_any = True
                if not rendered_any and not metric.label_names:
                    lines.append("%s 0" % metric.name)
        return "\n".join(lines) + "\n"


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join('%s="%s"' % (name, _escape_label(str(value)))
                     for name, value in sorted(labels.items()))
    return "{%s}" % inner


# ---------------------------------------------------------------------------
# The canonical DMW registry
# ---------------------------------------------------------------------------

def registry_for_run(outcome: Any,
                     agents: Optional[Sequence[Any]] = None,
                     recorder: Optional[Any] = None,
                     audit_report: Optional[Any] = None,
                     namespace: str = "dmw") -> MetricsRegistry:
    """Build the canonical metric set from one finished execution.

    Parameters
    ----------
    outcome:
        The :class:`~repro.core.outcome.DMWOutcome` (required; supplies
        network metrics, per-agent operation snapshots, cache stats, and
        abort information).
    agents:
        The protocol's agents; supplies per-agent verification-check
        counts (:attr:`~repro.core.agent.DMWAgent.check_stats`).
    recorder:
        A :class:`~repro.obs.recorder.Recorder`; supplies complaint and
        deviant-detection counts and span-duration histograms per phase.
    audit_report:
        An :class:`~repro.core.audit.AuditReport`; supplies audit finding
        counts.
    """
    registry = MetricsRegistry(namespace=namespace)

    completed = registry.gauge(
        "run_completed", "1 when the execution completed, 0 when it voided")
    completed.set(1.0 if outcome.completed else 0.0)

    # -- network ---------------------------------------------------------------
    metrics = outcome.network_metrics
    messages = registry.counter(
        "network_messages_total",
        "Point-to-point messages (broadcasts expanded to n-1)", ["kind"])
    for kind in sorted(metrics.by_kind):
        messages.inc(metrics.by_kind[kind], kind=kind)
    registry.counter(
        "network_field_elements_total",
        "Field elements transmitted (broadcast-expanded)").inc(
            metrics.field_elements)
    registry.counter(
        "network_broadcast_events_total",
        "Publish operations before broadcast expansion").inc(
            metrics.broadcast_events)
    registry.gauge(
        "network_rounds", "Synchronous rounds executed").set(metrics.rounds)

    # -- resilience ------------------------------------------------------------
    # Always present (zero on fault-free runs) so dashboards can alert on
    # them without series discovery.
    registry.counter(
        "network_retries_total",
        "Unicast copies retransmitted during grace sub-rounds").inc(
            getattr(metrics, "retransmissions", 0))
    registry.counter(
        "network_recovered_total",
        "Late copies delivered by a retransmission instead of dropped").inc(
            getattr(metrics, "recovered_messages", 0))
    quarantines = registry.counter(
        "task_quarantines_total",
        "Auctions quarantined under graceful degradation, by phase",
        ["phase"])
    for _, abort_record in sorted(
            (getattr(outcome, "task_aborts", {}) or {}).items()):
        quarantines.inc(1, phase=abort_record.phase or "unknown")
    registry.gauge(
        "run_degraded",
        "1 when the execution ran in graceful-degradation mode").set(
            1.0 if getattr(outcome, "degraded", False) else 0.0)

    # -- counted operations ----------------------------------------------------
    operations = registry.counter(
        "agent_operations_total",
        "Counted modular operations per agent (Theorem 12 accounting)",
        ["agent", "op"])
    for index, snapshot in enumerate(outcome.agent_operations):
        for op, value in snapshot.items():
            operations.inc(value, agent=index, op=op)

    # -- aborts ---------------------------------------------------------------
    aborts = registry.counter(
        "aborts_total", "Protocol aborts by phase", ["phase"])
    if outcome.abort is not None:
        aborts.inc(1, phase=outcome.abort.phase or "unknown")

    # -- fastexp public-value cache -------------------------------------------
    cache_stats = getattr(outcome, "cache_stats", None) or {}
    if cache_stats:
        cache_events = registry.counter(
            "cache_events_total",
            "PublicValueCache lookups by namespace and result",
            ["namespace", "result"])
        for namespace_name, stat_prefix in (("evaluation", "evaluation"),
                                            ("weights", "weight")):
            for result, plural in (("hit", "hits"), ("miss", "misses")):
                key = "%s_%s" % (stat_prefix, plural)
                if key in cache_stats:
                    cache_events.inc(cache_stats[key],
                                     namespace=namespace_name, result=result)
        entries = registry.gauge(
            "cache_entries", "PublicValueCache stored entries by namespace",
            ["namespace"])
        for namespace_name, key in (("evaluation", "evaluations"),
                                    ("weights", "weight_vectors"),
                                    ("straus_tables", "straus_tables")):
            if key in cache_stats:
                entries.set(cache_stats[key], namespace=namespace_name)
        hits = cache_stats.get("hits", 0)
        misses = cache_stats.get("misses", 0)
        rate = hits / (hits + misses) if (hits + misses) else 0.0
        registry.gauge(
            "cache_hit_rate",
            "PublicValueCache hit fraction over all lookups").set(rate)

    # -- verification checks ---------------------------------------------------
    if agents is not None:
        checks = registry.counter(
            "verification_checks_total",
            "Verification equation evaluations per agent",
            ["agent", "equation", "result"])
        for agent in agents:
            stats = getattr(agent, "check_stats", None)
            if stats is None:
                continue
            for (equation, passed), count in stats.items():
                checks.inc(count, agent=agent.index, equation=equation,
                           result="pass" if passed else "fail")

    # -- complaint events ------------------------------------------------------
    if recorder is not None:
        complaints = registry.counter(
            "complaints_total", "Complaint-round accusations by stage",
            ["stage"])
        deviants = registry.counter(
            "deviants_detected_total",
            "Distinct accused agents across all complaint rounds")
        accused_agents = set()
        for event in recorder.find_events(kind="complaints"):
            stage = event.detail.get("stage", "unknown")
            accused = event.detail.get("accused", [])
            complaints.inc(len(accused), stage=stage)
            accused_agents.update(accused)
        if accused_agents:
            deviants.inc(len(accused_agents))

    # -- audit findings --------------------------------------------------------
    if audit_report is not None:
        findings = registry.counter(
            "audit_findings_total", "Transcript-audit findings by check",
            ["check"])
        for finding in audit_report.findings:
            findings.inc(1, check=finding.check)
        registry.gauge(
            "audit_ok", "1 when the transcript audit passed").set(
                1.0 if audit_report.ok else 0.0)

    # -- span durations --------------------------------------------------------
    if recorder is not None:
        durations = registry.histogram(
            "span_duration_seconds", "Wall-clock per span name",
            ["name", "kind"])
        for span in recorder.spans:
            durations.observe(span.duration, name=span.name, kind=span.kind)
        phase_work = registry.counter(
            "phase_multiplication_work_total",
            "Counted multiplication work attributed per phase", ["phase"])
        phase_messages = registry.counter(
            "phase_messages_total",
            "Point-to-point messages attributed per phase", ["phase"])
        for span in recorder.phase_spans():
            phase_work.inc(span.operations.get("multiplication_work", 0),
                           phase=span.name)
            phase_messages.inc(
                span.network.get("point_to_point_messages", 0),
                phase=span.name)

    return registry


def bind_fastexp_metrics(registry: MetricsRegistry) -> None:
    """Publish the process-wide fixed-base table cache into ``registry``.

    Long-lived daemon observability (``docs/SERVICE.md``): the table
    cache behind :func:`repro.crypto.fastexp.fixed_base_table` used to
    be an opaque ``lru_cache``; these gauges make its hit rate, entry
    count, and approximate resident bytes scrapeable so operators can
    see (and bound) daemon memory.  Call again before each export to
    refresh the values.
    """
    from ..crypto.fastexp import fixed_base_table_stats

    stats = fixed_base_table_stats()
    descriptions = {
        "hits": "Fixed-base table cache hits since process start",
        "misses": "Fixed-base table cache misses since process start",
        "evictions": "Fixed-base tables evicted (LRU bound or explicit)",
        "entries": "Fixed-base tables currently cached",
        "approx_bytes": "Approximate resident bytes of cached tables",
    }
    for name, value in stats.items():
        registry.gauge("fixed_base_table_" + name,
                       descriptions.get(name, name)).set(value)
