"""Tests for repro.obs: the recorder, metrics registry, and exporters.

The central contract (docs/OBSERVABILITY.md) has three clauses, each
pinned here:

1. **Phase partition** — every counted operation and every transmitted
   message of an execution happens inside exactly one phase span, so the
   per-phase deltas sum *exactly* to the run's grand totals, in both the
   sequential and the phase-parallel driver.
2. **Zero perturbation** — running with a ``Recorder`` attached
   changes nothing observable: schedules, payments, per-agent counted
   operation snapshots, network totals, and cache statistics are
   bit-identical to an unobserved run with the same seeds.
3. **Faithful export** — the metrics registry reproduces the underlying
   counters exactly, the Prometheus text round-trips through
   ``parse_prometheus``, and ``validate_run_report`` accepts every real
   report and rejects tampered accounting.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent import DMWAgent
from repro.core.protocol import DMWProtocol, run_dmw
from repro.core.verification import CheckStats
from repro.obs import (
    NULL_RECORDER,
    PAYMENTS_PHASE,
    PHASES,
    MetricsRegistry,
    PrometheusParseError,
    Recorder,
    ReportSchemaError,
    parse_prometheus,
    registry_for_run,
    run_report,
    validate_run_report,
    write_run_report,
)
from repro.obs.recorder import KIND_PHASE, KIND_RUN, KIND_TASK

OP_KEYS = ("additions", "multiplications", "inversions",
           "exponentiations", "multiplication_work")
NET_KEYS = ("point_to_point_messages", "broadcast_events",
            "field_elements", "rounds")


def _summed(snapshots):
    totals = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _build_protocol(params, problem, recorder=None, seed=0):
    master = random.Random(seed)
    agents = [
        DMWAgent(index, params,
                 [int(problem.time(index, j))
                  for j in range(problem.num_tasks)],
                 rng=random.Random(master.getrandbits(64)))
        for index in range(params.num_agents)
    ]
    return DMWProtocol(params, agents, recorder=recorder)


def _observed_run(params, problem, parallel=False, seed=0):
    recorder = Recorder()
    protocol = _build_protocol(params, problem, recorder=recorder,
                               seed=seed)
    outcome = protocol.execute(problem.num_tasks, parallel=parallel)
    return outcome, protocol, recorder


def _phase_spans(document):
    return [span for span in document["spans"] if span["kind"] == KIND_PHASE]


# ---------------------------------------------------------------------------
# Recorder unit behaviour: spans and events
# ---------------------------------------------------------------------------

class TestSpanRecorderUnit:
    def test_nesting_and_queries(self):
        clock = iter(range(100))
        recorder = Recorder(clock=lambda: float(next(clock)))
        with recorder.span("run", kind=KIND_RUN):
            with recorder.span("task", kind=KIND_TASK, task=0):
                with recorder.span("bidding", task=0):
                    pass
        assert len(recorder.spans) == 3
        # Completion order: innermost first.
        assert [span.name for span in recorder.spans] == \
            ["run", "task", "bidding"][::-1]
        roots = [span for span in recorder.spans if span.parent_id is None]
        assert len(roots) == 1 and roots[0].name == "run"
        task_spans = recorder.find_spans(kind=KIND_TASK)
        assert len(task_spans) == 1
        assert [span for span in recorder.spans
                if span.parent_id == roots[0].span_id] == task_spans
        assert recorder.phase_spans() == recorder.find_spans(name="bidding")
        assert recorder.find_spans(task=0, name="bidding")

    def test_delta_capture_from_bound_sources(self):
        ops = {"multiplications": 0}
        net = {"point_to_point_messages": 0}
        recorder = Recorder(clock=lambda: 0.0)
        recorder.bind(lambda: dict(ops), lambda: dict(net))
        with recorder.span("bidding"):
            ops["multiplications"] += 7
            net["point_to_point_messages"] += 3
        with recorder.span("aggregation"):
            ops["multiplications"] += 5
        bidding, aggregation = recorder.spans
        assert bidding.operations == {"multiplications": 7}
        assert bidding.network == {"point_to_point_messages": 3}
        assert aggregation.operations == {"multiplications": 5}
        assert aggregation.network == {}  # zero deltas are dropped

    def test_durations_from_injected_clock(self):
        ticks = iter([0.0, 1.0, 1.5, 4.0, 9.0])
        recorder = Recorder(clock=lambda: next(ticks))  # epoch = 0.0
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        inner, outer = recorder.spans
        assert inner.duration == pytest.approx(4.0 - 1.5)
        assert outer.duration == pytest.approx(9.0 - 1.0)
        assert outer.start < inner.start < inner.end < outer.end

    def test_event_attaches_to_open_span(self):
        recorder = Recorder(clock=lambda: 0.0)
        recorder.event("before")
        with recorder.span("run", kind=KIND_RUN):
            recorder.event("inside", note=1)
        recorder.event("after")
        before, inside, after = recorder.events
        assert before.span_id is None and after.span_id is None
        assert inside.span_id == recorder.spans[0].span_id
        assert inside.detail == {"note": 1}
        # Spans and events draw their ids from one counter.
        assert [before.seq, recorder.spans[0].span_id, inside.seq,
                after.seq] == [0, 1, 2, 3]

    def test_exception_is_annotated_and_propagates(self):
        recorder = Recorder(clock=lambda: 0.0)
        with pytest.raises(RuntimeError):
            with recorder.span("bidding"):
                raise RuntimeError("boom")
        assert len(recorder.spans) == 1
        assert recorder.spans[0].attributes["error"] == "RuntimeError"

    def test_span_to_dict_keys(self):
        recorder = Recorder(clock=lambda: 0.0)
        with recorder.span("bidding", task=2, note="x"):
            pass
        encoded = recorder.spans[0].to_dict()
        assert encoded["name"] == "bidding"
        assert encoded["kind"] == KIND_PHASE
        assert encoded["task"] == 2
        assert encoded["attributes"] == {"note": "x"}
        for key in ("span_id", "parent_id", "start_s", "end_s",
                    "duration_s", "operations", "network"):
            assert key in encoded

    def test_render_timeline_nests(self):
        recorder = Recorder(clock=lambda: 0.0)
        with recorder.span("run", kind=KIND_RUN):
            with recorder.span("bidding", task=0):
                pass
        text = recorder.render_timeline()
        lines = text.splitlines()
        assert lines[0].startswith("run")
        assert lines[1].startswith("  bidding")
        assert "task 0" in lines[1]


class TestNullRecorder:
    def test_disabled_and_discarding(self):
        assert NULL_RECORDER.enabled is False
        with NULL_RECORDER.span("bidding") as span:
            assert span is None
        NULL_RECORDER.event("anything", x=1)
        assert NULL_RECORDER.spans == []
        assert NULL_RECORDER.events == []
        assert NULL_RECORDER.records_messages is False

    def test_span_context_is_shared(self):
        # No per-call allocation: every span() returns the same object.
        assert NULL_RECORDER.span("a") is NULL_RECORDER.span("b")

    def test_real_recorder_is_enabled(self):
        assert Recorder().enabled is True


# ---------------------------------------------------------------------------
# Clause 1: the phase-partition invariant, both drivers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("parallel", [False, True],
                         ids=["sequential", "parallel"])
def test_phase_deltas_partition_grand_totals(params5, problem53, parallel):
    outcome, _, recorder = _observed_run(params5, problem53,
                                            parallel=parallel)
    assert outcome.completed
    op_totals = _summed(outcome.agent_operations)
    net_totals = outcome.network_metrics.as_dict()
    phases = recorder.phase_spans()
    for key in OP_KEYS:
        attributed = sum(span.operations.get(key, 0) for span in phases)
        assert attributed == op_totals[key], key
    for key in list(NET_KEYS) + [k for k in net_totals
                                 if k.startswith("messages[")]:
        attributed = sum(span.network.get(key, 0) for span in phases)
        assert attributed == net_totals[key], key


def test_sequential_span_structure(params5, problem53):
    outcome, _, recorder = _observed_run(params5, problem53)
    m = problem53.num_tasks
    runs = recorder.find_spans(kind=KIND_RUN)
    assert len(runs) == 1
    assert runs[0].attributes["parallel"] is False
    tasks = recorder.find_spans(kind=KIND_TASK)
    assert [span.task for span in tasks] == list(range(m))
    # Four phases nested under each task span, in protocol order.
    for task_span in tasks:
        children = [span for span in recorder.spans
                    if span.parent_id == task_span.span_id]
        assert [span.name for span in children] == list(PHASES)
        assert all(span.task == task_span.task for span in children)
    payments = recorder.find_spans(name=PAYMENTS_PHASE)
    assert len(payments) == 1
    assert payments[0].parent_id == runs[0].span_id
    assert len(recorder.phase_spans()) == 4 * m + 1


def test_parallel_span_structure(params5, problem53):
    outcome, _, recorder = _observed_run(params5, problem53,
                                            parallel=True)
    runs = recorder.find_spans(kind=KIND_RUN)
    assert len(runs) == 1 and runs[0].attributes["parallel"] is True
    # Phase-barrier execution: no task spans, one span per global phase.
    assert recorder.find_spans(kind=KIND_TASK) == []
    phases = recorder.phase_spans()
    assert [span.name for span in phases] == list(PHASES) + [PAYMENTS_PHASE]
    assert all(span.task is None for span in phases)


def test_network_round_events_match_round_counter(params5, problem53):
    outcome, _, recorder = _observed_run(params5, problem53)
    rounds = recorder.find_events(kind="network_round")
    assert len(rounds) == outcome.network_metrics.rounds
    delivered = sum(event.detail["delivered"] for event in rounds)
    assert delivered == outcome.network_metrics.point_to_point_messages


# ---------------------------------------------------------------------------
# Clause 2: observation changes nothing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("parallel", [False, True],
                         ids=["sequential", "parallel"])
def test_observed_run_is_bit_identical(params5, problem53, parallel):
    plain = run_dmw(problem53, parameters=params5, rng=random.Random(9),
                    parallel=parallel)
    observed = run_dmw(problem53, parameters=params5, rng=random.Random(9),
                       parallel=parallel, recorder=Recorder())
    assert plain.completed and observed.completed
    assert observed.schedule.assignment == plain.schedule.assignment
    assert observed.payments == plain.payments
    assert observed.agent_operations == plain.agent_operations
    assert (observed.network_metrics.as_dict()
            == plain.network_metrics.as_dict())
    assert observed.cache_stats == plain.cache_stats


def test_protocol_defaults_to_null_recorder(params5, problem53):
    protocol = _build_protocol(params5, problem53)
    assert protocol.recorder is NULL_RECORDER
    assert protocol.network.recorder is NULL_RECORDER
    protocol.execute(problem53.num_tasks)
    assert NULL_RECORDER.spans == [] and NULL_RECORDER.events == []


# ---------------------------------------------------------------------------
# CheckStats
# ---------------------------------------------------------------------------

class TestCheckStats:
    def test_record_total_filtering(self):
        stats = CheckStats()
        stats.record("share_bundle", True)
        stats.record("share_bundle", True)
        stats.record("share_bundle", False)
        stats.record("lambda_psi", True)
        assert stats.total() == 4
        assert stats.total(equation="share_bundle") == 3
        assert stats.total(passed=False) == 1
        assert stats.total(equation="lambda_psi", passed=True) == 1
        assert stats.total(equation="missing") == 0

    def test_as_dict_and_items_sorted(self):
        stats = CheckStats()
        stats.record("lambda_psi", True)
        stats.record("f_disclosure", False)
        stats.record("lambda_psi", True)
        assert stats.as_dict() == {"f_disclosure:fail": 1,
                                   "lambda_psi:pass": 2}
        assert [key for key, _ in stats.items()] == [
            ("f_disclosure", False), ("lambda_psi", True)]


# ---------------------------------------------------------------------------
# Clause 3a: the metrics registry mirrors the counters exactly
# ---------------------------------------------------------------------------

class TestRegistryInstruments:
    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("x_total", "help")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_label_shape_is_enforced(self):
        counter = MetricsRegistry().counter("x_total", "help", ["kind"])
        with pytest.raises(ValueError):
            counter.inc(1)  # missing label
        with pytest.raises(ValueError):
            counter.inc(1, kind="a", extra="b")
        counter.inc(2, kind="a")
        assert counter.value(kind="a") == 2
        assert counter.value(kind="never") == 0

    def test_reregistration_requires_same_shape(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help", ["kind"])
        assert registry.counter("x_total", "help", ["kind"]) is first
        with pytest.raises(ValueError):
            registry.counter("x_total", "help", ["other"])
        with pytest.raises(ValueError):
            registry.gauge("x_total", "help", ["kind"])

    def test_histogram_cumulative_buckets(self):
        histogram = MetricsRegistry().histogram(
            "lat_seconds", "help", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["buckets"] == [1, 2, 3]  # cumulative, +Inf last
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(5.55)

    def test_invalid_metric_names_rejected(self):
        registry = MetricsRegistry(namespace="")
        with pytest.raises(ValueError):
            registry.counter("9starts_with_digit", "help")
        with pytest.raises(ValueError):
            registry.counter("has space", "help")


class TestRegistryForRun:
    @pytest.fixture()
    def observed(self, params5, problem53):
        outcome, protocol, recorder = _observed_run(params5, problem53)
        registry = registry_for_run(outcome, agents=protocol.agents,
                                    recorder=recorder)
        return outcome, protocol, recorder, registry

    def test_network_metrics_mirrored(self, observed):
        outcome, _, _, registry = observed
        metrics = outcome.network_metrics
        messages = registry.get("dmw_network_messages_total")
        for kind, count in metrics.by_kind.items():
            assert messages.value(kind=kind) == count
        assert (registry.get("dmw_network_field_elements_total").value()
                == metrics.field_elements)
        assert (registry.get("dmw_network_broadcast_events_total").value()
                == metrics.broadcast_events)
        assert registry.get("dmw_network_rounds").value() == metrics.rounds
        assert registry.get("dmw_run_completed").value() == 1.0

    def test_agent_operations_mirrored(self, observed):
        outcome, _, _, registry = observed
        operations = registry.get("dmw_agent_operations_total")
        for index, snapshot in enumerate(outcome.agent_operations):
            for op, value in snapshot.items():
                assert operations.value(agent=index, op=op) == value

    def test_cache_statistics_mirrored(self, observed):
        outcome, _, _, registry = observed
        stats = outcome.cache_stats
        assert stats  # the shared cache always sees traffic
        events = registry.get("dmw_cache_events_total")
        assert (events.value(namespace="evaluation", result="hit")
                == stats["evaluation_hits"])
        assert (events.value(namespace="evaluation", result="miss")
                == stats["evaluation_misses"])
        assert (events.value(namespace="weights", result="hit")
                == stats["weight_hits"])
        assert (events.value(namespace="weights", result="miss")
                == stats["weight_misses"])
        # Every lookup lands in exactly one exported (namespace, result).
        assert (sum(value for _, value in events.samples())
                == stats["hits"] + stats["misses"])
        entries = registry.get("dmw_cache_entries")
        assert entries.value(namespace="evaluation") == stats["evaluations"]
        assert (entries.value(namespace="straus_tables")
                == stats["straus_tables"])
        rate = registry.get("dmw_cache_hit_rate").value()
        assert rate == pytest.approx(
            stats["hits"] / (stats["hits"] + stats["misses"]))

    def test_verification_checks_mirrored(self, observed):
        _, protocol, _, registry = observed
        checks = registry.get("dmw_verification_checks_total")
        for agent in protocol.agents:
            for (equation, passed), count in agent.check_stats:
                assert checks.value(
                    agent=agent.index, equation=equation,
                    result="pass" if passed else "fail") == count
        # Honest runs never fail a verification equation.
        assert all(key[2] == "pass" for key, _ in checks.samples())
        assert sum(value for _, value in checks.samples()) > 0

    def test_span_histogram_and_phase_attribution(self, observed):
        _, _, recorder, registry = observed
        durations = registry.get("dmw_span_duration_seconds")
        total = sum(durations.snapshot(name=name, kind=kind)["count"]
                    for name, kind in durations.series())
        assert total == len(recorder.spans)
        phase_work = registry.get("dmw_phase_multiplication_work_total")
        for name in list(PHASES) + [PAYMENTS_PHASE]:
            expected = sum(span.operations.get("multiplication_work", 0)
                           for span in recorder.find_spans(name=name))
            assert phase_work.value(phase=name) == expected

    def test_honest_run_has_no_aborts_or_complaints(self, observed):
        _, _, _, registry = observed
        assert registry.get("dmw_aborts_total").samples() == []
        assert registry.get("dmw_complaints_total").samples() == []
        assert registry.get("dmw_deviants_detected_total").samples() == []


# ---------------------------------------------------------------------------
# Clause 3b: Prometheus text round-trip
# ---------------------------------------------------------------------------

class TestPrometheus:
    def test_real_run_round_trips(self, params5, problem53):
        outcome, protocol, recorder = _observed_run(params5, problem53)
        registry = registry_for_run(outcome, agents=protocol.agents,
                                    recorder=recorder)
        samples = parse_prometheus(registry.to_prometheus())
        assert samples
        metrics = outcome.network_metrics
        assert samples[("dmw_network_field_elements_total", ())] \
            == metrics.field_elements
        assert samples[("dmw_network_rounds", ())] == metrics.rounds
        for kind, count in metrics.by_kind.items():
            assert samples[("dmw_network_messages_total",
                            (("kind", kind),))] == count
        # Histogram series expose _bucket/_sum/_count samples.
        assert any(name.startswith("dmw_span_duration_seconds_bucket")
                   for name, _ in samples)

    def test_label_escaping_round_trips(self):
        registry = MetricsRegistry()
        counter = registry.counter("odd_total", "help", ["label"])
        tricky = 'quote " slash \\ newline \n end'
        counter.inc(3, label=tricky)
        samples = parse_prometheus(registry.to_prometheus())
        assert samples[("dmw_odd_total", (("label", tricky),))] == 3

    def test_empty_labeled_metrics_are_omitted(self):
        registry = MetricsRegistry()
        registry.counter("silent_total", "never incremented", ["kind"])
        registry.histogram("silent_seconds", "never observed")
        registry.gauge("plain", "unlabeled scalar still appears")
        text = registry.to_prometheus()
        assert "silent" not in text
        assert "dmw_plain 0" in text
        parse_prometheus(text)  # and the result is parseable

    @pytest.mark.parametrize("bad", [
        "# BOGUS comment line\n",
        "# TYPE ghost_total counter\n",            # TYPE without samples
        "metric_total 1\nmetric_total 2\n",        # duplicate sample
        "metric_total notanumber\n",
        'metric_total{label="unterminated\n',
        "metric_total\n",                          # missing value
    ])
    def test_parser_rejects_malformed_text(self, bad):
        with pytest.raises(PrometheusParseError):
            parse_prometheus(bad)

    def test_parser_accepts_inf_values(self):
        samples = parse_prometheus("up +Inf\ndown -Inf\n")
        assert samples[("up", ())] == float("inf")
        assert samples[("down", ())] == float("-inf")


# ---------------------------------------------------------------------------
# Clause 3c: the run report and its validator
# ---------------------------------------------------------------------------

class TestRunReport:
    @pytest.fixture()
    def document(self, params5, problem53):
        outcome, protocol, recorder = _observed_run(params5, problem53)
        return run_report(outcome, agents=protocol.agents,
                          recorder=recorder, parameters=params5)

    def test_real_report_validates(self, document):
        validate_run_report(document)  # must not raise

    def test_parallel_report_validates(self, params5, problem53):
        outcome, protocol, recorder = _observed_run(
            params5, problem53, parallel=True)
        validate_run_report(run_report(outcome, agents=protocol.agents,
                                       recorder=recorder,
                                       parameters=params5))

    def test_report_summarises_outcome(self, document, params5, problem53):
        assert document["completed"] is True
        assert document["abort"] is None
        assert document["params"]["num_agents"] == params5.num_agents
        assert document["params"]["sigma"] == params5.sigma
        assert len(document["schedule"]) == problem53.num_tasks
        assert len(document["payments"]) == params5.num_agents
        assert len(_phase_spans(document)) == 4 * problem53.num_tasks + 1
        # Version 5 stores each record once: one events list, no copies.
        assert "trace" not in document and "phases" not in document
        kinds = [event["kind"] for event in document["events"]]
        assert kinds.count("network_round") == \
            document["totals"]["network"]["rounds"]
        assert kinds.count("auction_start") == problem53.num_tasks
        assert document["cache"]["hits"] > 0

    def test_report_is_json_serialisable(self, document, tmp_path):
        path = tmp_path / "report.json"
        write_run_report(str(path), document)
        reloaded = json.loads(path.read_text())
        validate_run_report(reloaded)
        assert reloaded["totals"] == json.loads(
            json.dumps(document["totals"]))

    def test_tampered_grand_total_is_rejected(self, document):
        document["totals"]["operations"]["multiplications"] += 1
        with pytest.raises(ReportSchemaError):
            validate_run_report(document)

    def test_tampered_phase_attribution_is_rejected(self, document):
        _phase_spans(document)[0]["network"]["point_to_point_messages"] += 1
        with pytest.raises(ReportSchemaError):
            validate_run_report(document)

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("totals"),
        lambda d: d.pop("metrics"),
        lambda d: d.update(version=999),
        lambda d: d.update(type="something_else"),
        lambda d: d["spans"][0].pop("duration_s"),
        lambda d: d["spans"][0].update(end_s=-1.0),
        lambda d: d["events"][0].pop("kind"),
    ])
    def test_structural_violations_are_rejected(self, document, mutate):
        mutate(document)
        with pytest.raises(ReportSchemaError):
            validate_run_report(document)

    def test_minimal_report_without_recorder(self, params5, problem53):
        outcome = run_dmw(problem53, parameters=params5,
                          rng=random.Random(1))
        document = run_report(outcome)
        validate_run_report(document)
        assert document["spans"] == []
        assert document["events"] == []


# ---------------------------------------------------------------------------
# Satellite: Prometheus label escaping is a true inverse pair
# ---------------------------------------------------------------------------

class TestLabelEscapingProperty:
    """`to_prometheus` -> `parse_prometheus` must round-trip every label
    value.  Historically the parser split lines with ``str.splitlines``,
    which also breaks at ``\\r``/``\\v``/``\\f``/``\\x85``/``\\u2028``/
    ``\\u2029`` — characters the writer leaves raw inside quoted label
    values — truncating such samples mid-line."""

    @staticmethod
    def _round_trip(value):
        registry = MetricsRegistry()
        counter = registry.counter("prop_total", "help", ["label"])
        counter.inc(1, label=value)
        samples = parse_prometheus(registry.to_prometheus())
        assert samples[("dmw_prop_total", (("label", value),))] == 1

    @pytest.mark.parametrize("value", [
        "carriage\rreturn",
        "vertical\vtab",
        "form\ffeed",
        "next\x85line",
        "line\u2028separator",
        "para\u2029separator",
        'mixed \\ " \n \r end',
    ])
    def test_exotic_line_breaks_round_trip(self, value):
        self._round_trip(value)

    @settings(max_examples=200, deadline=None)
    @given(st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)),
        max_size=40,
    ))
    def test_arbitrary_label_values_round_trip(self, value):
        self._round_trip(value)


# ---------------------------------------------------------------------------
# Satellite: only schema version 5 validates
# ---------------------------------------------------------------------------

class TestVersionCompatibility:
    @pytest.fixture()
    def v5_document(self, params5, problem53):
        outcome, protocol, recorder = _observed_run(params5, problem53)
        return run_report(outcome, agents=protocol.agents,
                          recorder=recorder, parameters=params5)

    def test_v5_is_current(self, v5_document):
        assert v5_document["version"] == 5
        for key in ("flight_summary", "profile", "provenance"):
            assert key in v5_document
        validate_run_report(v5_document)

    def test_v4_documents_are_rejected(self, v5_document):
        document = json.loads(json.dumps(v5_document))
        document["version"] = 4
        document["phases"] = []
        document["trace"] = None
        with pytest.raises(ReportSchemaError, match="version 4"):
            validate_run_report(document)

    def test_v3_documents_are_rejected(self, v5_document):
        document = json.loads(json.dumps(v5_document))
        document["version"] = 3
        for key in ("flight_summary", "profile", "provenance"):
            document.pop(key)
        with pytest.raises(ReportSchemaError, match="version 3"):
            validate_run_report(document)

    def test_v2_documents_are_rejected(self, v5_document):
        document = json.loads(json.dumps(v5_document))
        document["version"] = 2
        for key in ("flight_summary", "profile", "provenance",
                    "parallelism"):
            document.pop(key)
        with pytest.raises(ReportSchemaError, match="version 2"):
            validate_run_report(document)

    def test_provenance_identifies_the_build(self, v5_document):
        provenance = v5_document["provenance"]
        assert provenance["package_version"]
        assert provenance["arithmetic_backend"] in ("python", "gmpy2")
        assert provenance["python_version"].count(".") == 2

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("provenance"),
        lambda d: d["provenance"].pop("arithmetic_backend"),
        lambda d: d["flight_summary"].update(
            {"events_recorded": 1, "events_retained": 2, "capacity": 4,
             "messages": 1, "by_type": {"send": 1}, "by_kind": {"x": 1}}),
        lambda d: d.update(profile={"phases": {"bidding": {}},
                                    "top_n": 10}),
    ])
    def test_v4_specific_violations_are_rejected(self, v5_document,
                                                 mutate):
        mutate(v5_document)
        with pytest.raises(ReportSchemaError):
            validate_run_report(v5_document)
