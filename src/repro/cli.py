"""Command-line interface: ``python -m repro <command>``.

Commands:

``run``
    Execute DMW on a random (or file-given) instance; print the schedule,
    payments, transcripts, and costs; optionally audit the transcript.
``minwork``
    Run the centralized baseline on the same kind of instance.
``faithfulness``
    Run the deviation matrix and report gains/participation.
``privacy``
    Mount the collusion attack at every coalition size.
``leakage``
    Quantify the transcript's information leakage per loser.
``table1``
    Regenerate Table 1's scaling exponents (communication + computation).

Every command accepts ``--seed`` and prints deterministic output, so the
CLI doubles as a reproducibility harness.  Instances can also be loaded
from a JSON file (``--instance``) holding a row-major time matrix.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import List, Optional, Sequence

from .analysis import (
    exposure_by_coalition_size,
    faithfulness_violations,
    fit_loglog_slope,
    leakage_report,
    measure_dmw,
    measure_minwork,
    participation_violations,
    render_table,
    run_deviation_matrix,
    sweep_agents,
    sweep_tasks,
)
from .core import DMWParameters
from .core.agent import DMWAgent
from .core.audit import audit_protocol_run
from .core.exceptions import CheckpointMismatch
from .core.protocol import DMWProtocol
from .mechanisms import MinWork, truthful_bids
from .obs import (
    HistoryStore,
    PhaseProfiler,
    Recorder,
    entry_from_report,
    registry_for_run,
    run_report,
    write_chrome_trace,
    write_run_report,
)
from .scheduling import workloads
from .scheduling.problem import SchedulingProblem


def _load_instance(args, parameters: DMWParameters,
                   rng: random.Random) -> SchedulingProblem:
    """Build the instance from --instance JSON or randomly from W."""
    if args.instance:
        with open(args.instance) as handle:
            rows = json.load(handle)
        problem = SchedulingProblem(rows)
        if problem.num_agents != parameters.num_agents:
            raise SystemExit(
                "instance has %d agents but --agents is %d"
                % (problem.num_agents, parameters.num_agents)
            )
        return problem
    return workloads.random_discrete(parameters.num_agents, args.tasks,
                                     parameters.bid_values, rng)


def _build_parameters(args) -> DMWParameters:
    return DMWParameters.generate(
        args.agents, fault_bound=args.faults, group_size=args.group_size,
        share_verification_mode=getattr(args, "share_verification",
                                        "per-share"))


def _print_instance(problem: SchedulingProblem) -> None:
    print("true values t_i^j (agents x tasks):")
    for agent, row in enumerate(problem.times):
        print("  A%d: %s" % (agent + 1, [int(v) for v in row]))


def _emit_observability(args, outcome, agents, recorder, parameters,
                        audit_report) -> None:
    """Write the requested views of the run's recorder."""
    wants_report = bool(args.report or args.history)
    if not (wants_report or args.metrics or args.trace_json
            or args.chrome_trace or args.flight_json):
        return
    registry = registry_for_run(outcome, agents=agents, recorder=recorder,
                                audit_report=audit_report)
    document = None
    if wants_report:
        document = run_report(outcome, agents=agents, recorder=recorder,
                              registry=registry, parameters=parameters,
                              audit_report=audit_report)
    if args.report:
        write_run_report(args.report, document)
        print("run report written to %s" % args.report)
    if args.trace_json:
        with open(args.trace_json, "w") as handle:
            json.dump([event.to_dict() for event in recorder.events],
                      handle, indent=2)
            handle.write("\n")
        print("trace written to %s" % args.trace_json)
    if args.metrics:
        text = registry.to_prometheus()
        if args.metrics == "-":
            print("\n" + text, end="")
        else:
            with open(args.metrics, "w") as handle:
                handle.write(text)
            print("metrics written to %s" % args.metrics)
    if args.chrome_trace:
        write_chrome_trace(args.chrome_trace, recorder)
        print("chrome trace written to %s" % args.chrome_trace)
    if args.flight_json:
        recorder.dump(args.flight_json, reason="cli: --flight-json")
        print("flight log written to %s" % args.flight_json)
    if args.history and document is not None:
        store = HistoryStore(args.history)
        config = {"seed": args.seed, "parallel": bool(args.parallel),
                  "workers": args.workers,
                  "transport": getattr(args, "transport", "inprocess")}
        index = store.append(entry_from_report(document, config=config))
        print("history entry %d appended to %s" % (index, args.history))


def _build_network(args, parameters: DMWParameters):
    """Build a TimeoutNetwork when --timeout is set, else None (default)."""
    if args.timeout is None:
        if args.retries != 1 or args.retry_backoff != 2.0:
            raise SystemExit("--retries/--retry-backoff require --timeout")
        return None
    from .network import LatencyModel, RetryPolicy, TimeoutNetwork
    latency = LatencyModel(random.Random(args.seed + 2))
    policy = RetryPolicy(max_attempts=args.retries,
                         backoff=args.retry_backoff)
    return TimeoutNetwork(parameters.num_agents, latency,
                          round_timeout=args.timeout,
                          extra_participants=1, retry_policy=policy)


def _build_transport(args, parameters: DMWParameters):
    """Build the socket transport for --transport asyncio, else None.

    ``--timeout``/``--retries``/``--retry-backoff`` configure the
    transport's (simulated) barrier exactly as they configure a
    TimeoutNetwork on the in-process path.
    """
    if args.transport != "asyncio":
        return None
    if args.parallel:
        raise SystemExit("--transport asyncio does not support --parallel "
                         "(the phase-barrier and pool drivers are "
                         "in-process engines)")
    from .network.transport import create_transport
    kwargs = {}
    if args.timeout is None:
        if args.retries != 1 or args.retry_backoff != 2.0:
            raise SystemExit("--retries/--retry-backoff require --timeout")
    else:
        from .network import LatencyModel, RetryPolicy
        kwargs["latency_model"] = LatencyModel(random.Random(args.seed + 2))
        kwargs["round_timeout"] = args.timeout
        kwargs["retry_policy"] = RetryPolicy(max_attempts=args.retries,
                                             backoff=args.retry_backoff)
    return create_transport("asyncio", parameters.num_agents, **kwargs)


def cmd_run(args) -> int:
    parameters = _build_parameters(args)
    rng = random.Random(args.seed)
    problem = _load_instance(args, parameters, rng)
    _print_instance(problem)

    master = random.Random(args.seed + 1)
    agents = [
        DMWAgent(index, parameters,
                 [int(problem.time(index, j))
                  for j in range(problem.num_tasks)],
                 rng=random.Random(master.getrandbits(64)))
        for index in range(parameters.num_agents)
    ]
    # Every observability flag is a view of one recorder; the message
    # views also switch on its message ring.
    messages = bool(args.chrome_trace or args.flight_json
                    or args.flight_dump)
    if messages and args.flight_buffer < 1:
        raise SystemExit("--flight-buffer must be positive")
    recorder = None
    if (messages or args.trace or args.trace_json or args.report
            or args.metrics or args.profile or args.history):
        recorder = Recorder(
            message_capacity=args.flight_buffer if messages else 0)
        if args.profile:
            recorder.profiler = PhaseProfiler(top_n=args.profile_top)
        recorder.dump_on_abort = args.flight_dump
    transport = _build_transport(args, parameters)
    network = None if transport is not None else _build_network(args,
                                                                parameters)
    # The transport owns live sockets from this point on: everything up
    # to (and including) execute() runs under the finally so validation
    # errors in the protocol constructor cannot leak it.
    try:
        protocol = DMWProtocol(parameters, agents, recorder=recorder,
                               network=network, transport=transport)
        resume = None
        if args.resume:
            from . import serialization
            try:
                resume = serialization.load_checkpoint(args.resume)
            except (serialization.SerializationError, OSError) as error:
                raise SystemExit("cannot resume from %s: %s"
                                 % (args.resume, error)) from None
            print("resuming from %s (next task %d, %d auctions done)"
                  % (args.resume, resume.next_task, len(resume.transcripts)))
        try:
            outcome = protocol.execute(
                problem.num_tasks, degraded=args.degraded,
                checkpoint_path=args.checkpoint, resume=resume,
                parallel=args.parallel, workers=args.workers)
        except CheckpointMismatch as error:
            raise SystemExit("cannot resume from %s: %s"
                             % (args.resume, error)) from None
    finally:
        if transport is not None:
            transport.close()
    if outcome.parallelism:
        print("process pool: %d workers, %d tasks pooled, %d batches"
              % (outcome.parallelism.get("workers", 0),
                 outcome.parallelism.get("tasks_pooled", 0),
                 outcome.parallelism.get("batches", 0)))
    if args.trace:
        print("\nprotocol trace:")
        print(recorder.render_events())
        print("\nspan timeline:")
        print(recorder.render_timeline())
    if not outcome.completed:
        print("\nABORTED: %s (phase %s)" % (outcome.abort.reason,
                                            outcome.abort.phase))
        _emit_observability(args, outcome, agents, recorder, parameters,
                            None)
        return 1
    print("\nschedule:", list(outcome.schedule.assignment))
    print("payments:", list(outcome.payments))
    for task in outcome.quarantined_tasks:
        abort = outcome.task_aborts[task]
        print("QUARANTINED task %d: %s (phase %s)"
              % (task, abort.reason, abort.phase))
    rows = [[t.task, t.first_price, "A%d" % (t.winner + 1), t.second_price]
            for t in outcome.transcripts]
    print(render_table(["task", "first price", "winner", "second price"],
                       rows))
    metrics = outcome.network_metrics
    print("\ncosts: %d messages, %d field elements, %d rounds, "
          "max agent work %d" % (metrics.point_to_point_messages,
                                 metrics.field_elements, metrics.rounds,
                                 outcome.max_agent_work))
    if metrics.retransmissions or metrics.recovered_messages:
        print("retries: %d retransmissions, %d recovered"
              % (metrics.retransmissions, metrics.recovered_messages))
    if args.output:
        from . import serialization
        serialization.save(outcome, args.output, recorder=recorder)
        print("outcome written to %s" % args.output)
    audit_report = None
    if args.audit:
        audit_report = audit_protocol_run(protocol, outcome)
        print("audit: %s (%d findings)"
              % ("PASS" if audit_report.ok else "FAIL",
                 len(audit_report.findings)))
        for finding in audit_report.findings:
            print("  [%s] task=%s: %s" % (finding.check, finding.task,
                                          finding.detail))
    _emit_observability(args, outcome, agents, recorder, parameters,
                        audit_report)
    if audit_report is not None and not audit_report.ok:
        return 1
    return 0


def cmd_minwork(args) -> int:
    parameters = _build_parameters(args)
    rng = random.Random(args.seed)
    problem = _load_instance(args, parameters, rng)
    _print_instance(problem)
    result = MinWork().run(truthful_bids(problem))
    print("\nschedule:", list(result.schedule.assignment))
    print("payments:", list(result.payments))
    return 0


def cmd_faithfulness(args) -> int:
    parameters = _build_parameters(args)
    rng = random.Random(args.seed)
    problem = _load_instance(args, parameters, rng)
    outcomes = run_deviation_matrix(problem, parameters,
                                    deviant_indices=[0], seed=args.seed)
    rows = [[o.strategy, o.honest_utility, o.deviant_utility, o.gain,
             o.completed, o.abort_phase or "-"] for o in outcomes]
    print(render_table(["deviation", "U(honest)", "U(deviate)", "gain",
                        "completed", "abort phase"], rows))
    gains = faithfulness_violations(outcomes)
    losses = participation_violations(outcomes)
    print("\nfaithfulness violations: %d" % len(gains))
    print("participation violations: %d" % len(losses))
    return 1 if gains or losses else 0


def cmd_privacy(args) -> int:
    parameters = _build_parameters(args)
    rng = random.Random(args.seed)
    problem = _load_instance(args, parameters, rng)
    rows = [[size, exposed, total]
            for size, exposed, total
            in exposure_by_coalition_size(problem, parameters,
                                          seed=args.seed)]
    print(render_table(["coalition size", "bids exposed", "bids attacked"],
                       rows))
    return 0


def cmd_leakage(args) -> int:
    parameters = _build_parameters(args)
    rng = random.Random(args.seed)
    problem = _load_instance(args, parameters, rng)
    from .core.protocol import run_dmw
    outcome = run_dmw(problem, parameters=parameters,
                      rng=random.Random(args.seed + 1))
    if not outcome.completed:
        print("instance aborted; no transcript to analyze")
        return 1
    rows = []
    for transcript in outcome.transcripts:
        report = leakage_report(parameters, transcript)
        for loser in sorted(report.leaked_bits):
            rows.append([transcript.task, "A%d" % (loser + 1),
                         report.prior_bits,
                         report.posterior_bits[loser],
                         report.leaked_bits[loser]])
    print(render_table(["task", "loser", "prior bits", "posterior bits",
                        "leaked bits"], rows))
    return 0


def cmd_reproduce(args) -> int:
    from .reproduce import run_reproduction
    if not args.report:
        return run_reproduction(args.profile)

    class _Tee:
        """Write to stdout and the report file simultaneously."""

        def __init__(self, stream, handle):
            self._stream, self._handle = stream, handle

        def write(self, text):
            self._stream.write(text)
            self._handle.write(text)

        def flush(self):
            self._stream.flush()
            self._handle.flush()

    import contextlib
    with open(args.report, "w") as handle:
        with contextlib.redirect_stdout(_Tee(sys.stdout, handle)):
            code = run_reproduction(args.profile)
    print("report written to %s" % args.report)
    return code


def cmd_table1(args) -> int:
    agent_counts = (4, 6, 8, 10)
    task_counts = (1, 2, 4, 6)
    rows = []
    for name, measure in (("minwork", measure_minwork),
                          ("dmw", measure_dmw)):
        n_samples = sweep_agents(agent_counts, num_tasks=2, measure=measure)
        m_samples = sweep_tasks(task_counts, num_agents=6, measure=measure)
        rows.append([
            name,
            fit_loglog_slope([s.num_agents for s in n_samples],
                             [s.messages for s in n_samples]),
            fit_loglog_slope([s.num_tasks for s in m_samples],
                             [s.messages for s in m_samples]),
            fit_loglog_slope([s.num_agents for s in n_samples],
                             [s.computation for s in n_samples]),
            fit_loglog_slope([s.num_tasks for s in m_samples],
                             [s.computation for s in m_samples]),
        ])
    print("Table 1 regeneration: measured scaling exponents")
    print(render_table(["mechanism", "msgs vs n", "msgs vs m",
                        "work vs n", "work vs m"], rows))
    print("\npaper: MinWork Theta(mn)/Theta(mn); DMW Theta(mn^2)/"
          "O(mn^2 log p)")
    return 0


def _history_config_label(config) -> str:
    """Compact ``n=.. m=.. seed=..`` label for history tables."""
    parts: List[str] = []
    for key, label in (("num_agents", "n"), ("num_tasks", "m"),
                       ("seed", "seed"), ("backend", "backend"),
                       ("bench", "bench")):
        value = config.get(key)
        if value is not None:
            parts.append("%s=%s" % (label, value))
    if config.get("parallel"):
        parts.append("parallel(workers=%s)" % config.get("workers"))
    return " ".join(parts) or "-"


def cmd_history_list(args) -> int:
    entries = HistoryStore(args.store).load()
    if not entries:
        print("history store %s is empty" % args.store)
        return 0
    rows = []
    for index, entry in enumerate(entries, 1):
        wall = entry.get("wall_clock_s")
        messages = (entry.get("network") or {}).get(
            "point_to_point_messages")
        rows.append([index, entry.get("fingerprint"), entry.get("source"),
                     _history_config_label(entry.get("config") or {}),
                     "%.4f" % wall if wall is not None else "-",
                     messages if messages is not None else "-"])
    print(render_table(["#", "fingerprint", "source", "config",
                        "wall (s)", "messages"], rows))
    return 0


def cmd_history_show(args) -> int:
    entry = HistoryStore(args.store).entry(args.index)
    print(json.dumps(entry, indent=2, sort_keys=True))
    return 0


def cmd_history_diff(args) -> int:
    from .obs import diff_entries
    store = HistoryStore(args.store)
    diff = diff_entries(store.entry(args.a), store.entry(args.b))
    for line in diff["divergences"]:
        print("DIVERGENCE %s" % line)
    for line in diff["informational"]:
        print("info %s" % line)
    if diff["clean"]:
        print("clean: entries %d and %d agree on counters, network "
              "totals, and outcome" % (args.a, args.b))
        return 0
    print("DIVERGENT: %d deterministic field(s) differ between entries "
          "%d and %d" % (len(diff["divergences"]), args.a, args.b))
    return 1


def cmd_history_trend(args) -> int:
    from .obs import trend_rows
    entries = HistoryStore(args.store).load()
    rows = trend_rows(entries)
    if args.fingerprint:
        rows = [r for r in rows if r["fingerprint"] == args.fingerprint]
    if not rows:
        print("no matching history entries in %s" % args.store)
        return 0
    table = []
    anomaly_count = 0
    for row in rows:
        anomaly_count += len(row["anomalies"])
        table.append([
            row["index"], row["fingerprint"], row["source"],
            _history_config_label(row["config"]),
            ("%.4f" % row["wall_clock_s"]
             if row["wall_clock_s"] is not None else "-"),
            row["messages"] if row["messages"] is not None else "-",
            "; ".join(row["anomalies"]) or "-",
        ])
    print(render_table(["#", "fingerprint", "source", "config", "wall (s)",
                        "messages", "anomalies"], table))
    print("\n%d entries, %d anomaly flag(s)" % (len(rows), anomaly_count))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed MinWork (Carroll & Grosu, PODC 2005) "
                    "reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub):
        sub.add_argument("--agents", "-n", type=int, default=5,
                         help="number of agents (default 5)")
        sub.add_argument("--tasks", "-m", type=int, default=3,
                         help="number of tasks (default 3)")
        sub.add_argument("--faults", "-c", type=int, default=1,
                         help="fault/collusion bound c (default 1)")
        sub.add_argument("--seed", type=int, default=0,
                         help="random seed (default 0)")
        sub.add_argument("--group-size", default="small",
                         choices=("tiny", "small", "medium", "large"),
                         help="cryptographic group size (default small)")
        sub.add_argument("--instance", default=None,
                         help="JSON file with a row-major time matrix")
        sub.add_argument("--backend", default=None,
                         choices=("python", "gmpy2", "auto"),
                         help="arithmetic backend (default: DMW_BACKEND "
                              "env var, else python); 'auto' picks gmpy2 "
                              "when importable")
        sub.add_argument("--share-verification", default="per-share",
                         choices=("per-share", "batched"),
                         help="share-bundle check mode: the paper's "
                              "per-share listing (default) or one RLC "
                              "multi-exp per sender (same counters, "
                              "slower on the fixture groups)")

    run_parser = subparsers.add_parser(
        "run", help="execute DMW on an instance")
    add_common(run_parser)
    run_parser.add_argument("--audit", action="store_true",
                            help="passively audit the public transcript")
    run_parser.add_argument("--trace", action="store_true",
                            help="print the structured protocol trace")
    run_parser.add_argument("--output", default=None,
                            help="write the outcome as JSON to this path")
    run_parser.add_argument("--report", default=None, metavar="PATH",
                            help="write a versioned JSON run report "
                                 "(spans, totals, metrics) to PATH")
    run_parser.add_argument("--trace-json", default=None, metavar="PATH",
                            help="write the protocol events (the run "
                                 "report's events list) as JSON to PATH")
    run_parser.add_argument("--metrics", default=None, metavar="PATH",
                            help="write Prometheus text-format metrics to "
                                 "PATH ('-' for stdout)")
    run_parser.add_argument("--chrome-trace", default=None, metavar="PATH",
                            help="write a Chrome-trace (Perfetto-loadable) "
                                 "JSON merging spans and message events to "
                                 "PATH")
    run_parser.add_argument("--flight-json", default=None, metavar="PATH",
                            help="dump the recorded message events as "
                                 "JSON to PATH")
    run_parser.add_argument("--flight-dump", default=None, metavar="PATH",
                            help="on abort or quarantine, dump the "
                                 "message events to PATH automatically")
    run_parser.add_argument("--flight-buffer", type=int, default=65536,
                            metavar="N",
                            help="message-event ring-buffer capacity in "
                                 "events (default 65536)")
    run_parser.add_argument("--profile", action="store_true",
                            help="capture per-phase cProfile hotspots into "
                                 "the run report")
    run_parser.add_argument("--profile-top", type=int, default=10,
                            metavar="N",
                            help="hotspots per phase in the profile "
                                 "section (default 10)")
    run_parser.add_argument("--history", default=None, metavar="PATH",
                            help="append this run to the history store "
                                 "(JSONL) at PATH")
    run_parser.add_argument("--degraded", action="store_true",
                            help="graceful degradation: quarantine a "
                                 "faulty task's auction instead of "
                                 "voiding the run")
    run_parser.add_argument("--transport", default="inprocess",
                            choices=["inprocess", "asyncio"],
                            help="message transport: the in-process "
                                 "simulator (default) or localhost TCP "
                                 "with one connection per agent (see "
                                 "docs/TRANSPORTS.md)")
    run_parser.add_argument("--timeout", type=float, default=None,
                            metavar="SECONDS",
                            help="run over a latency-model network with "
                                 "this per-round barrier timeout")
    run_parser.add_argument("--retries", type=int, default=1, metavar="N",
                            help="transmission attempts per message under "
                                 "--timeout (default 1 = no retry)")
    run_parser.add_argument("--retry-backoff", type=float, default=2.0,
                            metavar="X",
                            help="grace-window backoff multiplier for "
                                 "retries (default 2.0)")
    run_parser.add_argument("--checkpoint", default=None, metavar="PATH",
                            help="write a resume checkpoint to PATH after "
                                 "every completed auction (sequential or "
                                 "process-pool driver)")
    run_parser.add_argument("--resume", default=None, metavar="PATH",
                            help="resume a crashed run from the "
                                 "checkpoint at PATH")
    run_parser.add_argument("--parallel", action="store_true",
                            help="run the auctions concurrently: the "
                                 "phase-barrier driver by default, or the "
                                 "process-pool engine with --workers or "
                                 "--checkpoint/--resume")
    run_parser.add_argument("--workers", type=int, default=None, metavar="N",
                            help="shard the auctions across N OS processes "
                                 "(requires --parallel); outcomes are "
                                 "bit-identical to the sequential driver")
    run_parser.set_defaults(handler=cmd_run)

    minwork_parser = subparsers.add_parser(
        "minwork", help="run the centralized baseline")
    add_common(minwork_parser)
    minwork_parser.set_defaults(handler=cmd_minwork)

    faith_parser = subparsers.add_parser(
        "faithfulness", help="deviation matrix (Theorems 5 & 9)")
    add_common(faith_parser)
    faith_parser.set_defaults(handler=cmd_faithfulness)

    privacy_parser = subparsers.add_parser(
        "privacy", help="collusion attack sweep (Theorem 10)")
    add_common(privacy_parser)
    privacy_parser.set_defaults(handler=cmd_privacy)

    leakage_parser = subparsers.add_parser(
        "leakage", help="transcript information leakage")
    add_common(leakage_parser)
    leakage_parser.set_defaults(handler=cmd_leakage)

    table1_parser = subparsers.add_parser(
        "table1", help="regenerate Table 1's scaling exponents")
    table1_parser.set_defaults(handler=cmd_table1)

    history_parser = subparsers.add_parser(
        "history", help="query the persistent run-history store")
    history_sub = history_parser.add_subparsers(dest="action",
                                                required=True)

    def add_store(sub):
        sub.add_argument("--store", required=True, metavar="PATH",
                         help="history JSONL path (as written by "
                              "'run --history PATH')")

    list_parser = history_sub.add_parser(
        "list", help="list every stored entry")
    add_store(list_parser)
    list_parser.set_defaults(handler=cmd_history_list)

    show_parser = history_sub.add_parser(
        "show", help="print one entry as JSON")
    add_store(show_parser)
    show_parser.add_argument("index", type=int,
                             help="1-based entry index (see 'list')")
    show_parser.set_defaults(handler=cmd_history_show)

    diff_parser = history_sub.add_parser(
        "diff", help="compare two entries; exits 1 on deterministic "
                     "divergence")
    add_store(diff_parser)
    diff_parser.add_argument("a", type=int, help="first entry index")
    diff_parser.add_argument("b", type=int, help="second entry index")
    diff_parser.set_defaults(handler=cmd_history_diff)

    trend_parser = history_sub.add_parser(
        "trend", help="per-fingerprint trajectories with Theorem 11/12 "
                      "anomaly flags")
    add_store(trend_parser)
    trend_parser.add_argument("--fingerprint", default=None,
                              help="only this config fingerprint")
    trend_parser.set_defaults(handler=cmd_history_trend)

    reproduce_parser = subparsers.add_parser(
        "reproduce", help="regenerate every experiment in one run")
    reproduce_parser.add_argument("--profile", default="quick",
                                  choices=("quick", "full"),
                                  help="sweep sizes (default quick)")
    reproduce_parser.add_argument("--report", default=None,
                                  help="also write the output to this file")
    reproduce_parser.set_defaults(handler=cmd_reproduce)

    serve_parser = subparsers.add_parser(
        "serve", help="run the always-on auction service (HTTP gateway)")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="interface to bind (default loopback)")
    serve_parser.add_argument("--port", type=int, default=8080,
                              help="TCP port (0 picks a free one)")
    serve_parser.add_argument("--warm-capacity", type=int, default=8,
                              help="groups kept in the warm-cache store")
    serve_parser.add_argument("--pool-workers", type=int, default=2,
                              help="processes in the resident pool for "
                                   "mode=pool jobs")
    serve_parser.add_argument("--max-queued", type=int, default=256,
                              help="submissions held before 503")
    serve_parser.set_defaults(handler=cmd_serve)

    return parser


def cmd_serve(args) -> int:
    from .service import serve
    return serve(host=args.host, port=args.port,
                 warm_capacity=args.warm_capacity,
                 pool_workers=args.pool_workers,
                 max_queued=args.max_queued)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "backend", None):
        from .crypto import backend as crypto_backend
        crypto_backend.select_backend(args.backend)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
