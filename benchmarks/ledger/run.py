"""DMW performance ledger: end-to-end metrics and a per-layer split.

Usage (from the repository root)::

    python3 benchmarks/ledger/run.py [--seed S] [--trace] [--out FILE]
    python3 benchmarks/ledger/run.py --workload NAME [--seed S]
                                     [--seconds T] [--trace 0|1]
    python3 benchmarks/ledger/run.py --compare A.json B.json

Without ``--workload`` every workload runs as 3 blocks, interleaved
round-robin across workloads, each block a fresh subprocess that executes
a fixed count per workload; every metric is printed as
``workload metric value unit`` and the same data is written as JSON.
With ``--workload`` one workload runs as 3 blocks whose timed loops share
``--seconds`` (each block still runs at least its fixed count, so every
workload gets at least 120 latency samples), and the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
See README.md for the workloads, the metrics and the host-speed
adjustment every reported time goes through.

``--trace`` selects the traced pass: each block runs its fixed count
untraced, then the same executions with every function of the layer table
(``layers.py``) wrapped, and reports the per-layer metrics instead of the
end-to-end ones.  ``--compare`` applies the bounds in ``BENCHMARK.json`` to
two ledger JSON files.

The program is imported from ``src/`` of the checkout this file lives in;
the run fails (exit code 2, no result) when that source is absent.
"""

import argparse
import collections
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

BLOCKS = 3
DEFAULT_SEED = 20050717
DEFAULT_SECONDS = 12.0
#: Wall-clock bound on one block subprocess (a run of 3 blocks must end
#: within 180 s).
BLOCK_TIMEOUT_S = 55

#: End-to-end metrics: name -> (unit, better).  ``error_rate`` is reported
#: and compared (any rise is a regression) but is not in BENCHMARK.json,
#: whose metrics must never read 0.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "auctions_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "ns_per_counted_mul": ("ns", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "error_rate": ("ratio", "lower"),
}


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/repro`` to measure."""


# ---------------------------------------------------------------------------
# One block (runs in its own subprocess)
# ---------------------------------------------------------------------------

def _import_program():
    """Import ``repro`` from this checkout's ``src/`` or fail."""
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        raise SourceMissing("no program source at %s" % SOURCE)
    if SOURCE not in sys.path:
        sys.path.insert(0, SOURCE)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SOURCE + os.sep):
        raise SourceMissing("repro was imported from %s, not %s"
                            % (repro.__file__, SOURCE))
    return repro


def yardstick():
    """Seconds for a fixed big-int multiply loop: a host-speed probe.

    On a shared host the CPU runs at changing speeds for seconds at a time;
    a probe timed right next to an execution tells how fast the host was
    while it ran (see ``README.md``, "Host-speed adjustment").
    """
    value = (1 << 61) - 1
    modulus = (1 << 89) - 1
    accumulator = 1
    start = time.perf_counter()
    for _ in range(10000):
        accumulator = (accumulator * value) % modulus
    return time.perf_counter() - start


#: One execution of a closed loop; ``round`` indexes the loop's rounds.
Sample = collections.namedtuple(
    "Sample", "index latency_s signature info error round")

#: Within a round, client ``k`` starts ``k`` times this after the first, so
#: the round's requests reach the program in index order.
CLIENT_STAGGER_S = 0.005


def _execute(workload, index, delay=0.0):
    """One execution as a :data:`Sample`, started after ``delay`` seconds;
    an exception is recorded, never raised (it counts in ``error_rate``)."""
    if delay:
        time.sleep(delay)
    began = time.perf_counter()
    try:
        signature, info = workload.execute(index)
        error = None
    except Exception as exc:
        signature = info = None
        error = "%s: %s" % (type(exc).__name__, exc)
    return Sample(index, time.perf_counter() - began, signature, info, error,
                  None)


def closed_loop(workload, count=None, seconds=None, floor=0, first=1,
                probe=True):
    """Run executions ``first, first + 1, ...`` in rounds.

    Each round starts one execution per client (``workload.clients``
    threads, :data:`CLIENT_STAGGER_S` apart) and waits for all of them;
    with ``probe``, a yardstick is timed between rounds, while nothing else
    runs.  Stops after ``count``
    executions, or once ``seconds`` have passed and at least ``floor``
    executions were started.

    Returns the loop's wall time, one :data:`Sample` per execution and one
    ``(duration_s, probe_s)`` per round, where ``probe_s`` is the mean of
    the yardsticks timed just before and just after the round (``None``
    without ``probe``).
    """
    from concurrent.futures import ThreadPoolExecutor

    clients = workload.clients
    pool = ThreadPoolExecutor(clients, thread_name_prefix="ledger-client") \
        if clients > 1 else None
    samples = []
    rounds = []
    index = first
    before = yardstick() if probe else None
    start = time.perf_counter()
    deadline = start + (seconds if seconds is not None else 0.0)
    try:
        while True:
            taken = index - first
            if count is not None:
                if taken >= count:
                    break
            elif taken >= floor and time.perf_counter() >= deadline:
                break
            batch = range(index, index + clients if count is None
                          else min(index + clients, first + count))
            index = batch[-1] + 1
            began = time.perf_counter()
            if pool is None:
                done = [_execute(workload, batch[0])]
            else:
                done = list(pool.map(
                    lambda k: _execute(workload, batch[k],
                                       k * CLIENT_STAGGER_S),
                    range(len(batch))))
            duration = time.perf_counter() - began
            after = yardstick() if probe else None
            samples.extend(sample._replace(round=len(rounds))
                           for sample in done)
            rounds.append((duration, (before + after) / 2 if probe
                           else None))
            before = after
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
    return time.perf_counter() - start, samples, rounds


def check_results(workload, references, results):
    """Count executions that raised or differ from their reference."""
    failed = 0
    errors = []
    for sample in results:
        error = sample.error
        if error is None and sample.signature != references[
                workload.instance_key(sample.index)]:
            error = "execution %d differs from its reference" % sample.index
        if error is not None:
            failed += 1
            if len(errors) < 5:
                errors.append(error)
    return failed, errors


def _sum_info(results, key):
    return sum(sample.info.get(key, 0) for sample in results
               if sample.info is not None)


def run_block(name, seed, seconds, trace, references_hook=None):
    """One block: set-up, reference, warm-up, then the measured loop.

    ``references_hook`` (tests only) may alter the computed references
    before anything is compared against them.
    """
    yardstick()  # the first timing in a fresh interpreter reads slow
    setup_probe = yardstick()
    began = time.perf_counter()
    _import_program()
    workload = workloads.BY_NAME[name](seed)
    workload.start()
    try:
        cold_began = time.perf_counter()
        signature, info = workload.execute(0)
        finished = time.perf_counter()
        setup_probe = (setup_probe + yardstick()) / 2
        cold = Sample(0, finished - cold_began, signature, info, None, None)
        references = {key: workload.reference(key)
                      for key in workload.instance_keys()}
        if references_hook is not None:
            references_hook(references)
        workload.warm_up()
        block = {"workload": name, "setup_s": finished - began,
                 "setup_probe_s": setup_probe,
                 "calibration_ms": 1000.0 * min(yardstick()
                                                for _ in range(5))}
        if trace:
            block.update(_traced_pass(workload, references))
        else:
            _, results, rounds = closed_loop(workload, seconds=seconds,
                                             floor=workload.per_block)
            failed, errors = check_results(workload, references,
                                           [cold] + results)
            block.update({
                "latencies_s": [sample.latency_s for sample in results],
                "sample_rounds": [sample.round for sample in results],
                "rounds": rounds,
                "tasks": _sum_info(results, "tasks"),
                "work": _sum_info(results, "work"),
                "attempted": len(results) + 1,
                "failed": failed,
                "errors": errors,
            })
    finally:
        workload.close()
    from repro.crypto import backend
    block["backend"] = backend.ACTIVE.name
    block["peak_rss_kb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    return block


def _traced_pass(workload, references):
    """The same executions untraced, then traced; per-layer tallies."""
    from repro.crypto import fastexp

    count = workload.per_block
    # No probes here: the traced total is the loop's wall-clock.
    untraced_wall, untraced, _ = closed_loop(workload, count=count,
                                             probe=False)
    tables_before = fastexp.fixed_base_table_stats()
    with layers.Tracer() as tracer:
        traced_wall, traced, _ = closed_loop(workload, count=count,
                                             probe=False)
    tables_after = fastexp.fixed_base_table_stats()
    summary = tracer.summary()
    failed, errors = check_results(workload, references,
                                   untraced + traced)
    covered = layers.covered_seconds(summary["roots"])
    self_sum = sum(tally["self_s"] for tally in summary["layers"].values())
    busy = sum(summary["threads"].values())
    sums = {key: _sum_info(traced, key)
            for key in ("work", "messages", "field_elements", "rounds",
                        "retransmissions", "cache_hits", "cache_misses",
                        "report_bytes", "queue_wait_s", "run_s",
                        "gateway_s", "warm")}
    return {
        "executions": len(traced),
        "completed_executions": sum(sample.info is not None
                                    for sample in traced),
        "attempted": len(untraced) + len(traced) + 1,
        "failed": failed,
        "errors": errors,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "covered_s": covered,
        # Outermost calls of different threads can overlap in wall-clock
        # time (a call waiting for the interpreter lock counts in both).
        "overlap_s": busy - covered,
        "threads_s": summary["threads"],
        "self_sum_s": self_sum,
        "layers": summary["layers"],
        "functions": summary["functions"],
        "sums": sums,
        "table_hits": tables_after["hits"] - tables_before["hits"],
        "table_misses": tables_after["misses"] - tables_before["misses"],
        "rounds_are_local": workload.rounds_are_local,
    }


# ---------------------------------------------------------------------------
# Metrics over pooled blocks
# ---------------------------------------------------------------------------

def percentile(values, pct):
    """Linear-interpolated percentile (``statistics.quantiles`` inclusive)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[pct - 1]


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


#: The probe time the ledger reports timings at: the yardstick's time on
#: the host the ledger was defined on, when no neighbour slowed it.
REFERENCE_PROBE_S = 0.0019
#: How much more the program slows than the yardstick when the host is
#: busy: execution time grows as probe time to this power (fitted by
#: regressing log execution time on log probe time per instance on that
#: host; the fit gave 1.37 to 1.40 on two workloads).
PROBE_ELASTICITY = 1.4
#: The same for set-up, which is mostly imports and table builds and slows
#: in proportion to the probe on that host.
SETUP_ELASTICITY = 1.0


def host_scale(probe_s, elasticity=PROBE_ELASTICITY):
    """Factor that brings a time measured next to ``probe_s`` to the
    reference host speed (1 for an unprobed time)."""
    if probe_s is None:
        return 1.0
    return (REFERENCE_PROBE_S / probe_s) ** elasticity


def end_to_end_metrics(blocks, adjust=True):
    """Pooled metrics plus each block's own value (for spreads).

    With ``adjust``, every time is brought to the reference host speed by
    :func:`host_scale` of the probe timed around it (README.md,
    "Host-speed adjustment"); without, times are used as measured.
    """
    def scale(probe, elasticity=PROBE_ELASTICITY):
        return host_scale(probe, elasticity) if adjust else 1.0

    def compute(parts):
        latencies = []
        busy = 0.0
        for block in parts:
            rounds = block["rounds"]
            latencies.extend(
                latency * scale(rounds[number][1]) for latency, number
                in zip(block["latencies_s"], block["sample_rounds"]))
            busy += sum(duration * scale(probe)
                        for duration, probe in rounds)
        return {
            "setup_s": statistics.median(
                block["setup_s"] * scale(block["setup_probe_s"],
                                         SETUP_ELASTICITY)
                for block in parts),
            "auctions_per_s": _ratio(sum(block["tasks"] for block in parts),
                                     busy),
            "latency_p50_ms": 1000.0 * percentile(latencies, 50),
            "latency_p90_ms": 1000.0 * percentile(latencies, 90),
            "ns_per_counted_mul": _ratio(
                1e9 * busy, sum(block["work"] for block in parts)),
            "peak_rss_mb": max(block["peak_rss_kb"] for block in parts)
            / 1024.0,
            "error_rate": _ratio(sum(block["failed"] for block in parts),
                                 sum(block["attempted"] for block in parts)),
        }
    pooled = compute(blocks)
    per_block = [compute([block]) for block in blocks]
    metrics = {}
    for name, value in pooled.items():
        unit, _ = END_TO_END[name]
        metrics[name] = {"value": value, "unit": unit,
                         "blocks": [row[name] for row in per_block]}
    samples = sum(len(block["latencies_s"]) for block in blocks)
    return metrics, samples


#: Per-layer metric units.
LAYER_UNITS = {"calls": "count", "counter_calls": "count",
               "counted_work": "mul", "self_ms": "ms", "share": "ratio",
               "pv_cache_hit_ratio": "ratio", "table_hit_ratio": "ratio",
               "checks": "count", "step_calls": "count",
               "messages": "count", "field_elements": "count",
               "rounds": "count", "retransmissions": "count",
               "goodput_ratio": "ratio", "report_bytes": "B",
               "queue_wait_ms": "ms", "run_ms": "ms", "gateway_ms": "ms",
               "warm_ratio": "ratio", "overhead": "ratio",
               "unattributed_share": "ratio", "overlap_share": "ratio",
               "calibration_ms": "ms"}


def layer_metrics(blocks):
    """Per-layer metrics of a traced workload, pooled over its blocks.

    Counts and times are per execution; shares are of the traced total
    (the traced loops' wall-clock).  Returns ``(metrics, checks)`` where
    ``checks`` lists failed self-checks.
    """
    executions = sum(block["executions"] for block in blocks)
    completed = sum(block["completed_executions"] for block in blocks)
    total_s = sum(block["traced_wall_s"] for block in blocks)
    unattributed_s = sum(block["traced_wall_s"] - block["covered_s"]
                         for block in blocks)
    sums = {key: sum(block["sums"][key] for block in blocks)
            for key in blocks[0]["sums"]}
    values = {}

    def tally(layer, key):
        return sum(block["layers"][layer].get(key, 0) for block in blocks)

    for layer in layers.LAYERS:
        values[layer + ".calls"] = _ratio(tally(layer, "calls"), executions)
        if layer in layers.TIMED_LAYERS:
            self_s = tally(layer, "self_s")
            values[layer + ".self_ms"] = _ratio(1000.0 * self_s, executions)
            values[layer + ".share"] = _ratio(self_s, total_s)
    values["crypto.modular.counter_calls"] = _ratio(
        tally("crypto.modular", "counter_calls"), executions)
    values["crypto.modular.counted_work"] = _ratio(sums["work"], completed)
    values["crypto.fastexp.pv_cache_hit_ratio"] = _ratio(
        sums["cache_hits"], sums["cache_hits"] + sums["cache_misses"])
    table_hits = sum(block["table_hits"] for block in blocks)
    table_lookups = table_hits + sum(block["table_misses"]
                                     for block in blocks)
    values["crypto.fastexp.table_hit_ratio"] = _ratio(table_hits,
                                                      table_lookups)
    values["core.verification.checks"] = _ratio(
        tally("core.verification", "checks"), executions)
    step_calls = tally("network", "step_calls")
    values["network.step_calls"] = _ratio(step_calls, executions)
    for key in ("messages", "field_elements", "rounds", "retransmissions"):
        values["network." + key] = _ratio(sums[key], completed)
    values["network.goodput_ratio"] = 1.0 - _ratio(sums["retransmissions"],
                                                   sums["messages"])
    values["obs.report_bytes"] = _ratio(sums["report_bytes"], completed)
    for key in ("queue_wait", "run", "gateway"):
        values["service.%s_ms" % key] = _ratio(1000.0 * sums[key + "_s"],
                                               completed)
    values["service.warm_ratio"] = _ratio(sums["warm"], completed)
    values["trace.overhead"] = _ratio(
        total_s, sum(block["untraced_wall_s"] for block in blocks)) - 1.0
    values["trace.unattributed_share"] = _ratio(unattributed_s, total_s)
    overlap_s = sum(block["overlap_s"] for block in blocks)
    values["trace.overlap_share"] = _ratio(overlap_s, total_s)
    values["calibration_ms"] = statistics.median(
        block["calibration_ms"] for block in blocks)

    checks = []
    self_sum = sum(block["self_sum_s"] for block in blocks)
    if abs(self_sum + unattributed_s - overlap_s - total_s) \
            > 0.01 * total_s:
        checks.append("layer self times (%.4f s) plus unattributed "
                      "(%.4f s) minus cross-thread overlap (%.4f s) differ "
                      "from the traced total (%.4f s) by more than 1%%"
                      % (self_sum, unattributed_s, overlap_s, total_s))
    if blocks[0]["rounds_are_local"] and step_calls != sums["rounds"]:
        checks.append("network.step_calls (%d) != network.rounds (%d)"
                      % (step_calls, sums["rounds"]))
    metrics = {name: {"value": value, "unit": _layer_unit(name)}
               for name, value in values.items()}
    return metrics, checks


def _layer_unit(name):
    return LAYER_UNITS[name.rsplit(".", 1)[-1]]


# ---------------------------------------------------------------------------
# Orchestration (parent process)
# ---------------------------------------------------------------------------

def spawn_block(name, seed, seconds, trace):
    """Run one block in a fresh interpreter; return its result dict."""
    command = [sys.executable, os.path.abspath(__file__), "--block", name,
               "--seed", str(seed), "--trace", str(int(trace))]
    if seconds is not None:
        command += ["--seconds", repr(seconds)]
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                               timeout=BLOCK_TIMEOUT_S, check=False)
    if completed.returncode != 0:
        raise RuntimeError("block %s exited with %d"
                           % (name, completed.returncode))
    lines = completed.stdout.decode("utf-8").strip().splitlines()
    return json.loads(lines[-1])


def summarize(blocks, trace):
    """Metrics, counts and failed checks of one workload's blocks.

    The blocks themselves are kept too, so a ledger file can be analysed
    again without re-running it.
    """
    summary = {
        "attempted": sum(block["attempted"] for block in blocks),
        "failed": sum(block["failed"] for block in blocks),
        "errors": [error for block in blocks
                   for error in block["errors"]][:5],
        "backend": blocks[0]["backend"],
        "calibration_ms": statistics.median(
            block["calibration_ms"] for block in blocks),
        "blocks": blocks,
    }
    if trace:
        summary["metrics"], summary["checks"] = layer_metrics(blocks)
        summary["samples"] = sum(block["executions"] for block in blocks)
    else:
        summary["metrics"], summary["samples"] = end_to_end_metrics(blocks)
        raw, _ = end_to_end_metrics(blocks, adjust=False)
        summary["raw_metrics"] = {name: entry["value"]
                                  for name, entry in raw.items()}
        summary["checks"] = []
    return summary


def provenance(summaries):
    """Where and with what the numbers were measured."""
    commit = None
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10,
                                check=False)
        if result.returncode == 0:
            commit = result.stdout.strip() or None
    except OSError:
        commit = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "backend": next(iter(summaries.values()))["backend"],
        "git_commit": commit,
        "calibration_ms": statistics.median(
            summary["calibration_ms"] for summary in summaries.values()),
        # No speedup ratio is reported; where gmpy2 is absent the ledger
        # says so instead of recording a comparison it could not make.
        "gmpy2": ("available" if importlib.util.find_spec("gmpy2")
                  else "not measured"),
    }


def _print_metrics(name, summary):
    for metric, entry in summary["metrics"].items():
        print("%s %s %.6g %s" % (name, metric, entry["value"],
                                 entry["unit"]))
    print("%s samples %d count" % (name, summary["samples"]))
    for check in summary["checks"]:
        print("%s CHECK FAILED: %s" % (name, check))
    for error in summary["errors"]:
        print("%s ERROR: %s" % (name, error))


def run_ledger(names, seed, trace, seconds):
    """Run every named workload as interleaved blocks; return the document.

    ``seconds`` of ``None`` gives every block its fixed count.
    """
    share = seconds / BLOCKS if seconds is not None else None
    blocks = {name: [] for name in names}
    for _ in range(BLOCKS):
        for name in names:
            blocks[name].append(spawn_block(name, seed, share, trace))
    summaries = {name: summarize(blocks[name], trace) for name in names}
    return {"seed": seed, "trace": bool(trace), "seconds": seconds,
            "blocks": BLOCKS, "workloads": summaries,
            "provenance": provenance(summaries)}


def benchmark_spec():
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def driver_result(document, trace):
    """The single-line result: every BENCHMARK.json metric of the pass."""
    spec = benchmark_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    (summary,) = document["workloads"].values()
    metrics = {}
    for entry in wanted:
        measured = summary["metrics"][entry["name"]]
        metrics[entry["name"]] = {"value": measured["value"],
                                  "unit": measured["unit"]}
    return {"correct": summary["failed"] == 0 and not summary["checks"],
            "attempted": summary["attempted"], "failed": summary["failed"],
            "metrics": metrics}


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------

def compare(path_a, path_b):
    """Print a verdict per (workload, end-to-end metric); return the count
    of regressions."""
    with open(path_a) as handle:
        first = json.load(handle)
    with open(path_b) as handle:
        second = json.load(handle)
    bounds = {entry["name"]: entry for entry in benchmark_spec()["end_to_end"]}
    regressions = 0
    for name in first["workloads"]:
        if name not in second["workloads"]:
            continue
        for metric, (_, better) in END_TO_END.items():
            a = first["workloads"][name]["metrics"][metric]
            b = second["workloads"][name]["metrics"][metric]
            verdict = verdict_for(metric, better, bounds.get(metric), a, b)
            regressions += verdict == "regressed"
            print("%-16s %-19s %12.6g %12.6g  %s"
                  % (name, metric, a["value"], b["value"], verdict))
    return regressions


def spread(entry):
    """Distance between the blocks' extreme values, as a share of the
    pooled value."""
    values = entry["blocks"]
    return _ratio(max(values) - min(values), abs(entry["value"]))


def verdict_for(metric, better, spec, a, b):
    """improved / unchanged / regressed / unresolved for one pair."""
    if spec is None:
        # error_rate: an absolute bound of zero.
        if b["value"] > a["value"]:
            return "regressed"
        return "improved" if b["value"] < a["value"] else "unchanged"
    bound = spec["bound"]
    if spread(a) > bound or spread(b) > bound:
        return "unresolved"
    change = _ratio(b["value"] - a["value"], abs(a["value"]))
    worse = change if better == "lower" else -change
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        description="DMW performance ledger (see benchmarks/ledger/"
                    "README.md).")
    parser.add_argument("--workload", help="run one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed: generates every input")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run of one workload "
                             "(default %g)" % DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="run the traced pass")
    parser.add_argument("--out", help="write the ledger JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two ledger JSON files")
    parser.add_argument("--block", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return 1 if compare(*args.compare) else 0
    try:
        if args.block:
            block = run_block(args.block, args.seed, args.seconds,
                              args.trace)
            print(json.dumps(block))
            return 0
        _import_program()
        if args.workload:
            if args.workload not in workloads.BY_NAME:
                parser.error("unknown workload %r (expected one of %s)"
                             % (args.workload,
                                ", ".join(workloads.BY_NAME)))
            names = [args.workload]
            seconds = None if args.trace else (
                args.seconds if args.seconds is not None
                else DEFAULT_SECONDS)
        else:
            names = [workload.name for workload in workloads.WORKLOADS]
            seconds = args.seconds
        document = run_ledger(names, args.seed, args.trace, seconds)
    except SourceMissing as error:
        print("ledger: %s" % error, file=sys.stderr)
        return 2
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        print("ledger: %s" % error, file=sys.stderr)
        return 1
    print("# provenance %s" % json.dumps(document["provenance"],
                                         sort_keys=True))
    for name, summary in document["workloads"].items():
        _print_metrics(name, summary)
    out = args.out
    if out is None and not args.workload:
        out = os.path.join(ROOT, ".ledger", "ledger.json")
    if out is not None:
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        with open(out, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if args.workload:
        print(json.dumps(driver_result(document, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
