"""The ledger's five workloads, each with its reference oracle.

A workload is built from the workload seed alone: the seed generates every
instance matrix and every agent, latency and job seed, and the program
receives only those generated inputs.  Each workload cycles through a small
set of distinct instances; for every one of them :meth:`Workload.reference`
computes the expected observation with the sequential in-process driver,
and :meth:`Workload.execute` returns what the measured configuration
produced.  The block runner (``run.py``) compares the two after timing.

``repro`` is imported inside the methods, never at module import, so the
block runner can time the import as part of set-up.

Why these five (see README.md for the full rationale):

* ``wide-seq`` — many agents, few auctions: share verification is
  O(n^2) per auction, so commitments, verification and Straus dominate.
* ``many-tasks-tiny`` — few agents, many auctions on the tiny group,
  phase-barrier driver: counter bookkeeping, driver glue and in-process
  delivery take their largest shares, and 16 auctions share generators.
* ``large-group`` — 512-bit field: fixed-base exponentiation dominates, so
  bookkeeping, driver and delivery changes should not move it (control).
* ``tcp-retry`` — every copy crosses a localhost socket and about 20% are
  late and recovered by retransmission: the network layer and its failure
  model.
* ``service-mix`` — the HTTP gateway, queue, warm store, report building and
  resident pool, driven by two closed-loop clients.
"""

import asyncio
import json
import random
import threading
import time
import urllib.request

#: Fault bound used by every workload (the paper's c).
FAULT_BOUND = 1


def _random_times(rng, num_agents, num_tasks):
    """An instance matrix drawn from the maximal legal bid set."""
    top = num_agents - FAULT_BOUND - 1
    return [[rng.randint(1, top) for _ in range(num_tasks)]
            for _ in range(num_agents)]


def _network_signature(metrics, rounds=True):
    """The network totals an execution must reproduce (read from the
    metrics' fields, so the benchmark calls no traced function)."""
    signature = {
        "point_to_point_messages": metrics.point_to_point_messages,
        "broadcast_events": metrics.broadcast_events,
        "field_elements": metrics.field_elements,
        "retransmissions": metrics.retransmissions,
        "recovered_messages": metrics.recovered_messages,
        "by_kind": dict(sorted(metrics.by_kind.items())),
    }
    if rounds:
        signature["rounds"] = metrics.rounds
    return signature


def _outcome_signature(outcome, rounds=True):
    """Schedule, payments, per-agent Table 1 counters and network totals."""
    return {
        "completed": outcome.completed,
        "schedule": (list(outcome.schedule.assignment)
                     if outcome.schedule is not None else None),
        "payments": (list(outcome.payments)
                     if outcome.payments is not None else None),
        "operations": [dict(snapshot)
                       for snapshot in outcome.agent_operations],
        "network": _network_signature(outcome.network_metrics, rounds),
    }


def _outcome_info(outcome, tasks):
    """Measurement data of one execution (not compared)."""
    metrics = outcome.network_metrics
    cache = outcome.cache_stats or {}
    return {
        "tasks": tasks,
        "work": sum(snapshot["multiplication_work"]
                    for snapshot in outcome.agent_operations),
        "messages": metrics.point_to_point_messages,
        "field_elements": metrics.field_elements,
        "rounds": metrics.rounds,
        "retransmissions": metrics.retransmissions,
        "cache_hits": cache.get("hits", 0),
        "cache_misses": cache.get("misses", 0),
    }


class Workload:
    """One workload: generated instances, a measured execution, a reference.

    Subclasses set the class attributes and implement :meth:`start`,
    :meth:`execute` and :meth:`reference`.
    """

    name = ""
    #: Executions per block: the fixed count of the traced pass and the
    #: floor of the timed pass (3 blocks give at least 100 samples).
    per_block = 40
    #: Closed-loop client threads driving :meth:`execute`.
    clients = 1
    #: Distinct instances the executions cycle through.
    num_instances = 8
    #: Whether network rounds must equal transport barrier calls (true for
    #: every workload whose rounds all run in this process).
    rounds_are_local = True

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random("%s/%d" % (self.name, seed))

    def start(self):
        """Build parameters and anything long-lived (part of set-up)."""

    def instance_key(self, index):
        """Which reference execution ``index`` must match."""
        return index % self.num_instances

    def instance_keys(self):
        """Every key :meth:`reference` is asked for."""
        return range(self.num_instances)

    def warm_up(self):
        """Untimed runs before the timed loop."""
        self.execute(1)

    def execute(self, index):
        """Run execution ``index``; return ``(signature, info)``."""
        raise NotImplementedError

    def reference(self, key):
        """The expected signature for instance ``key``."""
        raise NotImplementedError

    def close(self):
        """Release what :meth:`start` built."""


class _RunDmwWorkload(Workload):
    """Workloads driven through :func:`repro.run_dmw`, in process."""

    num_agents = 0
    num_tasks = 0
    group_size = "small"
    parallel = False

    def __init__(self, seed):
        super().__init__(seed)
        self.instances = [
            (_random_times(self.rng, self.num_agents, self.num_tasks),
             self.rng.getrandbits(64))
            for _ in range(self.num_instances)]

    def start(self):
        import repro
        self.repro = repro
        self.parameters = repro.DMWParameters.generate(
            self.num_agents, fault_bound=FAULT_BOUND,
            group_size=self.group_size)

    def _run(self, key, parallel):
        times, agent_seed = self.instances[key]
        return self.repro.run_dmw(
            self.repro.SchedulingProblem(times), parameters=self.parameters,
            rng=random.Random(agent_seed), parallel=parallel)

    def execute(self, index):
        outcome = self._run(self.instance_key(index), self.parallel)
        # The phase-barrier driver runs all auctions in 5 rounds instead
        # of 4m + 1; every other total matches the sequential reference.
        return (_outcome_signature(outcome, rounds=not self.parallel),
                _outcome_info(outcome, self.num_tasks))

    def reference(self, key):
        return _outcome_signature(self._run(key, parallel=False),
                                  rounds=not self.parallel)


class WideSeq(_RunDmwWorkload):
    name = "wide-seq"
    num_agents = 12
    num_tasks = 2


class ManyTasksTiny(_RunDmwWorkload):
    name = "many-tasks-tiny"
    num_agents = 6
    num_tasks = 16
    group_size = "tiny"
    parallel = True


class LargeGroup(_RunDmwWorkload):
    name = "large-group"
    num_agents = 6
    num_tasks = 2
    group_size = "large"


class TcpRetry(Workload):
    """The sequential driver over the asyncio socket transport.

    Reference: the in-process ``TimeoutNetwork`` with the same latency seed
    and retry policy, which must agree on every total including late,
    retransmitted and recovered copies and the simulated clock.
    """

    name = "tcp-retry"
    num_agents = 8
    num_tasks = 4
    round_timeout = 0.018
    latency_base = 0.010
    latency_jitter = 0.010
    max_attempts = 3

    def __init__(self, seed):
        super().__init__(seed)
        self.instances = [
            (_random_times(self.rng, self.num_agents, self.num_tasks),
             self.rng.getrandbits(64), self.rng.getrandbits(64))
            for _ in range(self.num_instances)]

    def start(self):
        from repro import DMWAgent, DMWParameters, DMWProtocol
        from repro.network import (LatencyModel, RetryPolicy, TimeoutNetwork,
                                   transport)
        self.DMWAgent = DMWAgent
        self.DMWProtocol = DMWProtocol
        self.LatencyModel = LatencyModel
        self.TimeoutNetwork = TimeoutNetwork
        # The module, not the function: the tracer replaces module
        # attributes, so the function is looked up at call time.
        self.transport_module = transport
        self.retry_policy = RetryPolicy(max_attempts=self.max_attempts)
        self.parameters = DMWParameters.generate(
            self.num_agents, fault_bound=FAULT_BOUND)

    def _agents(self, times, agent_seed):
        rng = random.Random(agent_seed)
        return [self.DMWAgent(index, self.parameters, row,
                              rng=random.Random(rng.getrandbits(64)))
                for index, row in enumerate(times)]

    def _latency(self, latency_seed):
        return self.LatencyModel(random.Random(latency_seed),
                                 base=self.latency_base,
                                 jitter=self.latency_jitter)

    @staticmethod
    def _signature(outcome, network):
        signature = _outcome_signature(outcome)
        signature["late_messages"] = network.late_messages
        signature["retries"] = network.retries
        signature["recovered"] = network.recovered
        signature["clock"] = network.clock
        return signature

    def execute(self, index):
        times, agent_seed, latency_seed = self.instances[
            self.instance_key(index)]
        transport = self.transport_module.create_transport(
            "asyncio", self.num_agents,
            latency_model=self._latency(latency_seed),
            round_timeout=self.round_timeout,
            retry_policy=self.retry_policy)
        try:
            protocol = self.DMWProtocol(self.parameters,
                                        self._agents(times, agent_seed),
                                        transport=transport)
            outcome = protocol.execute(self.num_tasks, degraded=True)
        finally:
            transport.close()
        return (self._signature(outcome, transport),
                _outcome_info(outcome, self.num_tasks))

    def reference(self, key):
        times, agent_seed, latency_seed = self.instances[key]
        network = self.TimeoutNetwork(
            self.num_agents, self._latency(latency_seed),
            round_timeout=self.round_timeout, extra_participants=1,
            retry_policy=self.retry_policy)
        protocol = self.DMWProtocol(self.parameters,
                                    self._agents(times, agent_seed),
                                    network=network)
        outcome = protocol.execute(self.num_tasks, degraded=True)
        return self._signature(outcome, network)


class ServiceMix(Workload):
    """Two HTTP client threads against an in-process daemon.

    Each round, both clients submit a job and wait for its report; the
    second client starts a moment after the first, so its job queues
    behind the first.  From job 1 on, jobs come in the pairs of
    :attr:`CYCLE`, one pair per round, in a seeded order; instances are
    drawn from 4 per group.  The reference uses the engine's public
    seeding: agents draw from ``Random(seed + 1)``.
    """

    name = "service-mix"
    clients = 2
    num_agents = 6
    num_tasks = 3
    per_group = 4
    #: Four rounds of ``(mode, group)`` pairs, first job first: every cycle
    #: holds 6 small and 2 tiny jobs, and 4 sequential, 2 barrier and 2
    #: pool.  Fixing the pairs keeps the mix of queueing positions the same
    #: for every seed.
    CYCLE = ((("sequential", "small"), ("sequential", "small")),
             (("sequential", "small"), ("barrier", "tiny")),
             (("sequential", "tiny"), ("pool", "small")),
             (("barrier", "small"), ("pool", "small")))
    poll_seconds = 0.005
    #: Pool-mode shards run in worker processes, whose barriers are not
    #: visible here.
    rounds_are_local = False

    def __init__(self, seed):
        super().__init__(seed)
        self.instances = {
            (group, index): (_random_times(self.rng, self.num_agents,
                                           self.num_tasks),
                             self.rng.randrange(2 ** 62))
            for group in ("small", "tiny")
            for index in range(self.per_group)}
        # Job 0 is the cold execution; the timed rounds start at job 1.
        pairs = [(("sequential", "small"),)]
        while len(pairs) < 2048:
            cycle = list(self.CYCLE)
            self.rng.shuffle(cycle)
            pairs.extend(cycle)
        self.jobs = [(group, self.rng.randrange(self.per_group), mode)
                     for pair in pairs for mode, group in pair]

    def instance_key(self, index):
        group, instance, _ = self.jobs[index % len(self.jobs)]
        return (group, instance)

    def instance_keys(self):
        return sorted(self.instances)

    def start(self):
        from repro.service import AuctionService, ServiceGateway
        self.service = AuctionService(warm_capacity=4, pool_workers=2)
        self.gateway = ServiceGateway(self.service, host="127.0.0.1",
                                      port=0)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def serve():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.gateway.start())
            started.set()
            self.loop.run_forever()
            self.loop.run_until_complete(self.gateway.stop())
            self.loop.run_until_complete(self.loop.shutdown_asyncgens())
            self.loop.close()

        self.thread = threading.Thread(target=serve, name="ledger-gateway",
                                       daemon=True)
        self.thread.start()
        if not started.wait(30):
            raise RuntimeError("gateway did not start")
        self.base = "http://127.0.0.1:%d" % self.gateway.port

    def warm_up(self):
        # Every instance once, plus one job per mode: afterwards the warm
        # store holds every instance's public values and the resident pool
        # has forked, so the timed jobs' work does not depend on the order
        # the two clients happen to submit them in.
        for key in self.instance_keys():
            self._job(key, "sequential")
        first = self.instance_keys()[0]
        for mode in ("barrier", "pool"):
            self._job(first, mode)

    # -- HTTP client ------------------------------------------------------
    def _request(self, path, document=None):
        data = None
        headers = {}
        if document is not None:
            data = json.dumps(document).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(self.base + path, data=data,
                                         headers=headers)
        with urllib.request.urlopen(request, timeout=60) as response:
            body = response.read()
        return json.loads(body), len(body)

    def _job(self, key, mode):
        times, seed = self.instances[key]
        submitted, _ = self._request("/jobs", {
            "agents": self.num_agents, "tasks": self.num_tasks,
            "seed": seed, "group_size": key[0], "mode": mode,
            "workers": 2, "times": times})
        job_path = "/jobs/%s" % submitted["id"]
        while True:
            record, _ = self._request(job_path)
            if record["state"] in ("done", "failed"):
                break
            time.sleep(self.poll_seconds)
        if record["state"] != "done":
            raise RuntimeError("job %s failed: %s"
                               % (submitted["id"], record.get("error")))
        report, report_bytes = self._request(job_path + "/report")
        return record, report, report_bytes

    def execute(self, index):
        start = time.time()
        _, _, mode = self.jobs[index % len(self.jobs)]
        record, report, report_bytes = self._job(self.instance_key(index),
                                                 mode)
        latency = time.time() - start
        totals = report["totals"]
        network = totals["network"]
        signature = {
            "completed": report["completed"],
            "schedule": report["schedule"],
            "payments": report["payments"],
            "operations": totals["operations_per_agent"],
            "network": _report_network(network),
        }
        cache = report.get("cache") or {}
        engine_s = record["finished_at"] - record["submitted_at"]
        info = {
            "tasks": self.num_tasks,
            "work": totals["operations"]["multiplication_work"],
            "messages": network["point_to_point_messages"],
            "field_elements": network["field_elements"],
            "rounds": network["rounds"],
            "retransmissions": network.get("retransmissions", 0),
            "cache_hits": cache.get("hits", 0),
            "cache_misses": cache.get("misses", 0),
            "report_bytes": report_bytes,
            "queue_wait_s": record["started_at"] - record["submitted_at"],
            "run_s": record["finished_at"] - record["started_at"],
            "gateway_s": max(0.0, latency - engine_s),
            "warm": bool(record["warm"]),
        }
        return signature, info

    def reference(self, key):
        from repro import DMWAgent, DMWParameters, DMWProtocol
        times, seed = self.instances[key]
        parameters = DMWParameters.generate(self.num_agents,
                                            fault_bound=FAULT_BOUND,
                                            group_size=key[0])
        master = random.Random(seed + 1)
        agents = [DMWAgent(index, parameters, row,
                           rng=random.Random(master.getrandbits(64)))
                  for index, row in enumerate(times)]
        outcome = DMWProtocol(parameters, agents).execute(self.num_tasks)
        signature = _outcome_signature(outcome, rounds=False)
        return signature

    def close(self):
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(30)
        self.service.close()


def _report_network(network):
    """A run report's network totals in :func:`_network_signature` form,
    without rounds (the barrier and pool drivers use fewer)."""
    return {
        "point_to_point_messages": network["point_to_point_messages"],
        "broadcast_events": network["broadcast_events"],
        "field_elements": network["field_elements"],
        "retransmissions": network.get("retransmissions", 0),
        "recovered_messages": network.get("recovered_messages", 0),
        "by_kind": {key[len("messages["):-1]: value
                    for key, value in sorted(network.items())
                    if key.startswith("messages[")},
    }


#: The workloads in ledger order.
WORKLOADS = (WideSeq, ManyTasksTiny, LargeGroup, TcpRetry, ServiceMix)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
