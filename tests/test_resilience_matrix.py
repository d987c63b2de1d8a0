"""Fault-matrix coverage: overlapping substrate faults in one run.

Satellite (c) of the resilience ISSUE: a crashed sender, a late link,
and an in-flight corruptor active in the *same* execution (their fault
windows overlap from round 0), driven both sequentially and in
parallel, in strict and degraded mode.  Every cell of the matrix must
land on the safety dichotomy — a correct outcome (modulo explicitly
quarantined tasks) or an abort with zero utilities — and the retry /
recovery counters must agree exactly between the network and the
outcome's metrics.
"""

import random

import pytest

from repro.core.agent import DMWAgent
from repro.core.protocol import DMWProtocol
from repro.mechanisms.base import truthful_bids
from repro.mechanisms.minwork import MinWork
from repro.network.asynchronous import RetryPolicy, TimeoutNetwork
from repro.network.faults import FaultPlan
from repro.network.latency import LatencyModel
from repro.network.message import Message
from repro.scheduling.problem import SchedulingProblem

SLOW_LINK = (3, 0)


@pytest.fixture()
def problem():
    return SchedulingProblem([
        [2, 1],
        [1, 3],
        [3, 2],
        [2, 2],
        [3, 3],
    ])


def make_agents(params, problem, seed=0):
    master = random.Random(seed)
    return [
        DMWAgent(i, params,
                 [int(problem.time(i, j))
                  for j in range(problem.num_tasks)],
                 rng=random.Random(master.getrandbits(64)))
        for i in range(5)
    ]


def corrupt_share(params):
    """In-flight corruption of every share bundle on link (1, 4)."""
    q = params.group.q

    def corrupt(message):
        if message.kind != "share_bundle":
            return message
        task, (e, f, g, h) = message.payload  # the bundle's wire form
        return Message(sender=message.sender, recipient=message.recipient,
                       kind=message.kind,
                       payload=(task, ((e + 1) % q, f, g, h)),
                       field_elements=message.field_elements)

    return corrupt


def matrix_plan(params, crash_round):
    """Crashed sender + corruptor, overlapping from ``crash_round``."""
    return FaultPlan(crashed_from_round={4: crash_round},
                     corruptors={(1, 4): corrupt_share(params)})


def matrix_network(params, crash_round, seed):
    """A timeout network carrying all three fault kinds at once: the
    fault plan's crash + corruption, and a transiently slow link that
    only a retransmission can save."""
    model = LatencyModel(random.Random(seed), base=0.001, jitter=0.0,
                         per_link_scale={SLOW_LINK: 150.0})
    return TimeoutNetwork(5, model, round_timeout=0.1,
                          fault_plan=matrix_plan(params, crash_round),
                          extra_participants=1,
                          retry_policy=RetryPolicy(max_attempts=2))


def assert_exact_counters(network, outcome):
    """Network-side tallies and outcome metrics must agree exactly."""
    metrics = outcome.network_metrics
    assert metrics.retransmissions == network.retries
    assert metrics.recovered_messages == network.recovered
    assert network.recovered <= network.retries
    # The slow link is deterministic at 0.15s — always inside the first
    # grace window of 0.2s, so every retried copy is recovered.
    assert network.recovered == network.retries
    assert network.late_messages == 0


class TestFaultMatrix:
    @pytest.mark.parametrize("parallel", [False, True],
                             ids=["sequential", "parallel"])
    @pytest.mark.parametrize("crash_round", [0, 4, 50])
    def test_strict_mode_dichotomy(self, params5, problem, parallel,
                                   crash_round):
        expected = MinWork().run(truthful_bids(problem))
        network = matrix_network(params5, crash_round, seed=1)
        protocol = DMWProtocol(params5, make_agents(params5, problem),
                               network=network)
        outcome = protocol.execute(problem.num_tasks, parallel=parallel)
        if outcome.completed:
            assert outcome.schedule == expected.schedule
            assert list(outcome.payments) == list(expected.payments)
        else:
            assert outcome.abort is not None
            assert outcome.schedule is None
            assert all(outcome.utility(i, problem) == 0 for i in range(5))
        assert_exact_counters(network, outcome)

    @pytest.mark.parametrize("parallel", [False, True],
                             ids=["sequential", "parallel"])
    @pytest.mark.parametrize("crash_round", [0, 4, 50])
    def test_degraded_mode_dichotomy(self, params5, problem, parallel,
                                     crash_round):
        expected = MinWork().run(truthful_bids(problem))
        reference = {t: (expected.schedule.assignment[t],
                         expected.payments)
                     for t in range(problem.num_tasks)}
        network = matrix_network(params5, crash_round, seed=1)
        protocol = DMWProtocol(params5, make_agents(params5, problem),
                               network=network)
        outcome = protocol.execute(problem.num_tasks, parallel=parallel,
                                   degraded=True)
        if outcome.completed:
            assert outcome.degraded
            for task in range(problem.num_tasks):
                slot = outcome.schedule.assignment[task]
                if task in outcome.task_aborts:
                    assert slot is None
                else:
                    assert slot == reference[task][0]
        else:
            # Degradation only shields per-task faults; run-level
            # conflicts (e.g. an escrow dispute) still void the run.
            assert outcome.abort is not None
            assert all(outcome.utility(i, problem) == 0 for i in range(5))
        assert_exact_counters(network, outcome)

    def test_matrix_exercises_both_branches(self, params5, problem):
        """Sanity: across the crash rounds, at least one run aborts and
        at least one completes — the matrix is not vacuous."""
        completed, aborted = set(), set()
        for crash_round in (0, 4, 50):
            network = matrix_network(params5, crash_round, seed=1)
            protocol = DMWProtocol(params5, make_agents(params5, problem),
                                   network=network)
            outcome = protocol.execute(problem.num_tasks, parallel=False,
                                       degraded=True)
            (completed if outcome.completed else aborted).add(crash_round)
        assert completed
        # An early crash must never yield a full schedule: either the
        # run aborts or every task the crash touched is quarantined.
        if 0 in completed:
            network = matrix_network(params5, 0, seed=1)
            protocol = DMWProtocol(params5, make_agents(params5, problem),
                                   network=network)
            outcome = protocol.execute(problem.num_tasks, parallel=False,
                                       degraded=True)
            assert outcome.quarantined_tasks != ()

    def test_seed_sweep_keeps_dichotomy(self, params5, problem):
        expected = MinWork().run(truthful_bids(problem))
        for seed in range(4):
            network = matrix_network(params5, 6, seed=seed)
            protocol = DMWProtocol(params5,
                                   make_agents(params5, problem, seed=seed),
                                   network=network)
            outcome = protocol.execute(problem.num_tasks)
            if outcome.completed:
                assert outcome.schedule == expected.schedule
            else:
                assert all(outcome.utility(i, problem) == 0
                           for i in range(5))
            assert_exact_counters(network, outcome)
