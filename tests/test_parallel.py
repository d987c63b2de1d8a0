"""Tests for parallel (per-phase) auction execution.

The paper's auctions run "parallel and independent"; the parallel
schedule must produce byte-identical outcomes to the sequential one with
the same messages in ~5 rounds instead of ``4m + 1``.
"""

import random
from collections import Counter

import pytest

from repro.core.agent import DMWAgent
from repro.core.deviant import (
    WithholdSharesAgent,
    WrongAggregatesAgent,
)
from repro.core.parameters import DMWParameters
from repro.core.protocol import DMWProtocol
from repro.mechanisms.base import truthful_bids
from repro.mechanisms.minwork import MinWork
from repro.network.faults import FaultPlan
from repro.network.simulator import SynchronousNetwork
from repro.obs.recorder import Recorder
from repro.scheduling import workloads
from repro.scheduling.problem import SchedulingProblem


def build_protocol(params, problem, factories=None, seed=0, **options):
    master = random.Random(seed)
    agents = []
    for index in range(params.num_agents):
        rng = random.Random(master.getrandbits(64))
        values = [int(problem.time(index, j))
                  for j in range(problem.num_tasks)]
        if factories and index in factories:
            agents.append(factories[index](index, params, values, rng))
        else:
            agents.append(DMWAgent(index, params, values, rng=rng))
    return DMWProtocol(params, agents, **options)


@pytest.fixture()
def problem():
    return SchedulingProblem([
        [2, 1, 3],
        [1, 3, 2],
        [3, 2, 1],
        [2, 2, 2],
        [3, 1, 1],
    ])


class TestParallelEquivalence:
    def test_same_outcome_as_sequential(self, params5, problem):
        sequential = build_protocol(params5, problem).execute(3)
        parallel = build_protocol(params5, problem).execute(3,
                                                            parallel=True)
        assert parallel.completed
        assert parallel.schedule == sequential.schedule
        assert parallel.payments == sequential.payments

    def test_matches_minwork(self, params5, problem):
        parallel = build_protocol(params5, problem).execute(3,
                                                            parallel=True)
        expected = MinWork().run(truthful_bids(problem))
        assert parallel.schedule == expected.schedule
        assert list(parallel.payments) == list(expected.payments)

    def test_random_instances(self, group_small):
        rng = random.Random(31)
        for trial in range(5):
            params = DMWParameters.generate(6, fault_bound=1,
                                            group_parameters=group_small)
            instance = workloads.random_discrete(6, 3, params.bid_values,
                                                 rng)
            sequential = build_protocol(params, instance,
                                        seed=trial).execute(3)
            parallel = build_protocol(params, instance,
                                      seed=trial).execute(3, parallel=True)
            assert parallel.schedule == sequential.schedule
            assert parallel.payments == sequential.payments


class TestRoundCompression:
    def test_five_rounds_regardless_of_m(self, params5, problem):
        parallel = build_protocol(params5, problem).execute(3,
                                                            parallel=True)
        # 4 auction barriers + 1 payments round, independent of m = 3.
        assert parallel.network_metrics.rounds == 5

    def test_sequential_rounds_grow_with_m(self, params5, problem):
        sequential = build_protocol(params5, problem).execute(3)
        assert sequential.network_metrics.rounds == 4 * 3 + 1

    def test_message_totals_identical(self, params5, problem):
        sequential = build_protocol(params5, problem).execute(3)
        parallel = build_protocol(params5, problem).execute(3,
                                                            parallel=True)
        assert (parallel.network_metrics.point_to_point_messages
                == sequential.network_metrics.point_to_point_messages)
        assert (parallel.network_metrics.field_elements
                == sequential.network_metrics.field_elements)


class TestParallelDeviations:
    def test_fatal_deviation_still_aborts(self, params5, problem):
        factories = {2: lambda i, p, t, r: WithholdSharesAgent(
            i, p, t, victims=[0], rng=r)}
        protocol = build_protocol(params5, problem, factories)
        outcome = protocol.execute(3, parallel=True)
        assert not outcome.completed
        assert outcome.abort.phase == "bidding"

    def test_tolerated_deviation_still_excluded(self, params5):
        # All bids >= 2: resolution slack absorbs the corrupt aggregates.
        instance = SchedulingProblem([
            [2, 3], [3, 2], [2, 2], [3, 3], [2, 3],
        ])
        factories = {4: lambda i, p, t, r: WrongAggregatesAgent(
            i, p, t, rng=r)}
        protocol = build_protocol(params5, instance, factories)
        outcome = protocol.execute(2, parallel=True)
        assert outcome.completed
        expected = MinWork().run(truthful_bids(instance))
        assert outcome.schedule == expected.schedule
        # The complaint round added exactly one barrier.
        assert outcome.network_metrics.rounds == 6


class TestRunDMWParallel:
    def test_convenience_wrapper(self, problem):
        import random as _random
        from repro.core.protocol import run_dmw
        sequential = run_dmw(problem, rng=_random.Random(3))
        parallel = run_dmw(problem, rng=_random.Random(3), parallel=True)
        assert parallel.completed
        assert parallel.schedule == sequential.schedule
        assert parallel.payments == sequential.payments
        assert parallel.network_metrics.rounds < \
            sequential.network_metrics.rounds


def _drop_task1_aggregates(message):
    """Corruptor voiding task 1's aggregation on every link."""
    if message.kind == "lambda_psi" and message.payload[0] == 1:
        return None
    return message


def _task1_network():
    links = {(s, r): _drop_task1_aggregates
             for s in range(5) for r in range(6) if s != r}
    return SynchronousNetwork(5, fault_plan=FaultPlan(corruptors=links),
                              extra_participants=1)


#: name -> (instance rows, deviant factories, network builder, degraded)
TRACE_SCENARIOS = {
    "honest": ([[2, 1, 3], [1, 3, 2], [3, 2, 1], [2, 2, 2], [3, 1, 1]],
               None, None, False),
    # The deviant of test_trace's complaint run: min bid 2 leaves
    # resolution slack, so complaints exclude the corrupted aggregates.
    "complaints": ([[3, 2], [2, 3], [3, 3], [2, 2], [3, 3]],
                   {4: lambda i, p, t, r: WrongAggregatesAgent(
                       i, p, t, rng=r)}, None, False),
    "degraded_quarantine": ([[1, 2, 3], [2, 1, 3], [3, 2, 1], [1, 3, 2],
                             [2, 2, 2]], None, _task1_network, True),
}


class TestTraceParity:
    """One driver: batching changes rounds, never what is recorded."""

    @pytest.mark.parametrize("scenario", sorted(TRACE_SCENARIOS))
    def test_per_task_trace_multisets_match(self, params5, scenario):
        rows, factories, network, degraded = TRACE_SCENARIOS[scenario]
        instance = SchedulingProblem(rows)
        signatures = []
        for parallel in (False, True):
            recorder = Recorder()
            protocol = build_protocol(
                params5, instance, factories, recorder=recorder,
                network=network() if network is not None else None)
            outcome = protocol.execute(instance.num_tasks,
                                       parallel=parallel, degraded=degraded)
            assert outcome.completed
            # network_round events describe the barriers, which the
            # batch size is free to change.
            signatures.append(Counter(
                (event.kind, event.task, repr(sorted(event.detail.items())))
                for event in recorder.events
                if event.kind != "network_round"))
        sequential, barrier = signatures
        assert barrier == sequential
        kinds = {kind for kind, _, _ in sequential}
        assert {"aggregates_published", "disclosures_published"} <= kinds
        if scenario == "complaints":
            assert "complaints" in kinds
        if scenario == "degraded_quarantine":
            assert "task_quarantined" in kinds
