"""Larger-scale integration runs: everything composed at once.

These runs exercise feature combinations at sizes above the unit tests'
(n up to 14, m up to 5; tracing + delivery recording + audit + latency +
serialization on the same execution), guarding against interactions the
per-module suites cannot see.
"""

import random

import pytest

from repro import serialization
from repro.core.agent import DMWAgent
from repro.core.audit import audit_protocol_run
from repro.core.parameters import DMWParameters
from repro.core.protocol import DMWProtocol
from repro.mechanisms.base import truthful_bids
from repro.mechanisms.minwork import MinWork
from repro.network.latency import LatencyModel, estimate_protocol_latency
from repro.obs.recorder import Recorder
from repro.scheduling import workloads


@pytest.fixture(scope="module")
def big_run(group_small):
    """One fully-instrumented n=14, m=5 execution shared by the tests."""
    parameters = DMWParameters.generate(14, fault_bound=2,
                                        group_parameters=group_small)
    problem = workloads.random_discrete(14, 5, parameters.bid_values,
                                        random.Random(99))
    master = random.Random(7)
    agents = [
        DMWAgent(index, parameters,
                 [int(problem.time(index, j)) for j in range(5)],
                 rng=random.Random(master.getrandbits(64)))
        for index in range(14)
    ]
    recorder = Recorder()
    protocol = DMWProtocol(parameters, agents, record_deliveries=True,
                           recorder=recorder)
    outcome = protocol.execute(5)
    return parameters, problem, protocol, outcome, recorder


class TestBigRun:
    def test_completes_and_matches_minwork(self, big_run):
        _, problem, _, outcome, _ = big_run
        assert outcome.completed
        expected = MinWork().run(truthful_bids(problem))
        assert outcome.schedule == expected.schedule
        assert list(outcome.payments) == list(expected.payments)

    def test_audit_passes(self, big_run):
        _, _, protocol, outcome, _ = big_run
        report = audit_protocol_run(protocol, outcome)
        assert report.ok
        assert report.reconstructed_assignment == \
            outcome.schedule.assignment

    def test_trace_covers_all_tasks(self, big_run):
        _, _, _, outcome, recorder = big_run
        assert len(recorder.find_events(kind="auction_resolved")) == 5
        assert recorder.find_events(kind="abort") == []

    def test_latency_timeline(self, big_run):
        _, _, protocol, outcome, _ = big_run
        model = LatencyModel(random.Random(1), base=0.005, jitter=0.005)
        timeline = estimate_protocol_latency(protocol.network, model)
        assert len(timeline.round_durations) == \
            outcome.network_metrics.rounds
        assert timeline.total_seconds > 0.005 * len(
            timeline.round_durations)

    def test_outcome_serialization_roundtrip(self, big_run):
        _, problem, _, outcome, _ = big_run
        restored = serialization.loads(serialization.dumps(outcome))
        assert restored.schedule == outcome.schedule
        assert restored.payments == outcome.payments
        for agent in range(14):
            assert restored.utility(agent, problem) == \
                outcome.utility(agent, problem)

    def test_message_budget_at_scale(self, big_run):
        parameters, _, _, outcome, _ = big_run
        n, m = 14, 5
        metrics = outcome.network_metrics
        # Fig. 2 budget generalized: bundles m*n*(n-1), published kinds
        # m*n*n each (fan-out n = 13 agents + escrow).
        assert metrics.by_kind["share_bundle"] == m * n * (n - 1)
        assert metrics.by_kind["commitments"] == m * n * n
        assert metrics.by_kind["lambda_psi"] == m * n * n
        assert metrics.by_kind["second_price"] == m * n * n

    def test_per_agent_work_reasonably_balanced(self, big_run):
        _, _, _, outcome, _ = big_run
        works = [ops["multiplication_work"]
                 for ops in outcome.agent_operations]
        # Disclosers do more work than non-disclosers, but within ~3x.
        assert max(works) < 3 * min(works)
