"""Coordinated deviations beyond the trust bound ``c``.

The assigned-verifier regime assumes at most ``c`` faulty agents (then
every publisher has an honest verifier).  These tests probe what happens
when a *coalition larger than c* coordinates — e.g. a corrupt publisher
whose assigned verifiers deliberately stay silent.  The paper makes no
liveness promise there ("if the number of agents drops below the
threshold, the mechanism cannot be resolved"), but *safety* must survive:
the run either completes with the exact MinWork outcome or terminates —
a wrong schedule or payment is never produced, because resolution itself
re-checks the algebra (a corrupted aggregate that survives complaint
suppression still fails eq. (12) at the true degree).
"""

import random

import pytest

from repro.core.agent import DMWAgent
from repro.core.deviant import DeviantAgent, WrongAggregatesAgent
from repro.core.protocol import DMWProtocol
from repro.mechanisms.base import truthful_bids
from repro.mechanisms.minwork import MinWork
from repro.scheduling.problem import SchedulingProblem


class SilentVerifierAgent(DeviantAgent):
    """Performs its assigned verifications but never complains."""

    def validate_aggregates(self, task, published):
        super().validate_aggregates(task, published)
        return []

    def validate_disclosures(self, task, rows):
        super().validate_disclosures(task, rows)
        return []

    def validate_excluded_aggregates(self, task, published):
        super().validate_excluded_aggregates(task, published)
        return []


def run_coalition(params, problem, corrupt_publisher, silent_verifiers,
                  seed=0):
    master = random.Random(seed)
    agents = []
    for index in range(params.num_agents):
        rng = random.Random(master.getrandbits(64))
        values = [int(problem.time(index, j))
                  for j in range(problem.num_tasks)]
        if index == corrupt_publisher:
            agents.append(WrongAggregatesAgent(index, params, values,
                                               rng=rng))
        elif index in silent_verifiers:
            agents.append(SilentVerifierAgent(index, params, values,
                                              rng=rng))
        else:
            agents.append(DMWAgent(index, params, values, rng=rng))
    protocol = DMWProtocol(params, agents)
    return protocol.execute(problem.num_tasks)


@pytest.fixture()
def problem():
    # All bids 3: maximal resolution slack, the friendliest case for a
    # corrupted value to try to slip through.
    return SchedulingProblem([[3]] * 5)


class TestBeyondThreshold:
    def test_within_bound_complaints_neutralize(self, params5, problem):
        """Control: c = 1 deviant alone -> complaint -> excluded -> the
        run completes correctly."""
        outcome = run_coalition(params5, problem, corrupt_publisher=4,
                                silent_verifiers=[])
        assert outcome.completed
        expected = MinWork().run(truthful_bids(problem))
        assert outcome.schedule == expected.schedule

    def test_suppressed_complaints_never_yield_wrong_outcome(self, params5,
                                                             problem):
        """The coalition: corrupt publisher 4 plus BOTH its assigned
        verifiers (3 and 2) staying silent — 3 coordinated deviants with
        c = 1.  The corrupted aggregate survives the complaint phase, but
        eq. (12) still fails on it: the run aborts; it never mis-resolves.
        """
        verifiers = params5.assigned_verifiers(4)
        outcome = run_coalition(params5, problem, corrupt_publisher=4,
                                silent_verifiers=verifiers)
        expected = MinWork().run(truthful_bids(problem))
        if outcome.completed:
            assert outcome.schedule == expected.schedule
            assert list(outcome.payments) == list(expected.payments)
        else:
            assert all(outcome.utility(i, problem) == 0 for i in range(5))

    def test_partial_suppression_still_detected(self, params5, problem):
        """Only ONE of the two assigned verifiers colludes: the other is
        honest, complains, and the run completes correctly — the c+1
        redundancy doing exactly its job."""
        verifiers = params5.assigned_verifiers(4)
        outcome = run_coalition(params5, problem, corrupt_publisher=4,
                                silent_verifiers=verifiers[:1])
        assert outcome.completed
        expected = MinWork().run(truthful_bids(problem))
        assert outcome.schedule == expected.schedule

    def test_safety_sweep_over_coalition_placements(self, params5):
        """Every (publisher, suppressed-verifier-subset) placement on a
        mixed instance: never a wrong outcome."""
        instance = SchedulingProblem([[2], [3], [2], [3], [2]])
        expected = MinWork().run(truthful_bids(instance))
        for publisher in range(5):
            verifiers = params5.assigned_verifiers(publisher)
            for suppress in ([], verifiers[:1], verifiers):
                outcome = run_coalition(params5, instance, publisher,
                                        suppress)
                if outcome.completed:
                    assert outcome.schedule == expected.schedule
                    assert list(outcome.payments) == \
                        list(expected.payments)
                else:
                    assert all(outcome.utility(i, instance) == 0
                               for i in range(5))
