"""Substrate-fault tests: DMW under crash-stop agents and lossy links.

The paper's threat model tolerates up to ``c`` *faulty* participants: the
mechanism's properties degrade to "cannot be resolved" (Open Problem 11
discussion), never to a wrong outcome.  These tests inject network-level
faults (crashes, dropped links, in-flight corruption) and check exactly
that dichotomy: either the run completes with the correct MinWork outcome
or it aborts with utility zero — never a wrong allocation or payment.
"""

import random

import pytest

from repro.core.agent import DMWAgent
from repro.core.protocol import DMWProtocol
from repro.mechanisms.base import truthful_bids
from repro.mechanisms.minwork import MinWork
from repro.network.faults import FaultPlan
from repro.network.message import Message
from repro.scheduling.problem import SchedulingProblem


def run_with_faults(params, problem, fault_plan, seed=0, degraded=False):
    master = random.Random(seed)
    agents = [
        DMWAgent(index, params,
                 [int(problem.time(index, j))
                  for j in range(problem.num_tasks)],
                 rng=random.Random(master.getrandbits(64)))
        for index in range(problem.num_agents)
    ]
    protocol = DMWProtocol(params, agents, fault_plan=fault_plan)
    return protocol.execute(problem.num_tasks, degraded=degraded)


@pytest.fixture()
def problem(params5):
    return SchedulingProblem([
        [2, 1],
        [1, 3],
        [3, 2],
        [2, 2],
        [3, 3],
    ])


class TestCrashStop:
    def test_crash_before_start_aborts_in_bidding(self, params5, problem):
        plan = FaultPlan(crashed_from_round={3: 0})
        outcome = run_with_faults(params5, problem, plan)
        assert not outcome.completed
        assert outcome.abort.phase == "bidding"
        assert all(outcome.utility(i, problem) == 0 for i in range(5))

    def test_crash_mid_protocol_aborts(self, params5, problem):
        # Crash after the first auction's bidding round: the agent's
        # lambda/psi never arrives and (with min bid 1 needing all points)
        # resolution fails.
        plan = FaultPlan(crashed_from_round={2: 1})
        outcome = run_with_faults(params5, problem, plan)
        assert not outcome.completed

    def test_crash_in_payments_phase_blocks_dispensing(self, params5,
                                                       problem):
        # Rounds: 4 per auction x 2 tasks = 8; the payment round is 8.
        plan = FaultPlan(crashed_from_round={4: 8})
        outcome = run_with_faults(params5, problem, plan)
        assert not outcome.completed
        assert outcome.abort.phase == "payments"

    def test_no_wrong_outcome_under_any_single_crash(self, params5,
                                                     problem):
        """The safety dichotomy: complete-and-correct or abort."""
        expected = MinWork().run(truthful_bids(problem))
        for agent in range(5):
            for crash_round in range(0, 10, 3):
                plan = FaultPlan(crashed_from_round={agent: crash_round})
                outcome = run_with_faults(params5, problem, plan)
                if outcome.completed:
                    assert outcome.schedule == expected.schedule
                    assert list(outcome.payments) == \
                        list(expected.payments)
                else:
                    assert all(outcome.utility(i, problem) == 0
                               for i in range(5))


class TestDroppedLinks:
    def test_dropped_private_link_aborts(self, params5, problem):
        plan = FaultPlan(dropped_links={(0, 3)})
        outcome = run_with_faults(params5, problem, plan)
        assert not outcome.completed
        assert outcome.abort.phase == "bidding"
        assert outcome.abort.detected_by == 3
        assert outcome.abort.offender == 0

    def test_lossy_network_never_yields_wrong_outcome(self, params5,
                                                      problem):
        expected = MinWork().run(truthful_bids(problem))
        for seed in range(5):
            plan = FaultPlan(drop_probability=0.02,
                             rng=random.Random(seed))
            outcome = run_with_faults(params5, problem, plan, seed=seed)
            if outcome.completed:
                assert outcome.schedule == expected.schedule
            else:
                assert all(outcome.utility(i, problem) == 0
                           for i in range(5))


class TestCorruptedLinks:
    def test_corrupted_share_in_flight_detected(self, params5, problem):
        def corrupt(message):
            if message.kind != "share_bundle":
                return message
            task, (e, f, g, h) = message.payload  # the bundle's wire form
            q = params5.group.q
            return Message(sender=message.sender,
                           recipient=message.recipient, kind=message.kind,
                           payload=(task, ((e + 1) % q, f, g, h)),
                           field_elements=message.field_elements)

        plan = FaultPlan(corruptors={(1, 4): corrupt})
        outcome = run_with_faults(params5, problem, plan)
        assert not outcome.completed
        # The receiver blames the sender: the network is assumed obedient
        # in the paper's model, so an in-flight corruption is
        # indistinguishable from a corrupt sender.
        assert outcome.abort.detected_by == 4
        assert outcome.abort.offender == 1


def truncate(kind, keep, task=None):
    """Cut each ``kind`` record in flight to its first ``keep`` values
    (only ``task``'s, when given)."""
    def corrupt(message):
        if message.kind != kind:
            return message
        message_task, record = message.payload
        if task not in (None, message_task):
            return message
        return message._replace(payload=(message_task, tuple(record)[:keep]))

    return corrupt


#: kind -> (values kept, the receiver's abort reason).
TRUNCATIONS = {"share_bundle": (3, "agent 1 sent no share bundle"),
               "commitments": (2, "agent 1 published no commitments")}


class TestMalformedBiddingPayload:
    """A bidding record of the wrong arity is not stored, so the receiver
    blames its sender as if nothing had arrived."""

    @pytest.mark.parametrize("kind", sorted(TRUNCATIONS))
    def test_strict_mode_aborts_blaming_the_sender(self, params5, problem,
                                                    kind):
        keep, reason = TRUNCATIONS[kind]
        plan = FaultPlan(corruptors={(1, 4): truncate(kind, keep)})
        outcome = run_with_faults(params5, problem, plan)
        assert not outcome.completed
        abort = outcome.abort
        assert (abort.reason, abort.phase, abort.task) == (reason,
                                                           "bidding", 0)
        assert (abort.offender, abort.detected_by) == (1, 4)

    @pytest.mark.parametrize("kind", sorted(TRUNCATIONS))
    def test_degraded_mode_quarantines_the_task(self, params5, problem,
                                                kind):
        keep, reason = TRUNCATIONS[kind]
        plan = FaultPlan(corruptors={(1, 4): truncate(kind, keep, task=1)})
        outcome = run_with_faults(params5, problem, plan, degraded=True)
        assert outcome.completed and outcome.quarantined_tasks == (1,)
        abort = outcome.task_aborts[1]
        assert (abort.reason, abort.offender, abort.detected_by) == (
            reason, 1, 4)
        expected = MinWork().run(truthful_bids(problem))
        assert outcome.schedule.assignment[0] == \
            expected.schedule.assignment[0]
