"""Tests for the Open Problem 10 strawman (naive distributed MinWork)."""

import pytest

from repro.core.naive import NaiveAgent, NaiveDistributedMinWork, run_naive
from repro.core.protocol import run_dmw
from repro.mechanisms.base import truthful_bids
from repro.mechanisms.minwork import MinWork
from repro.scheduling.problem import SchedulingProblem


@pytest.fixture()
def problem():
    return SchedulingProblem([
        [2, 1],
        [1, 3],
        [3, 2],
        [2, 2],
        [3, 3],
    ])


class TestCorrectness:
    def test_matches_centralized(self, problem):
        outcome = run_naive(problem)
        expected = MinWork().run(truthful_bids(problem))
        assert outcome.completed
        assert outcome.schedule == expected.schedule
        assert outcome.payments == expected.payments

    def test_matches_dmw(self, problem, params5):
        naive = run_naive(problem)
        dmw = run_dmw(problem, parameters=params5)
        assert naive.schedule == dmw.schedule
        assert naive.payments == dmw.payments

    def test_needs_two_agents(self):
        with pytest.raises(ValueError):
            NaiveDistributedMinWork([NaiveAgent(0, [1])])

    def test_bid_row_length_checked(self, problem):
        agents = [NaiveAgent(i, problem.agent_times(i)) for i in range(5)]

        class ShortRow(NaiveAgent):
            def choose_bids(self):
                return [1.0]

        agents[0] = ShortRow(0, problem.agent_times(0))
        protocol = NaiveDistributedMinWork(agents)
        with pytest.raises(ValueError):
            protocol.execute(2)


class TestStrategicModel:
    def test_silent_agent_detected(self, problem):
        agents = [NaiveAgent(i, problem.agent_times(i)) for i in range(5)]

        class Silent(NaiveAgent):
            def choose_bids(self):
                return None

        agents[2] = Silent(2, problem.agent_times(2))
        protocol = NaiveDistributedMinWork(agents)
        outcome = protocol.execute(2)
        assert not outcome.completed
        assert outcome.abort.offender == 2

    def test_false_payment_claim_voids(self, problem):
        agents = [NaiveAgent(i, problem.agent_times(i)) for i in range(5)]

        class Inflator(NaiveAgent):
            def compute_outcome(self, num_agents):
                result = super().compute_outcome(num_agents)
                from repro.mechanisms.base import MechanismResult
                inflated = list(result.payments)
                inflated[self.index] += 7
                return MechanismResult(schedule=result.schedule,
                                       payments=tuple(inflated))

        agents[1] = Inflator(1, problem.agent_times(1))
        protocol = NaiveDistributedMinWork(agents)
        outcome = protocol.execute(2)
        assert not outcome.completed
        assert outcome.abort.phase == "payments"
        assert outcome.abort.offender == 1


class TestTheDeltaDMWBuys:
    def test_naive_exposes_every_bid_to_everyone(self, problem):
        """The privacy delta: after one round, every agent knows every
        bid — coalition size 1 'exposes' 100% of bids."""
        agents = [NaiveAgent(i, problem.agent_times(i)) for i in range(5)]
        protocol = NaiveDistributedMinWork(agents)
        protocol.execute(2)
        for observer in agents:
            assert set(observer.observed_bids) == set(range(5))
            for target in range(5):
                assert observer.observed_bids[target] == \
                    problem.agent_times(target)

    def test_naive_is_computationally_cheaper(self, problem, params5):
        naive = run_naive(problem)
        dmw = run_dmw(problem, parameters=params5)
        assert naive.max_agent_work * 50 < dmw.max_agent_work

    def test_message_volume_same_order(self, problem, params5):
        """Both pay the broadcast bill: the gap is a constant factor, not
        a factor of n."""
        naive = run_naive(problem)
        dmw = run_dmw(problem, parameters=params5)
        ratio = (dmw.network_metrics.point_to_point_messages
                 / naive.network_metrics.point_to_point_messages)
        assert 1 < ratio < 30
