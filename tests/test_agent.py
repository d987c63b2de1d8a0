"""Unit tests for repro.core.agent (the suggested strategy)."""

import random

import pytest

from repro.core.agent import DMWAgent
from repro.core.exceptions import ParameterError, ProtocolAbort


def wire_agents(params, bids_per_agent, seed=0):
    """Create agents and exchange Phase II messages by hand."""
    master = random.Random(seed)
    agents = [
        DMWAgent(index, params, bids_per_agent[index],
                 rng=random.Random(master.getrandbits(64)))
        for index in range(params.num_agents)
    ]
    task = 0
    outputs = [agent.begin_task(task) for agent in agents]
    for sender, (commitments, bundles) in enumerate(outputs):
        for receiver in range(params.num_agents):
            if receiver != sender:
                agents[receiver].receive_commitments(task, sender, commitments)
        for recipient, bundle in bundles.items():
            agents[recipient].receive_bundle(task, sender, bundle)
    return agents


class TestConstruction:
    def test_true_values_validated(self, params5):
        with pytest.raises(ParameterError):
            DMWAgent(0, params5, [1, 99])

    def test_pseudonym_lookup(self, params5):
        agent = DMWAgent(3, params5, [1])
        assert agent.pseudonym == params5.pseudonyms[3]

    def test_choose_bid_is_truthful(self, params5):
        agent = DMWAgent(0, params5, [2, 3, 1])
        assert [agent.choose_bid(t) for t in range(3)] == [2, 3, 1]


class TestPhaseII:
    def test_begin_task_keeps_own_bundle(self, params5):
        agent = DMWAgent(0, params5, [2])
        commitments, bundles = agent.begin_task(0)
        assert commitments is not None
        assert 0 not in bundles  # own bundle retained, not sent
        assert len(bundles) == params5.num_agents - 1
        state = agent.task_state(0)
        assert 0 in state.received_bundles

    def test_share_check_passes_on_honest_exchange(self, params5):
        agents = wire_agents(params5, [[1], [2], [3], [2], [1]])
        for agent in agents:
            assert agent.check_shares(0) is None

    def test_missing_commitments_detected(self, params5):
        agents = wire_agents(params5, [[1], [2], [3], [2], [1]])
        del agents[1].task_state(0).commitments[3]
        abort = agents[1].check_shares(0)
        assert abort is not None
        assert abort.offender == 3
        assert abort.phase == "bidding"

    def test_missing_bundle_detected(self, params5):
        agents = wire_agents(params5, [[1], [2], [3], [2], [1]])
        del agents[2].task_state(0).received_bundles[4]
        abort = agents[2].check_shares(0)
        assert abort is not None
        assert abort.offender == 4


class TestPhaseIII:
    def run_aggregates(self, agents):
        published = {a.index: a.publish_aggregates(0) for a in agents}
        for agent in agents:
            agent.validate_aggregates(0, published)
        return published

    def test_aggregates_validate_everywhere(self, params5):
        agents = wire_agents(params5, [[1], [2], [3], [2], [1]])
        self.run_aggregates(agents)
        for agent in agents:
            assert set(agent.task_state(0).valid_lambdas) == set(range(5))

    def test_first_price_agreement(self, params5):
        agents = wire_agents(params5, [[2], [2], [3], [2], [3]])
        self.run_aggregates(agents)
        prices = {agent.resolve_first(0) for agent in agents}
        assert prices == {2}

    def test_disclosure_set_is_prefix(self, params5):
        agents = wire_agents(params5, [[2], [2], [3], [2], [3]])
        self.run_aggregates(agents)
        for agent in agents:
            agent.resolve_first(0)
        # y* = 2 -> width = y* + 1 + c = 4
        ranks = [agent.disclosure_rank(0) for agent in agents]
        assert ranks == [0, 1, 2, 3, None]
        rows = [agent.disclose_f_shares(0) for agent in agents]
        assert all(row is not None for row in rows[:4])
        assert rows[4] is None

    def test_full_local_pipeline(self, params5):
        agents = wire_agents(params5, [[2], [1], [3], [2], [3]])
        self.run_aggregates(agents)
        for agent in agents:
            assert agent.resolve_first(0) == 1
        rows = {a.index: a.disclose_f_shares(0) for a in agents
                if a.disclose_f_shares(0) is not None}
        for agent in agents:
            agent.validate_disclosures(0, rows)
            assert agent.find_winner(0) == 1
        published = {a.index: a.publish_excluded_aggregates(0)
                     for a in agents}
        for agent in agents:
            agent.validate_excluded_aggregates(0, published)
            assert agent.resolve_second(0) == 2

    def test_invalid_disclosure_excluded(self, params5):
        agents = wire_agents(params5, [[2], [1], [3], [2], [3]])
        self.run_aggregates(agents)
        for agent in agents:
            agent.resolve_first(0)
        rows = {a.index: a.disclose_f_shares(0) for a in agents
                if a.disclosure_rank(0) is not None}
        # Corrupt row 0.
        q = params5.group.q
        f_value, h_value = rows[0][2]
        rows[0] = dict(rows[0])
        rows[0][2] = ((f_value + 1) % q, h_value)
        # Agent 4's assigned disclosers are 0 and 1, so it complains
        # about the corrupted row 0; arbitration then removes it.
        complaints = agents[4].validate_disclosures(0, rows)
        assert complaints == [0]
        agents[4].arbitrate_disclosures(0, rows, complaints)
        valid = set(agents[4].task_state(0).valid_disclosures)
        assert 0 not in valid
        assert agents[4].find_winner(0) == 1  # still resolvable via others


class TestPhaseIV:
    def test_payment_claim_sums_second_prices(self, params5):
        agents = wire_agents(params5, [[2], [1], [3], [2], [3]])
        published = {a.index: a.publish_aggregates(0) for a in agents}
        for agent in agents:
            agent.validate_aggregates(0, published)
            agent.resolve_first(0)
        rows = {a.index: a.disclose_f_shares(0) for a in agents
                if a.disclosure_rank(0) is not None}
        for agent in agents:
            agent.validate_disclosures(0, rows)
            agent.find_winner(0)
        excluded = {a.index: a.publish_excluded_aggregates(0) for a in agents}
        for agent in agents:
            agent.validate_excluded_aggregates(0, excluded)
            agent.resolve_second(0)
        for agent in agents:
            claim = agent.payment_claim()
            assert claim == [0.0, 2.0, 0.0, 0.0, 0.0]

    def test_claim_before_resolution_aborts(self, params5):
        agent = DMWAgent(0, params5, [1])
        agent.begin_task(0)
        with pytest.raises(ProtocolAbort):
            agent.payment_claim()
