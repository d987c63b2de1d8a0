"""The declared round schedule (:mod:`repro.core.rounds`), checked at runtime.

The table is the one declaration of the rounds, message kinds and costs
that Theorem 11 counts (the exact totals are pinned on every driver in
``tests/test_network_metrics.py``).  Every barrier the driver steps is
checked against it: a machine that sends a kind its round does not
declare raises :class:`~repro.core.exceptions.ScheduleError`, naming the
round, the kind and the sending agents, on every driver and transport,
in degraded mode too.
"""

import multiprocessing
import pickle
import random

import pytest

from repro.core import DMWParameters, ScheduleError
from repro.core.machine import AgentMachine
from repro.core.protocol import run_dmw
from repro.core.rounds import LAMBDA_PSI, ROUNDS, SECOND_PRICE, round_bounds
from repro.scheduling import workloads

N, M = 5, 2


@pytest.fixture(scope="module")
def instance():
    parameters = DMWParameters.generate(N, fault_bound=1,
                                        group_size="small")
    problem = workloads.random_discrete(N, M, parameters.bid_values,
                                        random.Random(5))
    return parameters, problem


def _run(instance, **keywords):
    parameters, problem = instance
    return run_dmw(problem, parameters=parameters, rng=random.Random(6),
                   **keywords)


class TestTable:
    def test_rounds_are_the_phase_span_names_in_order(self):
        assert [round_.name for round_ in ROUNDS] == [
            "bidding", "aggregation", "disclosure", "resolution",
            "payments"]

    def test_complaint_stage_labels_are_the_exported_ones(self):
        # dmw_complaints_total exports these labels.
        assert [(round_.complaint, round_.stage) for round_ in ROUNDS] == [
            (None, None),
            ("aggregate_complaint", "aggregates"),
            ("disclosure_complaint", "disclosures"),
            ("second_price_complaint", "second_price"),
            (None, None)]

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_round_bounds(self, m):
        assert round_bounds(m) == (5, 7 * m + 1)


def _aggregates_as_second_price(self, task, transport):
    """``send_aggregates`` publishing under the resolution round's kind."""
    published = self.agent.publish_aggregates(task)
    if published is not None:
        transport.publish(self.index, SECOND_PRICE.name, (task, published),
                          field_elements=2)


class TestBarrierCheck:
    @pytest.mark.parametrize("keywords", [
        pytest.param(dict(), id="sequential"),
        pytest.param(dict(parallel=True), id="phase_barrier"),
        pytest.param(dict(parallel=True, degraded=True),
                     id="phase_barrier_degraded"),
        pytest.param(dict(transport="asyncio"), id="asyncio"),
        # Forked workers inherit the patched machine; the error crosses
        # the process boundary by pickle.
        pytest.param(dict(parallel=True, workers=1), id="pool",
                     marks=pytest.mark.skipif(
                         multiprocessing.get_start_method() != "fork",
                         reason="pool workers do not fork")),
    ])
    def test_reordered_kind_raises_naming_round_kind_and_agents(
            self, instance, monkeypatch, keywords):
        monkeypatch.setattr(AgentMachine, "send_aggregates",
                            _aggregates_as_second_price)
        with pytest.raises(ScheduleError) as caught:
            _run(instance, **keywords)
        error = caught.value
        assert error.round == "aggregation"
        assert error.kind == SECOND_PRICE.name
        assert error.senders == tuple(range(N))
        assert "aggregation" in str(error)
        assert "second_price" in str(error)

    @pytest.mark.parametrize("published", [True, False],
                             ids=["publish", "unicast"])
    def test_undeclared_kind_names_its_only_sender(self, instance,
                                                   monkeypatch, published):
        original = AgentMachine.send_disclosure

        def send_disclosure(self, task, transport):
            original(self, task, transport)
            if self.index != 2:
                return
            if published:
                transport.publish(self.index, "side_channel", (task, None))
            else:
                transport.send(self.index, 0, "side_channel", (task, None))

        monkeypatch.setattr(AgentMachine, "send_disclosure", send_disclosure)
        with pytest.raises(ScheduleError) as caught:
            _run(instance)
        error = caught.value
        assert (error.round, error.kind, error.senders) == (
            "disclosure", "side_channel", (2,))
        assert "side_channel" in str(error) and "2" in str(error)

    def test_a_kind_of_another_round_raises_even_when_seen_before(
            self, instance, monkeypatch):
        """The second auction's aggregation round charges a kind the first
        auction's resolution round already charged: the check compares
        this barrier's counts, not the kinds seen so far."""
        original = AgentMachine.send_aggregates

        def send_aggregates(self, task, transport):
            if task == 0:
                original(self, task, transport)
            else:
                _aggregates_as_second_price(self, task, transport)

        monkeypatch.setattr(AgentMachine, "send_aggregates", send_aggregates)
        with pytest.raises(ScheduleError) as caught:
            _run(instance)
        assert caught.value.kind == SECOND_PRICE.name

    def test_error_pickles_intact(self):
        error = ScheduleError("aggregation", LAMBDA_PSI.name, [3, 1])
        copy = pickle.loads(pickle.dumps(error))
        assert (copy.round, copy.kind, copy.senders) == (
            "aggregation", "lambda_psi", (3, 1))
        assert str(copy) == str(error)
