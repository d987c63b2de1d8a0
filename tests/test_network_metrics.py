"""Theorem 11 exact message accounting and NetworkMetrics units.

The proof of Theorem 11 counts every published value as ``P - 1``
point-to-point copies (no broadcast facility), where ``P = n + 1``
participants (the ``n`` agents plus the payment infrastructure
endpoint).  An honest execution's exact totals follow from the round
schedule (:mod:`repro.core.rounds`) and, per task ``t``, two numbers
read off the instance: ``d_t = disclosure_width(y*_t)`` disclosers and
``k_t = #{i : b_i(t) = y*_t}`` claimants.  These tests pin every
driver's and transport's measured totals to
:func:`~repro.core.rounds.theorem11_totals` across an ``(n, m, c)``
grid, and unit-test ``merge``/``as_dict``/``from_dict``.
"""

import random

import pytest

from repro.core import DMWParameters
from repro.core.protocol import run_dmw
from repro.core.rounds import theorem11_totals
from repro.network.message import BROADCAST, Message
from repro.network.metrics import NetworkMetrics
from repro.scheduling import workloads


def _message(kind="x", sender=0, recipient=1, field_elements=1):
    return Message(sender=sender, recipient=recipient, kind=kind,
                   payload=None, field_elements=field_elements)


# ---------------------------------------------------------------------------
# Unit behaviour
# ---------------------------------------------------------------------------

class TestNetworkMetricsUnit:
    def test_unicast_counts_once(self):
        metrics = NetworkMetrics()
        metrics.record(_message(field_elements=3), num_agents=6)
        assert metrics.point_to_point_messages == 1
        assert metrics.broadcast_events == 0
        assert metrics.field_elements == 3
        assert metrics.by_kind["x"] == 1

    def test_broadcast_expands_to_n_minus_one_copies(self):
        metrics = NetworkMetrics()
        metrics.record(_message(recipient=BROADCAST, field_elements=2),
                       num_agents=6)
        assert metrics.point_to_point_messages == 5
        assert metrics.broadcast_events == 1
        assert metrics.field_elements == 10
        assert metrics.by_kind["x"] == 5

    def test_merge_adds_all_totals_and_kinds(self):
        left = NetworkMetrics()
        left.record(_message(kind="a"), num_agents=4)
        left.record(_message(kind="b", recipient=BROADCAST,
                             field_elements=2), num_agents=4)
        left.record_round()
        right = NetworkMetrics()
        right.record(_message(kind="a", field_elements=5), num_agents=4)
        right.record_round()
        right.record_round()
        left.merge(right)
        assert left.point_to_point_messages == 1 + 3 + 1
        assert left.broadcast_events == 1
        assert left.field_elements == 1 + 6 + 5
        assert left.rounds == 3
        assert left.by_kind == {"a": 2, "b": 3}

    def test_as_dict_is_stable_and_complete(self):
        metrics = NetworkMetrics()
        metrics.record(_message(kind="beta"), num_agents=3)
        metrics.record(_message(kind="alpha", recipient=BROADCAST),
                       num_agents=3)
        metrics.record_round()
        summary = metrics.as_dict()
        assert summary == {
            "point_to_point_messages": 3,
            "broadcast_events": 1,
            "field_elements": 3,
            "rounds": 1,
            "messages[alpha]": 2,
            "messages[beta]": 1,
        }
        # Per-kind keys come after the scalar totals, sorted by kind.
        assert list(summary)[4:] == ["messages[alpha]", "messages[beta]"]

    def test_from_dict_inverts_as_dict_on_fresh_metrics(self):
        restored = NetworkMetrics.from_dict(NetworkMetrics().as_dict())
        assert restored == NetworkMetrics()

    def test_from_dict_inverts_as_dict_with_retries_and_kinds(self):
        metrics = NetworkMetrics()
        metrics.record(_message(kind="beta"), num_agents=4)
        metrics.record(_message(kind="alpha", recipient=BROADCAST,
                                field_elements=2), num_agents=4)
        metrics.record(_message(kind="gamma", field_elements=3),
                       num_agents=4)
        metrics.record_retransmission(_message(kind="beta"))
        metrics.record_retransmission(_message(kind="gamma"))
        metrics.record_recovery()
        metrics.record_round()
        restored = NetworkMetrics.from_dict(metrics.as_dict())
        assert restored == metrics
        assert restored.retransmissions == 2
        assert restored.recovered_messages == 1
        assert restored.by_kind == {"alpha": 3, "beta": 2, "gamma": 2}
        assert restored.as_dict() == metrics.as_dict()


# ---------------------------------------------------------------------------
# Theorem 11 exact totals on real executions, on every driver
# ---------------------------------------------------------------------------

def _instance_disclosures(parameters, problem):
    """Each task's ``(d_t, k_t)``, read off the instance (not the run)."""
    n = parameters.num_agents
    pairs = []
    for task in range(problem.num_tasks):
        bids = [int(problem.time(agent, task)) for agent in range(n)]
        first_price = min(bids)
        pairs.append((parameters.disclosure_width(first_price),
                      bids.count(first_price)))
    return pairs


#: Driver axis: ``run_dmw`` keywords and the rounds an honest run takes
#: (four barriers per auction plus payments, or one barrier per round
#: when every auction shares them).
DRIVERS = {
    "sequential": (dict(), lambda m: 4 * m + 1),
    "phase_barrier": (dict(parallel=True), lambda m: 5),
    "pool": (dict(parallel=True, workers=1), lambda m: 4 * m + 1),
    "asyncio": (dict(transport="asyncio"), lambda m: 4 * m + 1),
}

GRID = [(4, 1, 1), (4, 3, 1), (5, 2, 1), (6, 2, 1), (6, 1, 2), (6, 3, 2)]

#: The pool and the socket transport cost a process or sockets per run,
#: so two grid points cover them.  Sequential cases keep plain ``n-m-c``
#: ids.
CASES = [pytest.param(driver, n, m, c, id=(
             "%d-%d-%d" % (n, m, c) if driver == "sequential"
             else "%s-%d-%d-%d" % (driver, n, m, c)))
         for driver in DRIVERS for n, m, c in GRID
         if driver in ("sequential", "phase_barrier")
         or (n, m, c) in ((4, 3, 1), (6, 1, 2))]


@pytest.mark.parametrize("driver,n,m,c", CASES)
def test_honest_run_matches_closed_form(driver, n, m, c):
    parameters = DMWParameters.generate(n, fault_bound=c,
                                        group_size="small")
    problem = workloads.random_discrete(n, m, parameters.bid_values,
                                        random.Random(7 * n + m + c))
    keywords, rounds = DRIVERS[driver]
    outcome = run_dmw(problem, parameters=parameters,
                      rng=random.Random(42), **keywords)
    assert outcome.completed
    expected = theorem11_totals(n, parameters.sigma,
                                _instance_disclosures(parameters, problem))
    metrics = outcome.network_metrics
    assert metrics.point_to_point_messages == expected.messages
    assert metrics.field_elements == expected.field_elements
    assert metrics.broadcast_events == expected.broadcasts
    assert dict(metrics.by_kind) == expected.by_kind
    assert metrics.rounds == rounds(m)


class TestExtraParticipantFanOut:
    """The broadcast fan-out contract with ``extra_participants=1``.

    DMW opts its payment endpoint into every broadcast explicitly, so
    each published message expands to exactly ``P - 1 = n`` copies —
    never ``num_participants`` by accident, never ``n - 1`` silently.
    """

    def test_default_fan_out_excludes_the_extra(self):
        from repro.network.simulator import SynchronousNetwork
        network = SynchronousNetwork(4, extra_participants=1)
        network.publish(0, "lambda_psi", None, field_elements=2)
        network.deliver()
        assert network.metrics.point_to_point_messages == 3
        assert network.metrics.field_elements == 6
        assert network.receive(4) == []

    def test_opted_in_fan_out_charges_n_copies(self):
        from repro.network.simulator import SynchronousNetwork
        network = SynchronousNetwork(4, extra_participants=1,
                                     broadcast_to_extras=True)
        network.publish(0, "lambda_psi", None, field_elements=2)
        network.deliver()
        assert network.metrics.point_to_point_messages == 4
        assert network.metrics.field_elements == 8
        assert len(network.receive(4)) == 1

    def test_protocol_network_pins_theorem11_copies(self):
        """A real run's broadcasts expand to n copies (P - 1, P = n + 1).

        This is the closed-form grid's ``copies = n`` assumption made
        explicit: the protocol's own network carries one extra
        participant and includes it in every broadcast.
        """
        n, m = 5, 2
        parameters = DMWParameters.generate(n, fault_bound=1,
                                            group_size="small")
        problem = workloads.random_discrete(n, m, parameters.bid_values,
                                            random.Random(5))
        outcome = run_dmw(problem, parameters=parameters,
                          rng=random.Random(9))
        assert outcome.completed
        metrics = outcome.network_metrics
        # lambda_psi: one broadcast per agent per task, n copies each.
        assert metrics.by_kind["lambda_psi"] == m * n * n
        assert metrics.by_kind["commitments"] == m * n * n
        assert metrics.by_kind["second_price"] == m * n * n


def test_parallel_run_same_totals_fewer_rounds():
    """Phase-parallel execution keeps the Theorem 11 message budget."""
    n, m = 5, 3
    parameters = DMWParameters.generate(n, fault_bound=1,
                                        group_size="small")
    problem = workloads.random_discrete(n, m, parameters.bid_values,
                                        random.Random(11))
    sequential = run_dmw(problem, parameters=parameters,
                         rng=random.Random(3))
    parallel = run_dmw(problem, parameters=parameters,
                       rng=random.Random(3), parallel=True)
    assert sequential.completed and parallel.completed
    seq = sequential.network_metrics
    par = parallel.network_metrics
    assert par.point_to_point_messages == seq.point_to_point_messages
    assert par.field_elements == seq.field_elements
    assert dict(par.by_kind) == dict(seq.by_kind)
    assert par.rounds == 5 < seq.rounds == 4 * m + 1
