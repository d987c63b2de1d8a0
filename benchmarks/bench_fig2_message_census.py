"""Experiment E3 — the Fig. 2 message sequence, as a measured census.

Fig. 2 shows the sequence of messages one DMW auction exchanges: private
share bundles, published commitments, published (Lambda, Psi), disclosed
f-share rows, winner claims, published second-price values, and payment
claims.  This bench runs an honest 5-agent, 2-task execution and reports
the per-kind message counts next to the exact counts of
:func:`repro.core.rounds.theorem11_totals`, whose only per-task inputs
are read off the instance: the disclosure width ``d_t`` of the first
price and the number ``k_t`` of agents tied on it.
"""

import random

from _report import run_once, write_report

from repro.analysis import render_table
from repro.core import DMWParameters
from repro.core.protocol import run_dmw
from repro.core.rounds import ROUNDS, theorem11_totals
from repro.scheduling import workloads

N, M, C = 5, 2, 1


def run_protocol():
    parameters = DMWParameters.generate(N, fault_bound=C)
    problem = workloads.random_discrete(N, M, parameters.bid_values,
                                        random.Random(5))
    outcome = run_dmw(problem, parameters=parameters, rng=random.Random(6))
    assert outcome.completed
    return parameters, problem, outcome


def predicted_totals(parameters, problem):
    """The exact honest-run totals, from the instance alone."""
    disclosures = []
    for task in range(problem.num_tasks):
        bids = [int(problem.time(agent, task)) for agent in range(N)]
        first_price = min(bids)
        disclosures.append((parameters.disclosure_width(first_price),
                            bids.count(first_price)))
    return theorem11_totals(N, parameters.sigma, disclosures)


def test_fig2_message_census(benchmark):
    parameters, problem, outcome = run_once(benchmark, run_protocol)
    metrics = outcome.network_metrics
    measured = dict(metrics.by_kind)
    predicted = predicted_totals(parameters, problem)

    rows = []
    for kind in [kind.name for round_ in ROUNDS for kind in round_.kinds]:
        expected = predicted.by_kind[kind]
        rows.append([kind, measured.get(kind, 0), expected,
                     measured.get(kind, 0) == expected])
    assert measured == predicted.by_kind
    assert metrics.point_to_point_messages == predicted.messages
    assert metrics.field_elements == predicted.field_elements

    report = ("Fig. 2 message census (n=%d, m=%d, c=%d, honest run)\n"
              % (N, M, C))
    report += render_table(
        ["message kind (Fig. 2 order)", "measured", "predicted", "ok"], rows)
    report += ("\n\ntotals: %d point-to-point messages (predicted %d), "
               "%d field elements (predicted %d), %d synchronous rounds"
               % (metrics.point_to_point_messages, predicted.messages,
                  metrics.field_elements, predicted.field_elements,
                  metrics.rounds))
    write_report("fig2_message_census", report)
