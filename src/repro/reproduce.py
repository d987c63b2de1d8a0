"""One-command reproduction: regenerate every experiment's table.

``python -m repro reproduce`` runs compact versions of every experiment in
DESIGN.md's index (E1-E9 plus the X-extensions) and prints the same tables
the benchmark suite writes to ``benchmarks/results/`` — a self-contained
smoke-reproduction for a reader who wants the paper's story in one run.

The ``quick`` profile keeps everything under ~30 seconds; the ``full``
profile matches the benchmark suite's sweep sizes.
"""

from __future__ import annotations

import random
from typing import Dict

from .analysis import (
    adversarial_ratios,
    exposure_by_coalition_size,
    faithfulness_violations,
    fit_loglog_slope,
    leakage_report,
    measure_dmw,
    measure_minwork,
    participation_violations,
    render_table,
    run_deviation_matrix,
    sweep_agents,
)
from .analysis.resilience import resilience_sweep
from .core import DMWParameters
from .core.protocol import run_dmw
from .mechanisms import MinWork, truthful_bids
from .scheduling import workloads

#: Sweep sizes per profile.
PROFILES = {
    "quick": {"agents": (4, 6, 8), "deviant_indices": (0,),
              "privacy_n": 5, "adversarial": (2, 3, 4)},
    "full": {"agents": (4, 6, 8, 10, 12), "deviant_indices": (0, 2, 4),
             "privacy_n": 6, "adversarial": (2, 3, 4, 5, 6)},
}


def _section(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def reproduce_table1(profile: Dict) -> bool:
    _section("E1/E2 - Table 1: communication and computation scaling")
    agents = profile["agents"]
    rows = []
    ok = True
    for name, measure, msg_prediction, work_prediction in (
            ("minwork", measure_minwork, 1.0, 1.0),
            ("dmw", measure_dmw, 2.0, 2.0)):
        samples = sweep_agents(agents, num_tasks=2, measure=measure)
        msg_slope = fit_loglog_slope([s.num_agents for s in samples],
                                     [s.messages for s in samples])
        work_slope = fit_loglog_slope([s.num_agents for s in samples],
                                      [s.computation for s in samples])
        rows.append([name, msg_prediction, msg_slope, work_prediction,
                     work_slope])
        ok = ok and abs(msg_slope - msg_prediction) < 0.5 \
            and abs(work_slope - work_prediction) < 0.6
    print(render_table(
        ["mechanism", "msgs exp (paper)", "msgs exp (measured)",
         "work exp (paper)", "work exp (measured)"], rows))
    print("paper: MinWork Theta(mn)/Theta(mn); DMW Theta(mn^2)/"
          "O(mn^2 log p)")
    return ok


def reproduce_equivalence() -> bool:
    _section("E9 - faithful implementation: DMW outcome == MinWork outcome")
    rng = random.Random(0)
    ok = True
    for trial in range(5):
        parameters = DMWParameters.generate(5, fault_bound=1)
        problem = workloads.random_discrete(5, 2, parameters.bid_values,
                                            rng)
        outcome = run_dmw(problem, parameters=parameters,
                          rng=random.Random(trial))
        expected = MinWork().run(truthful_bids(problem))
        same = (outcome.completed
                and outcome.schedule == expected.schedule
                and list(outcome.payments) == list(expected.payments))
        ok = ok and same
    print("5/5 random instances: distributed schedule and payments "
          "identical to centralized MinWork" if ok
          else "MISMATCH FOUND — reproduction failure")
    return ok


def reproduce_faithfulness(profile: Dict) -> bool:
    _section("E5/E6 - Theorems 5 & 9: faithfulness, voluntary participation")
    parameters = DMWParameters.generate(5, fault_bound=1)
    problem = workloads.random_discrete(5, 2, parameters.bid_values,
                                        random.Random(11))
    outcomes = run_deviation_matrix(
        problem, parameters,
        deviant_indices=list(profile["deviant_indices"]))
    gains = faithfulness_violations(outcomes)
    losses = participation_violations(outcomes)
    print("%d deviation runs over %d strategies: %d profitable "
          "deviations, %d bystander losses"
          % (len(outcomes), len({o.strategy for o in outcomes}),
             len(gains), len(losses)))
    return not gains and not losses


def reproduce_privacy(profile: Dict) -> bool:
    _section("E7 - Theorem 10: collusion thresholds")
    n = profile["privacy_n"]
    parameters = DMWParameters.generate(n, fault_bound=1)
    problem = workloads.random_discrete(n, 2, parameters.bid_values,
                                        random.Random(9))
    rows = exposure_by_coalition_size(problem, parameters)
    print(render_table(["coalition size", "bids exposed", "bids attacked"],
                       [list(row) for row in rows]))
    # Coalitions of size <= c + 1 expose nothing.
    ok = all(exposed == 0 for size, exposed, _ in rows if size <= 2)
    print("coalitions of size <= c+1 = 2 expose nothing: %s"
          % ("confirmed" if ok else "VIOLATED"))
    return ok


def reproduce_approximation(profile: Dict) -> bool:
    _section("E8 - MinWork is an n-approximation (tight)")
    samples = adversarial_ratios(profile["adversarial"])
    print(render_table(["n", "MinWork makespan", "optimal", "ratio"],
                       [[s.num_agents, s.minwork_makespan,
                         s.optimal_makespan, s.ratio] for s in samples]))
    return all(abs(s.ratio - s.num_agents) < 1e-2 for s in samples)


def reproduce_extensions() -> bool:
    _section("X1/X2 - transcript leakage + Open Problem 11 threshold")
    parameters = DMWParameters.generate(5, fault_bound=1)
    problem = workloads.random_discrete(5, 1, parameters.bid_values,
                                        random.Random(3))
    outcome = run_dmw(problem, parameters=parameters)
    report = leakage_report(parameters, outcome.transcripts[0])
    print("transcript leakage: prior %.3f bits/loser, max leak %.3f, "
          "total %.3f" % (report.prior_bits, report.max_leak,
                          report.total_leak))
    rows = resilience_sweep(parameters)
    print(render_table(
        ["min bid", "predicted max deviators", "measured"],
        [[r.minimum_bid, r.predicted_threshold, r.measured_threshold]
         for r in rows]))
    return all(r.matches for r in rows)


def run_reproduction(profile_name: str = "quick") -> int:
    """Run every experiment; returns a process exit code (0 = all hold)."""
    if profile_name not in PROFILES:
        raise ValueError("unknown profile %r (options: %s)"
                         % (profile_name, sorted(PROFILES)))
    profile = PROFILES[profile_name]
    print("Reproducing Carroll & Grosu (PODC 2005 / JPDC 2011): "
          "Distributed MinWork")
    print("profile: %s" % profile_name)
    results = [
        ("Table 1 scaling", reproduce_table1(profile)),
        ("outcome equivalence", reproduce_equivalence()),
        ("faithfulness + participation", reproduce_faithfulness(profile)),
        ("privacy thresholds", reproduce_privacy(profile)),
        ("n-approximation", reproduce_approximation(profile)),
        ("extensions (leakage, resilience)", reproduce_extensions()),
    ]
    _section("SUMMARY")
    print(render_table(["experiment", "reproduced"],
                       [[name, ok] for name, ok in results]))
    return 0 if all(ok for _, ok in results) else 1
