"""Experiment E2 — Table 1, computation column.

Paper claim: MinWork computes in ``Theta(mn)`` elementary operations; each
DMW agent computes ``O(mn^2 log p)`` modular multiplications (Theorem 12).
This bench measures *counted* operations (not wall clock): comparisons for
MinWork, modular multiplication work (with exponentiations costed by
square-and-multiply) for DMW, over sweeps of ``n``, ``m``, and the group
size ``log p``.
"""

from _report import run_once, write_report

from repro.analysis import (
    fit_loglog_slope,
    measure_dmw,
    measure_minwork,
    render_table,
    sweep_agents,
    sweep_group_size,
    sweep_tasks,
)

AGENTS = (4, 6, 8, 10, 12)
TASKS = (1, 2, 4, 6, 8)
GROUP_SIZES = ("tiny", "small", "medium")


def measure_all():
    return {
        "minwork_n": sweep_agents(AGENTS, num_tasks=2,
                                  measure=measure_minwork),
        "dmw_n": sweep_agents(AGENTS, num_tasks=2, measure=measure_dmw),
        "minwork_m": sweep_tasks(TASKS, num_agents=6,
                                 measure=measure_minwork),
        "dmw_m": sweep_tasks(TASKS, num_agents=6, measure=measure_dmw),
        "dmw_p": sweep_group_size(GROUP_SIZES, num_agents=6, num_tasks=2),
    }


def test_table1_computation(benchmark):
    data = run_once(benchmark, measure_all)

    rows = []
    checks = [
        ("minwork_n", "n", lambda s: s.num_agents, 1.0, 0.2),
        # DMW per-agent work is O(n^2 log p); with the default bid set W
        # growing with n there are O(n log n)-ish subterms, so allow slack
        # above 2 but require clearly-below-cubic.
        ("dmw_n", "n", lambda s: s.num_agents, 2.0, 0.5),
        ("minwork_m", "m", lambda s: s.num_tasks, 1.0, 0.2),
        ("dmw_m", "m", lambda s: s.num_tasks, 1.0, 0.2),
    ]
    for key, variable, axis, predicted, tolerance in checks:
        samples = data[key]
        slope = fit_loglog_slope([axis(s) for s in samples],
                                 [s.computation for s in samples])
        rows.append([key.replace("_", " sweep "), variable, predicted,
                     slope, abs(slope - predicted) <= tolerance])
        assert abs(slope - predicted) <= tolerance, (key, slope)

    # The log p factor: computation grows with |p|, messages do not.
    p_rows = []
    for sample in data["dmw_p"]:
        p_rows.append([sample.p_bits, sample.messages, sample.computation])
    message_counts = {row[1] for row in p_rows}
    assert len(message_counts) == 1, "messages must not depend on log p"
    work = [row[2] for row in p_rows]
    assert work == sorted(work), "computation must grow with log p"
    # Affine in log p (a log-p-free term exists), hence sub-linear slope
    # but super-constant growth; the bound O(mn^2 log p) is respected.
    growth = work[-1] / work[0]
    bits_growth = p_rows[-1][0] / p_rows[0][0]
    assert 1.2 < growth <= bits_growth + 0.2

    report = "Table 1 (computation): measured scaling exponents\n"
    report += render_table(
        ["sweep", "variable", "predicted exp", "measured exp", "ok"], rows)
    report += "\n\nThe log p factor (DMW, n=6, m=2):\n"
    report += render_table(["|p| bits", "messages", "mod-mult work"], p_rows)
    report += ("\nwork grew %.2fx while |p| grew %.2fx; messages constant "
               "(affine-in-log-p, consistent with O(mn^2 log p))"
               % (growth, bits_growth))
    write_report("table1_computation", report)
