#!/usr/bin/env python
"""The paper's future work: truthful scheduling on *related* machines.

The conclusion of the paper proposes "designing distributed versions of
the centralized mechanism for scheduling on related machines" as future
work.  This example runs the centralized half of that program — the
Archer-Tardos single-parameter domain with a monotone allocation and
exact discrete Myerson payments — and demonstrates why it is truthful:

1. providers bid an *inverse speed* from a published grid; tasks have
   public sizes;
2. the allocation is monotone (each provider's assigned work can only
   shrink as its bid rises) — the example prints the measured work curve;
3. Myerson threshold payments make truth-telling optimal — the example
   brute-forces every deviation for every provider and shows none helps;
4. as the negative control, the same payments on a deliberately
   non-monotone allocation ARE exploitable, and the harness exhibits the
   profitable lie.

Run:  python examples/related_machines.py
"""

import itertools

from repro.mechanisms.related import (
    MyersonRelatedMachines,
    assigned_work,
)
from repro.scheduling.schedule import Schedule

SIZES = [5, 4, 3, 2]         # public task sizes r_j
GRID = [1, 2, 3]             # legal inverse-speed bids
TYPES = [1, 2, 2]            # the providers' true inverse speeds


def main():
    mechanism = MyersonRelatedMachines(SIZES, GRID)
    print("Task sizes:", SIZES)
    print("Bid grid (inverse speeds):", GRID)
    print("True types:", TYPES)

    result = mechanism.run(TYPES)
    print("\nTruthful outcome:")
    for agent, bid in enumerate(TYPES):
        work = assigned_work(result.schedule, SIZES, agent)
        print("  provider %d: bid %d, work %.0f, payment %.1f, utility %+.1f"
              % (agent, bid, work, result.payments[agent],
                 result.utility(agent, bid, SIZES)))

    print("\nMonotonicity (provider 0's work as its bid rises, others "
          "truthful):")
    curve = mechanism.work_curve(list(TYPES), 0)
    for bid, work in zip(GRID, curve):
        print("  bid %d -> work %.0f" % (bid, work))
    assert all(b <= a + 1e-9 for a, b in zip(curve, curve[1:]))

    print("\nExhaustive deviation search (|grid|^1 deviations x %d "
          "providers x %d type profiles):" % (len(TYPES), len(GRID) ** 3))
    checked = 0
    for types in itertools.product(GRID, repeat=3):
        violation = mechanism.check_truthfulness(list(types))
        assert violation is None, violation
        checked += 1
    print("  %d profiles checked, 0 profitable deviations — truthful."
          % checked)

    print("\nNegative control: a non-monotone rule with the same payments")

    def perverse(inverse_speeds, sizes):
        slowest = max(range(len(inverse_speeds)),
                      key=lambda i: (inverse_speeds[i], i))
        return Schedule([slowest] * len(sizes), len(inverse_speeds))

    broken = MyersonRelatedMachines(SIZES, GRID, allocation=perverse)
    for types in itertools.product(GRID, repeat=2):
        violation = broken.check_truthfulness(list(types))
        if violation:
            agent, deviation, honest, deviating = violation
            print("  EXPLOITABLE: provider %d with type %d gains %+.1f by "
                  "bidding %d" % (agent, types[agent],
                                  deviating - honest, deviation))
            break
    print("\nMonotonicity is not decoration — it is the truthfulness "
          "boundary (Archer-Tardos).")


if __name__ == "__main__":
    main()
