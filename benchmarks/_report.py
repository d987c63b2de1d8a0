"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's artifacts (Table 1, the
Fig. 2 message census, or a theorem-as-experiment) and writes the rendered
result to ``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can quote
measured output verbatim.  Benchmarks run their measurement exactly once
(``benchmark.pedantic(..., rounds=1)``) — the quantity of interest is the
*measured counts*, not the wall-clock of the measuring harness (wall-clock
is measured by the performance ledger, ``benchmarks/ledger/``).
"""

import os

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")


def write_report(name, text):
    """Write a rendered report table under ``benchmarks/results/``."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "%s.txt" % name)
    with open(path, "w") as handle:
        handle.write(text.rstrip() + "\n")
    print()
    print(text)
    return path


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
