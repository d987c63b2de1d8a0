"""Shared golden-capture helper for the transport differential suite.

``capture_run`` executes one DMW run through the public ``run_dmw`` entry
point and reduces it to the observables the transport refactor promises
to preserve bit-for-bit: outcome (completion, schedule, payments),
transcripts, per-agent Table 1 / Theorem 12 counters, network metric
totals, the message-event summary (stored as ``flight_summary``), and
cache statistics.

``tests/fixtures/transport_golden.json`` was generated by running
``python tests/golden_transport.py`` at the pre-refactor HEAD (the commit
before the pluggable-transport change); ``tests/test_transport.py``
re-captures the same seeds on every run and diffs against it.  Only its
``cache_stats`` were re-captured since, when commitment evaluation moved
from cached Straus tables to Horner in the exponent and second-price
resolution joined the execution cache (``straus_tables`` fell to 0, the
weight namespace gained one miss and n - 1 hits per task); every
outcome, counter and network field stayed byte-identical.
"""

from __future__ import annotations

import json
import os
import random
from typing import Any, Dict

from repro.core.parameters import DMWParameters
from repro.obs.recorder import Recorder
from repro.scheduling import workloads

#: (num_agents, num_tasks, seed) shapes pinned by the golden fixture.
GOLDEN_SHAPES = [(5, 3, 7), (4, 2, 11)]

#: Drivers captured per shape (asyncio is compared live, not via fixture).
GOLDEN_DRIVERS = ("sequential", "phase_barrier", "pool4")

FIXTURE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "fixtures", "transport_golden.json")


def capture_run(num_agents: int, num_tasks: int, seed: int,
                driver: str = "sequential",
                transport: str = "inprocess") -> Dict[str, Any]:
    """Run DMW and return the bit-identity observables as a JSON-able dict."""
    from repro.core.protocol import run_dmw

    parameters = DMWParameters.generate(num_agents, fault_bound=1,
                                        group_size="small")
    problem = workloads.random_discrete(num_agents, num_tasks,
                                        parameters.bid_values,
                                        random.Random(seed))
    recorder = Recorder(message_capacity=65536)
    kwargs: Dict[str, Any] = {}
    if driver == "phase_barrier":
        kwargs["parallel"] = True
    elif driver == "pool4":
        kwargs["parallel"] = True
        kwargs["workers"] = 4
    elif driver != "sequential":
        raise ValueError("unknown driver %r" % driver)
    if transport != "inprocess":
        # Only meaningful after the pluggable-transport refactor; the
        # pre-refactor capture never passes this.
        kwargs["transport"] = transport
    outcome = run_dmw(problem, parameters=parameters,
                      rng=random.Random(seed + 1), recorder=recorder,
                      **kwargs)
    assert outcome.completed, "golden shapes must complete"
    assert outcome.schedule is not None and outcome.payments is not None
    return {
        "completed": outcome.completed,
        "schedule": list(outcome.schedule.assignment),
        "payments": list(outcome.payments),
        "transcripts": [
            {
                "task": t.task,
                "first_price": t.first_price,
                "winner": t.winner,
                "second_price": t.second_price,
                "valid_aggregate_publishers": list(
                    t.valid_aggregate_publishers),
                "valid_disclosers": list(t.valid_disclosers),
            }
            for t in outcome.transcripts
        ],
        "agent_operations": [dict(snapshot)
                             for snapshot in outcome.agent_operations],
        "network": dict(outcome.network_metrics.as_dict()),
        "flight_summary": _stable_flight_summary(recorder),
        "cache_stats": dict(outcome.cache_stats),
    }


def _stable_flight_summary(recorder: Recorder) -> Dict[str, Any]:
    """The message summary minus fields that are capacity bookkeeping."""
    summary = dict(recorder.message_summary())
    summary.pop("capacity", None)
    return summary


def capture_all() -> Dict[str, Any]:
    fixture: Dict[str, Any] = {}
    for num_agents, num_tasks, seed in GOLDEN_SHAPES:
        for driver in GOLDEN_DRIVERS:
            key = "n%d_m%d_seed%d/%s" % (num_agents, num_tasks, seed, driver)
            fixture[key] = capture_run(num_agents, num_tasks, seed, driver)
    return fixture


def main() -> None:
    os.makedirs(os.path.dirname(FIXTURE_PATH), exist_ok=True)
    fixture = capture_all()
    with open(FIXTURE_PATH, "w") as handle:
        json.dump(fixture, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s (%d entries)" % (FIXTURE_PATH, len(fixture)))


if __name__ == "__main__":
    main()
