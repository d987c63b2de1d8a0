"""One recording, checked the same way on every driver and network.

For the sequential, phase-barrier and process-pool drivers, a
``TimeoutNetwork`` whose slow link a retry grace round recovers, and the
asyncio socket transport, one run with a message-recording
:class:`~repro.obs.recorder.Recorder` must satisfy:

* send + retransmit message events equal
  ``NetworkMetrics.point_to_point_messages``;
* the run report validates (the phase spans partition the totals);
* every completed auction records each of its protocol events once, and
  the run records one ``payments_dispensed``;
* every event and message event lies inside the span it names — in the
  pool run too, where the shards' records arrive through one merge.
"""

import random
from collections import Counter

import pytest

from repro.core.agent import DMWAgent
from repro.core.protocol import DMWProtocol
from repro.network.asynchronous import RetryPolicy, TimeoutNetwork
from repro.network.latency import LatencyModel
from repro.network.transport import create_transport
from repro.obs import Recorder, run_report, validate_run_report
from repro.obs.recorder import MESSAGE_EVENT_TYPES

PER_TASK_KINDS = ("auction_start", "aggregates_published",
                  "disclosures_published", "auction_resolved")

CONFIGS = ("sequential", "phase_barrier", "pool", "timeout_retry",
           "asyncio")


def _slow_link_network(num_agents):
    # Link (0, 1) delays exactly 0.15s: over the 0.1 barrier but inside
    # the first grace window, so every copy on it is retransmitted once
    # and recovered (as in tests/test_flight.py).
    model = LatencyModel(random.Random(0), base=0.001, jitter=0.0,
                         per_link_scale={(0, 1): 150.0})
    return TimeoutNetwork(num_agents, model, round_timeout=0.1,
                          extra_participants=1,
                          retry_policy=RetryPolicy(max_attempts=2))


def _run(config, params, problem):
    master = random.Random(3)
    agents = [DMWAgent(index, params,
                       [int(problem.time(index, task))
                        for task in range(problem.num_tasks)],
                       rng=random.Random(master.getrandbits(64)))
              for index in range(params.num_agents)]
    recorder = Recorder(message_capacity=65536)
    options = {}
    if config == "phase_barrier":
        options = {"parallel": True}
    elif config == "pool":
        options = {"parallel": True, "workers": 2}
    network = (_slow_link_network(params.num_agents)
               if config == "timeout_retry" else None)
    transport = (create_transport("asyncio", params.num_agents)
                 if config == "asyncio" else None)
    try:
        protocol = DMWProtocol(params, agents, network=network,
                               transport=transport, recorder=recorder)
        outcome = protocol.execute(problem.num_tasks, **options)
    finally:
        if transport is not None:
            transport.close()
    return outcome, agents, recorder


@pytest.mark.parametrize("config", CONFIGS)
def test_one_recording_per_driver_and_network(config, params5, problem53):
    outcome, agents, recorder = _run(config, params5, problem53)
    assert outcome.completed
    metrics = outcome.network_metrics
    if config == "timeout_retry":
        assert metrics.retransmissions > 0
        assert metrics.recovered_messages == metrics.retransmissions

    sent = [event for event in recorder.messages
            if event.type in MESSAGE_EVENT_TYPES]
    assert len(sent) == metrics.point_to_point_messages

    validate_run_report(run_report(outcome, agents=agents,
                                   recorder=recorder, parameters=params5))

    counts = Counter((event.kind, event.task) for event in recorder.events)
    for transcript in outcome.transcripts:
        for kind in PER_TASK_KINDS:
            assert counts[(kind, transcript.task)] == 1, (kind, transcript)
    assert counts[("payments_dispensed", None)] == 1

    spans = {span.span_id: span for span in recorder.spans}
    records = list(recorder.events) + list(recorder.messages)
    assert records
    for record in records:
        assert record.span_id in spans, record
        span = spans[record.span_id]
        assert span.start <= record.timestamp <= span.end, (record, span)
