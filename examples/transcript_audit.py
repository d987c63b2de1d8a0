#!/usr/bin/env python
"""Passive verification: audit a DMW execution from public data only.

The strategyproof-computing literature the paper builds on (Ng et al.;
Kang & Parkes' passive verification) asks: can a third party who merely
*observes* a mechanism's public traffic certify that the execution
followed the strategyproof specification?  For DMW the answer is yes —
every outcome-determining value is published or committed — and this
script demonstrates it:

1. run DMW honestly and audit the bulletin board: the auditor re-derives
   the full outcome (schedule + payments) from public messages alone and
   certifies it;
2. tamper with the recorded transcript (a forged ``Lambda`` value) and
   audit again: the forgery is pinpointed;
3. forge the *reported outcome* (swap a winner): the auditor's
   reconstruction disagrees and flags it.

Run:  python examples/transcript_audit.py
"""

import random

from repro.core import DMWParameters
from repro.core.agent import DMWAgent
from repro.core.audit import audit_protocol_run
from repro.core.protocol import DMWProtocol
from repro.core.rounds import LAMBDA_PSI
from repro.network.message import Message
from repro.scheduling import workloads


def build_and_run(parameters, problem, seed=0):
    master = random.Random(seed)
    agents = [
        DMWAgent(index, parameters,
                 [int(problem.time(index, j))
                  for j in range(problem.num_tasks)],
                 rng=random.Random(master.getrandbits(64)))
        for index in range(parameters.num_agents)
    ]
    protocol = DMWProtocol(parameters, agents)
    outcome = protocol.execute(problem.num_tasks)
    assert outcome.completed
    return protocol, outcome


def main():
    parameters = DMWParameters.generate(5, fault_bound=1)
    problem = workloads.random_discrete(5, 2, parameters.bid_values,
                                        random.Random(13))

    # --- 1. honest execution audits clean ---------------------------------
    protocol, outcome = build_and_run(parameters, problem)
    report = audit_protocol_run(protocol, outcome)
    print("Honest execution:")
    print("  reported schedule:       ", list(outcome.schedule.assignment))
    print("  auditor's reconstruction:",
          list(report.reconstructed_assignment))
    print("  auditor's payments:      ",
          list(report.reconstructed_payments))
    print("  verdict: %s (%d findings), auditor spent %d modular mults"
          % ("PASS" if report.ok else "FAIL", len(report.findings),
             report.operations["multiplication_work"]))
    assert report.ok

    # --- 2. a tampered transcript is pinpointed ---------------------------
    protocol, outcome = build_and_run(parameters, problem)
    board = protocol.network.bulletin_board
    for index, message in enumerate(board):
        if message.kind == LAMBDA_PSI.name:
            task, (lam, psi) = message.payload
            forged = parameters.group.mul(lam, parameters.z1)
            board[index] = Message(sender=message.sender, recipient=None,
                                   kind=message.kind,
                                   payload=(task, (forged, psi)),
                                   field_elements=message.field_elements)
            print("\nTampered with agent A%d's Lambda for task %d..."
                  % (message.sender + 1, task))
            break
    report = audit_protocol_run(protocol, outcome)
    print("  verdict: %s" % ("PASS" if report.ok else "FAIL"))
    for finding in report.findings:
        print("  finding [%s] task=%s: %s"
              % (finding.check, finding.task, finding.detail))
    assert not report.ok

    # --- 3. a forged reported outcome is caught ---------------------------
    protocol, outcome = build_and_run(parameters, problem)
    from repro.scheduling.schedule import Schedule
    forged_assignment = list(outcome.schedule.assignment)
    forged_assignment[0] = (forged_assignment[0] + 1) % 5
    outcome.schedule = Schedule(forged_assignment, 5)
    print("\nForged the reported winner of task 0...")
    report = audit_protocol_run(protocol, outcome)
    print("  verdict: %s" % ("PASS" if report.ok else "FAIL"))
    for finding in report.findings:
        print("  finding [%s]: %s" % (finding.check, finding.detail))
    assert not report.ok

    print("\nPassive verification works: the public transcript alone "
          "certifies (or refutes) any claimed DMW outcome.")


if __name__ == "__main__":
    main()
