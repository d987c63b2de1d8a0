"""Tests for repro.core.audit (passive transcript verification)."""

import random

import pytest

from repro.core.agent import DMWAgent
from repro.core.audit import audit_protocol_run
from repro.core.deviant import FalseDisclosureAgent, WithholdDisclosureAgent
from repro.core.protocol import DMWProtocol
from repro.mechanisms.base import truthful_bids
from repro.mechanisms.minwork import MinWork
from repro.network.message import Message


def run_protocol(params, problem, factories=None, seed=0):
    master = random.Random(seed)
    rows = [[int(problem.time(i, j)) for j in range(problem.num_tasks)]
            for i in range(problem.num_agents)]
    agents = []
    for index in range(problem.num_agents):
        rng = random.Random(master.getrandbits(64))
        if factories and index in factories:
            agents.append(factories[index](index, params, rows[index], rng))
        else:
            agents.append(DMWAgent(index, params, rows[index], rng=rng))
    protocol = DMWProtocol(params, agents)
    outcome = protocol.execute(problem.num_tasks)
    return protocol, outcome


@pytest.fixture()
def honest_run(params5, problem53):
    return run_protocol(params5, problem53)


class TestHonestAudit:
    def test_honest_run_passes(self, honest_run, problem53):
        protocol, outcome = honest_run
        report = audit_protocol_run(protocol, outcome)
        assert report.ok
        assert report.findings == []

    def test_reconstruction_matches_minwork(self, honest_run, problem53):
        protocol, outcome = honest_run
        report = audit_protocol_run(protocol, outcome)
        result = MinWork().run(truthful_bids(problem53))
        assert report.reconstructed_assignment == result.schedule.assignment
        assert report.reconstructed_payments == result.payments

    def test_auditor_reads_only_public_messages(self, honest_run):
        protocol, outcome = honest_run
        # No share_bundle (private channel) message appears on the board.
        kinds = {m.kind for m in protocol.network.published()}
        assert "share_bundle" not in kinds
        report = audit_protocol_run(protocol, outcome)
        assert report.ok

    def test_auditor_work_is_counted(self, honest_run):
        protocol, outcome = honest_run
        report = audit_protocol_run(protocol, outcome)
        assert report.operations["multiplication_work"] > 0

    def test_num_tasks_required_without_outcome(self, honest_run):
        protocol, _ = honest_run
        with pytest.raises(ValueError):
            audit_protocol_run(protocol)
        report = audit_protocol_run(protocol, num_tasks=3)
        assert report.ok


class TestTamperedTranscripts:
    def tamper(self, protocol, kind, mutate):
        """Replace the first board message of ``kind`` via ``mutate``."""
        board = protocol.network.bulletin_board
        for index, message in enumerate(board):
            if message.kind == kind:
                board[index] = mutate(message)
                return
        raise AssertionError("no message of kind %r" % kind)

    def test_tampered_lambda_detected(self, params5, problem53):
        protocol, outcome = run_protocol(params5, problem53)

        def mutate(message):
            task, (lam, psi) = message.payload
            bad = params5.group.mul(lam, params5.z1)
            return Message(sender=message.sender, recipient=None,
                           kind=message.kind, payload=(task, (bad, psi)),
                           field_elements=message.field_elements)

        self.tamper(protocol, "lambda_psi", mutate)
        report = audit_protocol_run(protocol, outcome)
        assert not report.ok
        assert any(f.check in ("lambda_psi", "first_price")
                   for f in report.findings)

    def test_tampered_disclosure_detected(self, params5, problem53):
        protocol, outcome = run_protocol(params5, problem53)

        def mutate(message):
            task, row = message.payload
            bad = dict(row)
            f_value, h_value = bad[0]
            bad[0] = ((f_value + 1) % params5.group.q, h_value)
            return Message(sender=message.sender, recipient=None,
                           kind=message.kind, payload=(task, bad),
                           field_elements=message.field_elements)

        self.tamper(protocol, "f_disclosure", mutate)
        report = audit_protocol_run(protocol, outcome)
        # The row is flagged; the outcome may still reconstruct from the
        # remaining rows (disclosure width carries +c slack).
        assert any(f.check == "f_disclosure" for f in report.findings)

    def test_wrong_reported_schedule_detected(self, params5, problem53):
        protocol, outcome = run_protocol(params5, problem53)
        # Forge the reported outcome: swap the winner of task 0.
        forged_assignment = list(outcome.schedule.assignment)
        forged_assignment[0] = (forged_assignment[0] + 1) % 5
        from repro.scheduling.schedule import Schedule
        outcome.schedule = Schedule(forged_assignment, 5)
        report = audit_protocol_run(protocol, outcome)
        assert not report.ok
        assert any(f.check == "outcome" for f in report.findings)

    def test_wrong_reported_payments_detected(self, params5, problem53):
        protocol, outcome = run_protocol(params5, problem53)
        forged = list(outcome.payments)
        forged[0] += 5
        outcome.payments = tuple(forged)
        report = audit_protocol_run(protocol, outcome)
        assert not report.ok

    def test_missing_commitments_detected(self, params5, problem53):
        protocol, outcome = run_protocol(params5, problem53)
        board = protocol.network.bulletin_board
        board[:] = [m for m in board
                    if not (m.kind == "commitments" and m.sender == 2)]
        report = audit_protocol_run(protocol, outcome)
        assert not report.ok
        assert any(f.check == "commitments" for f in report.findings)


class TestDeviantRunsStillAuditable:
    def test_tolerated_deviation_passes_audit(self, params5, problem53):
        """A completed run with a (detected, excluded) bad disclosure still
        audits clean on the *outcome* — the auditor flags the bad row but
        reconstructs the same result."""
        factories = {0: lambda i, p, t, r: FalseDisclosureAgent(i, p, t,
                                                                rng=r)}
        protocol, outcome = run_protocol(params5, problem53, factories)
        assert outcome.completed
        report = audit_protocol_run(protocol, outcome)
        assert any(f.check == "f_disclosure" for f in report.findings)
        assert report.reconstructed_assignment == \
            outcome.schedule.assignment
        assert report.reconstructed_payments == outcome.payments

    def test_withheld_disclosure_still_reconstructs(self, params5,
                                                    problem53):
        factories = {0: lambda i, p, t, r: WithholdDisclosureAgent(i, p, t,
                                                                   rng=r)}
        protocol, outcome = run_protocol(params5, problem53, factories)
        assert outcome.completed
        report = audit_protocol_run(protocol, outcome)
        assert report.ok
        assert report.reconstructed_assignment == \
            outcome.schedule.assignment


class TestMoreTampering:
    def test_tampered_second_price_detected(self, params5, problem53):
        protocol, outcome = run_protocol(params5, problem53)
        board = protocol.network.bulletin_board
        for index, message in enumerate(board):
            if message.kind == "second_price":
                task, (lam, psi) = message.payload
                bad = params5.group.mul(lam, params5.z1)
                board[index] = Message(sender=message.sender,
                                       recipient=None, kind=message.kind,
                                       payload=(task, (bad, psi)),
                                       field_elements=message.field_elements)
                break
        report = audit_protocol_run(protocol, outcome)
        assert any(f.check == "second_price" for f in report.findings)

    def test_forged_winner_claim_is_harmless(self, params5, problem53):
        """A claim injected into the record is tested by eq. (14) during
        reconstruction and discarded: the audit result is unchanged."""
        protocol, outcome = run_protocol(params5, problem53)
        board = protocol.network.bulletin_board
        # Forge a claim from an agent that did not win task 0.
        winner0 = outcome.transcripts[0].winner
        impostor = (winner0 + 1) % 5
        board.append(Message(sender=impostor, recipient=None,
                             kind="winner_claim", payload=(0, True),
                             field_elements=1))
        report = audit_protocol_run(protocol, outcome)
        assert report.ok
        assert report.reconstructed_assignment == \
            outcome.schedule.assignment

    def test_parallel_run_audits_clean(self, params5, problem53):
        master = random.Random(0)
        agents = [
            DMWAgent(i, params5,
                     [int(problem53.time(i, j)) for j in range(3)],
                     rng=random.Random(master.getrandbits(64)))
            for i in range(5)
        ]
        protocol = DMWProtocol(params5, agents)
        outcome = protocol.execute(3, parallel=True)
        assert outcome.completed
        report = audit_protocol_run(protocol, outcome)
        assert report.ok
        assert report.reconstructed_assignment == \
            outcome.schedule.assignment
