"""Tests for repro.analysis.leakage (transcript information leakage)."""

import math

import pytest

from repro.analysis.leakage import (
    consistent_loser_profiles,
    entropy_bits,
    leakage_report,
    posterior_marginals,
    repeated_execution_leakage,
)
from repro.core.outcome import AuctionTranscript
from repro.core.protocol import run_dmw
from repro.scheduling.problem import SchedulingProblem


def make_transcript(task=0, first=1, winner=0, second=2):
    return AuctionTranscript(task=task, first_price=first, winner=winner,
                             second_price=second,
                             valid_aggregate_publishers=(),
                             valid_disclosers=())


class TestConsistency:
    def test_profiles_respect_second_price_floor(self, params5):
        transcript = make_transcript(first=1, winner=0, second=2)
        for profile in consistent_loser_profiles(params5, transcript):
            assert all(bid >= 2 for bid in profile.values())
            assert min(profile.values()) == 2

    def test_tie_break_constraint(self, params5):
        # Winner is agent 2: agents 0 and 1 (smaller pseudonyms) must bid
        # strictly above y*.
        transcript = make_transcript(first=2, winner=2, second=2)
        for profile in consistent_loser_profiles(params5, transcript):
            assert profile[0] > 2
            assert profile[1] > 2
            # and some loser (here necessarily 3 or 4) bids exactly 2
            assert min(profile[3], profile[4]) == 2

    def test_true_profile_is_always_consistent(self, params5):
        problem = SchedulingProblem([
            [2], [1], [3], [2], [3],
        ])
        outcome = run_dmw(problem, parameters=params5)
        transcript = outcome.transcripts[0]
        true_profile = {i: int(problem.time(i, 0)) for i in range(5)
                        if i != transcript.winner}
        profiles = list(consistent_loser_profiles(params5, transcript))
        assert true_profile in profiles


class TestPosterior:
    def test_marginals_are_distributions(self, params5):
        transcript = make_transcript(first=1, winner=0, second=1)
        marginals = posterior_marginals(params5, transcript)
        assert set(marginals) == {1, 2, 3, 4}
        for distribution in marginals.values():
            assert sum(distribution.values()) == pytest.approx(1.0)

    def test_high_second_price_pins_losers(self, params5):
        # y** = 3 (the max bid): every loser must bid exactly 3 — full
        # leak for every loser.
        transcript = make_transcript(first=3, winner=0, second=3)
        report = leakage_report(params5, transcript)
        for loser, bits in report.posterior_bits.items():
            assert bits == pytest.approx(0.0)
        assert report.max_leak == pytest.approx(report.prior_bits)

    def test_low_second_price_leaks_little(self, params5):
        # y** = 1 (the minimum): losers are barely constrained.
        transcript = make_transcript(first=1, winner=0, second=1)
        report = leakage_report(params5, transcript)
        prior = math.log2(3)
        # Most losers keep close to full entropy.
        assert any(bits > 0.8 * prior
                   for bits in report.posterior_bits.values())

    def test_entropy_bits(self):
        assert entropy_bits({1: 0.5, 2: 0.5}) == pytest.approx(1.0)
        assert entropy_bits({1: 1.0}) == pytest.approx(0.0)

    def test_inconsistent_transcript_rejected(self, params5):
        # winner 4 with y* = y** = 3 forces every smaller-pseudonym loser
        # to bid > 3: impossible with W = {1, 2, 3}.
        transcript = make_transcript(first=3, winner=4, second=3)
        with pytest.raises(ValueError):
            posterior_marginals(params5, transcript)


class TestRepeatedExecutions:
    def test_rerandomization_leaks_nothing_new(self, params5):
        """The Theorem 10 remark: repetitions over the same jobs give the
        observer the same transcript, hence the same posterior."""
        problem = SchedulingProblem([
            [2], [1], [3], [2], [3],
        ])
        reports = repeated_execution_leakage(problem, params5,
                                             repetitions=4)
        first = reports[0]
        for report in reports[1:]:
            assert report.leaked_bits == first.leaked_bits

    def test_aborting_instance_raises(self, params5):
        problem = SchedulingProblem([[7], [7], [7], [7], [7]])
        with pytest.raises(Exception):
            repeated_execution_leakage(problem, params5, repetitions=1)
