"""Property-based tests (hypothesis) on the core invariants.

Each property is a theorem-shaped statement the paper relies on:

* interpolation round-trips and degree resolution are exact;
* degree-encoded sharing sums resolve to the max encoded degree;
* Pedersen commitments verify exactly their own openings;
* MinWork is truthful and satisfies voluntary participation;
* DMW's distributed outcome equals centralized MinWork's (faithful
  implementation of the same social choice function).
"""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.parameters import DMWParameters
from repro.core.protocol import run_dmw
from repro.crypto.groups import fixture_group
from repro.crypto.interpolation import interpolate_at_zero, resolve_degree
from repro.crypto.polynomials import Polynomial, sum_polynomials
from repro.crypto.secretsharing import DegreeEncodingScheme, ShamirScheme
from repro.mechanisms.base import truthful_bids, unilateral_deviation
from repro.mechanisms.minwork import MinWork
from repro.scheduling.problem import SchedulingProblem
from repro.scheduling.schedule import Schedule

Q = 2 ** 61 - 1  # Mersenne prime: fast plain-int field


# -- strategies ---------------------------------------------------------------

def polynomials(min_degree=1, max_degree=8, zero_constant=True):
    return st.builds(
        lambda degree, seed: Polynomial.random(
            degree, Q, random.Random(seed),
            zero_constant_term=zero_constant),
        st.integers(min_degree, max_degree),
        st.integers(0, 2 ** 32),
    )


bid_matrices = st.integers(2, 5).flatmap(
    lambda n: st.integers(1, 3).flatmap(
        lambda m: st.lists(
            st.lists(st.floats(0.5, 99.5, allow_nan=False), min_size=m,
                     max_size=m),
            min_size=n, max_size=n,
        )
    )
)


# -- interpolation / sharing properties ----------------------------------------

class TestInterpolationProperties:
    @given(polynomials(zero_constant=False))
    def test_interpolation_recovers_constant_term(self, poly):
        points = list(range(1, poly.degree + 2))
        values = [poly.evaluate(x) for x in points]
        assert interpolate_at_zero(points, values, Q) == poly.coefficient(0)

    @given(polynomials())
    def test_degree_resolution_exact(self, poly):
        points = list(range(1, poly.degree + 3))
        values = [poly.evaluate(x) for x in points]
        assert resolve_degree(points, values, Q) == poly.degree

    @given(st.lists(polynomials(max_degree=6), min_size=1, max_size=5))
    def test_sum_degree_is_max(self, polys):
        total = sum_polynomials(polys, Q)
        # Leading terms cancel with probability ~1/Q: astronomically rare.
        expected = max(p.degree for p in polys)
        points = list(range(1, expected + 3))
        values = [total.evaluate(x) for x in points]
        assert resolve_degree(points, values, Q) == expected

    @given(polynomials(), st.integers(1, 100))
    def test_evaluation_additive(self, poly, x):
        other = Polynomial([0, 1, 2, 3], Q)
        assert (poly + other).evaluate(x) == \
            (poly.evaluate(x) + other.evaluate(x)) % Q


class TestSharingProperties:
    @given(st.integers(0, Q - 1), st.integers(2, 6), st.integers(0, 2 ** 32))
    def test_shamir_roundtrip(self, secret, threshold, seed):
        scheme = ShamirScheme(Q, threshold)
        points = list(range(1, threshold + 4))
        shares = scheme.share(secret, points, random.Random(seed))
        assert scheme.reconstruct(shares[:threshold]) == secret

    @given(st.integers(1, 8), st.integers(0, 2 ** 32))
    def test_degree_encoding_roundtrip(self, degree, seed):
        scheme = DegreeEncodingScheme(Q, list(range(1, 11)))
        sharing = scheme.share_degree(degree, random.Random(seed))
        assert scheme.resolve(list(sharing.shares)) == degree

    @given(st.lists(st.integers(1, 8), min_size=2, max_size=5),
           st.integers(0, 2 ** 32))
    def test_summed_sharings_reveal_only_max(self, degrees, seed):
        rng = random.Random(seed)
        scheme = DegreeEncodingScheme(Q, list(range(1, 12)))
        sharings = [scheme.share_degree(d, rng) for d in degrees]
        summed = scheme.sum_shares([s.shares for s in sharings])
        assert scheme.resolve(summed) == max(degrees)


class TestCommitmentProperties:
    @given(st.integers(0, 2 ** 40), st.integers(0, 2 ** 40),
           st.integers(1, 2 ** 40))
    def test_commitment_binding_on_distinct_values(self, value, blinding,
                                                   delta):
        from repro.crypto.commitments import PedersenCommitter
        params = fixture_group("small")
        committer = PedersenCommitter(params)
        q = params.group.q
        assume((value + delta) % q != value % q)
        commitment = committer.commit(value, blinding)
        assert committer.verify(commitment, value, blinding)
        assert not committer.verify(commitment, value + delta, blinding)


# -- mechanism properties -------------------------------------------------------

class TestMinWorkProperties:
    @given(bid_matrices, st.integers(0, 2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_truthfulness_under_random_deviation(self, rows, seed):
        problem = SchedulingProblem(rows)
        rng = random.Random(seed)
        mechanism = MinWork()
        truthful = truthful_bids(problem)
        baseline = mechanism.run(truthful)
        agent = rng.randrange(problem.num_agents)
        deviation = [rng.uniform(0.5, 120) for _ in range(problem.num_tasks)]
        deviated = mechanism.run(
            unilateral_deviation(truthful, agent, deviation))
        assert deviated.utility(agent, problem) <= \
            baseline.utility(agent, problem) + 1e-9

    @given(bid_matrices)
    @settings(max_examples=40, deadline=None)
    def test_voluntary_participation(self, rows):
        problem = SchedulingProblem(rows)
        result = MinWork().run(truthful_bids(problem))
        for agent in range(problem.num_agents):
            assert result.utility(agent, problem) >= -1e-9

    @given(bid_matrices)
    @settings(max_examples=40, deadline=None)
    def test_total_work_minimality(self, rows):
        problem = SchedulingProblem(rows)
        schedule = MinWork().allocate(problem)
        best = sum(min(problem.task_times(j))
                   for j in range(problem.num_tasks))
        assert schedule.total_work(problem) == pytest.approx(best)


# -- the headline end-to-end property --------------------------------------------

class TestDMWEquivalenceProperty:
    @given(st.integers(4, 6), st.integers(1, 2), st.integers(0, 2 ** 32))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_dmw_reproduces_minwork(self, n, m, seed):
        """Experiment E9: the faithful-implementation identity."""
        group = fixture_group("small")
        params = DMWParameters.generate(n, fault_bound=1,
                                        group_parameters=group)
        rng = random.Random(seed)
        rows = [[rng.choice(params.bid_values) for _ in range(m)]
                for _ in range(n)]
        problem = SchedulingProblem(rows)
        outcome = run_dmw(problem, parameters=params,
                          rng=random.Random(seed + 1))
        result = MinWork().run(truthful_bids(problem))
        assert outcome.completed
        assert outcome.schedule == result.schedule
        assert list(outcome.payments) == list(result.payments)


class TestSerializationProperties:
    @given(bid_matrices)
    @settings(max_examples=30, deadline=None)
    def test_problem_roundtrip(self, rows):
        from repro import serialization
        problem = SchedulingProblem(rows)
        assert serialization.loads(serialization.dumps(problem)) == problem

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_schedule_roundtrip(self, assignment):
        from repro import serialization
        schedule = Schedule(assignment, num_agents=4)
        assert serialization.loads(
            serialization.dumps(schedule)) == schedule


class TestFaithfulnessProperty:
    @given(st.integers(0, 4), st.integers(0, 12), st.integers(0, 2 ** 32))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_deviation_never_gains(self, deviant_index,
                                          strategy_index, seed):
        """Property form of Theorem 5: any (deviator, strategy, instance)
        triple yields gain <= 0 and no negative honest bystander."""
        from repro.analysis.faithfulness import evaluate_deviation
        from repro.core.deviant import standard_deviations
        params = DMWParameters.generate(
            5, fault_bound=1, group_parameters=fixture_group("small"))
        rng = random.Random(seed)
        rows = [[rng.choice(params.bid_values) for _ in range(2)]
                for _ in range(5)]
        problem = SchedulingProblem(rows)
        strategies = sorted(standard_deviations().items())
        name, factory = strategies[strategy_index % len(strategies)]
        outcome = evaluate_deviation(problem, params, name, factory,
                                     deviant_index, seed=seed)
        assert outcome.gain <= 1e-9, (name, outcome)
        assert outcome.min_honest_utility >= -1e-9, (name, outcome)
