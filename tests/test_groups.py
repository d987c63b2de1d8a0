"""Unit tests for repro.crypto.groups."""

import pickle
import random

import pytest

from repro.crypto.groups import (
    FIXTURE_SIZES,
    GroupParameters,
    SchnorrGroup,
    fixture_group,
)
from repro.crypto.modular import OperationCounter


class TestSchnorrGroup:
    def test_validates_divisibility(self):
        with pytest.raises(ValueError):
            SchnorrGroup(p=23, q=7)

    def test_validates_primality(self):
        with pytest.raises(ValueError):
            SchnorrGroup(p=23, q=22)  # 22 divides 22 but is composite
        with pytest.raises(ValueError):
            SchnorrGroup(p=25, q=3)

    def test_small_hand_group(self):
        # p=23, q=11: quadratic residues form the order-11 subgroup.
        group = SchnorrGroup(p=23, q=11)
        assert group.contains(4)  # 2^2
        assert group.contains(2)  # 2 has order 11 mod 23
        assert not group.contains(5)
        assert not group.contains(0)
        assert not group.contains(23)

    def test_exp_reduces_exponent_mod_q(self, group_small):
        group = group_small.group
        base = group_small.z1
        assert group.exp(base, 5) == group.exp(base, 5 + group.q)

    def test_mul_div_roundtrip(self, group_small):
        group = group_small.group
        a = group.exp(group_small.z1, 17)
        b = group.exp(group_small.z1, 23)
        assert group.div(group.mul(a, b), b) == a

    def test_product(self, group_small):
        group = group_small.group
        elements = [group.exp(group_small.z1, k) for k in range(1, 5)]
        assert group.product(elements) == group.exp(group_small.z1, 10)
        assert group.product([]) == 1

    def test_random_exponent_range(self, group_small, rng):
        group = group_small.group
        for _ in range(20):
            e = group.random_exponent(rng)
            assert 0 <= e < group.q
            e = group.random_exponent(rng, nonzero=True)
            assert 1 <= e < group.q

    def test_operations_are_metered(self, group_small):
        group = group_small.group
        counter = OperationCounter()
        group.exp(group_small.z1, 12345, counter)
        assert counter.exponentiations == 1
        assert counter.multiplication_work > 0


class TestGroupParameters:
    def test_generators_valid_and_distinct(self, group_small):
        group = group_small.group
        assert group.contains(group_small.z1)
        assert group.contains(group_small.z2)
        assert group_small.z1 != group_small.z2

    def test_rejects_identity_generator(self, group_small):
        with pytest.raises(ValueError):
            GroupParameters(group=group_small.group, z1=1, z2=group_small.z2)

    def test_rejects_equal_generators(self, group_small):
        with pytest.raises(ValueError):
            GroupParameters(group=group_small.group,
                            z1=group_small.z1, z2=group_small.z1)

    def test_rejects_non_member(self, group_small):
        group = group_small.group
        # Find an element outside the order-q subgroup.
        candidate = 2
        while group.contains(candidate):
            candidate += 1
        with pytest.raises(ValueError):
            GroupParameters(group=group, z1=candidate, z2=group_small.z2)

    def test_generate_fresh(self):
        params = GroupParameters.generate(16, 32, random.Random(5))
        assert params.group.q.bit_length() == 16
        assert params.group.p.bit_length() == 32

    def test_p_bits(self, group_small):
        assert group_small.group.p_bits == group_small.group.p.bit_length()


class TestFixtures:
    def test_fixture_cached(self):
        assert fixture_group("small") is fixture_group("small")

    def test_all_sizes_resolve(self):
        for size in ("tiny", "small"):
            params = fixture_group(size)
            q_bits, p_bits = FIXTURE_SIZES[size]
            assert params.group.q.bit_length() == q_bits
            assert params.group.p.bit_length() == p_bits

    def test_unknown_size_rejected(self):
        with pytest.raises(KeyError):
            fixture_group("colossal")


class TestLargeFixture:
    def test_large_group_well_formed(self):
        """The 160/512-bit preset generates and validates (cached once
        per process; this is the size a deployment would actually use)."""
        from repro.crypto.groups import fixture_group
        params = fixture_group("large")
        group = params.group
        assert group.q.bit_length() == 160
        assert group.p.bit_length() == 512
        assert group.contains(params.z1)
        assert group.contains(params.z2)
        assert pow(params.z1, group.q, group.p) == 1


def _fresh_twin(size="small"):
    """An unused GroupParameters equal to the shared fixture group."""
    fixture = fixture_group(size)
    return GroupParameters(group=fixture.group, z1=fixture.z1, z2=fixture.z2)


class TestBoundGeneratorTables:
    """A group binds its generator tables on first use, in its own process.

    The tables are an execution artefact: they never enter a pickle (pool
    work units, checkpoints and socket frames keep their size), and they
    take no part in equality or hashing.
    """

    def test_pickle_is_unchanged_by_use(self):
        group = _fresh_twin()
        before = pickle.dumps(group)
        group.open_value(12345, 678)
        group.exp_z1(91011)
        assert "generator_tables" in vars(group)
        assert pickle.dumps(group) == before

    def test_equal_and_hash_equal_to_an_unused_twin(self):
        used = _fresh_twin()
        used.open_value(3, 4)
        twin = _fresh_twin()
        assert "generator_tables" not in vars(twin)
        assert used == twin
        assert hash(used) == hash(twin)

    def test_unpickled_copy_rebuilds_the_tables(self):
        group = _fresh_twin()
        openings = [group.open_value(v, b) for v, b in ((0, 0), (5, 9),
                                                        (12345, 678))]
        copy = pickle.loads(pickle.dumps(group))
        assert "generator_tables" not in vars(copy)
        assert [copy.open_value(v, b) for v, b in ((0, 0), (5, 9),
                                                   (12345, 678))] == openings
        assert copy.exp_z2(77) == group.exp_z2(77)

    def test_pool_work_unit_does_not_grow_after_openings(self):
        from repro.core.parameters import DMWParameters
        from repro.core.protocol import run_dmw
        from repro.parallel import PoolSpec
        from repro.scheduling.problem import SchedulingProblem

        parameters = DMWParameters.generate(4, fault_bound=1,
                                            group_parameters=_fresh_twin())
        times = ((1, 2), (2, 1), (2, 2), (1, 1))
        problem = SchedulingProblem(times)
        spec = PoolSpec(parameters=parameters, true_values=times,
                        rng_roots=(11, 12, 13, 14))
        before = pickle.dumps((spec, 0))
        run_dmw(problem, parameters=parameters, rng=random.Random(5))
        assert "generator_tables" in vars(parameters.group_parameters)
        after = pickle.dumps((spec, 0))
        assert len(after) == len(before)
        assert after == before
