"""Schnorr groups: the algebraic home of the DMW commitments.

Phase I of DMW publishes primes ``p, q`` with ``q | p - 1`` and two distinct
generators ``z1, z2`` of the order-``q`` subgroup of ``Z_p^*``.  All
commitments (``O``, ``Q``, ``R``) and the exponent-space degree-resolution
values (``Lambda``, ``Psi``) are elements of that subgroup; all *exponents*
(polynomial coefficients and shares) live in ``Z_q``.

See DESIGN.md decision 1 for why exponents are taken mod ``q`` even though
the journal text loosely says "mod p": the generators have order ``q``, so
``z1^x`` only depends on ``x mod q`` and eq. (12) itself reduces the Lagrange
coefficients mod ``q``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Iterable, Optional, Tuple

from . import backend, fastexp
from .modular import (NULL_COUNTER, OperationCounter, mod_exp, mod_inv,
                      mod_mul, popcount)
from .primes import find_subgroup_generator, generate_schnorr_parameters, is_prime


def _exp_work(exponent: int) -> int:
    """Square-and-multiply work of ``exponent`` (as ``count_exp`` adds)."""
    if exponent > 1:
        return exponent.bit_length() + popcount(exponent) - 2
    return 0


@dataclass(frozen=True)
class SchnorrGroup:
    """An order-``q`` subgroup of ``Z_p^*``.

    Attributes
    ----------
    p:
        Field prime; group elements are integers in ``[1, p-1]``.
    q:
        Prime order of the subgroup; exponents are integers mod ``q``.
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        if (self.p - 1) % self.q != 0:
            raise ValueError("q must divide p - 1")
        if not is_prime(self.q):
            raise ValueError("q=%d is not prime" % self.q)
        if not is_prime(self.p):
            raise ValueError("p=%d is not prime" % self.p)

    # -- group operations (all metered) -------------------------------------
    def exp(self, base: int, exponent: int,
            counter: OperationCounter = NULL_COUNTER) -> int:
        """Return ``base ** (exponent mod q) mod p``."""
        return mod_exp(base % self.p, exponent % self.q, self.p, counter)

    def mul(self, a: int, b: int, counter: OperationCounter = NULL_COUNTER) -> int:
        """Return ``a * b mod p``."""
        return mod_mul(a, b, self.p, counter)

    def div(self, a: int, b: int, counter: OperationCounter = NULL_COUNTER) -> int:
        """Return ``a * b^{-1} mod p``."""
        return mod_mul(a, mod_inv(b, self.p, counter), self.p, counter)

    def product(self, elements: Iterable[int],
                counter: OperationCounter = NULL_COUNTER) -> int:
        """Return the product of ``elements`` mod ``p`` (1 for empty input)."""
        result = 1
        for element in elements:
            result = mod_mul(result, element, self.p, counter)
        return result

    # -- membership / sampling ----------------------------------------------
    def contains(self, element: int) -> bool:
        """Return True if ``element`` lies in the order-``q`` subgroup."""
        return (0 < element < self.p
                and backend.ACTIVE.powmod(element, self.q, self.p) == 1)

    def random_exponent(self, rng: random.Random, nonzero: bool = False) -> int:
        """Draw a uniform exponent from ``Z_q`` (``Z_q^*`` if ``nonzero``)."""
        low = 1 if nonzero else 0
        return rng.randrange(low, self.q)

    def find_generator(self, rng: random.Random,
                       exclude: Tuple[int, ...] = ()) -> int:
        """Return a fresh generator of the subgroup, avoiding ``exclude``."""
        return find_subgroup_generator(self.p, self.q, rng, exclude)

    @property
    def p_bits(self) -> int:
        """Bit length of the field prime (the ``log p`` of Theorem 12)."""
        return self.p.bit_length()


@dataclass(frozen=True)
class GroupParameters:
    """A Schnorr group plus the two public generators ``z1, z2``.

    The discrete logarithm of ``z2`` base ``z1`` must be unknown to every
    agent for the Pedersen commitments to be hiding *and* binding; in this
    simulation the generators are drawn independently at setup time, which
    models a trusted parameter ceremony.
    """

    group: SchnorrGroup
    z1: int
    z2: int

    def __post_init__(self) -> None:
        if not self.group.contains(self.z1) or self.z1 == 1:
            raise ValueError("z1 is not a generator of the order-q subgroup")
        if not self.group.contains(self.z2) or self.z2 == 1:
            raise ValueError("z2 is not a generator of the order-q subgroup")
        if self.z1 == self.z2:
            raise ValueError("z1 and z2 must be distinct")

    # -- fixed-base fast paths (counted on the naive schedule) ---------------
    @cached_property
    def generator_tables(self) -> Tuple["fastexp.FixedBaseTable",
                                        "fastexp.FixedBaseTable"]:
        """The fixed-base tables of ``z1`` and ``z2``, bound on first use.

        Fetched once from the process-wide factory
        (:func:`~repro.crypto.fastexp.fixed_base_table`) and kept on the
        instance, so the hot path never looks them up again.  They are a
        per-process execution artefact: :meth:`__getstate__` leaves them
        out of every pickle, and ``==``/``hash`` ignore them.
        """
        group = self.group
        bits = group.q.bit_length()
        return (fastexp.fixed_base_table(self.z1, group.p, bits),
                fastexp.fixed_base_table(self.z2, group.p, bits))

    def __getstate__(self) -> Dict[str, Any]:
        # Only the dataclass fields travel: a copy rebuilds its tables on
        # first use in its own process.
        return {"group": self.group, "z1": self.z1, "z2": self.z2}

    def exp_z1(self, exponent: int,
               counter: OperationCounter = NULL_COUNTER) -> int:
        """Return ``z1 ** (exponent mod q) mod p`` via the fixed-base table.

        Counts exactly what :meth:`SchnorrGroup.exp` would: one ``exp``
        event with the square-and-multiply schedule of the reduced
        exponent.
        """
        if not fastexp.enabled():
            return self.group.exp(self.z1, exponent, counter)
        reduced = exponent % self.group.q
        counter.count_exp(reduced)
        return self.generator_tables[0].pow(reduced)

    def exp_z2(self, exponent: int,
               counter: OperationCounter = NULL_COUNTER) -> int:
        """Return ``z2 ** (exponent mod q) mod p`` via the fixed-base table."""
        if not fastexp.enabled():
            return self.group.exp(self.z2, exponent, counter)
        reduced = exponent % self.group.q
        counter.count_exp(reduced)
        return self.generator_tables[1].pow(reduced)

    def open_value(self, value: int, blinding: int,
                   counter: OperationCounter = NULL_COUNTER) -> int:
        """Return the Pedersen opening ``z1^value * z2^blinding mod p``.

        This is the left-hand side of eqs. (7)-(9) and (13) and the
        commitment function itself.  Both exponents walk their generator
        tables in one loop into one product.  Counted cost: two
        exponentiations plus one multiplication — identical to the naive
        evaluation order.
        """
        group = self.group
        if not fastexp.enabled():
            return group.mul(
                group.exp(self.z1, value, counter),
                group.exp(self.z2, blinding, counter),
                counter,
            )
        value %= group.q
        blinding %= group.q
        # Both square-and-multiply schedules (OperationCounter.count_exp),
        # charged in one step.
        work = 0
        if value > 1:
            work = value.bit_length() + popcount(value) - 2
        if blinding > 1:
            work += blinding.bit_length() + popcount(blinding) - 2
        counter.count_exp_batch(2, work)
        counter.count_mul()
        z1_table, z2_table = self.generator_tables
        z1_rows, z2_rows = z1_table.rows, z2_table.rows
        window, mask, modulus = z1_table.window, z1_table.mask, group.p
        result = 1
        row = 0
        # Both tables cover q's bit length with the same window, so the
        # reduced exponents never run past their rows.
        while value or blinding:
            digit = value & mask
            if digit:
                result = result * z1_rows[row][digit] % modulus
            digit = blinding & mask
            if digit:
                result = result * z2_rows[row][digit] % modulus
            value >>= window
            blinding >>= window
            row += 1
        return int(result)

    def charge_opening(self, value: int, blinding: int,
                       counter: OperationCounter = NULL_COUNTER) -> None:
        """Charge what :meth:`open_value` charges, computing nothing.

        For call sites that already know the opening's result (eq. (9)
        derived from eq. (8), a memoised eq. (13) pair): two
        exponentiations with the schedules of the reduced exponents, plus
        one multiplication.
        """
        q = self.group.q
        counter.count_exp_batch(2, _exp_work(value % q)
                                + _exp_work(blinding % q))
        counter.count_mul()

    def open_pair(self, first: int, second: int, blinding: int,
                  counter: OperationCounter = NULL_COUNTER
                  ) -> Tuple[int, int]:
        """Return the openings of ``first`` and ``second`` under one blinding.

        Equal to ``(open_value(first, blinding), open_value(second,
        blinding))``.  The two openings share ``z2^blinding`` (the ``Q``
        and ``R`` slots of a bid are blinded by the same coefficient of
        ``h``), so one loop walks three table rows: ``z1`` for each value
        and ``z2`` once.  Counted cost: the two :meth:`open_value`
        schedules.
        """
        if not fastexp.enabled():
            return (self.open_value(first, blinding, counter),
                    self.open_value(second, blinding, counter))
        group = self.group
        q = group.q
        first %= q
        second %= q
        blinding %= q
        counter.count_exp_batch(4, _exp_work(first) + _exp_work(second)
                                + 2 * _exp_work(blinding))
        counter.count_mul(2)
        z1_table, z2_table = self.generator_tables
        z1_rows, z2_rows = z1_table.rows, z2_table.rows
        window, mask, modulus = z1_table.window, z1_table.mask, group.p
        first_power = second_power = shared = 1
        row = 0
        while first or second or blinding:
            digit = first & mask
            if digit:
                first_power = first_power * z1_rows[row][digit] % modulus
            digit = second & mask
            if digit:
                second_power = second_power * z1_rows[row][digit] % modulus
            digit = blinding & mask
            if digit:
                shared = shared * z2_rows[row][digit] % modulus
            first >>= window
            second >>= window
            blinding >>= window
            row += 1
        return (int(first_power * shared % modulus),
                int(second_power * shared % modulus))

    def div_z1(self, value: int, exponent: int,
               counter: OperationCounter = NULL_COUNTER) -> int:
        """Return ``value / z1^(exponent mod q) mod p``.

        ``z1`` has order ``q``, so ``value / z1^x == value * z1^((-x) mod
        q)`` for every ``value``: one table walk and one multiplication, no
        inversion.  Counted cost: what ``group.div(value, exp_z1(exponent))``
        charges, one exponentiation, one inversion and one multiplication.
        """
        return self._div_power(0, value, exponent, counter)

    def div_z2(self, value: int, exponent: int,
               counter: OperationCounter = NULL_COUNTER) -> int:
        """Return ``value / z2^(exponent mod q) mod p`` (as :meth:`div_z1`)."""
        return self._div_power(1, value, exponent, counter)

    def _div_power(self, index: int, value: int, exponent: int,
                   counter: OperationCounter) -> int:
        group = self.group
        if not fastexp.enabled():
            base = (self.z1, self.z2)[index]
            return group.div(value, group.exp(base, exponent, counter),
                             counter)
        reduced = exponent % group.q
        counter.count_exp(reduced)
        counter.count_inv()
        counter.count_mul()
        power = self.generator_tables[index].pow(-reduced % group.q)
        return value * power % group.p

    @classmethod
    def generate(cls, q_bits: int, p_bits: int,
                 rng: Optional[random.Random] = None) -> "GroupParameters":
        """Generate fresh parameters of the requested sizes.

        When no ``rng`` is supplied, a generator seeded deterministically
        from the requested sizes is used so that repeated calls (and
        reruns) produce identical parameters — unseeded entropy would
        break bit-identical transcripts (dmwlint DMW001).
        """
        rng = rng or random.Random((q_bits << 16) | p_bits)
        p, q = generate_schnorr_parameters(q_bits, p_bits, rng)
        group = SchnorrGroup(p=p, q=q)
        z1 = group.find_generator(rng)
        z2 = group.find_generator(rng, exclude=(z1,))
        return cls(group=group, z1=z1, z2=z2)


def _precomputed(p: int, q: int, z1: int, z2: int) -> GroupParameters:
    return GroupParameters(group=SchnorrGroup(p=p, q=q), z1=z1, z2=z2)


def _generate_fixture(q_bits: int, p_bits: int, seed: int) -> GroupParameters:
    """Deterministically generate a reusable parameter set (test fixture)."""
    return GroupParameters.generate(q_bits, p_bits, random.Random(seed))


# Small deterministic parameter sets, generated once per process and cached.
# Tests use these to avoid re-running prime search in every test case.
_FIXTURE_CACHE = {}

#: (q_bits, p_bits) presets by human-readable size name.
FIXTURE_SIZES = {
    "tiny": (24, 40),
    "small": (40, 56),
    "medium": (64, 96),
    "large": (160, 512),
}


def fixture_group(size: str = "small") -> GroupParameters:
    """Return a cached deterministic :class:`GroupParameters` preset.

    Parameters
    ----------
    size:
        One of ``"tiny"``, ``"small"``, ``"medium"``, ``"large"`` — see
        :data:`FIXTURE_SIZES`.  The same object is returned on every call
        within a process.
    """
    if size not in FIXTURE_SIZES:
        raise KeyError("unknown fixture size %r; options: %s"
                       % (size, sorted(FIXTURE_SIZES)))
    if size not in _FIXTURE_CACHE:
        q_bits, p_bits = FIXTURE_SIZES[size]
        _FIXTURE_CACHE[size] = _generate_fixture(q_bits, p_bits, seed=0xD311 + q_bits)
    return _FIXTURE_CACHE[size]
