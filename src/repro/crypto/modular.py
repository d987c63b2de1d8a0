"""Counted modular arithmetic.

The computational-cost claims of the paper (Theorem 12, Table 1) are stated
in terms of modular multiplications, inversions, and exponentiations, with
exponentiation `x**z (mod p)` costed as `Theta(log z)` multiplications via
right-to-left binary decomposition (Knuth vol. 2).  To *measure* those costs
rather than assume them, every arithmetic routine in this module reports to
an :class:`OperationCounter`.

Values are computed by the active arithmetic engine (:mod:`.backend`:
pure-Python bigints by default, GMP ``mpz`` when the ``gmpy2`` backend is
selected) while the *cost* of each operation is accounted analytically —
identically across backends — using the same model the paper uses:

* ``mod_mul`` and ``mod_add``/``mod_sub`` count one ``mul``/``add`` each;
* ``mod_inv`` counts one ``inv`` (the paper assumes inversion costs the same
  as a multiplication, see Section 2.4);
* ``mod_exp`` counts the square-and-multiply schedule of the exponent:
  ``bit_length(z) - 1`` squarings plus ``popcount(z) - 1`` multiplications,
  all reported as ``mul``, plus one ``exp`` event for bookkeeping.

Counters are explicit objects, not global state: the caller owns the
counter, threads it through, and reads the totals.  A module-level
:data:`NULL_COUNTER` is used when metering is not wanted; it swallows events
with near-zero overhead.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, Iterator, Tuple

from . import backend as _backend


def _popcount_fallback(value: int) -> int:
    """Number of set bits of a non-negative ``value``, for Python 3.9."""
    return bin(value).count("1")


#: Number of set bits of a non-negative int: the C ``int.bit_count`` on
#: Python 3.10+, :func:`_popcount_fallback` on 3.9.  Bound once at import;
#: every popcount of the counted model goes through it.
popcount: Callable[[int], int] = getattr(int, "bit_count",
                                         _popcount_fallback)


def exp_work(exponent: int) -> int:
    """Square-and-multiply work of ``exponent >= 0``, as
    :meth:`OperationCounter.count_exp` adds it (for batched charges)."""
    if exponent > 1:
        return exponent.bit_length() + popcount(exponent) - 2
    return 0


def exp_work_total(exponents: Tuple[int, ...]) -> int:
    """The sum of :func:`exp_work` over ``exponents >= 0``, summed in C:
    ``bit_length + popcount - 2`` is the work of every exponent but 0,
    whose terms are all zero (and 1's sum is zero too)."""
    return (sum(map(int.bit_length, exponents)) + sum(map(popcount, exponents))
            - 2 * (len(exponents) - exponents.count(0)))


class OperationCounter:
    """Accumulates modular-arithmetic operation counts.

    Attributes
    ----------
    additions, multiplications, inversions, exponentiations:
        Raw event counts.
    multiplication_work:
        Total cost in *multiplication equivalents*: one per multiplication
        or inversion, plus the square-and-multiply schedule of every
        exponentiation.  This is the quantity Theorem 12 bounds by
        ``O(m n^2 log p)``.
    """

    __slots__ = (
        "additions",
        "multiplications",
        "inversions",
        "exponentiations",
        "multiplication_work",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        self.additions = 0
        self.multiplications = 0
        self.inversions = 0
        self.exponentiations = 0
        self.multiplication_work = 0

    # -- event sinks -------------------------------------------------------
    def count_add(self, times: int = 1) -> None:
        self.additions += times

    def count_mul(self, times: int = 1) -> None:
        self.multiplications += times
        self.multiplication_work += times

    def count_inv(self, times: int = 1) -> None:
        self.inversions += times
        self.multiplication_work += times

    def count_exp(self, exponent: int) -> None:
        """Record one exponentiation by ``exponent`` (non-negative)."""
        self.exponentiations += 1
        if exponent > 1:
            squarings = exponent.bit_length() - 1
            multiplies = popcount(exponent) - 1
            self.multiplication_work += squarings + multiplies

    def count_exp_batch(self, count: int, work: int) -> None:
        """Record ``count`` exponentiations totalling ``work`` multiplications.

        Bulk equivalent of ``count`` :meth:`count_exp` calls whose combined
        square-and-multiply schedules sum to ``work``; fast-path call sites
        use it to charge a precomputed schedule in one step (the totals are
        identical to the per-call accounting).
        """
        self.exponentiations += count
        self.multiplication_work += work

    # -- reporting ---------------------------------------------------------
    def snapshot(self) -> Dict[str, int]:
        """Return the counters as a plain dictionary."""
        return {
            "additions": self.additions,
            "multiplications": self.multiplications,
            "inversions": self.inversions,
            "exponentiations": self.exponentiations,
            "multiplication_work": self.multiplication_work,
        }

    def restore(self, snapshot: Dict[str, int]) -> None:
        """Overwrite every counter from a :meth:`snapshot` dictionary.

        The inverse of :meth:`snapshot`; checkpoint/resume uses it to
        re-establish an agent's accumulated Theorem 12 work exactly.
        """
        self.additions = snapshot["additions"]
        self.multiplications = snapshot["multiplications"]
        self.inversions = snapshot["inversions"]
        self.exponentiations = snapshot["exponentiations"]
        self.multiplication_work = snapshot["multiplication_work"]

    def merge(self, other: "OperationCounter") -> None:
        """Fold another counter's totals into this one."""
        self.additions += other.additions
        self.multiplications += other.multiplications
        self.inversions += other.inversions
        self.exponentiations += other.exponentiations
        self.multiplication_work += other.multiplication_work

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            "OperationCounter(mul={0.multiplications}, inv={0.inversions}, "
            "exp={0.exponentiations}, work={0.multiplication_work})".format(self)
        )


class _NullCounter(OperationCounter):
    """Counter that discards every event (used when metering is off)."""

    def count_add(self, times: int = 1) -> None:
        pass

    def count_mul(self, times: int = 1) -> None:
        pass

    def count_inv(self, times: int = 1) -> None:
        pass

    def count_exp(self, exponent: int) -> None:
        pass

    def count_exp_batch(self, count: int, work: int) -> None:
        pass

    def merge(self, other: "OperationCounter") -> None:
        # The null counter discards merged totals too: fast-path caches
        # replay memoised schedules via merge(), and those replays must
        # not accumulate in the shared NULL_COUNTER singleton.
        pass


NULL_COUNTER = _NullCounter()


@contextlib.contextmanager
def metered() -> Iterator[OperationCounter]:
    """Convenience context manager yielding a fresh counter.

    Example
    -------
    >>> with metered() as ops:
    ...     mod_exp(3, 20, 101, ops)
    ...
    >>> ops.exponentiations
    1
    """
    counter = OperationCounter()
    yield counter


def mod_add(a: int, b: int, modulus: int, counter: OperationCounter = NULL_COUNTER) -> int:
    """Return ``(a + b) mod modulus``, counting one addition."""
    counter.count_add()
    return (a + b) % modulus


def mod_sub(a: int, b: int, modulus: int, counter: OperationCounter = NULL_COUNTER) -> int:
    """Return ``(a - b) mod modulus``, counting one addition."""
    counter.count_add()
    return (a - b) % modulus


def mod_mul(a: int, b: int, modulus: int, counter: OperationCounter = NULL_COUNTER) -> int:
    """Return ``(a * b) mod modulus``, counting one multiplication."""
    counter.count_mul()
    return _backend.ACTIVE.mul(a, b, modulus)


def mod_exp(base: int, exponent: int, modulus: int,
            counter: OperationCounter = NULL_COUNTER) -> int:
    """Return ``base ** exponent mod modulus``.

    Negative exponents are resolved through a modular inverse of the base
    (``modulus`` must then be prime or the base a unit).  The cost model is
    right-to-left binary decomposition, as assumed by Theorem 12.
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    if exponent < 0:
        base = mod_inv(base, modulus, counter)
        exponent = -exponent
    counter.count_exp(exponent)
    return _backend.ACTIVE.powmod(base, exponent, modulus)


def mod_inv(a: int, modulus: int, counter: OperationCounter = NULL_COUNTER) -> int:
    """Return the multiplicative inverse of ``a`` modulo ``modulus``.

    Raises
    ------
    ZeroDivisionError
        If ``a`` is not invertible (``gcd(a, modulus) != 1``).
    """
    counter.count_inv()
    a %= modulus
    if a == 0:
        raise ZeroDivisionError("0 has no inverse modulo %d" % modulus)
    # The backend normalises the non-invertible error path to one
    # canonical ZeroDivisionError diagnostic, and the *counted* cost
    # stays one ``inv`` (the paper's Section 2.4 model) either way.
    return _backend.ACTIVE.invert(a, modulus)


def mod_div(a: int, b: int, modulus: int, counter: OperationCounter = NULL_COUNTER) -> int:
    """Return ``a * b^{-1} mod modulus`` (one inversion + one multiplication)."""
    return mod_mul(a, mod_inv(b, modulus, counter), modulus, counter)
