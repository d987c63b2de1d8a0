"""Polynomials over ``Z_q`` with metered Horner evaluation.

DMW encodes each bid in the *degree* of a randomly chosen polynomial with a
zero constant term (paper eq. (3): all sums start at ``l = 1``).  Agents
evaluate these polynomials at the published pseudonyms to produce shares;
Theorem 12 costs each evaluation at ``O(degree)`` multiplications via
Horner's rule, which is exactly what :meth:`Polynomial.evaluate` does.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from .modular import NULL_COUNTER, OperationCounter


class Polynomial:
    """An immutable polynomial ``a_0 + a_1 x + ... + a_d x^d`` over ``Z_q``.

    Coefficients are normalized mod ``q`` and trailing zero coefficients are
    stripped, so :attr:`degree` is always exact (the zero polynomial has
    degree ``-1`` by convention).
    """

    __slots__ = ("modulus", "coefficients")

    def __init__(self, coefficients: Sequence[int], modulus: int) -> None:
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        reduced = [c % modulus for c in coefficients]
        while reduced and reduced[-1] == 0:
            reduced.pop()
        self.modulus = modulus
        self.coefficients = tuple(reduced)

    # -- constructors --------------------------------------------------------
    @classmethod
    def zero(cls, modulus: int) -> "Polynomial":
        """Return the zero polynomial."""
        return cls((), modulus)

    @classmethod
    def random(cls, degree: int, modulus: int, rng: random.Random,
               zero_constant_term: bool = True) -> "Polynomial":
        """Draw a uniformly random polynomial of *exact* ``degree``.

        Parameters
        ----------
        degree:
            Exact degree; the leading coefficient is drawn from ``Z_q^*``.
            ``-1`` yields the zero polynomial; ``0`` with
            ``zero_constant_term=True`` is rejected (it would force the zero
            polynomial, contradicting exact degree 0).
        modulus:
            The field size ``q``.
        rng:
            Randomness source.
        zero_constant_term:
            When True (the DMW convention, eq. (3)), ``a_0 = 0``.
        """
        if degree < -1:
            raise ValueError("degree must be >= -1, got %d" % degree)
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        if degree == -1:
            return cls.zero(modulus)
        if degree == 0 and zero_constant_term:
            raise ValueError("degree 0 with zero constant term is impossible")
        # Coefficients below the leading one are rng.randrange(modulus),
        # the leading one rng.randrange(1, modulus), each drawn by the
        # rejection loop randrange runs on getrandbits: the same stream,
        # draw for draw.
        getrandbits = rng.getrandbits
        bits = modulus.bit_length()
        coefficients = [0] if zero_constant_term else []
        for _ in range(max(degree, 1) - len(coefficients)):
            draw = getrandbits(bits)
            while draw >= modulus:
                draw = getrandbits(bits)
            coefficients.append(draw)
        if degree >= 1:
            bound = modulus - 1
            bits = bound.bit_length()
            draw = getrandbits(bits)
            while draw >= bound:
                draw = getrandbits(bits)
            coefficients.append(1 + draw)
        return cls(coefficients, modulus)

    # -- basic queries ---------------------------------------------------------
    @property
    def degree(self) -> int:
        """Exact degree (``-1`` for the zero polynomial)."""
        return len(self.coefficients) - 1

    def coefficient(self, index: int) -> int:
        """Return the coefficient of ``x**index`` (0 beyond the degree)."""
        if index < 0:
            raise IndexError("coefficient index must be non-negative")
        if index >= len(self.coefficients):
            return 0
        return self.coefficients[index]

    def is_zero(self) -> bool:
        return not self.coefficients

    # -- arithmetic -------------------------------------------------------------
    def evaluate(self, x: int, counter: OperationCounter = NULL_COUNTER) -> int:
        """Evaluate at ``x`` by Horner's rule, counting one multiplication
        and one addition per stored coefficient (charged once per call)."""
        return evaluate_all((self,), (x,), counter)[0][0]

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.modulus != other.modulus:
            raise ValueError("polynomials over different moduli (%d vs %d)"
                             % (self.modulus, other.modulus))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        size = max(len(self.coefficients), len(other.coefficients))
        summed = [
            (self.coefficient(i) + other.coefficient(i)) % self.modulus
            for i in range(size)
        ]
        return Polynomial(summed, self.modulus)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        size = max(len(self.coefficients), len(other.coefficients))
        diffed = [
            (self.coefficient(i) - other.coefficient(i)) % self.modulus
            for i in range(size)
        ]
        return Polynomial(diffed, self.modulus)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.modulus)
        product = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients):
                product[i + j] += a * b
        # The constructor reduces every coefficient mod q.
        return Polynomial(product, self.modulus)

    def scale(self, scalar: int) -> "Polynomial":
        """Return ``scalar * self``."""
        scalar %= self.modulus
        return Polynomial([scalar * c for c in self.coefficients], self.modulus)

    # -- protocol conveniences -----------------------------------------------
    def shares_at(self, points: Sequence[int],
                  counter: OperationCounter = NULL_COUNTER) -> List[int]:
        """Evaluate at every point in ``points`` (the pseudonym list)."""
        return [row[0] for row in evaluate_all((self,), points, counter)]

    def padded_coefficients(self, size: int) -> List[int]:
        """Coefficients ``a_0 .. a_{size-1}`` padded with zeros.

        Commitment vectors have fixed length ``sigma`` regardless of the
        underlying degree (that is what hides the degree), so callers need
        zero-padded coefficient lists.
        """
        stored = len(self.coefficients)
        if size < stored:
            raise ValueError(
                "cannot pad degree-%d polynomial into %d coefficients"
                % (self.degree, size)
            )
        padded = [0] * size
        padded[:stored] = self.coefficients
        return padded

    # -- dunder plumbing -------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.modulus, self.coefficients) == (other.modulus, other.coefficients)

    def __hash__(self) -> int:
        return hash((self.modulus, self.coefficients))

    def __repr__(self) -> str:
        return "Polynomial(%r, modulus=%d)" % (list(self.coefficients), self.modulus)


def evaluate_all(polynomials: Sequence[Polynomial], points: Sequence[int],
                 counter: OperationCounter = NULL_COUNTER
                 ) -> List[List[int]]:
    """Evaluate every polynomial at every point by Horner's rule, in one
    pass: row ``i`` holds the values at ``points[i]``, in the order of
    ``polynomials``.

    Charges one multiplication and one addition per stored coefficient
    and point, in one ``count_mul`` and one ``count_add`` for all of
    them: the same totals as one :meth:`Polynomial.evaluate` call per
    polynomial and point.  Horner runs over the integers and reduces
    once at the end, which gives the same residue.
    """
    rows: List[List[int]] = [[] for _ in points]
    slots = 0
    for polynomial in polynomials:
        modulus = polynomial.modulus
        coefficients = polynomial.coefficients[::-1]
        slots += len(coefficients)
        for row, x in zip(rows, points):
            point = x % modulus
            result = 0
            for coefficient in coefficients:
                result = result * point + coefficient
            row.append(result % modulus)
    work = slots * len(rows)
    counter.count_mul(work)
    counter.count_add(work)
    return rows


def sum_polynomials(polynomials: Sequence[Polynomial], modulus: int) -> Polynomial:
    """Return the sum of ``polynomials`` (the ``E``/``F``/``H`` aggregates)."""
    total = Polynomial.zero(modulus)
    for polynomial in polynomials:
        total = total + polynomial
    return total
