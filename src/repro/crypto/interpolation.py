"""Lagrange interpolation and polynomial degree resolution (paper §2.4).

DMW determines auction outcomes by *degree resolution*: every bid is encoded
as the degree of a polynomial with zero constant term, the polynomials are
summed, and the degree of the sum (which equals the maximum per-agent degree,
hence the minimum bid) is found as the least ``d`` for which interpolating
``d + 1`` shares reproduces the constant term ``0``.

Two variants are provided:

* :func:`resolve_degree` works on plaintext shares (used for winner
  identification, eq. (14), after the relevant shares are disclosed);
* :func:`resolve_degree_in_exponent` works on *committed* shares
  ``Lambda_i = z1^{E(alpha_i)}`` (eq. (12)), testing
  ``prod_k Lambda_k^{rho_k} == 1`` without ever learning the shares.

Note on the off-by-one in the paper (DESIGN.md decision 2): interpolating a
degree-``d`` polynomial requires ``d + 1`` points, so the least ``s`` with
``f^{(s)}(0) = f(0)`` is ``d + 1``, not ``d``.  All functions here take and
return *degrees* and internally use ``degree + 1`` interpolation points,
keeping the protocol self-consistent.  A resolution test at a candidate
degree below the true degree passes accidentally with probability ``1/q``,
the same failure probability the paper cites.

Execution fast paths (see :mod:`repro.crypto.fastexp` and
``docs/PERFORMANCE.md``): inversions are batched with Montgomery's trick,
the exponent-space tests raise each base to its small signed Lagrange
weight (Straus multi-exponentiation when a weight has none), and both
the Lagrange weight vectors and whole resolutions can be memoised in a
per-execution :class:`~repro.crypto.fastexp.PublicValueCache`.  The
*counted* cost — one ``inv`` per Lagrange basis term, square-and-multiply
exponentiation — is charged on the paper's analytic schedule regardless,
including on cache hits (replayed against the caller's counter).

Every mod-mul, batch inversion, and multi-exponentiation here executes on
the active arithmetic engine (:mod:`repro.crypto.backend`), so selecting
the ``gmpy2`` backend accelerates degree resolution without touching the
counted schedule.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from . import backend, fastexp
from .fastexp import PublicValueCache, batch_mod_inv
from .groups import SchnorrGroup
from .modular import (
    NULL_COUNTER,
    OperationCounter,
    mod_add,
    mod_inv,
    mod_mul,
)


def lagrange_weights_at_zero(points: Sequence[int], modulus: int,
                             counter: OperationCounter = NULL_COUNTER) -> List[int]:
    """Return the Lagrange basis values ``L_k(0)`` for the given points.

    ``L_k(0) = prod_{i != k} alpha_i / (alpha_i - alpha_k) (mod modulus)``,
    i.e. the ``rho_k`` of eq. (12).  ``modulus`` must be prime and the points
    distinct, non-zero, and distinct mod ``modulus``.

    The denominators are inverted in one Montgomery batch; the counted cost
    stays one ``inv`` per basis term.
    """
    reduced = [point % modulus for point in points]
    if len(set(reduced)) != len(reduced):
        raise ValueError("interpolation points must be distinct mod modulus")
    if any(point == 0 for point in reduced):
        raise ValueError("interpolation points must be non-zero")
    numerators = []
    denominators = []
    for k, alpha_k in enumerate(reduced):
        numerator, denominator = 1, 1
        for i, alpha_i in enumerate(reduced):
            if i == k:
                continue
            numerator = mod_mul(numerator, alpha_i, modulus, counter)
            denominator = mod_mul(
                denominator, (alpha_i - alpha_k) % modulus, modulus, counter
            )
        numerators.append(numerator)
        denominators.append(denominator)
    inverses = batch_mod_inv(denominators, modulus, counter)
    return [mod_mul(numerator, inverse, modulus, counter)
            for numerator, inverse in zip(numerators, inverses)]


def _interpolation_charge(size: int, counter: OperationCounter) -> None:
    """Charge the naive :func:`interpolate_at_zero` schedule for ``size``
    points without recomputing: ``size^2 + 2 size + 1`` multiplications,
    ``2 size`` inversions, ``size`` additions (see the step-by-step
    accounting in the function body)."""
    counter.count_mul(size * size + 2 * size + 1)
    counter.count_inv(2 * size)
    counter.count_add(size)


def interpolate_at_zero(points: Sequence[int], values: Sequence[int],
                        modulus: int,
                        counter: OperationCounter = NULL_COUNTER,
                        cache: Optional[PublicValueCache] = None) -> int:
    """Return ``f^{(s)}(0)``, the paper's s-th Lagrange interpolation.

    This evaluates, at 0, the unique degree-``s-1`` polynomial through the
    ``s`` given ``(point, value)`` pairs.  It equals the true ``f(0)``
    whenever ``deg f <= s - 1``.

    Implemented with the three-step algorithm of §2.4 (psi / phi / sum),
    which costs ``Theta(s^2)`` multiplications — the figure Theorem 12
    builds on — with the denominator order of eq. (2), ``alpha_i - alpha_k``
    (the §2.4 listing transposes it, which only flips a sign).

    When ``cache`` is given, the point-set-dependent part (the combined
    weights ``phi(0) / (denominator_k * alpha_k)``) is memoised per
    ``(points, modulus)``, so repeated interpolations over the same share
    row cost ``s`` raw multiplications; the naive Theta(s^2) schedule is
    still charged to ``counter`` on every call.
    """
    if len(points) != len(values):
        raise ValueError("points and values must have equal length")
    if not points:
        raise ValueError("at least one interpolation point is required")
    reduced_points = [point % modulus for point in points]
    if not fastexp.enabled():
        # Reference path: exactly the counted §2.4 listing.
        # Step 1: psi_k = f(alpha_k) / prod_{i != k} (alpha_i - alpha_k)
        psi = []
        for k, alpha_k in enumerate(reduced_points):
            denominator = 1
            for i, alpha_i in enumerate(reduced_points):
                if i == k:
                    continue
                denominator = mod_mul(
                    denominator, (alpha_i - alpha_k) % modulus, modulus,
                    counter
                )
            psi.append(
                mod_mul(values[k] % modulus,
                        mod_inv(denominator, modulus, counter), modulus,
                        counter)
            )
        # Step 2: phi(0) = prod_k alpha_k
        phi = 1
        for alpha_k in reduced_points:
            phi = mod_mul(phi, alpha_k, modulus, counter)
        # Step 3: f^{(s)}(0) = phi(0) * sum_k psi_k / alpha_k
        total = 0
        for alpha_k, psi_k in zip(reduced_points, psi):
            total = mod_add(
                total,
                mod_mul(psi_k, mod_inv(alpha_k, modulus, counter), modulus,
                        counter),
                modulus, counter,
            )
        return mod_mul(phi, total, modulus, counter)
    size = len(reduced_points)
    key = None
    if cache is not None:
        key = ("rho", modulus, tuple(reduced_points))
        entry = cache.get_weights(key)
        if entry is not None:
            # Replay the naive schedule, then take the memoised shortcut:
            # f(0) = sum_k values[k] * rho_k with rho_k combining phi,
            # the step-1 denominator, and the step-3 alpha division.
            _interpolation_charge(size, counter)
            total = 0
            for value, rho in zip(values, entry):
                total += (value % modulus) * rho
            return total % modulus
    # Fast path, first computation: same counted schedule as the reference
    # listing (s^2 + 2s + 1 muls, 2s invs, s adds) with the 2s inversions
    # executed as two Montgomery batches.
    denominators = []
    for k, alpha_k in enumerate(reduced_points):
        denominator = 1
        for i, alpha_i in enumerate(reduced_points):
            if i == k:
                continue
            denominator = mod_mul(
                denominator, (alpha_i - alpha_k) % modulus, modulus, counter
            )
        denominators.append(denominator)
    inverse_denominators = batch_mod_inv(denominators, modulus, counter)
    psi = [mod_mul(values[k] % modulus, inverse_denominators[k], modulus,
                   counter)
           for k in range(size)]
    phi = 1
    for alpha_k in reduced_points:
        phi = mod_mul(phi, alpha_k, modulus, counter)
    inverse_alphas = batch_mod_inv(reduced_points, modulus, counter)
    total = 0
    for psi_k, inverse_alpha in zip(psi, inverse_alphas):
        total = mod_add(
            total,
            mod_mul(psi_k, inverse_alpha, modulus, counter),
            modulus, counter,
        )
    result = mod_mul(phi, total, modulus, counter)
    if key is not None:
        rho = tuple(
            (phi * inverse_denominators[k] * inverse_alphas[k]) % modulus
            for k in range(size)
        )
        cache.put_weights(key, rho)
    return result


def resolve_degree(points: Sequence[int], values: Sequence[int], modulus: int,
                   candidates: Optional[Sequence[int]] = None,
                   counter: OperationCounter = NULL_COUNTER,
                   cache: Optional[PublicValueCache] = None) -> Optional[int]:
    """Resolve the degree of a zero-constant-term polynomial from shares.

    Parameters
    ----------
    points, values:
        Shares ``(alpha_k, f(alpha_k))``; at least ``degree + 1`` of them
        must be supplied for the true degree to be detectable.
    modulus:
        The field prime ``q``.
    candidates:
        Candidate degrees to test, in the order given (callers pass them
        ascending so the least passing candidate is returned).  Defaults to
        ``1 .. len(points) - 1``.
    counter:
        Operation meter.
    cache:
        Optional per-execution :class:`PublicValueCache`; memoises the
        Lagrange weight vectors shared by every interpolation over the
        same point prefix.

    Returns
    -------
    The first candidate degree ``d`` such that the ``(d+1)``-point
    interpolation at zero vanishes, or ``None`` if no candidate passes.
    """
    if candidates is None:
        candidates = range(1, len(points))
    for degree in candidates:
        needed = degree + 1
        if needed > len(points):
            continue
        value = interpolate_at_zero(points[:needed], values[:needed],
                                    modulus, counter, cache)
        if value == 0:
            return degree
    return None


#: Largest magnitude of a signed eq. (12) weight raised directly:
#: C(33, 16) < 2^32, so contiguous pseudonym prefixes of up to 33 points fit.
SIGNED_WEIGHT_BOUND = 1 << 32


def _signed_weights(reduced: Sequence[int], order: int) -> Optional[List[int]]:
    """Each weight's least-magnitude representative mod ``order``, or
    ``None`` when one exceeds :data:`SIGNED_WEIGHT_BOUND` in magnitude."""
    signed: List[int] = []
    for weight in reduced:
        if weight > order - weight:
            weight -= order
        if abs(weight) > SIGNED_WEIGHT_BOUND:
            return None
        signed.append(weight)
    return signed


def _exponent_test(group: SchnorrGroup, values: Sequence[int],
                   weights: Sequence[int],
                   counter: OperationCounter) -> bool:
    """Return whether ``prod_k values[k] ** (weights[k] mod q) == 1 mod p``.

    The eq. (12) test, counted as per-term square-and-multiply plus one
    multiplication per term on every path.  At the pseudonyms ``1..d+1``
    the Lagrange weights are ``+-C(d+1, k)``, so each reduced weight is
    ``c`` or ``q - c`` with ``c`` small.  For a unit ``v``,
    ``v^(q-c) = v^q * v^(-c)``, so the product is 1 exactly when
    ``prod_pos v^c * (prod_neg v)^q == prod_neg v^c``: one full-width
    power instead of a Straus chain.  A base that is 0 mod ``p`` under a
    non-zero weight makes the product 0.  Weights with no small signed
    representative (a point set such as ``{1, 2, 4}``, left when a
    publisher is excluded) take Straus multi-exponentiation.
    """
    if not fastexp.enabled():
        product = 1
        for value, weight in zip(values, weights):
            product = group.mul(product, group.exp(value, weight, counter),
                                counter)
        return product == 1
    p, q = group.p, group.q
    reduced = [weight % q for weight in weights]
    for weight in reduced:
        counter.count_exp(weight)
    counter.count_mul(len(reduced))
    signed = _signed_weights(reduced, q)
    if signed is None:
        return fastexp.multi_exp(list(values), reduced, p) == 1
    powmod = backend.ACTIVE.powmod
    left = right = negative_bases = 1
    for value, weight in zip(values, signed):
        if weight == 0:
            continue
        value %= p
        if value == 0:
            return False
        if weight > 0:
            left = left * powmod(value, weight, p) % p
        else:
            right = right * powmod(value, -weight, p) % p
            negative_bases = negative_bases * value % p
    if negative_bases != 1:
        left = left * powmod(negative_bases, q, p) % p
    return left == right


def resolve_degree_in_exponent(group: SchnorrGroup, points: Sequence[int],
                               exponent_values: Sequence[int],
                               candidates: Optional[Sequence[int]] = None,
                               counter: OperationCounter = NULL_COUNTER,
                               incremental: bool = True,
                               cache: Optional[PublicValueCache] = None
                               ) -> Optional[int]:
    """Degree resolution on committed shares (eq. (12)).

    Parameters
    ----------
    group:
        A :class:`repro.crypto.groups.SchnorrGroup`; weights are computed
        mod ``group.q`` and the test product mod ``group.p``.
    points:
        The pseudonyms ``alpha_k``.
    exponent_values:
        The published ``Lambda_k = z1^{E(alpha_k)}``.
    candidates:
        Candidate degrees (ascending); defaults to ``1 .. len(points) - 1``.
    counter:
        Operation meter.
    incremental:
        When True (default) the Lagrange weights are *updated* as each new
        point joins the interpolation set — ``O(s)`` multiplications per
        step, ``O(n^2 log p)`` overall — which is the cost Theorem 12
        assumes.  ``False`` recomputes the weights from scratch at every
        candidate (``O(n^3)`` weight work), kept for the cost-model
        ablation benchmark.
    cache:
        Optional per-execution :class:`PublicValueCache`.  All honest
        agents resolve the *same* public ``(points, Lambda)`` inputs, so
        the whole resolution is memoised by content and replayed (result
        plus recorded counter deltas) for every subsequent agent.

    Returns
    -------
    The first candidate degree ``d`` with
    ``prod_{k=1}^{d+1} Lambda_k^{rho_k} == 1 (mod p)``, or ``None``.
    """
    if len(points) != len(exponent_values):
        raise ValueError("points and exponent values must have equal length")
    if candidates is None:
        candidates = range(1, len(points))
    candidates = list(candidates)
    if cache is not None and fastexp.enabled():
        key = ("resolve-exp", group.p, group.q, tuple(points),
               tuple(exponent_values), tuple(candidates), incremental)
        entry = cache.get_weights(key)
        if entry is not None:
            degree, recorded = entry
            counter.merge(recorded)
            return degree
        recorded = OperationCounter()
        degree = _resolve_degree_in_exponent(group, points, exponent_values,
                                             candidates, recorded,
                                             incremental)
        cache.put_weights(key, (degree, recorded))
        counter.merge(recorded)
        return degree
    return _resolve_degree_in_exponent(group, points, exponent_values,
                                       candidates, counter, incremental)


def _resolve_degree_in_exponent(group: SchnorrGroup, points: Sequence[int],
                                exponent_values: Sequence[int],
                                candidates: List[int],
                                counter: OperationCounter,
                                incremental: bool) -> Optional[int]:
    """Uncached body of :func:`resolve_degree_in_exponent`."""
    if not incremental:
        for degree in candidates:
            needed = degree + 1
            if needed > len(points):
                continue
            weights = lagrange_weights_at_zero(points[:needed], group.q,
                                               counter)
            if _exponent_test(group, exponent_values[:needed], weights,
                              counter):
                return degree
        return None
    # Incremental scan: maintain the weights for the current point prefix.
    # Adding alpha_new multiplies every existing weight by
    # alpha_new / (alpha_new - alpha_k) and computes the new point's own
    # weight as prod_i alpha_i / (alpha_i - alpha_new).  The per-step
    # divisor inversions run as one Montgomery batch (counted one ``inv``
    # each, the Theorem 12 schedule).
    q = group.q
    candidate_set = set(candidates)
    max_candidate = max(candidate_set) if candidate_set else 0
    reduced = [point % q for point in points]
    if len(set(reduced)) != len(reduced) or 0 in reduced:
        raise ValueError("points must be distinct and non-zero mod q")
    weights: list = []
    for size in range(1, min(len(points), max_candidate + 1) + 1):
        alpha_new = reduced[size - 1]
        differences = [(alpha_new - reduced[k]) % q for k in range(size - 1)]
        inverse_differences = batch_mod_inv(differences, q, counter)
        new_numerator, new_denominator = 1, 1
        for k in range(size - 1):
            alpha_k = reduced[k]
            weights[k] = mod_mul(
                weights[k],
                mod_mul(alpha_new, inverse_differences[k], q, counter),
                q, counter,
            )
            new_numerator = mod_mul(new_numerator, alpha_k, q, counter)
            new_denominator = mod_mul(new_denominator,
                                      (alpha_k - alpha_new) % q, q, counter)
        weights.append(mod_mul(new_numerator,
                               mod_inv(new_denominator, q, counter)
                               if size > 1 else 1, q, counter))
        degree = size - 1
        if degree not in candidate_set:
            continue
        if _exponent_test(group, exponent_values[:size], weights, counter):
            return degree
    return None
