"""Execution fast paths for the DMW hot loop (counted model unchanged).

The paper costs everything in *modular multiplications* under a fixed
analytic schedule — square-and-multiply exponentiation, one inversion per
Lagrange basis term (Theorem 12, Table 1).  This module makes the
*measured* implementation dramatically faster while keeping that *counted*
model bit-for-bit identical:

* :class:`FixedBaseTable` — windowed fixed-base precomputation for the
  public generators ``z1``/``z2``, built once per ``(base, modulus)`` by
  the process-wide factory (:func:`fixed_base_table`) and bound to each
  :class:`~repro.crypto.groups.GroupParameters` on first use;
* :func:`multi_exp` — Straus/Shamir simultaneous multi-exponentiation for
  products with full-size exponents: batched share verification and the
  degree-resolution products ``prod_k Lambda_k^{rho_k}`` whose weights
  have no small signed representative;
* :func:`horner_multi_exp` — Horner in the exponent for commitment-vector
  evaluations ``prod_l C_l^{alpha^l}`` at the small public pseudonyms;
* :func:`batch_mod_inv` — Montgomery's batch-inversion trick (one real
  inversion plus ``3(k-1)`` multiplications for ``k`` inverses);
* :class:`PublicValueCache` — a per-execution memo for publicly derivable
  values (``Gamma_{i,k}``, ``Phi_{i,k}``, commitment evaluations, Lagrange
  weight vectors, first- and second-price resolutions, openings of the
  disclosed eq. (13) pairs) so the ``O(n^2)``
  Phase-III verification loops compute each public value exactly once per
  execution.

Counting discipline
-------------------
Every fast-path call site charges the caller's
:class:`~repro.crypto.modular.OperationCounter` with the *naive* schedule
(the one the reference implementation would have executed), regardless of
how the value is actually produced — including on cache hits, where the
memoised schedule is replayed against the requesting agent's counter.
This keeps the Table-1/Theorem-12 benches unchanged while wall-clock
drops; see ``docs/PERFORMANCE.md`` for the full counted-vs-measured
contract.

Cache scoping
-------------
A :class:`PublicValueCache` is keyed purely by content (commitment
elements, evaluation point, modulus), so a stale hit is mathematically
impossible.  Scoping is nonetheless strict: the protocol creates one
fresh cache per :meth:`~repro.core.protocol.DMWProtocol.execute` call and
shares it across that execution's agents.  The one exception is in
process: the service's warm store
(:class:`~repro.service.warmcache.WarmCacheStore`) seeds a sequential or
barrier job's cache with earlier same-group jobs' entries.  No cache
entry crosses a process boundary: every pool shard starts cold.

Use :func:`naive_mode` to disable every fast path and fall back to the
reference implementations (the equivalence property tests in
``tests/test_fastexp.py`` assert byte-identical outcomes, transcripts and
counter totals between the two paths).
"""

from __future__ import annotations

import contextlib
import math
from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from . import backend as _backend
from .modular import NULL_COUNTER, OperationCounter

#: Cache keys/entries are heterogeneous tuples (namespace tag + ints);
#: the cache itself is shape-agnostic, so both sides are Tuple[Any, ...].
CacheKey = Tuple[Any, ...]
CacheEntry = Tuple[Any, ...]

#: Module-wide switch consulted by every fast-path call site.
_ENABLED = True


def enabled() -> bool:
    """Return True when the execution fast paths are active."""
    return _ENABLED


@contextlib.contextmanager
def naive_mode() -> Iterator[None]:
    """Disable every fast path within the block (reference semantics).

    Used by the equivalence property tests and the ablation benchmarks;
    nesting is safe and the previous state is always restored.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


# ---------------------------------------------------------------------------
# Fixed-base windowed exponentiation
# ---------------------------------------------------------------------------

class FixedBaseTable:
    """Windowed precomputation table for one fixed base.

    Stores ``base^(d * 2^(w*j)) mod modulus`` for every window digit ``d``
    and window index ``j``, so an exponentiation by an ``exponent_bits``-bit
    exponent costs at most ``ceil(exponent_bits / w)`` table lookups and
    multiplications — no squarings at all.  Building the table costs
    ``ceil(exponent_bits / w) * (2^w - 1)`` multiplications, amortised over
    the thousands of ``z1``/``z2`` exponentiations a protocol run performs.
    """

    __slots__ = ("base", "modulus", "window", "mask", "rows")

    def __init__(self, base: int, modulus: int, exponent_bits: int,
                 window: int = 8) -> None:
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        if window < 1:
            raise ValueError("window must be at least 1")
        self.base = base % modulus
        self.modulus = modulus
        self.window = window
        self.mask = (1 << window) - 1
        num_rows = max(1, -(-exponent_bits // window))
        rows = []
        # Build with backend-native residues (identity for python, mpz
        # for gmpy2); the native type then propagates through every row
        # product and the pow() accumulation below at full engine speed.
        radix_power = _backend.ACTIVE.wrap(self.base)
        for _ in range(num_rows):
            row = [1] * (1 << window)
            acc = 1
            for digit in range(1, 1 << window):
                acc = (acc * radix_power) % modulus
                row[digit] = acc
            rows.append(row)
            # base^(2^window) for the next row: row[mask] * radix_power.
            radix_power = (row[self.mask] * radix_power) % modulus
        self.rows = rows

    def pow(self, exponent: int) -> int:
        """Return ``base ** exponent mod modulus`` (``exponent >= 0``).

        Exponents beyond the table range fall back to built-in ``pow``.
        """
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        if exponent >> (self.window * len(self.rows)):
            return _backend.ACTIVE.powmod(self.base, exponent, self.modulus)
        result = 1
        mask = self.mask
        window = self.window
        modulus = self.modulus
        rows = self.rows
        row_index = 0
        while exponent:
            digit = exponent & mask
            if digit:
                result = (result * rows[row_index][digit]) % modulus
            exponent >>= window
            row_index += 1
        return int(result)


class FixedBaseTableCache:
    """Observable, bounded, evictable process-wide table cache.

    Replaces the former ``@lru_cache`` on :func:`fixed_base_table`, which
    was invisible (no hit/size stats) and unbounded-in-bytes for a
    long-lived daemon (128 *entries*, each potentially megabytes of
    precomputed rows).  This cache keeps LRU semantics but exposes
    counters for the metrics registry, an approximate byte footprint, and
    per-modulus eviction, which the service's
    :class:`~repro.service.warmcache.WarmCacheStore` calls when it evicts
    a group.  It is the factory the groups fetch from: a
    :class:`~repro.crypto.groups.GroupParameters` keeps the tables it
    fetched, so eviction drops only this cache's entries.
    """

    __slots__ = ("maxsize", "_tables", "hits", "misses", "evictions")

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.maxsize = maxsize
        self._tables: "OrderedDict[Tuple[int, int, int, int], FixedBaseTable]" = OrderedDict()  # noqa: E501
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, base: int, modulus: int, exponent_bits: int,
            window: int = 8) -> FixedBaseTable:
        """Return the cached table for the key, building it on a miss."""
        key = (base, modulus, exponent_bits, window)
        table = self._tables.get(key)
        if table is not None:
            self.hits += 1
            self._tables.move_to_end(key)
            return table
        self.misses += 1
        table = FixedBaseTable(base, modulus, exponent_bits, window)
        self._tables[key] = table
        while len(self._tables) > self.maxsize:
            self._tables.popitem(last=False)
            self.evictions += 1
        return table

    def clear(self, modulus: Optional[int] = None) -> int:
        """Evict cached tables; return how many were dropped.

        With ``modulus`` given, only that group's tables go (the
        warm-cache store's eviction hook); without it, everything does
        (backend switches, tests, explicit operator resets).
        """
        if modulus is None:
            dropped = len(self._tables)
            self._tables.clear()
        else:
            doomed = [key for key in self._tables if key[1] == modulus]
            for key in doomed:
                del self._tables[key]
            dropped = len(doomed)
        self.evictions += dropped
        return dropped

    def approx_bytes(self) -> int:
        """Rough resident size: entries x modulus-sized row values."""
        total = 0
        for (_, modulus, _, _), table in self._tables.items():
            cell = max(1, modulus.bit_length() // 8)
            total += sum(len(row) for row in table.rows) * cell
        return total

    def stats(self) -> Dict[str, int]:
        """Hit/miss/size counters for the observability layer."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._tables),
            "approx_bytes": self.approx_bytes(),
        }


#: Process-wide table cache behind :func:`fixed_base_table`.
TABLE_CACHE = FixedBaseTableCache()


def fixed_base_table(base: int, modulus: int, exponent_bits: int,
                     window: int = 8) -> FixedBaseTable:
    """Process-wide cached :class:`FixedBaseTable` factory.

    The cache key is the full ``(base, modulus, exponent_bits, window)``
    tuple, so distinct groups never share tables; the public generators of
    the fixture groups are reused across every protocol execution in a
    process, which is where the amortisation comes from.  Backed by
    :data:`TABLE_CACHE` (LRU, observable, evictable) rather than an
    opaque ``functools.lru_cache``.
    """
    return TABLE_CACHE.get(base, modulus, exponent_bits, window)


def fixed_base_table_stats() -> Dict[str, int]:
    """Hit/miss/entry/byte counters of the process-wide table cache."""
    return TABLE_CACHE.stats()


def clear_fixed_base_tables(modulus: Optional[int] = None) -> int:
    """Evict process-wide tables (all, or one modulus); return the count."""
    return TABLE_CACHE.clear(modulus)


# ---------------------------------------------------------------------------
# Straus/Shamir simultaneous multi-exponentiation
# ---------------------------------------------------------------------------

def straus_tables(bases: Sequence[int], modulus: int,
                  window: int = 4) -> Tuple[List[int], ...]:
    """Precompute the per-base digit tables Straus's algorithm walks.

    ``tables[i][d - 1] == bases[i] ** d mod modulus`` for every window
    digit ``d`` in ``1 .. 2^window - 1``.  Building costs
    ``t * (2^window - 2)`` multiplications for ``t`` bases; reusing the
    result across many exponent vectors (e.g. batch-verifying one
    commitment vector at every agent's pseudonym) amortises that away —
    which is why :func:`~repro.crypto.commitments.verify_share_batch`
    keeps these tables in the execution's :class:`PublicValueCache`.
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    table_size = (1 << window) - 1
    tables: List[List[int]] = []
    for base in bases:
        base = _backend.ACTIVE.wrap(base % modulus)
        row = [base]
        acc = base
        for _ in range(table_size - 1):
            acc = (acc * base) % modulus
            row.append(acc)
        tables.append(row)  # row[d - 1] == base^d
    return tuple(tables)


def multi_exp_with_tables(tables: Sequence[Sequence[int]],
                          exponents: Sequence[int], modulus: int,
                          window: int = 4) -> int:
    """Straus main loop over precomputed :func:`straus_tables`.

    One shared squaring chain for all terms; each window position costs
    ``window`` squarings plus at most one table-lookup multiplication per
    base.  Exponents must be non-negative.
    """
    if len(tables) != len(exponents):
        raise ValueError("tables and exponents must have equal length")
    max_bits = 0
    for exponent in exponents:
        if exponent < 0:
            raise ValueError("exponents must be non-negative")
        bits = exponent.bit_length()
        if bits > max_bits:
            max_bits = bits
    if max_bits == 0:
        return 1 % modulus
    mask = (1 << window) - 1
    num_windows = -(-max_bits // window)
    result = 1
    for window_index in range(num_windows - 1, -1, -1):
        if result != 1:
            for _ in range(window):
                result = (result * result) % modulus
        shift = window_index * window
        for exponent, row in zip(exponents, tables):
            digit = (exponent >> shift) & mask
            if digit:
                result = (result * row[digit - 1]) % modulus
    return int(result)


def multi_exp(bases: Sequence[int], exponents: Sequence[int], modulus: int,
              window: int = 4) -> int:
    """Return ``prod_i bases[i] ** exponents[i] mod modulus`` (uncounted).

    Straus's algorithm: one shared squaring chain for all terms plus one
    small digit table per base (:func:`straus_tables`).  For ``t`` terms
    with ``b``-bit exponents the cost is ``b`` squarings plus roughly
    ``t * (2^w - 1 + b / w)`` multiplications, versus ``t * 1.5 b`` for
    ``t`` independent square-and-multiply exponentiations.

    Exponents must be non-negative; zero-exponent terms are skipped.  The
    *counted* cost of the call sites that use this helper remains the
    per-term square-and-multiply schedule (see module docstring).
    """
    if len(bases) != len(exponents):
        raise ValueError("bases and exponents must have equal length")
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    pairs = [(base % modulus, exponent)
             for base, exponent in zip(bases, exponents) if exponent]
    for _, exponent in pairs:
        if exponent < 0:
            raise ValueError("exponents must be non-negative")
    if not pairs:
        return 1 % modulus
    if len(pairs) == 1:
        return _backend.ACTIVE.powmod(pairs[0][0], pairs[0][1], modulus)
    tables = straus_tables([base for base, _ in pairs], modulus, window)
    return multi_exp_with_tables(tables, [e for _, e in pairs], modulus,
                                 window)


def horner_multi_exp(bases: Sequence[int], point: int, order: int,
                     modulus: int) -> int:
    """Return ``prod_{l=1..t} bases[l-1] ** (point^l mod order) mod modulus``.

    Horner in the exponent (uncounted): over the leading slots
    ``l = 1..L`` whose powers ``point^l`` stay below ``order``,
    ``acc = (acc * bases[l-1]) ** point`` for ``l = L`` down to ``1``
    raises every base to exactly ``point^l`` with one small-exponent
    C-level ``powmod`` per slot and no tables.  Each remaining slot,
    where ``point^l`` would wrap, gets its own ``powmod`` by the reduced
    power.  So the result is exact for *every* base, including elements
    outside the subgroup of order ``order``, for which ``point^l`` and
    ``point^l mod order`` give different values.  ``point`` must lie in
    ``0 .. order - 1``; at the protocol's pseudonyms ``1..n`` almost no
    power wraps.
    """
    powmod = _backend.ACTIVE.powmod
    leading = 0
    power = 1
    while leading < len(bases) and power * point < order:
        power *= point
        leading += 1
    acc = 1
    for index in range(leading - 1, -1, -1):
        acc = powmod(acc * bases[index] % modulus, point, modulus)
    for index in range(leading, len(bases)):
        power = power * point % order
        acc = acc * powmod(bases[index], power, modulus) % modulus
    return acc


# ---------------------------------------------------------------------------
# Montgomery batch inversion
# ---------------------------------------------------------------------------

def batch_mod_inv(values: Sequence[int], modulus: int,
                  counter: OperationCounter = NULL_COUNTER) -> List[int]:
    """Invert every value mod ``modulus`` with one real inversion.

    Montgomery's trick: multiply the values into a running prefix product,
    invert the total once, then walk backwards multiplying by the stored
    prefixes.  The *counted* cost is one ``inv`` per value — the analytic
    model's "one inversion per Lagrange basis term" schedule — regardless
    of the execution shortcut.

    Raises
    ------
    ZeroDivisionError
        With the same messages :func:`~repro.crypto.modular.mod_inv` uses,
        identifying the first non-invertible element.
    """
    from .modular import mod_inv

    values = list(values)
    if not _ENABLED or len(values) < 2:
        return [mod_inv(value, modulus, counter) for value in values]
    wrap = _backend.ACTIVE.wrap
    reduced = [wrap(value % modulus) for value in values]
    for value in reduced:
        if value == 0:
            raise ZeroDivisionError("0 has no inverse modulo %d" % modulus)
    counter.count_inv(len(values))
    prefixes: List[int] = []
    acc = wrap(1)
    for value in reduced:
        prefixes.append(acc)
        acc = (acc * value) % modulus
    try:
        inv_acc = _backend.ACTIVE.invert(acc, modulus)
    except ZeroDivisionError:
        # Surface the same per-element diagnostic mod_inv raises.
        for value in reduced:
            if math.gcd(int(value), modulus) != 1:
                raise ZeroDivisionError(
                    "%d is not invertible modulo %d (gcd=%d)"
                    % (value, modulus, math.gcd(int(value), modulus))
                ) from None
        raise  # pragma: no cover - unreachable
    inverses = [0] * len(reduced)
    for index in range(len(reduced) - 1, -1, -1):
        inverses[index] = int((inv_acc * prefixes[index]) % modulus)
        inv_acc = (inv_acc * reduced[index]) % modulus
    return inverses


# ---------------------------------------------------------------------------
# Per-execution public-value memoisation
# ---------------------------------------------------------------------------

class PublicValueCache:
    """Memo for publicly derivable values within one DMW execution.

    Counted namespaces (plus the uncounted Straus tables of
    :meth:`get_tables`):

    * *commitment evaluations* — ``(modulus, commitment elements, point)``
      -> ``(value, exponent schedule)``; serves ``Gamma_{i,k}``,
      ``Phi_{i,k}`` and every eq. (7)-(9) right-hand side;
    * *interpolation weights* — ``(point tuple, modulus)`` -> the combined
      Lagrange-at-zero weight vector used by plaintext winner
      identification (eq. (14)); the same namespace holds every whole
      eq. (12) resolution, first and second price, with its recorded
      counter.

    One more slot, the *published openings* (:meth:`get_opening`), holds
    the Pedersen openings of the disclosed eq. (13) pairs, keyed by
    ``(modulus, z1, z2, value mod q, blinding mod q)``.  It lives for one
    execution only: it is not counted in the hits, misses or
    :meth:`stats`, and :meth:`seed_from` does not copy it.

    The cache stores no secrets: every entry is computable by any observer
    of the bulletin board.  Counter replay is the *caller's* job (the call
    sites charge the naive schedule on hit and miss alike); the cache only
    stores values plus whatever schedule data the caller needs to replay.

    Scoping rule: one cache per protocol execution, created by
    :meth:`~repro.core.protocol.DMWProtocol.execute` and shared by that
    execution's agents.  The service's in-process warm store is the one
    exception (:meth:`seed_from`); pool shards never receive entries.
    """

    __slots__ = ("_evaluations", "_weights", "_tables", "_openings", "hits",
                 "misses", "evaluation_hits", "evaluation_misses",
                 "weight_hits", "weight_misses")

    def __init__(self) -> None:
        self._evaluations: Dict[CacheKey, CacheEntry] = {}
        self._weights: Dict[CacheKey, CacheEntry] = {}
        self._tables: Dict[CacheKey, CacheEntry] = {}
        self._openings: Dict[CacheKey, int] = {}
        self.hits = 0
        self.misses = 0
        # Per-namespace breakdown (the observability layer exports these
        # as dmw_cache_events_total{namespace=...,result=...}).
        self.evaluation_hits = 0
        self.evaluation_misses = 0
        self.weight_hits = 0
        self.weight_misses = 0

    # -- commitment evaluations ---------------------------------------------
    def get_evaluation(self, key: CacheKey) -> Optional[CacheEntry]:
        entry = self._evaluations.get(key)
        if entry is None:
            self.misses += 1
            self.evaluation_misses += 1
        else:
            self.hits += 1
            self.evaluation_hits += 1
        return entry

    def put_evaluation(self, key: CacheKey, entry: CacheEntry) -> None:
        self._evaluations[key] = entry

    # -- Straus digit tables -------------------------------------------------
    def get_tables(self, key: CacheKey) -> Optional[CacheEntry]:
        """Precomputed :func:`straus_tables` for batched share verification.

        Only :func:`~repro.crypto.commitments.verify_share_batch` keeps
        tables here (the generator pair and each batched commitment
        vector); per-share evaluation uses Horner in the exponent and
        builds none.  Table reuse is *not* counted as a hit/miss: the
        tables are an execution artefact with no analytic-model
        counterpart (their build cost is uncounted, like every other
        fast-path internal).
        """
        return self._tables.get(key)

    def put_tables(self, key: CacheKey, entry: CacheEntry) -> None:
        self._tables[key] = entry

    # -- published eq. (13) openings (per execution, not in the stats) ------
    def get_opening(self, key: CacheKey) -> Optional[int]:
        """The memoised opening of one disclosed pair, or ``None``.

        Only public pairs belong here: an opening of a private share
        (eqs. (7)-(9)) must never be stored.
        """
        return self._openings.get(key)

    def put_opening(self, key: CacheKey, opening: int) -> None:
        self._openings[key] = opening

    # -- Lagrange weight vectors --------------------------------------------
    def get_weights(self, key: CacheKey) -> Optional[CacheEntry]:
        entry = self._weights.get(key)
        if entry is None:
            self.misses += 1
            self.weight_misses += 1
        else:
            self.hits += 1
            self.weight_hits += 1
        return entry

    def put_weights(self, key: CacheKey, entry: CacheEntry) -> None:
        self._weights[key] = entry

    # -- reporting -----------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Return hit/miss/entry counts (benchmark, test, and observability
        introspection; exported into run reports and Prometheus dumps)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evaluation_hits": self.evaluation_hits,
            "evaluation_misses": self.evaluation_misses,
            "weight_hits": self.weight_hits,
            "weight_misses": self.weight_misses,
            "evaluations": len(self._evaluations),
            "weight_vectors": len(self._weights),
            "straus_tables": len(self._tables),
        }

    def seed_from(self, other: "PublicValueCache") -> None:
        """Copy another cache's *entries* into this one (not its counters).

        The warm-cache path of the always-on service's in-process
        (sequential and barrier) jobs: a fresh per-job cache is seeded
        with a previous job's public entries so repeat parameters skip
        recomputation, while this cache's hit/miss counters still
        describe only the current job.  Entries are
        immutable tuples keyed purely by content, so sharing them across
        executions can never serve a stale value.  The published openings
        are not copied: they belong to one execution.
        """
        self._evaluations.update(other._evaluations)
        self._weights.update(other._weights)
        self._tables.update(other._tables)

    def entry_count(self) -> int:
        """Total stored entries across all three namespaces."""
        return (len(self._evaluations) + len(self._weights)
                + len(self._tables))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PublicValueCache(%r)" % (self.stats(),)


def merge_cache_stats(into: Dict[str, int],
                      add: Dict[str, int]) -> Dict[str, int]:
    """Add one :meth:`PublicValueCache.stats` dict into an accumulator.

    The process-pool driver gives every per-task shard its own fresh
    cache; the parent folds the shard statistics together with this so
    the merged ``cache_stats`` are a deterministic per-task sum that is
    independent of the worker count.
    """
    for key, value in add.items():
        into[key] = into.get(key, 0) + value
    return into
