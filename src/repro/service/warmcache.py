"""Cross-run warm caches keyed by group parameters.

The single biggest per-job cost after process startup is precomputation:
fixed-base tables for the public generators, and the
:class:`~repro.crypto.fastexp.PublicValueCache` entries the Phase-III
verification loops derive from published data (plus the Straus digit
tables of batched share verification).  All of these are
*content-keyed public values* — a commitment evaluation is keyed by
``(modulus, commitment elements, point)``, a weight vector by
``(points, modulus)`` — so serving them
across executions of the same group can never produce a stale or secret
value.  The protocol still charges every agent the naive analytic
schedule on cache hits (``docs/PERFORMANCE.md``), so warming changes
wall-clock and ``cache_stats`` only; outcomes, transcripts and Table 1
counters are bit-identical with or without it.

:class:`WarmCacheStore` is the daemon's keeper of that state, for its
in-process (sequential and barrier) jobs only: pool shards start cold,
because no cache entry crosses the process boundary.  It holds one
entries-only :class:`PublicValueCache` per group (LRU-bounded), plus the
eviction hook into the process-wide fixed-base table factory
(:func:`repro.crypto.fastexp.clear_fixed_base_tables`), so dropping a
group from the store also drops the factory's tables for it.  A live
:class:`~repro.crypto.groups.GroupParameters` keeps the tables it bound
(``docs/SERVICE.md``).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Dict, Tuple

from ..crypto.fastexp import PublicValueCache, clear_fixed_base_tables


def group_key(group_parameters: Any) -> str:
    """Stable identity of a cryptographic group for cache keying.

    Hashes ``(p, q, z1, z2)`` — everything that feeds cache-entry keys.
    Two parameter sets sharing a group fixture share warm state even if
    their agent counts or bid sets differ; entries are content-keyed, so
    cross-job reuse within a group is always sound.
    """
    group = group_parameters.group
    material = "%d|%d|%d|%d" % (group.p, group.q, group_parameters.z1,
                                group_parameters.z2)
    return hashlib.sha256(material.encode("ascii")).hexdigest()[:16]


class WarmCacheStore:
    """LRU store of per-group public-value entries for the daemon.

    ``cache_for`` hands each job a *fresh* :class:`PublicValueCache`
    seeded with the group's accumulated entries (never the counters, so
    the job's ``cache_stats`` describe only its own lookups);
    ``absorb`` folds a finished job's entries back in.  Evicting a group
    past ``capacity`` also clears that modulus's fixed-base tables from
    the process-wide cache.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        #: group key -> (modulus, entries-only accumulated cache)
        self._stores: "OrderedDict[str, Tuple[int, PublicValueCache]]" = \
            OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- job-facing surface ---------------------------------------------------
    def cache_for(self, parameters: Any) -> PublicValueCache:
        """A fresh per-job cache, warm when the group has been seen."""
        key = group_key(parameters.group_parameters)
        fresh = PublicValueCache()
        held = self._stores.get(key)
        if held is None:
            self.misses += 1
        else:
            self.hits += 1
            self._stores.move_to_end(key)
            fresh.seed_from(held[1])
        return fresh

    def absorb(self, parameters: Any, cache: PublicValueCache) -> None:
        """Fold a finished job's public entries into the group's store."""
        key = group_key(parameters.group_parameters)
        held = self._stores.get(key)
        if held is None:
            modulus = parameters.group_parameters.group.p
            held = (modulus, PublicValueCache())
            self._stores[key] = held
        held[1].seed_from(cache)
        self._stores.move_to_end(key)
        while len(self._stores) > self.capacity:
            _, (modulus, _) = self._stores.popitem(last=False)
            self.evictions += 1
            # Eviction hook: a group leaving the store takes its entries
            # in the fixed-base table factory with it (a live
            # GroupParameters keeps the tables it already fetched).
            clear_fixed_base_tables(modulus)

    def warm(self, parameters: Any) -> bool:
        """True when the group already has accumulated entries."""
        return group_key(parameters.group_parameters) in self._stores

    # -- observability --------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Store-level counters for the service metrics registry."""
        return {
            "groups": len(self._stores),
            "entries": sum(cache.entry_count()
                           for _, cache in self._stores.values()),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
