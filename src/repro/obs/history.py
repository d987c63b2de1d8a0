"""Persistent run-history analytics: append-only JSONL across executions.

Every run report dies with its process unless something persists it;
the history store is that something.  It is an append-only JSONL file of
``dmw_history_entry`` documents, each keyed by a *config fingerprint* —
a stable hash over the run's identifying configuration (``n``, ``m``,
seed, backend, parallelism, mechanism) — so runs of the same
configuration line up into a trajectory and runs of different
configurations never get compared by accident.

Entry schema (one JSON object per line)::

    {"type": "dmw_history_entry", "version": 1,
     "recorded_at": <unix seconds>, "source": "run_report",
     "fingerprint": <12-hex sha256 prefix of the sorted config>,
     "config": {"num_agents", "num_tasks", "seed", "backend",
                "parallel", "workers", "mechanism", ...},
     "wall_clock_s": float | null,          # run-span duration
     "counters": {...operation totals...} | null,
     "network": {...NetworkMetrics.as_dict()...} | null,
     "outcome": {"completed", "schedule", "payments", "degraded",
                 "quarantined_tasks"} | null,
     "theorem11": {"sigma": int,
                   "disclosures": [[d_t, k_t], ...]} | null,
     "provenance": {...run-report provenance...} | null}

``theorem11`` holds what the exact message totals need beyond ``n``:
``sigma`` and each task's discloser and claimant counts, read from the
report's ``disclosures_published`` events.  It is ``null`` unless the run
completed with one such event per task (a resumed run has none for its
restored tasks); entries from older writers lack it.

Two analytics run over the store (surfaced by ``dmw history``):

* **diff** — compare two entries' operation counters, network totals,
  and outcome.  DMW is deterministic given its config, and the
  process-pool driver is bit-identical to the sequential one, so a
  sequential run and a ``--parallel --workers 4`` run of the same
  configuration must diff *clean*; wall-clock and provenance differences
  are reported informationally, never as divergence.
* **trend** — per-fingerprint trajectory of wall-clock and counters,
  with anomaly flags: message totals, overall or per kind, that differ
  from the exact Theorem 11 totals
  (:func:`~repro.core.rounds.theorem11_totals`), round counts outside the
  schedule's limits, and counter drift *within* a fingerprint (same
  config must reproduce identical counted work — Theorem 12's schedule
  is deterministic).

See ``docs/OBSERVABILITY.md`` ("Run history").
"""

from __future__ import annotations

import hashlib
import json
import os
import time

try:  # POSIX advisory locking; absent on some platforms (e.g. Windows).
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]
from typing import Any, Dict, List, Optional, Tuple

from ..core.rounds import round_bounds, theorem11_totals

#: Entry schema version.
ENTRY_VERSION = 1


def config_fingerprint(config: Dict[str, Any]) -> str:
    """Stable 12-hex fingerprint of a configuration mapping."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


class HistoryStore:
    """Append-only JSONL store of ``dmw_history_entry`` documents."""

    def __init__(self, path: str) -> None:
        self.path = path

    def append(self, entry: Dict[str, Any]) -> int:
        """Append one entry; returns its 1-based index in the store.

        Concurrency-safe: the entry is serialized into one buffer and
        written with a single ``os.write`` on an ``O_APPEND`` descriptor
        while holding an exclusive ``fcntl.flock`` on the store, so
        concurrent appenders (``dmw run --history`` from several
        processes, future service workers) can never interleave partial
        JSONL lines; the returned index is counted under the same lock.
        """
        if entry.get("type") != "dmw_history_entry":
            raise ValueError("not a dmw_history_entry document")
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        data = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                with os.fdopen(os.dup(fd), "rb") as snapshot:
                    index = sum(1 for line in snapshot if line.strip())
                os.write(fd, data)
            finally:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)
        return index + 1

    def load(self) -> List[Dict[str, Any]]:
        """Every entry, in append order (empty when the file is absent)."""
        if not os.path.exists(self.path):
            return []
        entries: List[Dict[str, Any]] = []
        with open(self.path) as handle:
            for line_number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    document = json.loads(line)
                except ValueError:
                    raise ValueError(
                        "%s:%d: malformed history line"
                        % (self.path, line_number)) from None
                entries.append(document)
        return entries

    def entry(self, index: int) -> Dict[str, Any]:
        """The 1-based ``index``-th entry (matching ``history list``)."""
        entries = self.load()
        if not 1 <= index <= len(entries):
            raise IndexError(
                "history has %d entries; no entry %d"
                % (len(entries), index))
        return entries[index - 1]


# ---------------------------------------------------------------------------
# Entry builders
# ---------------------------------------------------------------------------

def make_entry(config: Dict[str, Any], *,
               source: str,
               wall_clock_s: Optional[float] = None,
               counters: Optional[Dict[str, int]] = None,
               network: Optional[Dict[str, int]] = None,
               outcome: Optional[Dict[str, Any]] = None,
               theorem11: Optional[Dict[str, Any]] = None,
               provenance: Optional[Dict[str, Any]] = None,
               recorded_at: Optional[float] = None) -> Dict[str, Any]:
    """Assemble one history entry with its fingerprint stamped."""
    return {
        "type": "dmw_history_entry",
        "version": ENTRY_VERSION,
        "recorded_at": time.time() if recorded_at is None else recorded_at,
        "source": source,
        "fingerprint": config_fingerprint(config),
        "config": dict(config),
        "wall_clock_s": wall_clock_s,
        "counters": counters,
        "network": network,
        "outcome": outcome,
        "theorem11": theorem11,
        "provenance": provenance,
    }


def entry_from_report(document: Dict[str, Any],
                      config: Optional[Dict[str, Any]] = None,
                      recorded_at: Optional[float] = None
                      ) -> Dict[str, Any]:
    """Build a history entry from a run-report document.

    ``config`` supplies identifying fields the report itself cannot know
    (the RNG seed, the driver flags); report-derivable fields fill the
    gaps.  The wall clock is the run span's duration when spans were
    recorded.  Each task's ``(d_t, k_t)`` comes from its
    ``disclosures_published`` event.
    """
    params = document.get("params") or {}
    derived: Dict[str, Any] = {
        "mechanism": "dmw",
        "num_agents": params.get("num_agents"),
        "num_tasks": params.get("num_tasks"),
        "backend": params.get("arithmetic_backend"),
        "seed": None,
        "parallel": bool(document.get("parallelism")),
        "workers": (document.get("parallelism") or {}).get("workers"),
    }
    if config:
        derived.update(config)
    wall_clock_s: Optional[float] = None
    for span in document.get("spans") or []:
        if span.get("kind") == "run":
            wall_clock_s = span.get("duration_s")
            break
    totals = document.get("totals") or {}
    resilience = document.get("resilience") or {}
    outcome = {
        "completed": document.get("completed"),
        "schedule": document.get("schedule"),
        "payments": document.get("payments"),
        "degraded": resilience.get("degraded", False),
        "quarantined_tasks": resilience.get("quarantined_tasks", []),
    }
    disclosures: Dict[int, List[int]] = {}
    for event in document.get("events") or []:
        if event.get("kind") == "disclosures_published":
            detail = event["detail"]
            disclosures[event["task"]] = [len(detail["disclosers"]),
                                          len(detail["claimants"])]
    theorem11 = None
    sigma = params.get("sigma")
    tasks = list(range(derived["num_tasks"] or 0))
    if (document.get("completed") and isinstance(sigma, int) and tasks
            and sorted(disclosures) == tasks):
        theorem11 = {"sigma": sigma,
                     "disclosures": [disclosures[task] for task in tasks]}
    return make_entry(
        derived, source="run_report", wall_clock_s=wall_clock_s,
        counters=totals.get("operations"), network=totals.get("network"),
        outcome=outcome, theorem11=theorem11,
        provenance=document.get("provenance"), recorded_at=recorded_at,
    )


# ---------------------------------------------------------------------------
# Analytics: diff and trend
# ---------------------------------------------------------------------------

def _dict_divergences(section: str, a: Optional[Dict[str, Any]],
                      b: Optional[Dict[str, Any]]) -> List[str]:
    """Per-key exact comparison of two mappings (missing keys are zero)."""
    lines: List[str] = []
    if a is None or b is None:
        if (a or None) != (b or None):
            lines.append("%s: present in one entry only" % section)
        return lines
    for key in sorted(set(a) | set(b)):
        left, right = a.get(key, 0), b.get(key, 0)
        if left != right:
            lines.append("%s.%s: %r != %r" % (section, key, left, right))
    return lines


def diff_entries(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Compare two history entries; deterministic fields must match.

    Returns ``{"clean": bool, "divergences": [...],
    "informational": [...]}``.  Operation counters, network totals, and
    the outcome (completion, schedule, payments, quarantines) are
    *divergences* when different — a deterministic mechanism run twice
    on one configuration, sequentially or through the process pool, must
    reproduce them exactly.  Wall-clock, provenance, and config/
    fingerprint differences are *informational*: expected to vary across
    machines, commits, and drivers.
    """
    divergences: List[str] = []
    informational: List[str] = []
    if a.get("fingerprint") != b.get("fingerprint"):
        informational.append(
            "fingerprint: %s != %s (different configurations)"
            % (a.get("fingerprint"), b.get("fingerprint")))
    for key in sorted(set(a.get("config") or {}) | set(b.get("config")
                                                       or {})):
        left = (a.get("config") or {}).get(key)
        right = (b.get("config") or {}).get(key)
        if left != right:
            informational.append("config.%s: %r != %r" % (key, left, right))
    divergences.extend(_dict_divergences("counters", a.get("counters"),
                                         b.get("counters")))
    divergences.extend(_dict_divergences("network", a.get("network"),
                                         b.get("network")))
    outcome_a, outcome_b = a.get("outcome"), b.get("outcome")
    if (outcome_a is None) != (outcome_b is None):
        divergences.append("outcome: present in one entry only")
    elif outcome_a is not None and outcome_b is not None:
        for key in ("completed", "schedule", "payments", "degraded",
                    "quarantined_tasks"):
            if outcome_a.get(key) != outcome_b.get(key):
                divergences.append("outcome.%s: %r != %r"
                                   % (key, outcome_a.get(key),
                                      outcome_b.get(key)))
    wall_a, wall_b = a.get("wall_clock_s"), b.get("wall_clock_s")
    if wall_a is not None and wall_b is not None:
        delta = wall_b - wall_a
        ratio = (wall_b / wall_a) if wall_a else float("inf")
        informational.append(
            "wall_clock_s: %.6f -> %.6f (%+.6f, x%.3f)"
            % (wall_a, wall_b, delta, ratio))
    prov_a = (a.get("provenance") or {})
    prov_b = (b.get("provenance") or {})
    for key in sorted(set(prov_a) | set(prov_b)):
        if prov_a.get(key) != prov_b.get(key):
            informational.append(
                "provenance.%s: %r != %r"
                % (key, prov_a.get(key), prov_b.get(key)))
    return {"clean": not divergences, "divergences": divergences,
            "informational": informational}


def entry_anomalies(entry: Dict[str, Any]) -> List[str]:
    """Theorem 11 checks for one entry.

    Applied when the entry carries enough to check: a network section
    plus ``num_agents``/``num_tasks`` in its config.  With a ``theorem11``
    section, the message totals, overall and per kind, must equal
    :func:`~repro.core.rounds.theorem11_totals`.
    """
    anomalies: List[str] = []
    config = entry.get("config") or {}
    network = entry.get("network") or {}
    n, m = config.get("num_agents"), config.get("num_tasks")
    if not network or not isinstance(n, int) or not isinstance(m, int):
        return anomalies
    theorem11 = entry.get("theorem11")
    if theorem11:
        expected = theorem11_totals(n, theorem11["sigma"],
                                    theorem11["disclosures"])
        exact = {"point_to_point_messages": expected.messages}
        exact.update(("messages[%s]" % kind, count)
                     for kind, count in expected.by_kind.items())
        for key in sorted(set(exact) | {key for key in network
                                        if key.startswith("messages[")}):
            if network.get(key, 0) != exact.get(key, 0):
                anomalies.append(
                    "%s %d differs from the exact Theorem 11 total %d for "
                    "n=%d m=%d" % (key, network.get(key, 0),
                                   exact.get(key, 0), n, m))
    rounds = network.get("rounds")
    if rounds is not None:
        fewest, most = round_bounds(m)
        if rounds < fewest:
            anomalies.append("rounds %d below the %d-round protocol minimum"
                             % (rounds, fewest))
        if rounds > most:
            anomalies.append(
                "rounds %d above the complaint-inflated ceiling %d"
                % (rounds, most))
    return anomalies


def trend_rows(entries: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per-fingerprint trajectories with anomaly flags.

    Rows keep store order within each fingerprint.  Beyond the per-entry
    Theorem 11 checks, counter drift *within* a fingerprint is flagged:
    one configuration must reproduce identical counted work on every
    run (the deterministic Theorem 12 schedule).
    """
    by_fingerprint: Dict[str, List[Tuple[int, Dict[str, Any]]]] = {}
    for index, entry in enumerate(entries, 1):
        by_fingerprint.setdefault(entry.get("fingerprint", "?"),
                                  []).append((index, entry))
    rows: List[Dict[str, Any]] = []
    for fingerprint in sorted(by_fingerprint):
        group = by_fingerprint[fingerprint]
        baseline_counters: Optional[Dict[str, Any]] = None
        for index, entry in group:
            anomalies = entry_anomalies(entry)
            counters = entry.get("counters")
            if counters:
                if baseline_counters is None:
                    baseline_counters = counters
                elif counters != baseline_counters:
                    anomalies.append(
                        "counter drift within fingerprint %s"
                        % fingerprint)
            rows.append({
                "index": index,
                "fingerprint": fingerprint,
                "source": entry.get("source"),
                "config": entry.get("config") or {},
                "wall_clock_s": entry.get("wall_clock_s"),
                "messages": (entry.get("network")
                             or {}).get("point_to_point_messages"),
                "anomalies": anomalies,
            })
    return rows
