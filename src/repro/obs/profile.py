"""Opt-in per-phase cProfile capture with hotspot attribution.

Theorem 12 bounds the mechanism's *computation* (O(mn^2 log p) per
phase-critical path), but the span timeline only attributes wall-clock.
The phase profiler closes that gap: when a :class:`PhaseProfiler` is
installed on a :class:`~repro.obs.recorder.Recorder` (``recorder.profiler
= PhaseProfiler()``), every phase-kind span (the four DMW auction phases
plus the run-level payments phase) runs under a :mod:`cProfile` capture,
and the per-function statistics are aggregated *per phase name* across
all auctions.

The aggregate is a plain ``{phase: {function: [ncalls, tottime,
cumtime]}}`` mapping, so it survives pickling across process-pool
workers: each worker exports its aggregate (:meth:`PhaseProfiler.export`)
inside the shard result and the parent merges additively
(:meth:`PhaseProfiler.merge`) — the same phase profiled in eight shards
reports the summed call counts, exactly like the sequential driver.

:meth:`PhaseProfiler.report` renders the run-report ``profile`` section:
per phase, the total primitive-call count and profiled time plus the
top-N hotspots by exclusive (``tottime``) time.  Function keys are
``basename:line(function)`` so reports stay machine-portable.

Profiling is strictly opt-in (`--profile` on the CLI): ``cProfile``
instrumentation costs real time, so it must never be on during
benchmark-gated runs.  See ``docs/OBSERVABILITY.md`` ("Phase profiling").
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Any, Dict, List, Optional

#: Default hotspot count per phase in :meth:`PhaseProfiler.report`.
DEFAULT_TOP_N = 10


class PhaseProfiler:
    """Aggregates cProfile captures per phase name.

    The recorder drives :meth:`start`/:meth:`stop` around each
    phase-kind span; phases never nest (auction phases sit under task
    spans, payments under the run span), so a single active capture
    suffices — a nested start while a capture is live is ignored rather
    than corrupting the active profile.
    """

    def __init__(self, top_n: int = DEFAULT_TOP_N) -> None:
        if top_n < 1:
            raise ValueError("profiler top_n must be positive")
        self.top_n = top_n
        #: phase -> function key -> [ncalls, tottime_s, cumtime_s]
        self._phase_stats: Dict[str, Dict[str, List[float]]] = {}
        self._active: Optional[cProfile.Profile] = None
        self._active_phase: Optional[str] = None

    # -- capture --------------------------------------------------------------
    def start(self, phase: str) -> None:
        """Begin capturing ``phase`` (no-op if a capture is already live)."""
        if self._active is not None:
            return
        self._active = cProfile.Profile()
        self._active_phase = phase
        self._active.enable()

    def stop(self, phase: str) -> None:
        """End the capture for ``phase`` and fold it into the aggregate."""
        profile = self._active
        if profile is None or self._active_phase != phase:
            return
        profile.disable()
        self._active = None
        self._active_phase = None
        stats = pstats.Stats(profile)
        bucket = self._phase_stats.setdefault(phase, {})
        for (filename, line, func), row in stats.stats.items():
            _cc, ncalls, tottime, cumtime, _callers = row
            key = "%s:%d(%s)" % (os.path.basename(filename), line, func)
            entry = bucket.setdefault(key, [0, 0.0, 0.0])
            entry[0] += ncalls
            entry[1] += tottime
            entry[2] += cumtime

    # -- merge / export -------------------------------------------------------
    def export(self) -> Dict[str, Dict[str, List[float]]]:
        """Picklable aggregate for shipping across the process pool."""
        return {phase: {key: list(row) for key, row in bucket.items()}
                for phase, bucket in self._phase_stats.items()}

    def merge(self, exported: Dict[str, Dict[str, List[float]]]) -> None:
        """Fold a worker's :meth:`export` into this aggregate (additive)."""
        for phase, bucket in exported.items():
            target = self._phase_stats.setdefault(phase, {})
            for key, row in bucket.items():
                entry = target.setdefault(key, [0, 0.0, 0.0])
                entry[0] += row[0]
                entry[1] += row[1]
                entry[2] += row[2]

    # -- reporting ------------------------------------------------------------
    def report(self, top_n: Optional[int] = None) -> Dict[str, Any]:
        """The run-report ``profile`` section (deterministically ordered)."""
        limit = self.top_n if top_n is None else top_n
        phases: Dict[str, Any] = {}
        for phase in sorted(self._phase_stats):
            bucket = self._phase_stats[phase]
            ranked = sorted(bucket.items(),
                            key=lambda item: (-item[1][1], item[0]))
            phases[phase] = {
                "functions_profiled": len(bucket),
                "calls": int(sum(row[0] for row in bucket.values())),
                "time_s": sum(row[1] for row in bucket.values()),
                "hotspots": [
                    {"function": key,
                     "ncalls": int(row[0]),
                     "tottime_s": row[1],
                     "cumtime_s": row[2]}
                    for key, row in ranked[:limit]
                ],
            }
        return {"top_n": limit, "phases": phases}
