"""Exceptions raised by the DMW protocol implementation."""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple


class DMWError(Exception):
    """Base class for all DMW errors."""


class ParameterError(DMWError):
    """Invalid Phase I parameters (bid set, pseudonyms, fault bound...)."""


class CheckpointMismatch(ParameterError):
    """A resume checkpoint does not fit the run: it was taken with another
    number of agents or tasks, or in the other degraded mode."""


class ProtocolAbort(DMWError):
    """An honest agent detected a protocol violation and terminated.

    Per the paper's faithfulness proofs, termination yields zero utility
    for every agent: no allocation is made and no payment dispensed.

    Attributes
    ----------
    reason:
        Human-readable description of what failed.
    phase:
        Protocol phase (``"bidding"``, ``"allocating"``, ``"payments"``).
    task:
        Task index of the affected auction, if applicable.
    detected_by:
        Index of the agent that detected the violation, if applicable.
    offender:
        Index of the agent whose messages triggered detection, if known.
    """

    def __init__(self, reason: str, phase: str,
                 task: Optional[int] = None,
                 detected_by: Optional[int] = None,
                 offender: Optional[int] = None) -> None:
        super().__init__(reason)
        self.reason = reason
        self.phase = phase
        self.task = task
        self.detected_by = detected_by
        self.offender = offender

    def __repr__(self) -> str:
        return ("ProtocolAbort(reason=%r, phase=%r, task=%r, detected_by=%r, "
                "offender=%r)" % (self.reason, self.phase, self.task,
                                  self.detected_by, self.offender))

    def __reduce__(self) -> Tuple[Any, ...]:
        """Pickle support (the process-pool driver ships aborts between
        processes; the default exception reduction would drop ``phase``)."""
        return (ProtocolAbort, (self.reason, self.phase, self.task,
                                self.detected_by, self.offender))


class ScheduleError(DMWError):
    """A round barrier charged a message kind its round does not declare.

    The schedule is :mod:`repro.core.rounds`.  Not a
    :class:`ProtocolAbort`: agents choose message contents, never kinds,
    so no deviant can cause it and degraded mode never quarantines it.
    ``round``, ``kind`` and ``senders`` (agent indices, ascending) name
    the defect in the driver, a machine or a transport.
    """

    def __init__(self, round_name: str, kind: str,
                 senders: Sequence[int]) -> None:
        super().__init__(
            "the %s round charged message kind %r, which it does not "
            "declare (sent by agent(s) %s)"
            % (round_name, kind,
               ", ".join(str(s) for s in senders) or "none"))
        self.round = round_name
        self.kind = kind
        self.senders = tuple(senders)

    def __reduce__(self) -> Tuple[Any, ...]:
        """Pickle support: a pool shard's error reaches the parent intact."""
        return (ScheduleError, (self.round, self.kind, self.senders))
