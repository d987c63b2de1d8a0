"""Typed messages for the simulated network.

Every protocol transmission — a private share, a published commitment
vector, a payment claim — is a :class:`Message`.  Messages carry an
accounting weight in *field elements* (integers mod ``p`` or mod ``q``), so
communication cost can be reported both in message counts (the unit of
Theorem 11) and in field-element volume (a proxy for bytes: multiply by
``ceil(log2 p / 8)``).
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Optional, Tuple

#: Sentinel recipient meaning "published to every participant".
BROADCAST = None


class Message(NamedTuple):
    """One transmission on the simulated network.

    An immutable tuple: the networks build one per queued transmission
    and one per broadcast recipient, and the socket transport's frames
    carry them pickled, so it is cheap to build, copy and unpickle.

    Attributes
    ----------
    sender:
        Sending agent id.
    recipient:
        Receiving agent id, or :data:`BROADCAST` for a published message.
    kind:
        Message type tag, e.g. ``"share"``, ``"commitment"``, ``"lambda_psi"``.
    payload:
        Arbitrary content; the simulator never inspects it.
    field_elements:
        Number of field elements the payload encodes (accounting weight).
    round_sent:
        The round the message was queued in, stamped by the network when
        it is queued (every queue is drained at the next barrier, so this
        is also the round it is delivered in).
    """

    sender: int
    recipient: Optional[int]
    kind: str
    payload: Any
    field_elements: int = 1
    round_sent: int = -1

    @property
    def is_broadcast(self) -> bool:
        return self.recipient is BROADCAST

    def with_round(self, round_index: int) -> "Message":
        """Return a copy stamped with ``round_index``."""
        return self._replace(round_sent=round_index)

    def __reduce__(self) -> Tuple[Any, Tuple[Any, ...]]:
        # Unpickling then rebuilds the tuple in C, not through the
        # generated Python-level __new__.
        return (tuple.__new__, (type(self), tuple(self)))


def split_by_kind(inbox: List[Message],
                  kind: str) -> Tuple[List[Message], List[Message]]:
    """Split ``inbox`` into its ``kind`` messages and the rest, in one
    pass; both lists keep arrival order."""
    matched: List[Message] = []
    kept: List[Message] = []
    for message in inbox:
        if message.kind == kind:
            matched.append(message)
        else:
            kept.append(message)
    return matched, kept


def estimate_bytes(field_elements: int, p_bits: int) -> int:
    """Convert a field-element count to bytes for a given field size."""
    return field_elements * ((p_bits + 7) // 8)
