"""Runtime secret-taint sanitizer: ``Secret[T]`` and ``declassify``.

This module is the guard on secret flow.  Under ``DMW_SANITIZE=1``,
which CI sets for the whole tier-1 suite (honest runs and every
deviation family), the agents wrap their private values in
:class:`Secret`, a taint wrapper that

* supports the arithmetic and comparisons the protocol needs (results of
  arithmetic stay tainted; comparisons produce plain booleans, which is
  how the mechanism computes argmins without revealing operands),
* raises :class:`SecretLeakError` from ``__str__``/``__format__``/
  ``__int__``/``__index__`` so a stray ``print``, f-string, ``"%d"``
  format, or JSON dump fails loudly instead of leaking, and
* can only be opened through :func:`declassify`, which records an
  auditable :class:`DeclassificationEvent` with a human-written reason.

The paper sanctions exactly three reveals (DMW Phase III): the minimum
bid ``y*``, the winner's identity, and the second price ``y**``.  The
protocol routes those — and nothing else — through :func:`declassify`,
so after a sanitized run :func:`declassification_audit` is a complete,
reviewable list of everything the mechanism disclosed.

When ``DMW_SANITIZE`` is unset, :func:`tag_secret` is the identity and
:func:`declassify` a passthrough, so production runs pay nothing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Generic, List, Tuple, TypeVar, Union

T = TypeVar("T", bound=int)

_ENABLED_VALUES = ("1", "true", "yes", "on")

#: Environment variable gating the sanitizer test mode.
SANITIZE_ENV_VAR = "DMW_SANITIZE"


class SecretLeakError(RuntimeError):
    """A secret value was about to escape through an unsanctioned channel."""


def sanitize_enabled() -> bool:
    """True when the ``DMW_SANITIZE=1`` test mode is active."""
    return os.environ.get(SANITIZE_ENV_VAR, "").strip().lower() \
        in _ENABLED_VALUES


@dataclass(frozen=True)
class DeclassificationEvent:
    """One audited reveal.

    Attributes
    ----------
    sequence:
        Monotonic index of the event within the process.
    label:
        Short machine-readable tag of *what* was revealed (``"y*"``,
        ``"winner"``, ``"y**"``, ``"winner_bid"``).
    reason:
        Human-written justification passed at the call site.
    value:
        The revealed value (post-reveal it is public by definition).
    """

    sequence: int
    label: str
    reason: str
    value: int


_audit_log: List[DeclassificationEvent] = []


class Secret(Generic[T]):
    """Taint wrapper around a private integer value.

    Arithmetic keeps the taint; comparisons return plain booleans;
    every rendering or coercion path raises :class:`SecretLeakError`.
    The raw value is reachable only via :func:`declassify` (audited
    reveal) or :func:`local_value` (owner-local computation, e.g. the
    bidding agent encoding its own bid into share polynomials).
    """

    __slots__ = ("_value", "_label")

    def __init__(self, value: T, label: str = "secret") -> None:
        if isinstance(value, Secret):  # re-wrapping keeps innermost value
            value = value._value
        self._value = value
        self._label = label

    @property
    def label(self) -> str:
        return self._label

    # -- arithmetic (taint-preserving) ------------------------------------
    def _lift(self, other: Any) -> int:
        return other._value if isinstance(other, Secret) else other

    def __add__(self, other: Any) -> "Secret[T]":
        return Secret(self._value + self._lift(other), self._label)

    def __radd__(self, other: Any) -> "Secret[T]":
        return Secret(self._lift(other) + self._value, self._label)

    def __sub__(self, other: Any) -> "Secret[T]":
        return Secret(self._value - self._lift(other), self._label)

    def __rsub__(self, other: Any) -> "Secret[T]":
        return Secret(self._lift(other) - self._value, self._label)

    def __mul__(self, other: Any) -> "Secret[T]":
        return Secret(self._value * self._lift(other), self._label)

    def __rmul__(self, other: Any) -> "Secret[T]":
        return Secret(self._lift(other) * self._value, self._label)

    def __mod__(self, other: Any) -> "Secret[T]":
        return Secret(self._value % self._lift(other), self._label)

    def __floordiv__(self, other: Any) -> "Secret[T]":
        return Secret(self._value // self._lift(other), self._label)

    def __neg__(self) -> "Secret[T]":
        return Secret(-self._value, self._label)

    # -- comparisons (reveal one bit, as the mechanism requires) ----------
    def __eq__(self, other: object) -> bool:
        return self._value == self._lift(other)

    def __ne__(self, other: object) -> bool:
        return self._value != self._lift(other)

    def __lt__(self, other: Any) -> bool:
        return self._value < self._lift(other)

    def __le__(self, other: Any) -> bool:
        return self._value <= self._lift(other)

    def __gt__(self, other: Any) -> bool:
        return self._value > self._lift(other)

    def __ge__(self, other: Any) -> bool:
        return self._value >= self._lift(other)

    def __hash__(self) -> int:
        return hash(self._value)

    def __bool__(self) -> bool:
        return bool(self._value)

    # -- leak barriers -----------------------------------------------------
    def _leak(self, channel: str) -> "SecretLeakError":
        return SecretLeakError(
            "secret %r would leak through %s; route the reveal through "
            "declassify(value, reason=...) instead" % (self._label, channel))

    def __str__(self) -> str:
        raise self._leak("str()")

    def __format__(self, format_spec: str) -> str:
        raise self._leak("format()")

    def __int__(self) -> int:
        raise self._leak("int()")

    def __index__(self) -> int:
        raise self._leak("__index__ (range/%d formatting/slicing)")

    def __float__(self) -> float:
        raise self._leak("float()")

    def __repr__(self) -> str:
        # repr is deliberately safe (debuggers call it implicitly) but
        # never includes the value.
        return "Secret(<redacted:%s>)" % self._label


#: A value that may or may not be taint-wrapped depending on the mode.
SecretInt = Union[int, "Secret[int]"]


def tag_secret(value: T, label: str = "secret") -> Union[T, Secret[T]]:
    """Wrap ``value`` when the sanitizer mode is on; identity otherwise."""
    if sanitize_enabled():
        return Secret(value, label)
    return value


def local_value(value: Union[T, Secret[T]]) -> T:
    """Owner-local unwrap: computing on one's *own* secret.

    This is **not** a declassification — the result must stay inside the
    owning agent (e.g. the bid degree used to draw share polynomials).
    It exists so protocol-internal computation does not pollute the
    declassification audit, which must list only actual reveals.
    """
    if isinstance(value, Secret):
        return value._value
    return value


def declassify(value: Union[T, Secret[T]], *, reason: str,
               label: str = "") -> T:
    """Open a secret through the sanctioned gate, recording an audit event.

    ``reason`` is mandatory and should cite the protocol step that makes
    the reveal legitimate (the paper sanctions exactly ``y*``, the winner
    identity, and ``y**``).  Plain values may also be routed through the
    gate: the reveal is still recorded, which keeps the audit complete at
    call sites that only sometimes hold a wrapped value.

    Events are recorded only under ``DMW_SANITIZE=1`` so unsanitized
    production runs do not accumulate an unbounded log.
    """
    if isinstance(value, Secret):
        raw = value._value
        event_label = label or value._label
    else:
        raw = value
        event_label = label or "plain"
    if sanitize_enabled():
        _audit_log.append(DeclassificationEvent(
            sequence=len(_audit_log),
            label=event_label,
            reason=reason,
            value=raw,
        ))
    return raw


def declassification_audit() -> Tuple[DeclassificationEvent, ...]:
    """All reveals recorded since the last :func:`clear_declassification_audit`."""
    return tuple(_audit_log)


def clear_declassification_audit() -> None:
    """Reset the audit log (test isolation)."""
    _audit_log.clear()


def secret_json_default(obj: object) -> object:
    """``json.dumps(default=...)`` hook that turns a Secret leak into
    :class:`SecretLeakError` instead of an opaque ``TypeError``."""
    if isinstance(obj, Secret):
        raise SecretLeakError(
            "secret %r would leak through JSON serialization; declassify "
            "it first" % obj.label)
    raise TypeError(
        "Object of type %s is not JSON serializable" % type(obj).__name__)
