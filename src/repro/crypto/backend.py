"""Pluggable arithmetic backends for the counted modular substrate.

The paper's cost claims (Theorem 12, Table 1) are *counted* analytically
by :class:`~repro.crypto.modular.OperationCounter`; the *values* can be
computed by whatever engine the host has.  This module makes that engine
pluggable:

* ``python`` — the reference backend: CPython bigints, ``pow(b, e, m)``,
  ``pow(a, -1, m)``.  Always available; bit-identical to the historical
  implementation.
* ``gmpy2`` — GMP-backed ``mpz`` residues via ``gmpy2.powmod`` and
  ``gmpy2.invert``.  Selected only when :mod:`gmpy2` is importable;
  otherwise selection degrades gracefully to ``python`` (or raises when
  ``strict=True``).

Selection precedence (first hit wins):

1. an explicit :func:`select_backend` / :func:`using_backend` call
   (the ``--backend`` CLI flag is a thin wrapper over this);
2. the ``DMW_BACKEND`` environment variable, consulted once at import;
3. the ``python`` default.

``"auto"`` resolves to ``gmpy2`` when importable, else ``python``.

Counter-parity contract
-----------------------
Backends change *how* residues are computed, never *what is counted*:
every call site charges its :class:`OperationCounter` before touching the
backend, so Table 1 / Theorem 12 tallies are bit-identical across
backends.  ``tests/test_backend.py`` asserts outcome, transcript, and
counter equality between ``python`` and ``gmpy2`` whole-protocol runs.

Process-pool workers re-select the parent's backend by name from the
pickled :class:`~repro.parallel.PoolSpec` (graceful, never strict), so a
worker on a host without gmpy2 falls back to ``python`` and still
produces the identical outcome.
"""

from __future__ import annotations

import contextlib
import math
import os
import warnings
from typing import Any, Callable, Dict, Iterator, List


class BackendUnavailableError(RuntimeError):
    """Raised by ``select_backend(name, strict=True)`` for missing engines."""


class ArithmeticBackend:
    """One arithmetic engine: scalar entry points plus residue wrapping.

    The scalar entry points (:meth:`mul`, :attr:`powmod`, :meth:`invert`)
    take and return plain ``int`` — they are the drop-in targets for
    :mod:`repro.crypto.modular`.  Hot loops that keep intermediate
    residues alive (fixed-base tables, Straus chains, Montgomery batches)
    instead :meth:`wrap` their operands once, run native ``*``/``%``
    Python operators on the wrapped values, and :meth:`unwrap` at the
    return boundary; for the python backend both are identity-cheap.
    """

    name: str = "abstract"

    #: ``powmod(base, exponent, modulus)`` returns ``base ** exponent %
    #: modulus`` (``exponent >= 0``).  An attribute rather than a method so
    #: an engine can install a C function directly: the python backend's
    #: is the builtin ``pow``, so Horner, Straus and ``mod_exp`` pay no
    #: Python frame per call.
    powmod: Callable[[int, int, int], int]

    def wrap(self, value: int) -> Any:
        """Convert an int into this backend's native residue type."""
        raise NotImplementedError

    def unwrap(self, value: Any) -> int:
        """Convert a native residue back into a plain Python int."""
        raise NotImplementedError

    def mul(self, a: int, b: int, modulus: int) -> int:
        """Return ``(a * b) % modulus``."""
        raise NotImplementedError

    def invert(self, a: int, modulus: int) -> int:
        """Return ``a^{-1} mod modulus``.

        Raises
        ------
        ZeroDivisionError
            With the canonical ``mod_inv`` diagnostic when
            ``gcd(a, modulus) != 1`` — identical wording across backends
            so error-path tests cannot tell engines apart.
        """
        raise NotImplementedError

    def _not_invertible(self, a: int, modulus: int) -> ZeroDivisionError:
        return ZeroDivisionError(
            "%d is not invertible modulo %d (gcd=%d)"
            % (a, modulus, math.gcd(a, modulus))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<%s backend>" % self.name


class PythonBackend(ArithmeticBackend):
    """The reference engine: CPython bigint arithmetic, zero wrapping."""

    name = "python"

    def __init__(self) -> None:
        self.powmod = pow

    def wrap(self, value: int) -> Any:
        return value

    def unwrap(self, value: Any) -> int:
        return int(value)

    def mul(self, a: int, b: int, modulus: int) -> int:
        return (a * b) % modulus

    def invert(self, a: int, modulus: int) -> int:
        # Native pow(a, -1, m) (CPython >= 3.8) beats a Python-level
        # extended Euclid by several times; the gcd-based error path
        # keeps the canonical diagnostics.
        try:
            return pow(a, -1, modulus)
        except ValueError:
            raise self._not_invertible(a, modulus) from None


class Gmpy2Backend(ArithmeticBackend):
    """GMP engine: ``mpz`` residues, ``gmpy2.powmod``/``invert``.

    Constructed only when :mod:`gmpy2` imports; :func:`select_backend`
    handles the fallback.  ``mpz`` mimics int for ``*``/``%``/``==``/
    hashing, so wrapped residues flow through the fastexp hot loops
    unchanged — only the wrap/unwrap boundaries know the difference.
    """

    name = "gmpy2"

    def __init__(self) -> None:
        import gmpy2  # noqa: F401  # dmwlint: disable=DMW007

        self._gmpy2 = gmpy2
        self._mpz = gmpy2.mpz
        self.powmod = self._powmod

    def wrap(self, value: int) -> Any:
        return self._mpz(value)

    def unwrap(self, value: Any) -> int:
        return int(value)

    def mul(self, a: int, b: int, modulus: int) -> int:
        return int(self._mpz(a) * b % modulus)

    def _powmod(self, base: int, exponent: int, modulus: int) -> int:
        return int(self._gmpy2.powmod(base, exponent, modulus))

    def invert(self, a: int, modulus: int) -> int:
        try:
            return int(self._gmpy2.invert(a, modulus))
        except ZeroDivisionError:
            raise self._not_invertible(a, modulus) from None


_FACTORIES: Dict[str, Callable[[], ArithmeticBackend]] = {
    "python": PythonBackend,
    "gmpy2": Gmpy2Backend,
}

#: The engine every counted call site routes through.  Module-global by
#: design: backend choice is an execution-environment property (like
#: ``fastexp._ENABLED``), not per-run state, and must survive pickling
#: into pool workers by *name* rather than by object.
ACTIVE: ArithmeticBackend = PythonBackend()


def gmpy2_available() -> bool:
    """Return True when the gmpy2 engine can actually be constructed."""
    try:
        import gmpy2  # noqa: F401  # dmwlint: disable=DMW007
    except ImportError:
        return False
    return True


def available_backends() -> List[str]:
    """Names of the engines constructible in this interpreter."""
    names = ["python"]
    if gmpy2_available():
        names.append("gmpy2")
    return names


def active_backend() -> ArithmeticBackend:
    """Return the currently selected engine."""
    return ACTIVE


def select_backend(name: str, strict: bool = False) -> ArithmeticBackend:
    """Install the named engine as :data:`ACTIVE` and return it.

    Parameters
    ----------
    name:
        ``"python"``, ``"gmpy2"``, or ``"auto"`` (gmpy2 when importable,
        else python).  Case-insensitive; empty/None-ish falls back to
        ``"python"``.
    strict:
        When True, a named-but-unavailable engine raises
        :class:`BackendUnavailableError`; the default emits a
        :class:`RuntimeWarning` and degrades to ``python``.
    """
    global ACTIVE
    requested = (name or "python").strip().lower()
    if requested == "auto":
        requested = "gmpy2" if gmpy2_available() else "python"
    factory = _FACTORIES.get(requested)
    if factory is None:
        raise ValueError(
            "unknown arithmetic backend %r; options: %s"
            % (name, sorted(_FACTORIES) + ["auto"])
        )
    try:
        backend = factory()
    except ImportError:
        if strict:
            raise BackendUnavailableError(
                "backend %r requested but its engine is not importable "
                "(install the '.[fast]' extra)" % requested
            ) from None
        warnings.warn(
            "backend %r unavailable; falling back to pure-python "
            "arithmetic" % requested,
            RuntimeWarning,
            stacklevel=2,
        )
        backend = PythonBackend()
    # Reachable from `_run_shard_with_spec` only as the value-guarded
    # PoolSpec install: a pool worker (the resident service pool outlives
    # any one job) re-selects the engine only when the spec it is handed
    # differs from the one it already holds.
    ACTIVE = backend  # dmwlint: disable=DMW011
    return backend


@contextlib.contextmanager
def using_backend(name: str, strict: bool = False) -> Iterator[ArithmeticBackend]:
    """Select ``name`` within the block, restoring the previous engine.

    Test/bench helper; nesting is safe and exceptions restore state.
    """
    global ACTIVE
    previous = ACTIVE
    try:
        yield select_backend(name, strict=strict)
    finally:
        ACTIVE = previous


# Environment-variable initialisation (precedence step 2).  Errors here
# must not make `import repro` unusable: an unknown name warns and keeps
# the python default rather than raising at import time.
_env_choice = os.environ.get("DMW_BACKEND", "").strip()
if _env_choice:
    try:
        select_backend(_env_choice)
    except ValueError:
        warnings.warn(
            "ignoring unknown DMW_BACKEND=%r (options: python, gmpy2, "
            "auto)" % _env_choice,
            RuntimeWarning,
        )
