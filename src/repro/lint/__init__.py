"""``python -m repro.lint`` — entry point alias for dmwlint.

The implementation lives in :mod:`repro.analysis.static`; this package
exists so the linter is reachable without remembering the nested module
path, mirroring the ``dmw`` CLI convention.
"""

from __future__ import annotations

from ..analysis.static.cli import main

__all__ = ["main"]
