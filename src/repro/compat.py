"""Optional-dependency shims.

The simulator's hot paths use numpy for vectorized page-state scans and
batch segment evaluation, but every numpy call site keeps a pure-Python
fallback so the package stays importable — and the full test suite runnable
— on an interpreter without numpy.  Import ``np``/``HAVE_NUMPY`` from here
instead of importing numpy directly; fallback paths are selected on
``HAVE_NUMPY`` and must produce bit-identical results (the vectorized code
performs the same IEEE-754 double operations as the scalar code, and the
differential digest tests hold on both paths).
"""

from __future__ import annotations

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy is present in CI
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

__all__ = ["np", "HAVE_NUMPY"]
