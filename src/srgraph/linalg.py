"""Dense complex linear algebra used by the SRG pipeline.

Thin validation layers over LAPACK-backed numpy routines.  The
contracts (residual bounds, ordering) are what matters here; every
wrapper normalizes its input to a well-formed complex matrix first and
fails loudly on NaN/Inf or shape mismatch.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import InputError


def as_matrix(a, square: bool = False) -> np.ndarray:
    """Coerce to a 2-D complex128 array with finite entries."""
    m = np.array(a, dtype=np.complex128, copy=True)
    if m.ndim != 2 or m.size == 0:
        raise InputError(f"expected a non-empty 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise InputError("matrix entries must be finite (no NaN/Inf)")
    if square and m.shape[0] != m.shape[1]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    return m


def require_positive_finite(value, name: str) -> None:
    """Raise InputError unless value is a finite real number above 0."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
        raise InputError(f"{name} must be a finite positive number, got {value!r}")


def frob(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(a), "fro"))


def general_eig(a) -> np.ndarray:
    """All eigenvalues of a square matrix, sorted by (re, im).

    The multiset is what callers rely on; sorting just makes output
    deterministic.
    """
    m = as_matrix(a, square=True)
    vals = np.linalg.eigvals(m)
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def poly_roots(coeffs) -> np.ndarray:
    """Roots of a polynomial given leading-first coefficients.

    Uses companion-matrix eigenvalues.  Leading zeros are trimmed
    exactly; the zero polynomial and (nonzero) constants are rejected.
    Roots are sorted by (re, im).
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=np.complex128))
    if c.ndim != 1 or c.size == 0:
        raise InputError("poly_roots expects a non-empty coefficient list")
    if not np.all(np.isfinite(c.real)) or not np.all(np.isfinite(c.imag)):
        raise InputError("polynomial coefficients must be finite")
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        raise InputError("the zero polynomial has no well-defined roots")
    c = c[nz[0]:]
    if c.size < 2:
        raise InputError("constant polynomial: degree must be at least 1")
    roots = np.roots(c)
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]
