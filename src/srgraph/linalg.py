"""Dense complex linear algebra used by the SRG pipeline.

Thin validation layers over LAPACK-backed numpy routines.  The
contracts (residual bounds, ordering, rejection thresholds) are what
matters here; every wrapper normalizes its input to a well-formed
complex matrix first and fails loudly on NaN/Inf or shape mismatch.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InputError, NotHermitianError, NotHpdError

# Relative Frobenius tolerance below which a matrix counts as Hermitian.
HERM_TOL = 1e-10
# Eigenvalues of an HPD matrix must exceed this fraction of the largest.
HPD_TOL = 1e-14


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


def frob(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(a), "fro"))


class HermEigResult(NamedTuple):
    eigenvalues: np.ndarray  # ascending reals
    eigenvectors: np.ndarray  # unitary, columns


def _require_hermitian(m: np.ndarray, what: str) -> np.ndarray:
    dev = float(np.linalg.norm(m - m.conj().T, "fro"))
    if dev > HERM_TOL * max(1.0, frob(m)):
        raise NotHermitianError(f"{what}: deviation from Hermitian is {dev:.3e}")
    return (m + m.conj().T) / 2.0


def herm_eig(a) -> HermEigResult:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Rejects inputs whose deviation from Hermitian exceeds
    HERM_TOL * max(1, ||A||_F).  Residuals ||A v - lambda v|| stay below
    the same bound; this is covered by the test suite rather than
    re-checked on every call.
    """
    m = _require_hermitian(as_matrix(a, square=True), "herm_eig")
    w, v = np.linalg.eigh(m)
    return HermEigResult(w, v)


def general_eig(a) -> np.ndarray:
    """All eigenvalues of a square matrix, sorted by (re, im).

    The multiset is what callers rely on; sorting just makes output
    deterministic.
    """
    m = as_matrix(a, square=True)
    vals = np.linalg.eigvals(m)
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def inv_sqrt_hpd(m) -> np.ndarray:
    """Hermitian positive-definite inverse square root M^(-1/2).

    Computed by eigendecomposition; rejects matrices whose smallest
    eigenvalue is not above HPD_TOL times the largest.
    """
    a = as_matrix(m, square=True)
    w, v = herm_eig(a)
    lo, hi = float(w[0]), float(w[-1])
    if hi <= 0.0 or lo <= HPD_TOL * hi:
        raise NotHpdError(f"matrix is not positive definite: spectrum [{lo:.3e}, {hi:.3e}]")
    s = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return (s + s.conj().T) / 2.0


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
