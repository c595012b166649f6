"""SRG of a dense matrix operator via its graph compression.

The graph of T normalizes with S = (I + T*T)^(-1/2), and the bounded
operator

    V = S (-I - iT - iT* + T*T) S

satisfies f(srg(T)) = W(V): tracing the numerical range of V and
mapping back through the disk inverse yields the SRG.  S and V are
built from the SVD of T, which never forms T*T.  Real matrices
of size 2 are special: their real-field SRG is only the boundary of
the complex-field region, so those results carry a boundary_only flag.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import cgeom, nrange
from .errors import IllConditionedError, InputError
from .linalg import as_matrix, general_eig
from .nrange import DEFAULT_REFINE_TOL, nrange_boundary

# Condition-number ceiling for user-supplied similarity transforms;
# beyond this S T S^-1 has no double-precision accuracy left.
COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class VOperator:
    """The graph compression V together with the normalizer S used."""

    v: np.ndarray
    s_factor: np.ndarray


def build_v(t) -> VOperator:
    """Graph compression of T: V = S(-I - iT - iT* + T*T)S.

    S is the Hermitian inverse square root of I + T*T, so that the
    columns of [S; TS] are orthonormal and W(V) = f(srg(T)) lies in
    the closed unit disk.  S and V come from the SVD T = U diag(s) W*,
    which never forms T*T: with r = hypot(1, s), c = 1/r and d = s/r,
    S = W diag(c) W* and V = A - iB with the Hermitian A = W diag(d^2 -
    c^2) W* and B = W (M + M*) W*, where M = diag(c) W*U diag(d).  For
    real T the SVD is real, so A and B are real symmetric, V = V^T, and
    the sweep of V runs real eigensolves.
    """
    m = as_matrix(t, square=True)
    if not m.imag.any():
        m = m.real
    u, sigma, wh = np.linalg.svd(m)
    r = np.hypot(1.0, sigma)  # not sqrt(1 + s^2), which overflows above 1e154
    c, d = 1.0 / r, sigma / r
    w = wh.conj().T
    mc = c[:, None] * (wh @ u) * d
    a = (w * (d * d - c * c)) @ wh
    b = w @ (mc + mc.conj().T) @ wh
    # Exactly Hermitian, which rounding in the products is not.
    a, b = ((x + x.conj().T) / 2.0 for x in (a, b))
    return VOperator(v=a - 1j * b, s_factor=(w * c) @ wh)


def srg_complex(t, refine_tol: float = DEFAULT_REFINE_TOL) -> cgeom.SrgRegion:
    """SRG of T over the complex field.

    The disk-side hull is the traced numerical range of V, within
    refine_tol of the true disk-side region; the plane branches come
    from mapping its boundary back through the disk inverse.  Matrices
    are bounded, so the region never contains infinity.
    """
    nb = nrange_boundary(build_v(t).v, refine_tol=refine_tol)
    return cgeom.region_from_disk_hull(nb.hull, contains_infinity=False)


def srg_real(t, refine_tol: float = DEFAULT_REFINE_TOL) -> cgeom.SrgRegion:
    """SRG of a real matrix over the real field.

    For a 2x2 real matrix the real-field SRG is exactly the boundary
    of the complex-field region (boundary_only = True); for every
    other size it fills the same region as the complex case.
    """
    m = as_matrix(t, square=True)
    if np.max(np.abs(m.imag)) != 0.0:
        raise InputError("srg_real requires a matrix with real entries")
    region = srg_complex(m, refine_tol)
    if m.shape[0] == 2:
        return dataclasses.replace(region, boundary_only=True)
    return region


def hull_bk_spectrum(t) -> cgeom.SrgRegion:
    """Hyperbolic hull of the spectrum, hull_bk(eigenvalues of T).

    Eigenvalues are always taken over the complex field, also for real
    input.  For normal T this region equals the full SRG.
    """
    return cgeom.hull_bk(general_eig(t))


def similarity_scaled_srg(t, s, refine_tol: float = DEFAULT_REFINE_TOL) -> cgeom.SrgRegion:
    """SRG of T under the scaled metric induced by S: srg(S T S^-1)."""
    m = as_matrix(t, square=True)
    sm = as_matrix(s, square=True)
    if sm.shape != m.shape:
        raise InputError("similarity transform must match the operator's shape")
    cond = float(np.linalg.cond(sm))
    if not math.isfinite(cond) or cond >= COND_LIMIT:
        raise IllConditionedError(
            f"similarity transform condition number {cond:.3e} exceeds {COND_LIMIT:.0e}"
        )
    # Right division (S T) S^-1 without forming the inverse explicitly.
    scaled = np.linalg.solve(sm.T, (sm @ m).T).T
    return srg_complex(scaled, refine_tol)


def gamma_scaling_demo(t, gammas, refine_tol: float = DEFAULT_REFINE_TOL):
    """Shrink the SRG toward the spectral hull with S = diag(g, g^2, ...)Q.

    Q comes from a complex Schur triangularization, so Q T Q* is upper
    triangular and the diagonal scaling damps its strictly-upper part
    by 1/g and more.  Returns [(gamma, hausdorff)] where hausdorff is
    the distance between the scaled SRG's disk hull and the planar
    hull of the mapped eigenvalues; it tends to zero as gamma grows.
    """
    m = as_matrix(t, square=True)
    gam, at_infinity = cgeom.split_infinity(gammas)
    if not gam.size:
        raise InputError("gammas must be non-empty")
    if at_infinity.any() or gam.imag.any():
        raise InputError("gammas must be real numbers")
    gam = gam.real.tolist()
    if any(not (g > 0) for g in gam):
        raise InputError("gammas must be positive")
    if any(b <= a for a, b in zip(gam, gam[1:])):
        raise InputError("gammas must be strictly ascending")
    n = m.shape[0]
    # Imported here so that importing the package does not load scipy.
    import scipy.linalg

    _, z = scipy.linalg.schur(m, output="complex")
    q = z.conj().T
    target = cgeom.convex_hull_2d(cgeom.bk_forward_array(general_eig(m)))
    out = []
    for g in gam:
        scale = np.diag([g ** (k + 1) for k in range(n)]).astype(np.complex128)
        region = similarity_scaled_srg(m, scale @ q, refine_tol)
        out.append((g, cgeom.polygon_hausdorff(region.disk_hull, target)))
    return out


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Per-eigenvalue containment margins of f(eigenvalue) in W(V), as
    arrays in the order of general_eig.

    margin is minus the signed distance to the hull of the sweep of V,
    so margin > 0 means inside the hull; an eigenvalue counts as
    contained when margin >= -tol, where tol is the sweep's certified
    radius (see nrange_contains).
    """

    eigenvalues: np.ndarray
    margins: np.ndarray
    contained: np.ndarray
    tol: float

    @property
    def all_contained(self) -> bool:
        return bool(np.all(self.contained))

    @property
    def worst_margin(self) -> float:
        return float(np.min(self.margins))


def spectrum_check(t, refine_tol: float = DEFAULT_REFINE_TOL) -> SpectrumReport:
    """Verify that every eigenvalue's disk image lies in W(V).

    Failures are reported, not raised: V is built and swept once at
    refine_tol, and the report carries one margin per eigenvalue,
    decided by the rule of nrange_contains.
    """
    eigs = general_eig(t)
    distances, radius = nrange._certified_distances(
        build_v(t).v, cgeom.bk_forward_array(eigs), refine_tol)
    return SpectrumReport(eigenvalues=eigs, margins=-distances, contained=distances <= radius,
                          tol=radius)
