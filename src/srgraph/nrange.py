"""Numerical-range boundary tracing by the support-function rotation method.

For each sweep angle theta the Hermitian part of e^{-i*theta}A is
diagonalized; its top eigenvector x gives a boundary support point
p = <Ax, x> and the support value h(theta) = lambda_max.  A nearly
degenerate top eigenvalue signals a flat face, in which case the
compression of A to the top eigenspace is diagonalized and every
eigenvector contributes a support point (the face endpoints among
them).

Angle batches are solved as one stacked Hermitian eigenproblem, so
sweeps of tens of thousands of angles stay cheap.  Optional adaptive
refinement bisects sweep wedges, breadth-first in batches, until the
exact outer bound - the distance from the support-line apex to the
chord of adjacent support points - drops below a target, which
certifies W(A) within that distance of the assembled polygon.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import cgeom
from .errors import InputError
from .linalg import as_matrix, frob

# Relative gap under which the top eigenvalue counts as degenerate.
DEGENERACY_GAP = 1e-10
# Guards for adaptive refinement.
REFINE_MAX_DEPTH = 48
REFINE_MIN_WEDGE = 1e-9


@dataclass(frozen=True)
class NRangeBoundary:
    """Support data of a numerical-range boundary sweep.

    angles are ascending in [0, 2*pi), repeated where a flat face
    emitted several support points; hull is the convex hull of all
    support points.
    """

    angles: np.ndarray
    support_points: np.ndarray
    support_values: np.ndarray
    hull: cgeom.ConvexPolygon


def _thread_cap() -> int:
    raw = os.environ.get("SRG_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _rotated_hermitian_parts(a: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Stack of H_theta = (e^{-i theta} A + e^{i theta} A*)/2."""
    ph = np.exp(-1j * thetas)
    stack = ph[:, None, None] * a[None, :, :]
    return (stack + np.conj(np.swapaxes(stack, 1, 2))) / 2.0


def _degenerate_face(a: np.ndarray, theta: float, h: float,
                     w: np.ndarray, v: np.ndarray, gap_tol: float) -> list[complex]:
    """All support points of a flat face, ordered along the face.

    The face is resolved by diagonalizing the skew part of the
    compression of A to the near-top eigenspace; ordering follows the
    imaginary part of e^{-i*theta} p.
    """
    sel = np.nonzero(w >= w[-1] - gap_tol)[0]
    sub = v[:, sel]
    ph = complex(math.cos(theta), -math.sin(theta))
    comp = sub.conj().T @ a @ sub
    skew = (ph * comp - np.conj(ph) * comp.conj().T) / 2j
    skew = (skew + skew.conj().T) / 2.0
    _, u = np.linalg.eigh(skew)
    pts = []
    for j in range(u.shape[1]):
        x = sub @ u[:, j]
        pts.append(complex(np.vdot(x, a @ x)))
    return pts


def _faces_batch(a: np.ndarray, thetas: np.ndarray, gap_tol: float):
    """[(h(theta), [face points...])] for a batch of angles."""
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.size == 0:
        return []
    w, v = np.linalg.eigh(_rotated_hermitian_parts(a, thetas))
    n = a.shape[0]
    h = w[:, -1]
    top = v[:, :, -1]
    points = np.einsum("ki,ij,kj->k", np.conj(top), a, top)
    # Gap test and scalar conversion done array-wide; the per-angle loop
    # then touches plain Python floats only.
    simple = [True] * thetas.size if n == 1 else (h - w[:, -2] >= gap_tol).tolist()
    out = []
    for k, (hk, pk, ok) in enumerate(zip(h.tolist(), points.tolist(), simple)):
        if ok:
            out.append((hk, [pk]))
        else:
            out.append((hk, _degenerate_face(a, float(thetas[k]), hk,
                                             w[k], v[k], gap_tol)))
    return out


def _faces(a: np.ndarray, thetas, gap_tol: float):
    """Batch evaluation, optionally split across SRG_THREADS threads."""
    thetas = np.asarray(thetas, dtype=np.float64)
    cap = _thread_cap()
    if cap <= 1 or thetas.size < 4 * cap:
        return _faces_batch(a, thetas, gap_tol)
    chunks = np.array_split(thetas, cap)
    with ThreadPoolExecutor(max_workers=cap) as ex:
        parts = list(ex.map(lambda t: _faces_batch(a, t, gap_tol), chunks))
    return [face for part in parts for face in part]


def _apex_chord_bounds(ta, ha, pa, tb, hb, pb) -> np.ndarray:
    """Exact outer bounds for the sweep wedges (ta, tb), one per wedge.

    The support lines at the two angles of a wedge intersect at an
    apex; any boundary inside the wedge lies in the triangle
    (pa, apex, pb), so its distance from the chord is at most the
    apex's.  Arguments are equal-length arrays.
    """
    det = np.sin(tb - ta)
    flat = np.abs(det) < 1e-15
    det = np.where(flat, 1.0, det)
    qx = (ha * np.sin(tb) - hb * np.sin(ta)) / det
    qy = (hb * np.cos(ta) - ha * np.cos(tb)) / det
    # Distance from the apex to the chord segment [pa, pb].
    ex, ey = pb.real - pa.real, pb.imag - pa.imag
    denom = ex * ex + ey * ey
    point = denom == 0.0
    t = ((qx - pa.real) * ex + (qy - pa.imag) * ey) / np.where(point, 1.0, denom)
    t = np.where(point, 0.0, np.clip(t, 0.0, 1.0))
    dist = np.hypot(qx - (pa.real + t * ex), qy - (pa.imag + t * ey))
    return np.where(flat, 0.0, dist)


def nrange_boundary(a, num_angles: int = 720,
                    refine_tol: float | None = None) -> NRangeBoundary:
    """Trace the boundary of W(A) with a uniform angle sweep.

    With refine_tol set, wedges between consecutive angles are bisected
    (breadth-first, batched) until the apex-to-chord bound is below it,
    so the true numerical range lies within refine_tol of the returned
    hull; the hull itself always lies inside W(A) up to eigensolver
    noise.
    """
    m = as_matrix(a, square=True)
    if num_angles < 8:
        raise InputError("num_angles must be at least 8")
    gap_tol = DEGENERACY_GAP * frob(m)
    thetas = 2.0 * math.pi * np.arange(num_angles) / num_angles
    faces = _faces(m, thetas, gap_tol)
    entries = [(float(t), h, pts) for t, (h, pts) in zip(thetas, faces)]

    if refine_tol is not None:
        # Wedge arrays carry extended (non-wrapped) angles so the
        # wraparound wedge between the last and first sweep angles stays
        # ordered.  Every wedge of a round has the same remaining depth.
        ta = thetas
        tb = np.append(thetas[1:], thetas[0] + 2.0 * math.pi)
        ha = np.array([h for _, h, _ in entries])
        hb = np.roll(ha, -1)
        pa = np.array([pts[-1] for _, _, pts in entries], dtype=np.complex128)
        pb = np.roll(np.array([pts[0] for _, _, pts in entries], dtype=np.complex128), -1)
        for _ in range(REFINE_MAX_DEPTH):
            needy = ((tb - ta > REFINE_MIN_WEDGE)
                     & (_apex_chord_bounds(ta, ha, pa, tb, hb, pb) > refine_tol))
            if not needy.any():
                break
            ta, ha, pa, tb, hb, pb = (x[needy] for x in (ta, ha, pa, tb, hb, pb))
            tm = 0.5 * (ta + tb)
            tm_wrapped = np.mod(tm, 2.0 * math.pi)
            mid_faces = _faces(m, tm_wrapped, gap_tol)
            entries.extend((t, h, pts) for t, (h, pts) in zip(tm_wrapped.tolist(), mid_faces))
            hm = np.array([h for h, _ in mid_faces])
            first = np.array([pts[0] for _, pts in mid_faces], dtype=np.complex128)
            last = np.array([pts[-1] for _, pts in mid_faces], dtype=np.complex128)
            # Wedge k splits into children 2k = (ta, tm) and 2k+1 = (tm, tb).
            ta, ha, pa, tb, hb, pb = (
                np.stack(pair, axis=1).ravel()
                for pair in ((ta, tm), (ha, hm), (pa, last), (tm, tb), (hm, hb), (first, pb)))
        entries.sort(key=lambda e: e[0])

    points = np.array([p for _, _, pts in entries for p in pts], dtype=np.complex128)
    return NRangeBoundary(
        angles=np.array([t for t, _, pts in entries for _ in pts], dtype=np.float64),
        support_points=points,
        support_values=np.array([h for _, h, pts in entries for _ in pts], dtype=np.float64),
        hull=cgeom.convex_hull_2d(points),
    )


def support_values(a, thetas) -> np.ndarray:
    """Support function h(theta) = lambda_max(Re(e^{-i*theta}A)) on a grid."""
    m = as_matrix(a, square=True)
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.size == 0:
        return np.empty(0)
    return np.linalg.eigvalsh(_rotated_hermitian_parts(m, thetas))[:, -1]


def support_margins(a, zs, num_angles: int = 720) -> np.ndarray:
    """Slack of each point z inside the sampled support lines of W(A).

    For every z returns the minimum over theta_k = 2*pi*k/num_angles of
    h(theta_k) - (Re z*cos(theta_k) + Im z*sin(theta_k)).  The sampled
    lines bound a convex outer approximation of W(A), so a negative
    margin certifies that z lies outside W(A).
    """
    if num_angles < 8:
        raise InputError("num_angles must be at least 8")
    thetas = 2.0 * math.pi * np.arange(num_angles) / num_angles
    h = support_values(a, thetas)
    zs = np.asarray(zs, dtype=np.complex128).ravel()
    projections = np.outer(zs.real, np.cos(thetas)) + np.outer(zs.imag, np.sin(thetas))
    return np.min(h - projections, axis=1)


def nrange_contains(a, z, tol: float = 1e-9, num_angles: int = 720) -> bool:
    """Support-function membership test for z in W(A).

    Errs outward only: the sampled support lines bound a convex outer
    approximation of W(A), so False answers are certified.
    """
    return bool(support_margins(a, [complex(z)], num_angles)[0] >= -tol)
