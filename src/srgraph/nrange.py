"""Numerical-range boundary tracing by the support-function rotation method.

For each sweep angle theta the Hermitian part of e^{-i*theta}A is
diagonalized; its top eigenvector x gives a boundary support point
p = <Ax, x> and the support value h(theta) = lambda_max.  A nearly
degenerate top eigenvalue signals a flat face, in which case the
compression of A to the top eigenspace is diagonalized and every
eigenvector contributes a support point (the face endpoints among
them).

Angle batches are solved as stacked Hermitian eigenproblems of at most
_BATCH_BYTES each, so memory stays bounded however many angles a round
holds; a round of several such chunks runs on a process-wide thread
pool with the BLAS held at one thread.  Optional adaptive
refinement bisects sweep wedges, breadth-first in batches, until the
exact outer bound - the distance from the support-line apex to the
chord of adjacent support points - drops below a target, which
certifies W(A) within that distance of the assembled polygon.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
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
# Bytes of stacked n-by-n complex matrices one eigensolver call takes.
_BATCH_BYTES = 1 << 18

# One parallel section at a time, so that sweeps from several user
# threads queue instead of fighting over the BLAS thread count.
_LOCK = threading.Lock()


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


@functools.cache
def _blas_thread_controls():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or
    None where no such library or symbol is found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@functools.cache
def _pool() -> ThreadPoolExecutor | None:
    """The process-wide sweep pool, one worker per available CPU, or None
    where a single CPU or an unknown BLAS leaves chunks to run serially."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    if cpus < 2 or _blas_thread_controls() is None:
        return None
    return ThreadPoolExecutor(max_workers=cpus, thread_name_prefix="srgraph-sweep")


def _reset_after_fork() -> None:
    # A forked child inherits the pool without its threads, and maybe a
    # held lock; it starts afresh.
    global _LOCK
    _LOCK = threading.Lock()
    _pool.cache_clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


def _map_chunks(fn, n: int, thetas: np.ndarray) -> list:
    """fn over consecutive chunks of thetas, each stacking at most
    _BATCH_BYTES of n-by-n complex matrices, results in chunk order.

    Several chunks run on the shared pool with the BLAS at one thread;
    one chunk, or no pool, runs in the calling thread.  Each matrix
    gets the same LAPACK call either way, so results do not depend on
    the split.
    """
    size = max(1, _BATCH_BYTES // (16 * n * n))
    chunks = [thetas[i:i + size] for i in range(0, thetas.size, size)]
    if len(chunks) > 1:
        with _LOCK:
            pool = _pool()
            if pool is not None:
                get, set_ = _blas_thread_controls()
                saved = get()
                set_(1)
                try:
                    return list(pool.map(fn, chunks))
                finally:
                    set_(saved)
    return [fn(chunk) for chunk in chunks]


def _rotated_hermitian_parts(a: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Stack of H_theta = (e^{-i theta} A + e^{i theta} A*)/2."""
    ph = np.exp(-1j * thetas)
    stack = ph[:, None, None] * a[None, :, :]
    return (stack + np.conj(np.swapaxes(stack, 1, 2))) / 2.0


def _degenerate_face(a: np.ndarray, theta: float, w: np.ndarray, v: np.ndarray,
                     gap_tol: float) -> list[complex]:
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
    """Support data for a batch of angles: (h, first, last, faces).

    h holds h(theta), first and last the first and last support point
    of each face (the same point on a simple face), and faces maps the
    index of each degenerate angle to its full list of face points.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    w, v = np.linalg.eigh(_rotated_hermitian_parts(a, thetas))
    h = w[:, -1]
    top = v[:, :, -1]
    first = np.einsum("ki,ij,kj->k", np.conj(top), a, top)
    last = first.copy()
    faces = {}
    if a.shape[0] > 1:
        for k in np.flatnonzero(~(h - w[:, -2] >= gap_tol)).tolist():
            faces[k] = _degenerate_face(a, float(thetas[k]), w[k], v[k], gap_tol)
            first[k], last[k] = faces[k][0], faces[k][-1]
    return h, first, last, faces


def _faces(a: np.ndarray, thetas, gap_tol: float):
    """_faces_batch over any number of angles, chunk by chunk."""
    thetas = np.asarray(thetas, dtype=np.float64)
    return _join(_map_chunks(lambda t: _faces_batch(a, t, gap_tol), a.shape[0], thetas))


def _join(parts):
    """Concatenate records (arrays..., faces) batch after batch; the face
    indices shift by the length of the batches before theirs."""
    offsets = np.cumsum([0] + [len(part[0]) for part in parts]).tolist()
    faces = {off + k: pts for off, part in zip(offsets, parts) for k, pts in part[-1].items()}
    return (*(np.concatenate(col) for col in list(zip(*parts))[:-1]), faces)


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
    h, first, last, faces = _faces(m, thetas, gap_tol)
    # One (angles, h, first point, degenerate faces) record per round.
    rounds = [(thetas, h, first, faces)]

    if refine_tol is not None:
        # Wedge arrays carry extended (non-wrapped) angles so the
        # wraparound wedge between the last and first sweep angles stays
        # ordered.  Every wedge of a round has the same remaining depth.
        ta, ha, pa = thetas, h, last
        tb = np.append(thetas[1:], thetas[0] + 2.0 * math.pi)
        hb, pb = np.roll(h, -1), np.roll(first, -1)
        for _ in range(REFINE_MAX_DEPTH):
            needy = ((tb - ta > REFINE_MIN_WEDGE)
                     & (_apex_chord_bounds(ta, ha, pa, tb, hb, pb) > refine_tol))
            if not needy.any():
                break
            ta, ha, pa, tb, hb, pb = (x[needy] for x in (ta, ha, pa, tb, hb, pb))
            tm = 0.5 * (ta + tb)
            tm_wrapped = np.mod(tm, 2.0 * math.pi)
            hm, first, last, faces = _faces(m, tm_wrapped, gap_tol)
            rounds.append((tm_wrapped, hm, first, faces))
            # Wedge k splits into children 2k = (ta, tm) and 2k+1 = (tm, tb).
            ta, ha, pa, tb, hb, pb = (
                np.stack(pair, axis=1).ravel()
                for pair in ((ta, tm), (ha, hm), (pa, last), (tm, tb), (hm, hb), (first, pb)))

    # Order all evaluated angles (stable, so ties keep evaluation order),
    # then give each degenerate angle one row per face point.
    angles, values, points, faces = _join(rounds)
    order = np.argsort(angles, kind="stable")
    counts = np.ones(angles.size, dtype=np.int64)
    counts[list(faces)] = [len(pts) for pts in faces.values()]
    counts = counts[order]
    points = np.repeat(points[order], counts)
    if faces:
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        starts = np.cumsum(counts) - counts
        for k, pts in faces.items():
            points[starts[rank[k]]:starts[rank[k]] + len(pts)] = pts
    return NRangeBoundary(
        angles=np.repeat(angles[order], counts),
        support_points=points,
        support_values=np.repeat(values[order], counts),
        hull=cgeom.convex_hull_2d(points),
    )


def support_values(a, thetas) -> np.ndarray:
    """Support function h(theta) = lambda_max(Re(e^{-i*theta}A)) on a grid."""
    m = as_matrix(a, square=True)
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.size == 0:
        return np.empty(0)
    parts = _map_chunks(
        lambda t: np.linalg.eigvalsh(_rotated_hermitian_parts(m, t))[:, -1], m.shape[0], thetas)
    return np.concatenate(parts)


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
