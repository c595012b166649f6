"""Numerical-range boundary tracing by the support-function rotation method.

For each sweep angle theta the Hermitian part of e^{-i*theta}A is
diagonalized; its top eigenvector x gives a boundary support point
p = <Ax, x> and the support value h(theta) = lambda_max.  A nearly
degenerate top eigenvalue signals a flat face, in which case the
compression of A to the top eigenspace is diagonalized and every
eigenvector contributes a support point (the face endpoints among
them).  The same eigendecomposition gives the boundary's radius of
curvature rho = h + h'' = 2 sum_{j>1} |x_j* H'(theta) x_1|^2 /
(lambda_1 - lambda_j) (Loisel and Maxwell, SIMAX 39(4), 2018).

Angle batches are solved as stacked Hermitian eigenproblems of at most
_BATCH_BYTES each, so memory stays bounded however many angles a round
holds; a round of several such chunks runs on a process-wide thread
pool with the BLAS held at one thread.  Adaptive
refinement splits sweep wedges, breadth-first in batches, until the
exact outer bound - the distance from the support-line apex to the
chord of adjacent support points - drops below a target, which
certifies W(A) within that distance of the assembled polygon.  Each
round splits a wedge into equal parts, as many as the curvature at its
ends asks for (the bound is about rho*width^2/4 on a smooth arc) while
that agrees with the bound, which shrinks with the square of the
width; so a smooth wedge meets the target in one round, and a wedge
across a corner or a flat face (rho near 0) is bisected.

The support points span Johnson's inner polygon and their support
lines his outer one (SIAM J. Numer. Anal. 15, 1978); the apex-chord
bound is the gap between them.  Every support value the package uses,
membership included, comes from this one certified sweep.
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
from .linalg import as_matrix, frob, require_positive_finite

# Default outer-approximation bound of a sweep, relative to
# max(1, largest support value on the start grid): W(A) lies within
# that distance of the returned hull.
DEFAULT_REFINE_TOL = 1e-8
# Angles of the uniform grid every sweep starts from.
_START_ANGLES = 720
# Relative gap under which the top eigenvalue counts as degenerate.
DEGENERACY_GAP = 1e-10
# Guards for adaptive refinement: the most rounds, and the narrowest
# wedge that is still split (no split makes a wedge narrower than this,
# except a bisection).
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
    support points; bound is the largest apex-chord bound left between
    consecutive angles, so that W(A) lies within bound of hull.
    """

    angles: np.ndarray
    support_points: np.ndarray
    support_values: np.ndarray
    hull: cgeom.ConvexPolygon
    bound: float


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


def _curvatures(a: np.ndarray, thetas: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Radius of curvature rho = h + h'' of the boundary at each angle.

    rho = 2 sum_{j>1} |x_j* H'(theta) x_1|^2 / (lambda_1 - lambda_j) from
    the eigendecomposition (w ascending, v) of H(theta), where
    H'(theta) = (-i e^{-i theta} A + i e^{i theta} A*)/2; infinite
    where an eigenvalue ties the top one.  O(n^2) per angle.
    """
    top = v[:, :, -1]
    ph = np.exp(-1j * thetas)[:, None]
    ax = np.einsum("ij,kj->ki", a, top)
    xa = np.einsum("ki,ij->kj", np.conj(top), a)  # rows x* A, so A* x = conj(xa)
    dx = 0.5j * (np.conj(ph * xa) - ph * ax)
    # |x_j* y| = |x_j^T conj(y)|, which spares a conjugate copy of v.
    c = np.abs(np.einsum("kij,ki->kj", v[:, :, :-1], np.conj(dx)))
    gaps = w[:, -1:] - w[:, :-1]
    # |c|/sqrt(gap), squared: no overflow for entries up to about 1e300.
    scaled = np.divide(c, np.sqrt(gaps), out=np.full(gaps.shape, np.inf), where=gaps > 0.0)
    return 2.0 * np.sum(scaled * scaled, axis=1)


def _faces_batch(a: np.ndarray, thetas: np.ndarray, gap_tol: float):
    """Support data for a batch of angles: (h, first, last, rho, faces).

    h holds h(theta), first and last the first and last support point
    of each face (the same point on a simple face), rho the radius of
    curvature (infinite at a degenerate angle), and faces maps each
    degenerate angle to its full list of face points.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    w, v = np.linalg.eigh(_rotated_hermitian_parts(a, thetas))
    h = w[:, -1]
    top = v[:, :, -1]
    first = np.einsum("ki,ij,kj->k", np.conj(top), a, top)
    last = first.copy()
    rho = _curvatures(a, thetas, w, v)
    faces = {}
    if a.shape[0] > 1:
        for k in np.flatnonzero(~(h - w[:, -2] >= gap_tol)).tolist():
            t = float(thetas[k])
            faces[t] = _degenerate_face(a, t, w[k], v[k], gap_tol)
            first[k], last[k], rho[k] = faces[t][0], faces[t][-1], np.inf
    return h, first, last, rho, faces


def _faces(a: np.ndarray, thetas, gap_tol: float):
    """_faces_batch over any number of angles, chunk by chunk; faces are
    keyed by angle, so the chunks' face dicts join by union."""
    thetas = np.asarray(thetas, dtype=np.float64)
    *cols, faces = zip(*_map_chunks(lambda t: _faces_batch(a, t, gap_tol), a.shape[0], thetas))
    return (*map(np.concatenate, cols), {t: pts for part in faces for t, pts in part.items()})


def _apex_chord_bounds(ta, ha, pa, tb, hb, pb) -> np.ndarray:
    """Exact outer bounds for the sweep wedges (ta, tb), one per wedge.

    The support lines at the two angles of a wedge intersect at an
    apex; any boundary inside the wedge lies in the triangle
    (pa, apex, pb), so its distance from the chord is at most the
    apex's.  With d_a = h_a - <pb, u_a> and d_b = h_b - <pa, u_b> the
    depths of each point behind the other end's support line, that
    height is d_a*d_b / sqrt(d_a^2 + d_b^2 + 2*d_a*d_b*cos(tb - ta)).
    The depths are differences of support values, so the rounding
    error stays near eps*|h| however narrow the wedge; intersecting
    the two lines instead loses a factor of 1/(tb - ta).  Wedges are
    narrower than pi/2, so the foot of the height lies on the chord.
    Arguments are equal-length arrays.
    """
    da = np.maximum(ha - (pb.real * np.cos(ta) + pb.imag * np.sin(ta)), 0.0)
    db = np.maximum(hb - (pa.real * np.cos(tb) + pa.imag * np.sin(tb)), 0.0)
    big, small = np.maximum(da, db), np.minimum(da, db)
    r = np.divide(small, big, out=np.zeros_like(big), where=big > 0.0)
    return small / np.sqrt(1.0 + r * (r + 2.0 * np.cos(tb - ta)))


def _split_counts(ta, tb, bounds, ra, rb, refine_tol: float) -> np.ndarray:
    """Number of equal children for each wedge (ta, tb), at least two.

    A wedge's apex-chord bound shrinks with the square of its width; on
    a smooth arc it is about rho*width^2/4 for a mean curvature rho over
    the wedge.  The curvature count sizes children by the larger end
    curvature, so that the children at the more curved end also come
    under refine_tol in this round.  It is trusted up to twice the count
    the bound alone asks for; beyond that the ends do not describe the
    wedge (a corner or a closing eigengap inside, or an infinite rho at
    a degenerate end) and the bound's count is taken.  A wedge across a
    corner or a flat face has rho near 0 and is bisected.  No split
    beyond two makes a child narrower than REFINE_MIN_WEDGE.
    """
    width = tb - ta
    root_tol = math.sqrt(refine_tol)
    by_bound = np.sqrt(bounds) / root_tol
    by_curvature = width * np.sqrt(np.maximum(ra, rb)) / (2.0 * root_tol)
    k = np.ceil(np.where(by_curvature <= 2.0 * by_bound, by_curvature, by_bound))
    k = np.fmin(k, np.maximum(2.0, np.floor(width / REFINE_MIN_WEDGE)))
    return np.fmax(k, 2.0).astype(np.int64)


def _sweep(m: np.ndarray, refine_tol: float) -> tuple[NRangeBoundary, float]:
    """The refined sweep of nrange_boundary and the target it refined to,
    refine_tol*max(1, largest support value on the start grid)."""
    require_positive_finite(refine_tol, "refine_tol")
    gap_tol = DEGENERACY_GAP * frob(m)
    thetas = 2.0 * math.pi * np.arange(_START_ANGLES) / _START_ANGLES
    *columns, faces = _faces(m, thetas, gap_tol)
    target = refine_tol * max(1.0, float(np.max(columns[0])))
    # Every evaluated angle, ascending in [0, 2*pi) from theta = 0, with
    # the columns theta, h, first and last support point, rho.
    table = [thetas, *columns]
    for depth in range(REFINE_MAX_DEPTH + 1):
        ta, ha, first, pa, ra = table
        # Wedge i runs from row i to row i + 1; the last one closes the
        # circle at 2*pi, where row 0 stands.
        tb = np.append(ta[1:], 2.0 * math.pi)
        hb, pb, rb = (np.roll(col, -1) for col in (ha, first, ra))
        bounds = _apex_chord_bounds(ta, ha, pa, tb, hb, pb)
        needy = (tb - ta > REFINE_MIN_WEDGE) & (bounds > target)
        if depth == REFINE_MAX_DEPTH or not needy.any():
            break
        ta, tb = ta[needy], tb[needy]
        k = _split_counts(ta, tb, bounds[needy], ra[needy], rb[needy], target)
        # Interior angles ta + (tb - ta)*j/k, j = 1 .. k-1, wedge by wedge.
        owner = np.repeat(np.arange(k.size), k - 1)
        j = np.arange(owner.size) - np.repeat(np.cumsum(k - 1) - (k - 1), k - 1) + 1
        tm = ta[owner] + (tb - ta)[owner] * j / k[owner]
        *columns, new_faces = _faces(m, tm, gap_tol)
        faces.update(new_faces)
        table = [np.concatenate(pair) for pair in zip(table, [tm, *columns])]
        order = np.argsort(table[0], kind="stable")
        table = [col[order] for col in table]

    # Give each degenerate angle one row per face point.
    angles, values, points = table[:3]
    counts = np.ones(angles.size, dtype=np.int64)
    rows = np.searchsorted(angles, list(faces))
    counts[rows] = [len(pts) for pts in faces.values()]
    points = np.repeat(points, counts)
    starts = np.cumsum(counts) - counts
    for row, pts in zip(rows.tolist(), faces.values()):
        points[starts[row]:starts[row] + len(pts)] = pts
    boundary = NRangeBoundary(
        angles=np.repeat(angles, counts),
        support_points=points,
        support_values=np.repeat(values, counts),
        hull=cgeom.convex_hull_2d(points),
        bound=float(np.max(bounds)),
    )
    return boundary, target


def nrange_boundary(a, refine_tol: float = DEFAULT_REFINE_TOL) -> NRangeBoundary:
    """Trace the boundary of W(A) by a refined support-line sweep.

    The sweep starts on _START_ANGLES equally spaced angles.  Each round
    splits every wedge between consecutive angles whose apex-to-chord
    bound is above the target refine_tol*max(1, w), w the largest
    support value on the start grid, into k equal parts and evaluates
    all the new angles in one batch.  k comes from the curvature at the
    wedge's ends and from its bound, so that a smooth wedge meets the
    target in one round, and is 2 across a corner or a flat face.
    Rounds repeat until no bound is above the target or the guards stop
    them; bound reports the largest bound left, so W(A) lies within
    bound of the returned hull, and the hull itself inside W(A) up to
    eigensolver noise.  The evaluated angles stay in one ascending
    table, which each round's new angles join by a stable sort; flat
    faces are kept apart, keyed by their angle, and expand into one row
    per face point at the end.
    """
    return _sweep(as_matrix(a, square=True), refine_tol)[0]


def _certified_distances(a, zs, tol: float) -> tuple[np.ndarray, float]:
    """Signed distances of the points zs to the hull of one sweep of A
    at refine_tol = tol, and the radius max(target, bound) of that sweep.

    A distance above the radius certifies z outside W(A); one at or
    below it puts z within the radius of W(A).
    """
    boundary, target = _sweep(as_matrix(a, square=True), tol)
    return cgeom._signed_distances(boundary.hull.vertices, zs), max(target, boundary.bound)


def nrange_contains(a, zs, tol: float = DEFAULT_REFINE_TOL) -> np.ndarray:
    """Membership of each point z in W(A), from one sweep at refine_tol = tol.

    z counts as inside when its distance to the sweep's hull is at most
    max(tol*max(1, w), bound), with w and bound as in nrange_boundary.
    So False certifies z outside W(A), and True certifies z within that
    radius of W(A).
    """
    distances, radius = _certified_distances(a, zs, tol)
    return distances <= radius
