"""Numerical-range boundary tracing by the support-function rotation method.

With A = (M + M*)/2 and B = i(M - M*)/2, both Hermitian, the Hermitian
part of e^{-i*theta}M is H(theta) = cos(theta) A - sin(theta) B.  The
support value of W(M) at theta is h(theta) = lambda_max(H(theta)), and
a unit vector x on its support line, x*H(theta)x = h(theta), gives a
boundary support point p = <Mx, x>.  When M = M^T, as V of a real T
is, A and B are real symmetric and the stacks are float64, so LAPACK
runs its real routines; otherwise they are complex.  The dtype alone
picks the routine.

The start grid takes (h, p) from the full eigendecomposition of
H(theta).  Since H(theta + pi) = -H(theta), the same eigenpairs give
the opposite side too, h(theta + pi) = -lambda_min, as in Johnson's
sweep (SIAM J. Numer. Anal. 15, 1978), so each start angle is solved
in [0, pi) and fills two rows.  A refinement angle, anywhere in
[0, 2*pi), fills one row and needs no eigenvalues: the values h and
slopes h' = Im(e^{-i*theta}p) at its wedge's two ends predict, by cubic
Hermite interpolation, the top eigenvalue sigma of H(theta).  One LU
solve with that shift, one step of shifted inverse iteration (Ipsen,
SIAM Review 39, 1997), gives a unit x, and rho = x*Hx is a lower bound
on the top eigenvalue.  A Cholesky factorization of (rho + tau)I - H,
with tau at rounding level, then certifies the upper bound rho + tau,
which the row reports as h, with p = <Mx, x> at depth tau below its
support line.  Any unit x puts p in W(M), so the inner polygon holds
whatever x is; a row whose solve or factorization fails, as where the
prediction is off, takes (h, p) from the full eigendecomposition
instead.  A repeated extreme eigenvalue needs no special case: any unit
vector of the top eigenspace lies on the support line, so each angle
gives one support point, and a flat face's endpoints come from the
angles beside its normal.

Angle batches are solved as stacks of at most _BATCH_BYTES each, so
memory stays bounded however many angles a round holds; a round of
several such chunks runs on a process-wide thread pool with the BLAS
held at one thread.  Adaptive refinement splits sweep wedges,
breadth-first in batches, until the exact outer bound - the distance
from the support-line apex to the chord of adjacent support points -
drops below a target, which certifies W(M) within that distance of the
assembled polygon.  A wedge is split when its own bound is above the
target.  On a smooth arc the bound is about rho*width^2/4, rho = h + h''
the radius of curvature, so the bounds of a wedge's two neighbours
measure rho at its ends; the split trusts that while it agrees with
the wedge's own bound, which shrinks with the square of the width.  So
a smooth wedge meets the target in one round, and a wedge across a
corner or a flat face, whose neighbours are flat, is bisected.

The support points span Johnson's inner polygon and their support
lines his outer one; the apex-chord bound is the gap between them.
Every support value the package uses, membership included, comes from
this one certified sweep.
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
from .errors import InputError, NumericalError
from .linalg import as_matrix, require_positive_finite

# Default outer-approximation bound of a sweep, relative to
# max(1, largest support value on the start grid): W(A) lies within
# that distance of the returned hull.
DEFAULT_REFINE_TOL = 1e-8
# Angles of the uniform grid on [0, 2*pi) every sweep starts from, two
# per eigensolve; refinement adds one row per angle.
_START_ANGLES = 720
# Guards for adaptive refinement: the most rounds, and the narrowest
# wedge that is still split (no split makes a wedge narrower than this,
# except a bisection).
REFINE_MAX_DEPTH = 48
REFINE_MIN_WEDGE = 1e-9
# Bytes of stacked n-by-n matrices one eigensolver or solver call takes.
_BATCH_BYTES = 1 << 18
# numpy holds the GIL through a solve whose output has at most 500
# entries, as a stack of solves with one right-hand side of n entries
# each has, which would run the pool's chunks one at a time; so a chunk
# of the sweep holds at least this many entries' worth of n-by-n
# matrices, even where that is more than _BATCH_BYTES.
_GIL_FREE_VALUES = 501

# One parallel section at a time, so that sweeps from several user
# threads queue instead of fighting over the BLAS thread count.
_LOCK = threading.Lock()


@dataclass(frozen=True, eq=False)
class NRangeBoundary:
    """Support data of a numerical-range boundary sweep.

    angles are strictly ascending in [0, 2*pi), one row per angle with
    its support point and support value; hull is the convex hull of all
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


def _map_chunks(fn, a: np.ndarray, count: int, least: int) -> list:
    """fn over consecutive slices of range(count), each standing for a
    stack of at most _BATCH_BYTES of matrices of a's shape and dtype, but
    at least least of them, results in slice order.

    Several chunks run on the shared pool with the BLAS at one thread;
    one chunk, or no pool, runs in the calling thread.  Each matrix
    gets the same LAPACK calls either way, and every decision of the
    kernel is made per row, so results do not depend on the split.
    """
    size = max(least, _BATCH_BYTES // a.nbytes)
    chunks = [slice(i, i + size) for i in range(0, count, size)]
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


def _hermitian_parts(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Hermitian A = (M + M*)/2 and B = i(M - M*)/2, so M = A - iB.

    Both are real symmetric, and returned as float64, exactly when
    M = M^T, as build_v makes V for real T; the eigensolver then runs
    in real arithmetic.
    """
    a = (m + m.conj().T) / 2.0
    b = 0.5j * (m - m.conj().T)
    if not (a.imag.any() or b.imag.any()):
        return a.real.copy(), b.real.copy()
    return a, b


def _rotated_hermitian_parts(a: np.ndarray, b: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Stack of H(theta) = cos(theta) A - sin(theta) B, the Hermitian part
    of e^{-i theta} M; its dtype is that of A and B."""
    return np.cos(thetas)[:, None, None] * a - np.sin(thetas)[:, None, None] * b


def _points(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """<Mx, x> for each unit vector of a stack x of shape (..., k, n).

    M is applied in one 2-D product, whose rounding of a row does not
    depend on k; a stack of single rows, or a product of one row, would
    take matrix-vector products instead, and a sweep's result would
    depend on its chunks.  So the rows get a copy of the first one.
    """
    rows = x.reshape(-1, m.shape[0])
    mx = (np.concatenate([rows, rows[:1]]) @ m.T)[:-1].reshape(x.shape)
    return np.einsum("...i,...i->...", np.conj(x), mx)


def _eigh_supports(m: np.ndarray, a: np.ndarray, b: np.ndarray, thetas: np.ndarray):
    """(h, p) from the full eigendecomposition of each H(theta): row 0
    at theta, from its top eigenpair, and row 1 at theta + pi, from its
    bottom one with the eigenvalue negated, since H(theta + pi) =
    -H(theta)."""
    w, v = np.linalg.eigh(_rotated_hermitian_parts(a, b, thetas))
    return np.stack([w[:, -1], -w[:, 0]]), _points(m, np.stack([v[:, :, -1], v[:, :, 0]]))


def _per_row(fn, *stacks) -> np.ndarray:
    """fn(*stacks) for a numpy.linalg function whose result has the shape
    of its last argument, with NaN in the rows where LAPACK fails.

    numpy raises for a whole stack when one matrix fails, so a failed
    stack is halved until each failure stands alone; every other row
    gets the same LAPACK call as in one stack.
    """
    try:
        return fn(*stacks)
    except np.linalg.LinAlgError:
        if len(stacks[0]) == 1:
            return np.full_like(stacks[-1], np.nan)
        half = len(stacks[0]) // 2
        return np.concatenate([_per_row(fn, *(x[:half] for x in stacks)),
                               _per_row(fn, *(x[half:] for x in stacks))])


def _positive_definite(stack: np.ndarray) -> np.ndarray:
    """Whether each Hermitian matrix of the stack has a Cholesky factor,
    read off the trace of the factor, NaN where LAPACK fails."""
    return np.isfinite(np.einsum("kii->k", _per_row(np.linalg.cholesky, stack)))


def _predicted_supports(ta, tb, ha, pa, hb, pb, t) -> np.ndarray:
    """Support values at ta + t*(tb - ta), 0 < t < 1, predicted by cubic
    Hermite interpolation from the values h and the slopes
    h' = Im(e^{-i theta} p) at the ends of each wedge (ta, tb).

    Arguments broadcast elementwise.
    """
    width = tb - ta
    sa = (pa.imag * np.cos(ta) - pa.real * np.sin(ta)) * width
    sb = (pb.imag * np.cos(tb) - pb.real * np.sin(tb)) * width
    u = 1.0 - t
    return ha + t * t * (3.0 - 2.0 * t) * (hb - ha) + t * u * (u * sa - t * sb)


def _supports_batch(m: np.ndarray, a: np.ndarray, b: np.ndarray, thetas: np.ndarray,
                    sigma: np.ndarray | None = None, w0: float = 0.0):
    """Support data (h, p) for a batch of angles, with (A, B) =
    _hermitian_parts(M).

    Without predictions sigma, as on the start grid, the angles lie in
    [0, pi) and both come from _eigh_supports, row 0 at theta and row 1
    at theta + pi.  With them, one row per angle in [0, 2*pi), sigma
    predicting the top eigenvalue of H(theta): each row takes one step
    of shifted inverse iteration, (sigma I - H) x = e_k, e_k the unit
    vector at the largest diagonal entry of H, which keeps a diagonal H
    exact, and rho = x*Hx for the unit x.  The stacks are divided by a
    power of two near w0, the largest support value of the start grid,
    which is exact and bounds every |sigma| up to the prediction's
    error, and x by its largest entry, so nothing overflows.  With tau =
    2^-46 max(|rho|, w0), a Cholesky factor of (rho + tau)I - H
    certifies that no eigenvalue of H exceeds rho + tau up to rounding;
    the row reports h = rho + tau and p = <Mx, x>, which lies in W(M)
    for any unit x.  A row whose solve or factorization fails, or whose
    values are not finite, takes the top eigenpair of its H(theta)
    from _eigh_supports instead.  Each decision is made row by row.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    if sigma is None:
        return _eigh_supports(m, a, b, thetas)
    hs = _rotated_hermitian_parts(a, b, thetas)
    n = hs.shape[-1]
    unit = math.ldexp(1.0, -min(max(math.frexp(w0)[1], -1000), 1000))
    shifted = hs * -unit
    # Basic slicing, not an index array, which would hold the GIL.
    shifted.reshape(-1, n * n)[:, ::n + 1] += (sigma * unit)[:, None]
    start = np.argmax(np.einsum("kii->ki", hs).real, axis=1)
    rhs = (np.arange(n) == start[:, None]).astype(hs.dtype)[..., None]
    x = _per_row(np.linalg.solve, shifted, rhs)[..., 0]
    with np.errstate(invalid="ignore"):
        # Rows of a failed solve are NaN, which complex division flags.
        x /= np.max(np.abs(x), axis=-1, keepdims=True)
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
    rho = np.einsum("ki,ki->k", np.conj(x), (hs @ x[..., None])[..., 0]).real
    h = rho + np.ldexp(np.fmax(np.abs(rho), w0), -46)
    # Move each shift from sigma to h.
    shifted.reshape(-1, n * n)[:, ::n + 1] += ((h - sigma) * unit)[:, None]
    p = _points(m, x)
    off = ~(_positive_definite(shifted) & np.isfinite(h) & np.isfinite(p))
    if off.any():
        h[off], p[off] = (col[0] for col in _eigh_supports(m, a, b, thetas[off]))
    return h, p


def _supports(m: np.ndarray, a: np.ndarray, b: np.ndarray, thetas, sigma=None, w0=0.0):
    """_supports_batch over any number of angles, chunk by chunk."""
    thetas = np.asarray(thetas, dtype=np.float64)
    least = -(-_GIL_FREE_VALUES // a.shape[0])

    def batch(rows):
        return _supports_batch(m, a, b, thetas[rows], None if sigma is None else sigma[rows], w0)

    parts = _map_chunks(batch, a, thetas.size, least)
    return tuple(np.concatenate(col, axis=-1) for col in zip(*parts))


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


def _split_counts(ta, tb, bounds, refine_tol: float) -> np.ndarray:
    """Number of equal children for each wedge (ta, tb), at least two;
    the arguments hold every wedge of the sweep, in order round the
    circle.

    A wedge's apex-chord bound shrinks with the square of its width; on
    a smooth arc it is about rho*width^2/4 for a mean curvature rho over
    the wedge, so sqrt(bound/refine_tol)/width children per radian, the
    wedge's density, bring it under refine_tol.  The densities of the
    wedge before and the wedge after measure rho at its two ends, and
    the curvature count sizes children by the larger, so that the
    children at the more curved end also come under refine_tol in this
    round.  It is trusted up to twice the count the wedge's own bound
    asks for; beyond that the ends do not describe the wedge (a corner
    or a closing eigengap inside) and the bound's count is taken.  A
    wedge across a corner or a flat face has flat neighbours and is
    bisected.  No split beyond two makes a child narrower than
    REFINE_MIN_WEDGE.
    """
    width = tb - ta
    by_bound = np.sqrt(bounds) / math.sqrt(refine_tol)
    density = by_bound / width
    by_curvature = width * np.maximum(np.roll(density, 1), np.roll(density, -1))
    k = np.ceil(np.where(by_curvature <= 2.0 * by_bound, by_curvature, by_bound))
    k = np.fmin(k, np.maximum(2.0, np.floor(width / REFINE_MIN_WEDGE)))
    return np.fmax(k, 2.0).astype(np.int64)


def _sweep(m: np.ndarray, refine_tol: float) -> tuple[NRangeBoundary, float]:
    """The refined sweep of nrange_boundary and the target it refined to,
    refine_tol*max(1, largest support value on the start grid).

    A matrix with a coordinate above 1 is traced divided by the smallest
    even power of two above it, which scales every step of the sweep
    exactly, square roots included, so nothing overflows.  The target,
    h, p, the hull and the bound are scaled back, and NumericalError is
    raised where W(M) reaches past the largest float.
    """
    require_positive_finite(refine_tol, "refine_tol")
    size = cgeom._max_coordinate(m)
    exponent = 0 if size <= 1.0 else math.frexp(size)[1]
    exponent += exponent & 1
    m = cgeom._ldexp(m, -exponent)
    a, b = _hermitian_parts(m)
    half = _START_ANGLES // 2
    grid = math.pi * np.arange(half) / half
    # The table of every evaluated angle, ascending in [0, 2*pi) from 0,
    # with its support value h and support point p: the start grid
    # fills its rows at theta and theta + pi from one eigensolve each.
    t = np.concatenate([grid, grid + math.pi])
    h, p = (col.ravel() for col in _supports(m, a, b, grid))
    w0 = float(np.max(h))
    target = refine_tol * max(math.ldexp(1.0, -exponent), w0)
    for depth in range(REFINE_MAX_DEPTH + 1):
        # Wedge i runs from angle i to angle i + 1; the last one closes
        # the circle at 2*pi, where angle 0 stands.
        tb = np.append(t[1:], 2.0 * math.pi)
        hb, pb = np.roll(h, -1), np.roll(p, -1)
        bounds = _apex_chord_bounds(t, h, p, tb, hb, pb)
        needy = (tb - t > REFINE_MIN_WEDGE) & (bounds > target)
        if depth == REFINE_MAX_DEPTH or not needy.any():
            break
        k = _split_counts(t, tb, bounds, target)[needy]
        # Interior angles ta + (tb - ta)*j/k, j = 1 .. k-1, wedge by wedge.
        wedge = np.repeat(np.flatnonzero(needy), k - 1)
        j = np.arange(wedge.size) - np.repeat(np.cumsum(k - 1) - (k - 1), k - 1) + 1
        k = np.repeat(k, k - 1)
        ends = [col[wedge] for col in (t, tb, h, p, hb, pb)]
        tm = ends[0] + (ends[1] - ends[0]) * j / k
        columns = _supports(m, a, b, tm, _predicted_supports(*ends, j / k), w0)
        t, h, p = (np.insert(col, wedge + 1, new) for col, new in zip((t, h, p), (tm, *columns)))

    # The loop ends on the whole table, with bounds of its every wedge.
    with np.errstate(over="ignore"):
        h, p = np.ldexp(h, exponent), cgeom._ldexp(p, exponent)
        bound, target = np.ldexp([np.max(bounds), target], exponent).tolist()
    if not (np.isfinite(h).all() and np.isfinite(p).all()):
        raise NumericalError("the numerical range reaches past the largest float")
    boundary = NRangeBoundary(
        angles=t,
        support_points=p,
        support_values=h,
        hull=cgeom.convex_hull_2d(p),
        bound=bound,
    )
    return boundary, target


def nrange_boundary(a, refine_tol: float = DEFAULT_REFINE_TOL) -> NRangeBoundary:
    """Trace the boundary of W(A) by a refined support-line sweep.

    The sweep starts on _START_ANGLES equally spaced angles, from half
    as many solved on [0, pi), each at theta and theta + pi.  Each
    round splits every wedge whose apex-to-chord bound is above the
    target refine_tol*max(1, w), w the largest support value on the
    start grid, into k equal parts, k from its own and its neighbours'
    bounds (2 across a corner or a flat face), and evaluates all the
    new angles in one batch.  Rounds repeat until no bound is above the
    target or the guards stop them; bound reports the largest bound
    left, so W(A) lies within bound of the returned hull, and the hull
    itself inside W(A) up to eigensolver noise.  The evaluated angles
    stay in one table, ascending in [0, 2*pi), with one support point
    per angle.  A W(A) that reaches past the largest float raises
    NumericalError.
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
    radius of W(A).  A NaN, infinite or INFINITY point raises InputError.
    """
    zs, at_infinity = cgeom.split_infinity([zs] if np.ndim(zs) == 0 else zs)
    if at_infinity.any() or not np.isfinite(zs).all():
        raise InputError("membership points must be finite complex numbers")
    distances, radius = _certified_distances(a, zs, tol)
    return distances <= radius
