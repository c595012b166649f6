"""Numerical-range boundary tracing by the support-function rotation method.

With A = (M + M*)/2 and B = i(M - M*)/2, both Hermitian, the Hermitian
part of e^{-i*theta}M is H(theta) = cos(theta) A - sin(theta) B.  The
support value of W(M) at theta is h(theta) = lambda_max(H(theta)), and
a unit vector x on its support line, x*H(theta)x = h(theta), gives a
boundary support point p = <Mx, x>.  Since H(theta + pi) = -H(theta),
the same eigenvalues give the opposite side too: h(theta + pi) =
-lambda_min, as in Johnson's sweep (SIAM J. Numer. Anal. 15, 1978).  So
every angle solved is in [0, pi) and fills two rows of the sweep.  When
M = M^T, as V of a real T is, A and B are real symmetric and the stacks
are float64, so LAPACK runs its real routines; otherwise they are
complex.  The dtype alone picks the routine.

The angles of the start grid take (h, p) from the full
eigendecomposition of H(theta).  A refinement angle inside a wedge
needs no eigenvalues: the values h and slopes h' = Im(e^{-i*theta}p) at
the wedge's two ends predict, by cubic Hermite interpolation, the top
eigenvalue sigma of sH(theta) for each side s = +1, -1.  One LU solve
with that shift, one step of shifted inverse iteration (Ipsen, SIAM
Review 39, 1997), gives a unit x, and rho = x*(sH)x is a lower bound
on the top eigenvalue.  A Cholesky factorization of (rho + tau)I - sH,
with tau at rounding level, then certifies the upper bound
rho + tau, which the row reports as h, with p = <Mx, x> at depth tau
below its support line.  Any unit x puts p in W(M), so the inner
polygon holds whatever x is; a row whose solve or factorization fails,
as where the prediction is off, takes (h, p) from the full
eigendecomposition instead.  A repeated extreme eigenvalue needs no
special case: any unit vector of the top eigenspace lies on the
support line, so each angle gives one support point, and a flat
face's endpoints come from the angles beside its normal.

Angle batches are solved as stacks of at most _BATCH_BYTES each, so
memory stays bounded however many angles a round holds; a round of
several such chunks runs on a process-wide thread pool with the BLAS
held at one thread.  Adaptive refinement splits sweep wedges,
breadth-first in batches, until the exact outer bound - the distance
from the support-line apex to the chord of adjacent support points -
drops below a target, which certifies W(M) within that distance of the
assembled polygon.  The table of angles stays symmetric under theta ->
theta + pi, so a wedge and its opposite split together, into as many
equal parts as the needier of the two asks for.  On a smooth arc the
bound is about rho*width^2/4, rho = h + h'' the radius of curvature, so
the bounds of a wedge's two neighbours measure rho at its ends; the
split trusts that while it agrees with the wedge's own bound, which
shrinks with the square of the width.  So a smooth wedge meets the
target in one round, and a wedge across a corner or a flat face, whose
neighbours are flat, is bisected.

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
# per eigensolve.
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
    """<Mx, x> for each unit vector of a stack x of shape (2, k, n).

    M is applied in one 2-D product, whose rounding of a row does not
    depend on k; a stack of single rows would take matrix-vector
    products instead, and a sweep's result would depend on its chunks.
    """
    mx = (x.reshape(-1, m.shape[0]) @ m.T).reshape(x.shape)
    return np.einsum("ski,ski->sk", np.conj(x), mx)


def _eigh_supports(m: np.ndarray, a: np.ndarray, b: np.ndarray, thetas: np.ndarray):
    """(h, p) as in _supports_batch, both from the full eigendecomposition
    of each H(theta).

    H(theta + pi) = -H(theta), so its top eigenpair is the bottom one of
    H(theta) with the eigenvalue negated.
    """
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

    Arguments broadcast elementwise; the sweep passes each needy wedge
    and its opposite as two rows.
    """
    width = tb - ta
    sa = (pa.imag * np.cos(ta) - pa.real * np.sin(ta)) * width
    sb = (pb.imag * np.cos(tb) - pb.real * np.sin(tb)) * width
    u = 1.0 - t
    return ha + t * t * (3.0 - 2.0 * t) * (hb - ha) + t * u * (u * sa - t * sb)


def _supports_batch(m: np.ndarray, a: np.ndarray, b: np.ndarray, thetas: np.ndarray,
                    sigma: np.ndarray | None = None):
    """Support data for a batch of angles in [0, pi) and their opposites:
    (h, p), with (A, B) = _hermitian_parts(M), row 0 of each column
    at theta and row 1 at theta + pi.

    Without predictions sigma, as on the start grid, both come from
    _eigh_supports.  With them, sigma[0] and sigma[1] predicting the top
    eigenvalue of sH for s = +1 and s = -1, each side takes one step of
    shifted inverse iteration, ((sigma I - sH) x = e_k, e_k the unit
    vector at the largest diagonal entry of sH, which keeps a diagonal H
    exact), and rho = x*(sH)x for the unit x.  The stacks are divided
    by a power of two near the larger |sigma|, which is exact, and x by
    its largest entry, so nothing overflows.  With tau = 2^-46 times the
    larger |rho| of the two sides, a Cholesky factor of
    (rho + tau)I - sH certifies that no eigenvalue of sH exceeds
    rho + tau up to rounding; the row reports h = rho + tau and
    p = <Mx, x>, which lies in W(M) for any unit x.  A row whose solve or
    factorization fails, or whose values are not finite, takes (h, p)
    from _eigh_supports instead.  Each decision is made row by row.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    if sigma is None:
        return _eigh_supports(m, a, b, thetas)
    hs = _rotated_hermitian_parts(a, b, thetas)
    n = hs.shape[-1]
    unit = np.ldexp(1.0, -np.clip(np.frexp(np.max(np.abs(sigma), axis=0))[1], -1000, 1000))
    diagonal = np.einsum("kii->ki", hs).real
    sign = np.array([[1.0], [-1.0]])
    shifted = np.empty((2,) + hs.shape, dtype=hs.dtype)
    x = np.empty((2,) + hs.shape[:-1], dtype=hs.dtype)
    for side, s in enumerate(sign[:, 0]):
        np.multiply(hs, (-s * unit)[:, None, None], out=shifted[side])
        # Basic slicing, not an index array, which would hold the GIL.
        shifted[side].reshape(-1, n * n)[:, ::n + 1] += (sigma[side] * unit)[:, None]
        start = np.argmax(s * diagonal, axis=1)
        rhs = (np.arange(n) == start[:, None]).astype(hs.dtype)[..., None]
        x[side] = _per_row(np.linalg.solve, shifted[side], rhs)[..., 0]
    with np.errstate(invalid="ignore"):
        # Rows of a failed solve are NaN, which complex division flags.
        x /= np.max(np.abs(x), axis=-1, keepdims=True)
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
    rho = sign * np.einsum("ski,ski->sk", np.conj(x), (hs @ x[..., None])[..., 0]).real
    h = rho + np.ldexp(np.fmax(np.abs(rho[0]), np.abs(rho[1])), -46)
    # Move each shift from sigma to h.
    shifted.reshape(2, -1, n * n)[..., ::n + 1] += ((h - sigma) * unit)[..., None]
    p = _points(m, x)
    certified = np.stack([_positive_definite(c) for c in shifted])
    off = ~(certified & np.isfinite(h) & np.isfinite(p))
    redo = off.any(axis=0)
    if redo.any():
        exact = _eigh_supports(m, a, b, thetas[redo])
        h[:, redo], p[:, redo] = (np.where(off[:, redo], e, col[:, redo])
                                  for e, col in zip(exact, (h, p)))
    return h, p


def _supports(m: np.ndarray, a: np.ndarray, b: np.ndarray, thetas, sigma=None):
    """_supports_batch over any number of angles, chunk by chunk."""
    thetas = np.asarray(thetas, dtype=np.float64)
    least = -(-_GIL_FREE_VALUES // a.shape[0])

    def batch(rows):
        return _supports_batch(m, a, b, thetas[rows], None if sigma is None else sigma[:, rows])

    parts = _map_chunks(batch, a, thetas.size, least)
    return tuple(np.concatenate(col, axis=1) for col in zip(*parts))


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
    thetas = math.pi * np.arange(half) / half
    columns = _supports(m, a, b, thetas)
    target = refine_tol * max(math.ldexp(1.0, -exponent), float(np.max(columns[0])))
    # Every solved angle theta, ascending in [0, pi) from 0, and the
    # columns h and p, each with row 0 at theta and row 1 at theta + pi;
    # read row by row, one table ascending over [0, 2*pi).
    table = [thetas, *columns]
    for depth in range(REFINE_MAX_DEPTH + 1):
        t, h, p = table
        # Wedge i runs from angle i to angle i + 1 of the whole table;
        # the last one closes the circle at 2*pi, where angle 0 stands.
        # Wedges i and i + t.size are opposite, and split as a pair.
        ta = np.concatenate([t, t + math.pi])
        tb = np.append(ta[1:], 2.0 * math.pi)
        ha, pa = h.ravel(), p.ravel()
        hb, pb = np.roll(ha, -1), np.roll(pa, -1)
        bounds = _apex_chord_bounds(ta, ha, pa, tb, hb, pb)
        needy = ((tb - ta > REFINE_MIN_WEDGE) & (bounds > target)).reshape(2, -1).any(axis=0)
        if depth == REFINE_MAX_DEPTH or not needy.any():
            break
        k = _split_counts(ta, tb, bounds, target).reshape(2, -1).max(axis=0)[needy]
        # Each needy wedge in row 0 and its opposite in row 1.
        ends = [col.reshape(2, -1)[:, needy] for col in (ta, tb, ha, pa, hb, pb)]
        # Interior angles ta + (tb - ta)*j/k, j = 1 .. k-1, wedge by wedge.
        owner = np.repeat(np.arange(k.size), k - 1)
        j = np.arange(owner.size) - np.repeat(np.cumsum(k - 1) - (k - 1), k - 1) + 1
        lo, hi = ends[0][0], ends[1][0]
        tm = lo[owner] + (hi - lo)[owner] * j / k[owner]
        sigma = _predicted_supports(*(col[:, owner] for col in ends), j / k[owner])
        columns = _supports(m, a, b, tm, sigma)
        table = [np.concatenate(pair, axis=-1) for pair in zip(table, [tm, *columns])]
        order = np.argsort(table[0], kind="stable")
        table = [col[..., order] for col in table]

    # The loop ends on the whole table: ta, ha and pa hold every row.
    with np.errstate(over="ignore"):
        ha, pa = np.ldexp(ha, exponent), cgeom._ldexp(pa, exponent)
        bound, target = np.ldexp([np.max(bounds), target], exponent).tolist()
    if not (np.isfinite(ha).all() and np.isfinite(pa).all()):
        raise NumericalError("the numerical range reaches past the largest float")
    boundary = NRangeBoundary(
        angles=ta,
        support_points=pa,
        support_values=ha,
        hull=cgeom.convex_hull_2d(pa),
        bound=bound,
    )
    return boundary, target


def nrange_boundary(a, refine_tol: float = DEFAULT_REFINE_TOL) -> NRangeBoundary:
    """Trace the boundary of W(A) by a refined support-line sweep.

    The sweep starts on _START_ANGLES equally spaced angles, from half
    as many solved on [0, pi), each at theta and theta + pi.  Each
    round splits every pair of opposite wedges where either
    apex-to-chord bound is above the target refine_tol*max(1, w), w the
    largest support value on the start grid, into k equal parts, k the
    larger of the two wedges' counts from their own and their
    neighbours' bounds (2 across a corner or a flat face), and evaluates
    all the new angles in one batch.  Rounds repeat until no bound is
    above the target or the guards stop them; bound reports the largest
    bound left, so W(A) lies within bound of the returned hull, and the
    hull itself inside W(A) up to eigensolver noise.  The evaluated
    angles stay in one table, ascending and symmetric under theta ->
    theta + pi, with one support point per angle.  A W(A) that reaches
    past the largest float raises NumericalError.
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
