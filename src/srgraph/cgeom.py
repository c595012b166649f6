"""Geometry of the extended complex plane and the Beltrami-Klein disk model.

The forward map

    f(z) = 1 - 2*(1 + i*Re z) / (1 + |z|^2),        f(infinity) = 1

sends the extended complex plane onto the closed unit disk.  It only
sees Re z and |z|^2, so conjugate points collapse to the same disk
point bit-for-bit.  Generalized circles centered on the real axis map
to chords, which is what turns hyperbolic convex hulls into ordinary
planar hulls: hull_bk(s) = g(hull(f(s))) with g the set-valued inverse

    g(w) = {(Im w +/- i*sqrt(1 - |w|^2)) / (Re w - 1)},   g(1) = {infinity}.

Everything here is pure and immutable; regions are plain dataclasses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import InputError, NumericalError, OutOfDiskError

# Clamp tolerance for points nominally inside the closed unit disk;
# eigensolve round-off pushes support points marginally outside.
EPS_DISK = 1e-9
# Cross-product tolerance for pruning collinear hull vertices.
COLLINEAR_TOL = 1e-12
# Disk points closer than this to 1 are treated as the image of infinity.
INF_TOL = 1e-12
# Spacing used when densifying polygon edges into boundary walks.
EDGE_SPACING = 1.0 / 128.0
# Point-edge pairs the distance kernel holds in memory at once.
_KERNEL_PAIRS = 1 << 16


class Infinity:
    """The unique point at infinity of the extended complex plane."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = Infinity()

ExtComplex = Union[complex, Infinity]


def is_infinity(z) -> bool:
    """True iff z is the point at infinity."""
    return isinstance(z, Infinity)


def as_finite_complex(z) -> complex:
    """Coerce to a finite complex number, rejecting NaN and float infinities."""
    w = complex(z)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise InputError(f"expected a finite complex value, got {w!r}")
    return w


def _clamp_disk_array(ws) -> np.ndarray:
    """Clamp nominal disk points so |w| <= 1, rejecting |w| > 1 + EPS_DISK;
    returns a clamped copy.

    Points with |w| > 1 are divided by |w| as CPython divides a complex
    by a real, written out, so values match scalar complex arithmetic
    bit for bit.  The first point that is not finite or lies beyond
    1 + EPS_DISK raises InputError or OutOfDiskError.
    """
    ws = np.array(ws, dtype=np.complex128).ravel()
    with np.errstate(invalid="ignore"):
        r = np.hypot(ws.real, ws.imag)
    bad = ~np.isfinite(ws) | (r > 1.0 + EPS_DISK)
    if bad.any():
        k = int(np.argmax(bad))
        as_finite_complex(ws[k])  # raises InputError
        raise OutOfDiskError(
            f"|w| = {float(r[k])!r} exceeds the unit disk beyond tolerance {EPS_DISK}")
    big = r > 1.0
    if big.any():
        wr, wi, rb = ws.real[big], ws.imag[big], r[big]
        ws.real[big] = (wr + wi * 0.0) / rb
        ws.imag[big] = (wi - wr * 0.0) / rb
    return ws


def split_infinity(points) -> tuple[np.ndarray, np.ndarray]:
    """Split extended-plane points into complex128 values and the INFINITY mask.

    Values under the mask are 0.  Numeric arrays pass through without a
    scan; object arrays, which may hold INFINITY, are scanned.
    """
    if isinstance(points, np.ndarray) and points.dtype != object:
        zs = points.astype(np.complex128, copy=False).ravel()
        return zs, np.zeros(zs.size, dtype=bool)
    pts = list(np.ravel(points) if isinstance(points, np.ndarray) else points)
    at_infinity = np.array([p is INFINITY for p in pts], dtype=bool)
    return np.array([0j if p is INFINITY else p for p in pts], dtype=np.complex128), at_infinity


def bk_forward_array(points) -> np.ndarray:
    """Array kernel of bk_forward; INFINITY entries map to 1.

    The components are 1 - 2/d and -2*Re z/d with d = 1 + |z|^2, so
    conjugate points collapse bit for bit; round-off excursions past
    |w| = 1 go through the radial clamp of _clamp_disk_array.  A NaN or
    float infinity raises InputError.
    """
    zs, at_infinity = split_infinity(points)
    finite = np.isfinite(zs)
    if not finite.all():
        as_finite_complex(zs[np.argmin(finite)])  # raises InputError
    x, y = zs.real, zs.imag
    ws = np.empty(zs.size, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        d = 1.0 + (x * x + y * y)
        ws.real = 1.0 - 2.0 / d
        ws.imag = -2.0 * x / d
    ws = _clamp_disk_array(ws)
    ws[at_infinity] = 1.0
    return ws


def bk_forward(z: ExtComplex) -> complex:
    """Map a point of the extended complex plane into the closed unit disk.

    f(z) = 1 - 2*(1 + i*Re z)/(1 + |z|^2) and f(infinity) = 1.  The
    components only involve Re z and |z|^2, so f(z) == f(conj(z))
    exactly.  |f(z)| <= 1 holds analytically; round-off excursions are
    clamped radially.
    """
    return complex(bk_forward_array([z])[0])


def _bk_inverse_upper(ws) -> tuple[np.ndarray, np.ndarray]:
    """The inverse map g: upper preimages, the non-negative-imaginary
    representative of each conjugate pair, and the mask of g(w) =
    {infinity}.

    Values under the mask are meaningless; 1 - |w|^2 is clamped to
    [0, inf) before the square root.  The points first go through the
    radial clamp of _clamp_disk_array, whose InputError or OutOfDiskError
    the first non-finite or outside point raises.  Then the first point
    where 1 - Re w rounds to 0 off the INF_TOL ball around w = 1 (a plane
    point too large for the model) raises NumericalError.
    """
    ws = np.asarray(ws, dtype=np.complex128).ravel()
    clamped = _clamp_disk_array(ws)
    wr, wi = clamped.real, clamped.imag
    with np.errstate(divide="ignore", invalid="ignore"):
        at_infinity = np.hypot(wr - 1.0, wi - 0.0) <= INF_TOL
        denom = 1.0 - wr  # > 0 away from w = 1
        rad = 1.0 - (wr * wr + wi * wi)
        rad = np.where(rad < 0.0, 0.0, rad)
        upper = np.empty(ws.size, dtype=np.complex128)
        upper.real = -wi / denom
        upper.imag = np.sqrt(rad) / denom
    bad = ~at_infinity & (denom == 0.0)
    if bad.any():
        w = complex(ws[np.argmax(bad)])
        raise NumericalError(
            f"disk point {w!r} has no finite preimage: 1 - Re w rounds to 0 "
            f"outside the {INF_TOL:g} ball around w = 1")
    return upper, at_infinity


# ---------------------------------------------------------------------------
# Planar convex hulls (monotone chain)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConvexPolygon:
    """A convex polygon given by counter-clockwise vertices, a read-only
    complex128 copy of the sequence given.

    May degenerate to a segment (2 vertices) or a point (1 vertex).
    Vertices start at the lexicographically smallest point.
    """

    vertices: np.ndarray

    def __post_init__(self):
        vertices = np.array(self.vertices, dtype=np.complex128).reshape(-1)
        if vertices.size == 0:
            raise InputError("a polygon needs at least one vertex")
        vertices.flags.writeable = False
        object.__setattr__(self, "vertices", vertices)


def _half_chain(pts: list[complex], tol: float) -> list[complex]:
    """One monotone-chain pass; pops vertices within tol of the chord."""
    chain: list[complex] = []
    for p in pts:
        while len(chain) >= 2:
            o = chain[-2]
            d, e = p - o, chain[-1] - o
            if e.real * d.imag - e.imag * d.real > tol * abs(d):
                break
            chain.pop()
        chain.append(p)
    return chain


def _ldexp(zs: np.ndarray, k: int) -> np.ndarray:
    """zs times 2**k, each coordinate by np.ldexp: exact wherever no
    coordinate over- or underflows.  For k = 0, zs itself."""
    if k == 0:
        return zs
    out = np.empty_like(zs)
    out.real = np.ldexp(zs.real, k)
    out.imag = np.ldexp(zs.imag, k)
    return out


def _max_coordinate(zs: np.ndarray) -> float:
    """Largest |Re z| or |Im z| over zs, 0 for none."""
    return float(np.max(np.maximum(np.abs(zs.real), np.abs(zs.imag)), initial=0.0))


def _convex_cycle_start(x: np.ndarray, tol: float) -> int | None:
    """Where x, in the order given, is a strictly convex counter-clockwise
    cycle, the index of its lexicographically smallest point; else None.

    Each point must lie more than tol left of the chord joining its two
    neighbours, by the test _half_chain prunes with, and the exterior
    angles must sum to one turn, which rules out a star polygon such as
    a pentagram.  A monotone chain over such points keeps every one of
    them, in the same cyclic order.
    """
    if x.size < 3:
        return None
    e = x - np.roll(x, 1)  # b - a at each point b, a before and c after it
    d = np.roll(x, -1) - np.roll(x, 1)  # c - a
    if not np.all(e.real * d.imag - e.imag * d.real > tol * np.abs(d)):
        return None
    # Every turn lies in (0, pi), so the edge directions wrap past pi once
    # per 2*pi of turning: one wrap is one turn.
    phi = np.angle(e)
    if np.count_nonzero(phi < np.roll(phi, 1)) != 1:
        return None
    low = np.flatnonzero(x.real == np.min(x.real))
    return int(low[np.argmin(x.imag[low])])


def convex_hull_2d(points: Iterable[complex]) -> ConvexPolygon:
    """Convex hull of finite planar points, counter-clockwise from the
    lexicographically smallest vertex.

    A vertex is pruned as collinear when its perpendicular distance to
    the chord joining its neighbours is at most COLLINEAR_TOL, scaled
    linearly for data outside the unit box so the test stays meaningful
    at any magnitude.  Using a distance (not raw cross-product) test
    keeps the pruning error bounded independently of how densely the
    boundary was sampled.

    Points that, in the order given, already form a strictly convex
    counter-clockwise cycle (every point beyond the pruning tolerance
    left of the chord of its neighbours, one turn in all) are the hull:
    they are returned rotated to start at the smallest point, in linear
    time.  A dense support sweep in angle order is such a cycle.  Any
    other input, such as a reordering near a corner, a duplicate, a
    collinear triple or clockwise order, takes a sort and a monotone
    chain, which would keep exactly that cycle too.  Every test runs on
    the coordinates divided by the largest power of two up to
    max(1, largest coordinate), which is exact, so cross products do
    not overflow above about 1e154; the vertices are input points, bit
    for bit.
    """
    arr = np.asarray(points if isinstance(points, np.ndarray) else list(points),
                     dtype=np.complex128).ravel()
    if arr.size == 0:
        raise InputError("convex_hull_2d needs at least one point")
    finite = np.isfinite(arr.real) & np.isfinite(arr.imag)
    if not finite.all():
        as_finite_complex(arr[np.argmin(finite)])  # raises InputError
    scale = max(1.0, _max_coordinate(arr))
    k = math.frexp(scale)[1] - 1
    x = _ldexp(arr, -k)
    tol = math.ldexp(COLLINEAR_TOL * scale, -k)
    start = _convex_cycle_start(x, tol)
    if start is not None:
        return ConvexPolygon(np.roll(arr, -start))
    # Stable lexicographic sort; equal points keep their first occurrence.
    order = np.lexsort((x.imag, x.real))
    x = x[order]
    distinct = np.ones(x.size, dtype=bool)
    distinct[1:] = x[1:] != x[:-1]
    order, x = order[distinct], x[distinct]
    if x.size == 1:
        return ConvexPolygon(arr[order])
    pts = x.tolist()
    verts = _half_chain(pts, tol)[:-1] + _half_chain(pts[::-1], tol)[:-1]
    # Fewer than 2 means all points coincide up to the pruning tolerance.
    at = np.searchsorted(x, verts) if len(verts) >= 2 else [0, -1]
    return ConvexPolygon(arr[order[at]])


def polygon_area(poly: ConvexPolygon) -> float:
    """Shoelace area; zero for degenerate polygons."""
    a = poly.vertices
    if a.size < 3:
        return 0.0
    b = np.roll(a, -1)
    return 0.5 * float(np.sum(a.real * b.imag - b.real * a.imag))


def _signed_distances(vertices, ws) -> np.ndarray:
    """Exact signed distances from points to a convex polygon, vectorized.

    `vertices` are the polygon's CCW vertices.  The result is minus the
    distance to the boundary inside, the Euclidean distance outside,
    and the plain distance for a point or a segment.  Zero-length edges
    are skipped.  Points are processed in chunks of at most
    _KERNEL_PAIRS point-edge pairs, so memory stays bounded for
    polygons with tens of thousands of vertices.  The arithmetic runs on
    all coordinates divided by a power of two near the largest, which is
    exact, so products neither overflow above about 1e154 nor vanish
    below about 1e-154; the distances are scaled back.
    """
    v = np.asarray(vertices, dtype=np.complex128)
    ws = np.asarray(ws, dtype=np.complex128).ravel()
    k = math.frexp(max(_max_coordinate(v), _max_coordinate(ws)))[1]
    v, ws = _ldexp(v, -k), _ldexp(ws, -k)
    closed = len(v) > 2
    a = v if closed else v[:1]
    e = (np.roll(v, -1) if closed else v[-1:]) - a
    ln = np.abs(e)
    keep = ln > 0.0
    a, e, ln = a[keep], e[keep], ln[keep]
    if a.size == 0:
        return np.ldexp(np.abs(ws - v[0]), k)
    out = np.empty(ws.shape, dtype=np.float64)
    step = max(1, _KERNEL_PAIRS // a.size)
    for lo in range(0, ws.size, step):
        rel = ws[lo:lo + step, None] - a
        if closed:
            # Outward normal of a CCW edge is (ey, -ex)/|e|; inside a
            # convex polygon the largest edge-line distance is exact.
            d = np.max((rel.real * e.imag - rel.imag * e.real) / ln, axis=1)
        else:
            d = np.full(rel.shape[0], np.inf)
        far = d > 0.0
        r = rel[far]
        # Divided by |e| twice: |e|^2 underflows to 0 for an edge below
        # about 1e-154 of the largest coordinate.
        t = np.clip((r.real * e.real + r.imag * e.imag) / ln / ln, 0.0, 1.0)
        d[far] = np.min(np.abs(r - t * e), axis=1)
        out[lo:lo + step] = d
    return np.ldexp(out, k)


def polygon_signed_distance(poly: ConvexPolygon, w) -> float:
    """Exact signed distance to the polygon: negative inside, zero on the boundary.

    Inside it is minus the distance to the boundary, outside the
    Euclidean distance to the polygon.  Degenerate polygons give the
    plain distance to the point or segment.
    """
    return float(_signed_distances(poly.vertices, [as_finite_complex(w)])[0])


def polygon_distance(poly: ConvexPolygon, w) -> float:
    """Euclidean distance to the polygon as a set (zero inside)."""
    return max(0.0, polygon_signed_distance(poly, w))


def polygon_hausdorff(p: ConvexPolygon, q: ConvexPolygon) -> float:
    """Hausdorff distance between two convex polygons (as filled sets).

    The distance-to-a-convex-set function is convex, so its maximum
    over a polytope is attained at a vertex; checking vertices both
    ways is exact.
    """
    d1 = np.max(_signed_distances(q.vertices, p.vertices))
    d2 = np.max(_signed_distances(p.vertices, q.vertices))
    return float(max(0.0, d1, d2))


class PolygonLocator:
    """Fast certified distance queries against a fixed convex polygon.

    Each query point is located in its angular sector around an
    interior anchor (O(log V) via binary search), which identifies the
    boundary edge the anchor ray exits through.  That edge gives an
    exact inside/outside decision plus certified lower/upper distance
    bounds; the rare queries whose bounds straddle a caller's
    tolerance can be resolved with the exact O(V) computation.
    Polygons where the sector structure cannot be validated fall back
    to exact answers for every query.  As in _signed_distances, the
    arithmetic runs on coordinates divided by a power of two near the
    largest, which is exact, so products do not overflow above about
    1e154; the distances are scaled back.
    """

    def __init__(self, poly: ConvexPolygon):
        self.poly = poly
        v = poly.vertices
        self._direct = True
        if len(v) < 3:
            return
        self._size = _max_coordinate(v)
        self._k = math.frexp(self._size)[1]
        v = _ldexp(v, -self._k)
        c = v.mean(keepdims=True)
        ang = np.angle(v - c)
        order = np.argsort(ang, kind="stable")
        count = len(v)
        # CCW vertices around an interior anchor sort by a pure
        # rotation; anything else means the polygon is unusable here.
        if not np.array_equal(np.mod(order - order[0], count), np.arange(count)):
            return
        ov = v[order]
        oang = ang[order]
        if np.any(np.diff(oang) <= 0.0):
            return
        nxt = np.roll(ov, -1)
        edges = nxt - ov
        lens = np.abs(edges)
        if np.any(lens == 0.0):
            return
        normals = -1j * edges / lens
        if np.max(np.real(np.conj(normals) * (c - ov))) >= 0.0:
            return
        self._direct = False
        self._c = c
        self._oang = oang
        self._oa = ov
        self._ob = nxt
        self._n = normals

    def query(self, ws):
        """Certified per-point bounds, vectorized.

        Returns (signed_lb, signed_ub, boundary_ub): bounds on the
        signed distance (negative strictly inside) and an upper bound
        on the distance to the polygon boundary.  All three are
        rigorous; signs of signed_lb/signed_ub agree with the exact
        inside/outside decision.
        """
        ws = np.asarray(ws, dtype=np.complex128).ravel()
        if self._direct:
            d = self.exact(ws)
            return d, d.copy(), np.abs(d)
        k = math.frexp(max(self._size, _max_coordinate(ws)))[1]
        ws = _ldexp(ws, -k)
        c, oa, ob = (_ldexp(x, self._k - k) for x in (self._c, self._oa, self._ob))
        rel = ws - c
        beta = np.angle(rel)
        idx = np.searchsorted(self._oang, beta, side="right") - 1
        idx[idx < 0] = len(self._oang) - 1
        a = oa[idx]
        b = ob[idx]
        n = self._n[idx]
        # Support gap in the located edge's normal direction: its sign
        # is the exact in/out decision, its value a signed lower bound.
        dot = np.real(np.conj(n) * (ws - a))
        # Distance to the located edge segment: a true boundary point.
        e = b - a
        ln = np.abs(e)
        t = np.clip(np.real(np.conj(e) * (ws - a)) / ln / ln, 0.0, 1.0)
        seg = np.abs(ws - (a + t * e))
        # The anchor ray exits the boundary through this edge.
        rho = np.abs(rel)
        safe = np.where(rho > 0.0, rho, 1.0)
        u = np.where(rho > 0.0, rel / safe, 1.0 + 0.0j)
        un = np.real(np.conj(n) * u)
        texit = np.real(np.conj(n) * (a - c)) / np.maximum(un, 1e-300)
        ray = np.abs(rho - texit)
        boundary_ub = np.minimum(seg, ray)
        signed_lb = np.maximum(dot, -boundary_ub)
        signed_ub = np.where(dot > 0.0, boundary_ub, 0.0)
        return tuple(np.ldexp(d, k) for d in (signed_lb, signed_ub, boundary_ub))

    def exact(self, ws) -> np.ndarray:
        """Exact signed distances (negative inside), O(V) per point."""
        return _signed_distances(self.poly.vertices, ws)


def polygon_boundary_points(poly: ConvexPolygon, spacing: float = EDGE_SPACING) -> np.ndarray:
    """CCW boundary walk with edges densified to at most `spacing` steps,
    as a complex128 array.

    Degenerate polygons traverse once (no return leg), so a segment
    yields points from one endpoint to the other.  Point k of an edge
    cut into n steps is a + (b - a)*(k/n), the product written out as
    CPython's complex-by-real product.
    """
    v = poly.vertices
    if v.size == 1:
        return v.copy()
    a, b = (v[:1], v[1:]) if v.size == 2 else (v, np.roll(v, -1))
    dr, di = b.real - a.real, b.imag - a.imag
    n = np.maximum(1, np.ceil(np.hypot(dr, di) / spacing)).astype(np.int64)
    edge = np.repeat(np.arange(a.size), n)
    f = (np.arange(edge.size) - np.repeat(np.cumsum(n) - n, n)) / n[edge]
    dr, di = dr[edge], di[edge]
    walk = np.empty(edge.size, dtype=np.complex128)
    walk.real = a.real[edge] + (dr * f - di * 0.0)
    walk.imag = a.imag[edge] + (dr * 0.0 + di * f)
    return np.concatenate((walk, v[1:])) if v.size == 2 else walk


# ---------------------------------------------------------------------------
# SRG regions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SrgRegion:
    """An SRG result: disk-side hull plus the two conjugate plane branches.

    upper_branch is a read-only complex128 array, and at_infinity marks
    its points at infinity, where it holds 0; lower_branch is its
    conjugate, computed on access.  `boundary_only` marks the
    2-dimensional real-graph case where the SRG is the boundary curve
    alone; the disk_hull is still the filled hull so containment queries
    stay meaningful.
    """

    disk_hull: ConvexPolygon
    upper_branch: np.ndarray
    at_infinity: np.ndarray
    contains_infinity: bool
    boundary_only: bool

    @property
    def lower_branch(self) -> np.ndarray:
        return np.conj(self.upper_branch)


def region_from_disk_hull(
    hull: ConvexPolygon,
    *,
    contains_infinity: bool | None = None,
    boundary_only: bool = False,
) -> SrgRegion:
    """Build an SrgRegion from a disk-side hull by mapping its boundary,
    walked at EDGE_SPACING, back.

    The upper branch keeps the non-negative-imaginary representative of
    each boundary point, 0 where at_infinity marks the point at infinity.
    When `contains_infinity` is None it is derived from whether the
    hull touches the point 1 within EPS_DISK.  When it is False (a
    bounded operator), a boundary point that maps to infinity raises
    NumericalError: the plane point is too large for the model.
    """
    if contains_infinity is None:
        contains_infinity = polygon_signed_distance(hull, 1.0) <= EPS_DISK
    walk = polygon_boundary_points(hull)
    upper, at_infinity = _bk_inverse_upper(walk)
    if contains_infinity is False and at_infinity.any():
        w = complex(walk[np.argmax(at_infinity)])
        raise NumericalError(
            f"disk point {w!r} of a region without infinity lies in the {INF_TOL:g} "
            f"ball around w = 1, so its preimage is the point at infinity")
    upper[at_infinity] = 0.0
    upper.flags.writeable = at_infinity.flags.writeable = False
    return SrgRegion(hull, upper, at_infinity, bool(contains_infinity), bool(boundary_only))


def hull_bk(points: Sequence[ExtComplex]) -> SrgRegion:
    """Hyperbolic convex hull g(hull(f(points))) as an SrgRegion.

    The region contains infinity when the hull touches f(infinity) = 1,
    as it does when INFINITY is among the points.
    """
    return region_from_disk_hull(convex_hull_2d(bk_forward_array(points)))
