from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import oracles
from srgraph import (
    EPS_DISK,
    INFINITY,
    InputError,
    NumericalError,
    OutOfDiskError,
    Infinity,
    PolygonLocator,
    bk_forward,
    build_v,
    convex_hull_2d,
    hull_bk,
    is_infinity,
    nrange_boundary,
    polygon_area,
    polygon_distance,
    polygon_hausdorff,
    polygon_signed_distance,
)
from srgraph import cgeom
from srgraph.cgeom import (
    _bk_inverse_upper,
    _clamp_disk_array,
    bk_forward_array,
    polygon_boundary_points,
    region_from_disk_hull,
)


# ---------------------------------------------------------------------------
# Infinity and the forward map
# ---------------------------------------------------------------------------

def test_infinity_is_singleton_and_self_conjugate():
    assert is_infinity(INFINITY) and Infinity() is INFINITY
    assert not is_infinity(1e300 + 0j)
    # Both conjugate branches of an unbounded region hold it in the
    # same places.
    region = hull_bk([INFINITY, 0.0, 1j])
    marks = [is_infinity(z) for z in region.upper_branch]
    assert any(marks) and marks == [is_infinity(z) for z in region.lower_branch]


def test_bk_forward_reference_points():
    assert bk_forward(INFINITY) == 1.0 + 0j
    assert bk_forward(0.0) == -1.0 + 0j
    assert abs(bk_forward(1.0) - (-1j)) < 1e-15
    assert abs(bk_forward(1j)) < 1e-15
    assert abs(bk_forward(2.0) - (0.6 - 0.8j)) < 1e-15


def test_bk_forward_conjugate_blind_exact():
    rng = np.random.default_rng(11)
    for z in rng.normal(size=200) + 1j * rng.normal(size=200):
        z = complex(z)
        assert bk_forward(z) == bk_forward(z.conjugate())


def test_bk_forward_stays_in_disk_at_extreme_magnitudes():
    rng = np.random.default_rng(12)
    count = 1_000_000
    mags = 10.0 ** rng.uniform(-8, 8, size=count)
    args = rng.uniform(0, 2 * math.pi, size=count)
    # bk_forward is bk_forward_array on one point; map all points at once.
    worst = float(np.max(np.abs(bk_forward_array(mags * np.exp(1j * args)))))
    assert worst <= 1.0 + 1e-15


def test_bk_forward_matches_independent_formula():
    rng = np.random.default_rng(13)
    for z in rng.normal(scale=3.0, size=300) + 1j * rng.normal(scale=3.0, size=300):
        assert abs(bk_forward(complex(z)) - oracles.bk_map(complex(z))) < 1e-15


def test_bk_forward_array_is_the_scalar_formula_bit_for_bit():
    rng = np.random.default_rng(60)
    mags = 10.0 ** rng.uniform(-300, 300, size=4000)
    zs = list((rng.normal(size=4000) + 1j * rng.normal(size=4000)) * mags)
    zs += list(rng.normal(size=200) + 1j * rng.normal(size=200))
    zs += [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
    zs += [1e300 + 1e300j, -1e300 + 0j, 1e-300j, INFINITY, 2.0]
    want = [repr(oracles.bk_forward_ref(z)) for z in zs]
    assert [repr(w) for w in bk_forward_array(zs).tolist()] == want
    assert [repr(bk_forward(z)) for z in zs] == want
    finite = np.array([z for z in zs if z is not INFINITY])
    ws, wc = bk_forward_array(finite), bk_forward_array(np.conj(finite))
    assert np.array_equal(ws.view(np.int64), wc.view(np.int64))
    with pytest.raises(InputError):
        bk_forward_array([1.0, complex(math.nan, 0.0)])


def test_circles_centered_on_real_axis_map_to_chords():
    phis = np.linspace(0.0, 2 * math.pi, 256, endpoint=False)
    for center, radius in [(2.0, 1.0), (-0.5, 3.0), (0.0, 1.0), (10.0, 0.25)]:
        zs = center + radius * np.exp(1j * phis)
        ws = np.array([bk_forward(complex(z)) for z in zs])
        pts = np.column_stack([ws.real, ws.imag])
        pts -= pts.mean(axis=0)
        # Smallest singular value = max deviation scale from the best-fit line.
        sigma = np.linalg.svd(pts, compute_uv=False)[-1]
        assert sigma / math.sqrt(len(ws)) < 1e-9


# ---------------------------------------------------------------------------
# Inverse map
# ---------------------------------------------------------------------------

def test_bk_inverse_reference_points():
    up, at_infinity = _bk_inverse_upper([1.0, -1.0, bk_forward(2 + 1j)])
    assert at_infinity.tolist() == [True, False, False]
    assert up[1] == 0.0
    assert abs(up[2] - (2 + 1j)) < 1e-12


def test_bk_inverse_upper_branch_has_nonnegative_imag():
    rng = np.random.default_rng(14)
    ws = rng.uniform(-0.99, 0.99, size=200) + 1j * rng.uniform(-0.99, 0.99, size=200)
    ws = ws[np.abs(ws) < 1.0]
    up, at_infinity = _bk_inverse_upper(ws)
    assert not at_infinity.any()
    assert np.all(up.imag >= 0.0)


def test_bk_roundtrip_on_random_points():
    rng = np.random.default_rng(15)
    zs = rng.normal(scale=2.0, size=1000) + 1j * rng.normal(scale=2.0, size=1000)
    up, _ = _bk_inverse_upper(bk_forward_array(zs))
    expect_up = np.where(zs.imag >= 0, zs, np.conj(zs))
    assert np.max(np.abs(up - expect_up)) < 1e-12


def test_bk_inverse_rejects_points_outside_disk():
    with pytest.raises(OutOfDiskError):
        _bk_inverse_upper([1.1 + 0j])


def test_bk_inverse_overflow_near_one_is_a_numerical_error():
    # 1 - Re w rounds to 0 while |w - 1| = 2e-9 is far outside the
    # INF_TOL ball: the preimage has no finite double value.
    w = 1.0 - 2e-9j
    with pytest.raises(NumericalError, match="1-2e-09j"):
        _bk_inverse_upper([w])
    with pytest.raises(NumericalError):
        hull_bk([1e9])
    assert _bk_inverse_upper([1.0 - 1e-13j])[1].tolist() == [True]


def test_clamp_disk_behavior():
    assert _clamp_disk_array([0.5 + 0.5j])[0] == 0.5 + 0.5j
    w = _clamp_disk_array([(1.0 + 5e-10) * 1j])[0]
    assert abs(abs(w) - 1.0) < 1e-15
    with pytest.raises(OutOfDiskError):
        _clamp_disk_array([1.0 + 1e-8 + 0j])
    with pytest.raises(InputError):
        _clamp_disk_array([float("nan")])


def test_clamp_disk_array_is_the_scalar_clamp_bit_for_bit():
    rng = np.random.default_rng(61)
    radii = 1.0 + rng.uniform(-5e-10, 5e-10, size=3000)
    ws = list(radii * np.exp(2j * math.pi * rng.random(3000)))
    ws += [0j, complex(-0.0, -0.0), 1.0 + 0j, complex(-1.0, -0.0), complex(-0.0, 1.0 + 5e-10)]
    want = [repr(oracles.clamp_disk_ref(w)) for w in ws]
    assert [repr(w) for w in _clamp_disk_array(ws).tolist()] == want
    # The first faulty point raises, with the scalar clamp's message.
    nan = complex(math.nan, 0.0)
    for points, bad, kind in (([0.5, 2.0, nan], 2.0, OutOfDiskError),
                              ([0.5, nan, 2.0], nan, InputError)):
        with pytest.raises(ValueError) as want_exc:
            oracles.clamp_disk_ref(bad)
        with pytest.raises(kind) as got:
            _clamp_disk_array(points)
        assert str(got.value) == str(want_exc.value)


# ---------------------------------------------------------------------------
# Convex hulls
# ---------------------------------------------------------------------------

def test_hull_discards_interior_point():
    poly = convex_hull_2d([0j, 1 + 0j, 1j, 0.25 + 0.25j])
    assert set(poly.vertices) == {0j, 1 + 0j, 1j}
    assert len(poly.vertices) == 3


def test_hull_degenerate_cases():
    assert convex_hull_2d([0.5 + 0j]).vertices == (0.5 + 0j,)
    seg = convex_hull_2d([0j, 1 + 1j, 0.5 + 0.5j])
    assert set(seg.vertices) == {0j, 1 + 1j}
    with pytest.raises(InputError):
        convex_hull_2d([])


def _count_chains(monkeypatch) -> list:
    """Record the length of every monotone-chain pass from now on."""
    calls, chain = [], cgeom._half_chain

    def counted(pts, tol):
        calls.append(len(pts))
        return chain(pts, tol)

    monkeypatch.setattr(cgeom, "_half_chain", counted)
    return calls


def test_hull_is_ccw_and_idempotent(monkeypatch):
    rng = np.random.default_rng(16)
    pts = [complex(x, y) for x, y in rng.normal(size=(60, 2))]
    poly = convex_hull_2d(pts)
    assert polygon_area(poly) > 0.0
    assert poly.vertices == oracles.hull_chain_ref(pts)
    # A hull's vertices are a convex cycle from any start: no chain.
    calls = _count_chains(monkeypatch)
    for shift in range(len(poly.vertices)):
        again = convex_hull_2d(np.roll(poly.vertices, shift))
        assert again.vertices == poly.vertices
    assert calls == []


@pytest.mark.parametrize("field", ["real", "complex"])
def test_sweep_hull_from_any_start_is_the_chain_hull(field, monkeypatch):
    # Support points in angle order are a convex cycle, so every start
    # gives the sort-and-chain hull without a chain pass.
    rng = np.random.default_rng(62)
    calls = _count_chains(monkeypatch)
    for n in range(2, 9):
        t = rng.normal(size=(n, n))
        if field == "complex":
            t = t + 1j * rng.normal(size=(n, n))
        pts = nrange_boundary(build_v(t).v).support_points
        want = oracles.hull_chain_ref(pts)
        assert len(want) == pts.size
        for shift in (0, 1, pts.size // 3, pts.size - 1):
            assert convex_hull_2d(np.roll(pts, shift)).vertices == want
    assert calls == []


def test_hull_of_points_not_in_convex_order_takes_the_chain(monkeypatch):
    pentagon = np.exp(2j * math.pi * np.arange(5) / 5)
    circle = np.exp(2j * math.pi * np.arange(50) / 50)
    swapped = circle.copy()
    swapped[[10, 11]] = swapped[[11, 10]]
    # Sweep noise reorders these support points near a corner.
    upper = nrange_boundary(build_v(np.array([[1e8, 1.0], [0.0, 1.0]])).v).support_points
    inputs = {
        "pentagram": pentagon[[0, 2, 4, 1, 3]],  # all left turns, winding number 2
        "clockwise": circle[::-1],
        "swapped_pair": swapped,
        "duplicate": np.insert(circle, 7, circle[7]),
        "collinear_triple": np.array([0j, 0.5, 1.0, 1 + 1j, 1j]),
        "gain_1e8_upper": upper,
    }
    calls = _count_chains(monkeypatch)
    for name, pts in inputs.items():
        calls.clear()
        assert convex_hull_2d(pts).vertices == oracles.hull_chain_ref(pts), name
        assert calls, name


def test_polygon_area_matches_the_shoelace_loop():
    # np.sum adds pairwise, the loop in order: they agree to within the
    # rounding of the summed terms' magnitudes.
    rng = np.random.default_rng(18)
    for count in (1, 2, 3, 7, 200):
        poly = convex_hull_2d(list(rng.normal(size=count) + 1j * rng.normal(size=count)))
        v = poly.vertices
        want = oracles.polygon_area_ref(v)
        scale = sum(abs(a.real * b.imag) + abs(b.real * a.imag) for a, b in zip(v, v[1:] + v[:1]))
        assert abs(polygon_area(poly) - want) <= len(v) * np.finfo(float).eps * scale
        assert (polygon_area(poly) == 0.0) == (len(v) < 3)


def test_hull_area_of_uniform_square_samples():
    rng = np.random.default_rng(17)
    pts = [complex(x, y) for x, y in rng.uniform(0.0, 1.0, size=(10_000, 2))]
    area = polygon_area(convex_hull_2d(pts))
    assert abs(area - 1.0) < 0.05


def test_polygon_distances():
    square = convex_hull_2d([0j, 1 + 0j, 1 + 1j, 1j])
    assert polygon_signed_distance(square, 0.5 + 0.5j) == pytest.approx(-0.5)
    assert polygon_signed_distance(square, 2 + 0.5j) == pytest.approx(1.0)
    # Outside a corner the distance is Euclidean, not an edge-line bound.
    assert polygon_signed_distance(square, 2 + 2j) == pytest.approx(math.sqrt(2.0))
    assert polygon_distance(square, 0.5 + 0.5j) == 0.0
    assert polygon_distance(square, 0.5 - 1j) == pytest.approx(1.0)
    moved = convex_hull_2d([v + 0.25 for v in square.vertices])
    assert polygon_hausdorff(square, moved) == pytest.approx(0.25)
    assert polygon_hausdorff(square, square) == 0.0
    # Cross products of these coordinates overflow; the distances do not.
    huge = convex_hull_2d([v * 1e300 for v in square.vertices])
    assert huge.vertices == tuple(v * 1e300 for v in square.vertices)
    assert polygon_signed_distance(huge, 0.5e300 + 0.5e300j) == pytest.approx(-0.5e300)
    assert polygon_signed_distance(huge, 2e300 + 2e300j) == pytest.approx(math.sqrt(2.0) * 1e300)


def test_polygon_signed_distance_matches_reference():
    rng = np.random.default_rng(18)
    pts = [complex(x, y) for x, y in rng.normal(size=(25, 2))]
    poly = convex_hull_2d(pts)
    verts = list(poly.vertices)
    for _ in range(300):
        p = complex(*rng.normal(scale=2.0, size=2))
        want = oracles.polygon_distance_ref(verts, p)
        assert polygon_distance(poly, p) == pytest.approx(want, abs=1e-12)


def test_polygon_hausdorff_matches_reference():
    rng = np.random.default_rng(21)
    # One and two points give point and segment hulls.
    counts = [(1, 1), (1, 2), (2, 2), (2, 6), (7, 1)]
    counts += [tuple(rng.integers(3, 12, size=2)) for _ in range(30)]
    for pair in counts:
        hulls = [convex_hull_2d(rng.normal(size=c) + 1j * rng.normal(size=c)) for c in pair]
        want = oracles.hausdorff_ref(list(hulls[0].vertices), list(hulls[1].vertices))
        assert polygon_hausdorff(*hulls) == pytest.approx(want, abs=1e-12)


def test_polygon_boundary_points_walk_the_edges():
    square = convex_hull_2d([0j, 1 + 0j, 1 + 1j, 1j])
    walk = polygon_boundary_points(square, spacing=0.25)
    assert len(walk) == 16
    for w in walk:
        assert abs(polygon_signed_distance(square, w)) < 1e-12
    seg = convex_hull_2d([0j, 1 + 0j])
    walk = polygon_boundary_points(seg, spacing=0.5)
    assert walk[0] == 0j and walk[-1] == 1 + 0j


# ---------------------------------------------------------------------------
# Hyperbolic hull regions
# ---------------------------------------------------------------------------

def test_hull_bk_singleton():
    region = hull_bk([1.0])
    assert region.disk_hull.vertices == (bk_forward(1.0),)
    assert all(abs(z - 1.0) < 1e-12 for z in region.upper_branch)
    assert all(abs(z - 1.0) < 1e-12 for z in region.lower_branch)
    assert not region.contains_infinity


def test_hull_bk_conjugate_pair_same_region():
    lam = 1 + 1j
    r1 = hull_bk([lam])
    r2 = hull_bk([lam, lam.conjugate()])
    assert polygon_hausdorff(r1.disk_hull, r2.disk_hull) < 1e-15


def test_hull_bk_with_infinity_flags_infinity():
    region = hull_bk([INFINITY, 0.0])
    assert region.contains_infinity
    assert polygon_signed_distance(region.disk_hull, bk_forward(5j)) <= 1e-9


def _disk_distance(region, z) -> float:
    """Signed distance of f(z) to the region's disk hull."""
    return polygon_signed_distance(region.disk_hull, bk_forward(z))


def test_region_contains_chord_examples():
    region = hull_bk([0.0, 2.0])
    # The disk hull is the segment from f(0) = -1 to f(2) = 0.6-0.8i.
    assert set(region.disk_hull.vertices) == {-1 + 0j, bk_forward(2.0)}
    # f(1) = -i sits 0.4472... away from that segment, so 1 is outside.
    want = oracles.point_segment_distance(-1j, -1 + 0j, 0.6 - 0.8j)
    assert _disk_distance(region, 1.0) == pytest.approx(want, abs=1e-12)
    # A genuine chord point is inside: the preimage of the midpoint region.
    up = complex(_bk_inverse_upper([-0.2 - 0.4j])[0][0])
    for z in (up, 0.0, 2.0):
        assert _disk_distance(region, z) <= 1e-9
    assert _disk_distance(hull_bk([1.0]), 2.0) > 1e-9


def test_region_branches_are_conjugate():
    region = hull_bk([1 + 2j, 3.0, 0.5 - 1j])
    assert len(region.upper_branch) == len(region.lower_branch)
    for u, l in zip(region.upper_branch, region.lower_branch):
        if is_infinity(u):
            assert is_infinity(l)
        else:
            assert l == u.conjugate()
            assert u.imag >= 0.0


def test_hull_bk_idempotent_on_boundary_points():
    region = hull_bk([1 + 2j, 3.0, 0.5 - 1j, 0.1 + 0.1j])
    finite = [z for z in region.upper_branch if not is_infinity(z)]
    finite += [z for z in region.lower_branch if not is_infinity(z)]
    again = hull_bk(finite)
    assert polygon_hausdorff(region.disk_hull, again.disk_hull) < 1e-9


def test_region_from_disk_hull_derives_infinity_flag():
    touching = convex_hull_2d([1 + 0j, -0.5 + 0.5j, -0.5 - 0.5j])
    assert region_from_disk_hull(touching).contains_infinity
    inner = convex_hull_2d([0.5 + 0j, -0.5 + 0.2j, -0.2 - 0.4j])
    assert not region_from_disk_hull(inner).contains_infinity


def test_region_branches_are_pointwise_bk_inverse_of_the_walk():
    # The branches are built in one array pass; each entry must be the
    # scalar preimage of its boundary-walk point, bit for bit (repr keeps
    # the sign of zero), with infinity where the hull touches 1.
    rng = np.random.default_rng(29)
    hulls = [convex_hull_2d([1 + 0j, -0.5 + 0.5j, -0.5 - 0.5j]),
             convex_hull_2d([0.3 + 0j, -0.3 + 0j])]
    for _ in range(20):
        pts = rng.normal(size=12) + 1j * rng.normal(size=12)
        hulls.append(convex_hull_2d(pts / (1.0 + 1e-10) / np.max(np.abs(pts))))
    for hull in hulls:
        region = region_from_disk_hull(hull)
        pairs = [oracles.bk_inverse_ref(w) for w in polygon_boundary_points(hull)]
        assert repr(region.upper_branch) == repr(tuple(up for up, _ in pairs))
        assert repr(region.lower_branch) == repr(tuple(lo for _, lo in pairs))
    assert INFINITY in region_from_disk_hull(hulls[0]).upper_branch


# ---------------------------------------------------------------------------
# Certified polygon locator
# ---------------------------------------------------------------------------

def test_locator_brackets_exact_distance_on_random_polygons():
    rng = np.random.default_rng(19)
    for trial in range(12):
        pts = [complex(x, y) for x, y in rng.normal(size=(30, 2))]
        poly = convex_hull_2d(pts)
        loc = PolygonLocator(poly)
        ws = rng.normal(scale=2.0, size=400) + 1j * rng.normal(scale=2.0, size=400)
        lb, ub, bd = loc.query(ws)
        exact = loc.exact(ws)
        verts = list(poly.vertices)
        edges = list(zip(verts, verts[1:] + verts[:1]))
        want = oracles.polygon_distance_many(verts, ws)
        inside = want == 0.0
        depth = [min(oracles.point_segment_distance(complex(w), a, b) for a, b in edges)
                 for w in ws[inside]]
        assert np.allclose(exact[~inside], want[~inside], atol=1e-12)
        assert np.allclose(exact[inside], -np.array(depth), atol=1e-12)
        assert np.all(lb <= exact + 1e-12)
        assert np.all(exact <= ub + 1e-12)
        assert np.all(bd >= np.abs(exact) - 1e-12)


def test_locator_handles_degenerate_polygons_exactly():
    rng = np.random.default_rng(20)
    for verts in [[0.3 + 0.1j], [0j, 1 + 1j]]:
        poly = convex_hull_2d(verts)
        loc = PolygonLocator(poly)
        ws = rng.normal(size=50) + 1j * rng.normal(size=50)
        lb, ub, _ = loc.query(ws)
        exact = loc.exact(ws)
        assert np.all(lb <= exact + 1e-15) and np.all(exact <= ub + 1e-15)
        want = [oracles.polygon_distance_ref(verts if len(verts) > 1 else verts,
                                             complex(w)) for w in ws]
        assert np.allclose(exact, want, atol=1e-12)


def test_locator_holds_above_1e154():
    # Products of raw coordinates of this square overflow; the locator
    # decides on coordinates divided by a power of two and scales the
    # bounds back.
    side = 1e300
    loc = PolygonLocator(convex_hull_2d([0j, side, side + side * 1j, side * 1j]))
    ws = side * np.array([0.5 + 0.5j, 0.9 + 0.5j, 1.5 + 0.5j, -0.2 - 0.1j, 0.5 + 2.0j])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lb, ub, bd = loc.query(ws)
        exact = loc.exact(ws)
    assert np.all(np.isfinite(lb) & np.isfinite(ub) & np.isfinite(bd))
    assert np.all(lb <= exact + 1e-15 * side)
    assert np.all(exact <= ub + 1e-15 * side)
    assert np.all(bd >= np.abs(exact) - 1e-15 * side)
    assert np.array_equal(np.sign(lb), np.sign(exact))
    # The bounds at any scale are the unit-scale bounds, scaled back.
    unit = PolygonLocator(convex_hull_2d([0j, 1.0, 1.0 + 1j, 1j]))
    for got, want in zip((lb, ub, bd), unit.query(ws / side)):
        assert np.allclose(got / side, want, rtol=1e-15, atol=0.0)


def test_distances_hold_on_edges_below_1e154_of_the_coordinates():
    # The squared length of an edge 1e-170 long underflows to 0; the
    # distance kernel and the locator divided by it and returned NaN.
    # Such an edge is a point at the precision of the other coordinates.
    ws = np.array([1j, -1j, 1e-170 - 1j, 1.0, -1.0 + 0.5j])
    tri = convex_hull_2d([0.0, 1e-170, 1j])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for verts in ([0.0, 1e-170], list(tri.vertices)):
            got = cgeom._signed_distances(verts, ws)
            want = [oracles.polygon_distance_ref(verts, complex(w)) for w in ws]
            assert np.allclose(np.maximum(got, 0.0), want, rtol=1e-15, atol=0.0)
        bounds = PolygonLocator(tri).query(ws)
        exact = PolygonLocator(tri).exact(ws)
    assert all(np.all(np.isfinite(b)) for b in bounds)
    lb, ub, bd = bounds
    assert np.all(lb <= exact) and np.all(exact <= ub) and np.all(bd >= np.abs(exact))
