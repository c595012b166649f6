from __future__ import annotations

import contextlib
import math
import multiprocessing
import queue
import sys
import threading
import warnings

import numpy as np
import pytest

import oracles
from conftest import rand_complex, rand_unitary
from srgraph import (
    InputError,
    bk_forward,
    build_v,
    convex_hull_2d,
    frob,
    general_eig,
    nrange_boundary,
    nrange_contains,
    polygon_hausdorff,
    spectrum_check,
)
from srgraph import cgeom, nrange, srgmatrix


def test_scalar_matrix_gives_point_hull():
    b = nrange_boundary(np.array([[2 + 1j]]))
    assert all(abs(p - (2 + 1j)) < 1e-14 for p in b.support_points)
    assert b.hull.vertices == (2 + 1j,)


def test_diag01_gives_unit_segment():
    b = nrange_boundary(np.diag([0.0, 1.0]).astype(complex))
    assert all(abs(p.imag) < 1e-12 for p in b.support_points)
    assert min(p.real for p in b.support_points) == pytest.approx(0.0, abs=1e-12)
    assert max(p.real for p in b.support_points) == pytest.approx(1.0, abs=1e-12)
    assert len(b.hull.vertices) == 2


def test_nilpotent_boundary_is_half_disk_radius():
    b = nrange_boundary(np.array([[0, 1], [0, 0]], dtype=complex))
    radii = np.abs(np.array(b.support_points, dtype=complex))
    assert np.max(np.abs(radii - 0.5)) <= 1e-9


def test_boundary_fields_are_consistent():
    rng = np.random.default_rng(40)
    a = rand_complex(rng, 4)
    b = nrange_boundary(a, refine_tol=1e-6)
    assert len(b.angles) == len(b.support_points) == len(b.support_values) > 720
    assert all(0.0 <= t < 2 * math.pi for t in b.angles)
    assert list(b.angles) == sorted(b.angles)
    # Support condition: each point attains its support value.
    tol = 1e-9 * max(1.0, frob(a))
    attained = b.support_points.real * np.cos(b.angles) + b.support_points.imag * np.sin(b.angles)
    assert np.max(np.abs(attained - b.support_values)) <= tol
    # The hull is exactly the hull of the support points.
    assert b.hull.vertices == convex_hull_2d(b.support_points).vertices
    # Convexity: pruning never strands a support point outside the hull.
    outside = oracles.polygon_distance_many(
        list(b.hull.vertices), np.array(b.support_points, dtype=complex)
    )
    assert float(np.max(outside)) <= 1e-9


def test_support_points_lie_inside_every_halfplane():
    rng = np.random.default_rng(41)
    a = rand_complex(rng, 5)
    b = nrange_boundary(a)
    phis = np.linspace(0.0, 2 * math.pi, 480, endpoint=False)
    hs = oracles.support_values_ref(a, phis)
    pts = np.array(b.support_points, dtype=complex)
    for phi, h in zip(phis, hs):
        proj = pts.real * math.cos(phi) + pts.imag * math.sin(phi)
        assert np.max(proj) <= h + 1e-8


def test_rayleigh_samples_stay_inside_hull():
    rng = np.random.default_rng(42)
    a = rand_complex(rng, 4)
    b = nrange_boundary(a, refine_tol=1e-7)
    samples = oracles.rayleigh_points(a, rng, 4000)
    dists = oracles.polygon_distance_many(list(b.hull.vertices), samples)
    # Samples sit inside the hull up to the refinement defect.
    assert float(np.max(dists)) <= 1e-6


def _assert_resolved_to(a, tol):
    b = nrange_boundary(a, refine_tol=tol)
    phis = np.linspace(0.0, 2 * math.pi, 5000, endpoint=False)
    hs = oracles.support_values_ref(a, phis)
    # The refinement guarantee: the support-point set reaches within
    # bound of the true support value in every direction, and bound is
    # at most tol times max(1, largest support value).  Only the points
    # swept within 0.05 rad of each direction are projected; a subset
    # can only reach less far, so this check is no weaker.
    pts = np.array(b.support_points, dtype=complex)
    angles = np.concatenate([b.angles - 2 * math.pi, b.angles, b.angles + 2 * math.pi])
    pts = np.tile(pts, 3)
    lo, hi = np.searchsorted(angles, phis - 0.05), np.searchsorted(angles, phis + 0.05)
    proj = np.array([np.max(pts[i:j].real * math.cos(phi) + pts[i:j].imag * math.sin(phi))
                     for phi, i, j in zip(phis, lo, hi)])
    assert b.bound <= tol * max(1.0, float(np.max(hs)))
    assert float(np.max(hs - proj)) <= b.bound + 1e-10
    # The assembled hull adds only the distance-form collinear pruning
    # slack, which is negligible next to the refinement tolerance.
    hull_h = oracles.hull_support_many(list(b.hull.vertices), phis)
    assert float(np.max(hs - hull_h)) <= b.bound + 1e-9


def test_refined_sweep_resolves_boundary_to_tolerance():
    rng = np.random.default_rng(43)
    _assert_resolved_to(rand_complex(rng, 3), 1e-8)


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_refined_sweep_meets_each_tolerance(tol):
    rng = np.random.default_rng(54)
    for n in (2, 5, 8):
        _assert_resolved_to(rand_complex(rng, n), tol)


def test_hermitian_matrix_has_real_range():
    rng = np.random.default_rng(44)
    a = rand_complex(rng, 5)
    h = (a + a.conj().T) / 2
    b = nrange_boundary(h)
    assert all(abs(p.imag) <= 1e-10 for p in b.support_points)


def test_degenerate_flat_faces_emit_segment_endpoints():
    # diag(i, -i) has a fully degenerate Hermitian part at angle 0; the
    # face is the whole segment [-i, i] and both endpoints must appear.
    a = np.diag([1j, -1j])
    b = nrange_boundary(a)
    pts = np.array(b.support_points, dtype=complex)
    assert np.min(np.abs(pts - 1j)) < 1e-12
    assert np.min(np.abs(pts - (-1j))) < 1e-12
    assert len(b.hull.vertices) == 2


def test_normal_matrix_range_is_spectral_hull():
    rng = np.random.default_rng(45)
    from conftest import rand_normal_matrix

    a, eigs = rand_normal_matrix(rng, 6)
    b = nrange_boundary(a)
    want = convex_hull_2d([complex(e) for e in eigs])
    assert polygon_hausdorff(b.hull, want) <= 1e-8


def test_equivariance_under_affine_maps():
    rng = np.random.default_rng(46)
    a = rand_complex(rng, 4)
    alpha = np.exp(1j * rng.uniform(0, 2 * math.pi))
    beta = complex(rng.normal(), rng.normal())
    b1 = nrange_boundary(a, refine_tol=1e-9)
    b2 = nrange_boundary(alpha * a + beta * np.eye(4), refine_tol=1e-9)
    mapped = convex_hull_2d([alpha * complex(v) + beta for v in b1.hull.vertices])
    d = oracles.hausdorff_support_exact(list(b2.hull.vertices), list(mapped.vertices))
    assert d <= 1e-8


def test_unitary_similarity_invariance():
    rng = np.random.default_rng(47)
    a = rand_complex(rng, 5)
    u = rand_unitary(rng, 5)
    b1 = nrange_boundary(a, refine_tol=1e-9)
    b2 = nrange_boundary(u.conj().T @ a @ u, refine_tol=1e-9)
    d = oracles.hausdorff_support_exact(list(b1.hull.vertices), list(b2.hull.vertices))
    assert d <= 1e-8


def test_membership_queries():
    seg = np.diag([0.0, 1.0]).astype(complex)
    assert nrange_contains(seg, [0.5, 0.5 + 0.1j], 1e-9).tolist() == [True, False]
    nil = np.array([[0, 1], [0, 0]], dtype=complex)
    assert nrange_contains(nil, [0.49j, 0.51j, 0.5j, 0.50000001j], 1e-9).tolist() == [
        True, False, True, False]


def test_membership_of_eigenvalues(monkeypatch):
    rng = np.random.default_rng(48)
    builds, build = [], srgmatrix.build_v

    def counted(t):
        builds.append(1)
        return build(t)

    monkeypatch.setattr(srgmatrix, "build_v", counted)
    for _ in range(10):
        a = rand_complex(rng, 4)
        assert nrange_contains(a, general_eig(a), 1e-7).all()
        # spectrum_check builds and sweeps V once, and measures the
        # mapped eigenvalues against that sweep's hull.
        builds.clear()
        report = spectrum_check(a)
        assert len(builds) == 1
        sweep = nrange_boundary(build_v(a).v)
        ws = [bk_forward(lam) for lam in report.eigenvalues]
        margins = -cgeom._signed_distances(sweep.hull.vertices, ws)
        assert report.margins == tuple(margins.tolist())
        assert report.tol == max(1e-8, sweep.bound)
        assert report.contained == tuple((margins >= -report.tol).tolist())


def test_input_validation():
    with pytest.raises(InputError):
        nrange_boundary(np.array([[1.0, math.nan], [0.0, 1.0]]))
    with pytest.raises(InputError):
        nrange_boundary(np.zeros((2, 3)))
    with pytest.raises(InputError):
        nrange_contains(np.zeros((2, 3)), [0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1e-8])
def test_invalid_refine_tol_is_rejected(bad):
    # NaN used to skip refinement silently; 0 or less refined until the
    # guards (or the memory) ran out.
    with pytest.raises(InputError, match="refine_tol"):
        nrange_boundary(np.array([[0, 1], [0, 0]], dtype=complex), refine_tol=bad)


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and np.array_equal(x.view(np.int64), y.view(np.int64))


def _count_stacked_eigh(monkeypatch) -> list:
    """Patch np.linalg.eigh to record the batch length of each stacked call."""
    batches, eigh = [], np.linalg.eigh

    def counted(x, *args, **kwargs):
        if np.ndim(x) == 3:
            batches.append(len(x))
        return eigh(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return batches


@contextlib.contextmanager
def _blas_threads_at(count: int):
    """Set the BLAS thread count for the block and yield it as read back,
    or None where nrange finds no BLAS controls; restore it after."""
    controls = nrange._blas_thread_controls()
    if controls is None:
        yield None
        return
    get, set_ = controls
    saved = get()
    set_(count)
    try:
        yield get()
    finally:
        set_(saved)


def _blas_threads() -> int:
    return nrange._blas_thread_controls()[0]()


def test_chunked_rounds_match_one_batch_bit_for_bit(monkeypatch):
    # A budget of three matrices splits every round into many chunks,
    # which run on the shared pool where there is one.  eye(3) is
    # degenerate at every angle and diag(1, 1, 2j) on an arc, so flat
    # faces fall on both sides of chunk borders.
    rng = np.random.default_rng(49)
    for a in (np.eye(3, dtype=complex), np.diag([1.0, 1.0, 2j]), rand_complex(rng, 4)):
        n = a.shape[0]
        gap_tol = nrange.DEGENERACY_GAP * frob(a)
        thetas = np.concatenate([2.0 * math.pi * np.arange(64) / 64,
                                 rng.uniform(0.0, 2.0 * math.pi, 37)])
        want = nrange._faces_batch(a, thetas, gap_tol)
        monkeypatch.setattr(nrange, "_BATCH_BYTES", 3 * 16 * n * n)
        batches = _count_stacked_eigh(monkeypatch)
        got = nrange._faces(a, thetas, gap_tol)
        assert batches and max(batches) == 3 and sum(batches) == thetas.size
        for x, y in zip(got[:4], want[:4]):
            assert _same_bits(x, y)
        assert list(got[4]) == list(want[4])
        for k, pts in want[4].items():
            assert _same_bits(got[4][k], pts)
        # Whole sweeps from 64 angles, unrefined (at tolerance 1) and
        # refined, against the list bookkeeping, which solves each round
        # as one stack.
        monkeypatch.setattr(nrange, "_START_ANGLES", 64)
        for refine_tol in (1.0, 1e-6):
            sweep = nrange_boundary(a, refine_tol=refine_tol)
            ref = oracles.sweep_ref(
                a, 64, refine_tol, gap_tol, nrange._rotated_hermitian_parts,
                nrange._degenerate_face, nrange._apex_chord_bounds, nrange._curvatures,
                nrange._split_counts)
            for field, arr in zip(("angles", "support_points", "support_values"), ref):
                assert _same_bits(getattr(sweep, field), arr)
        monkeypatch.undo()


def test_eigensolver_inputs_stay_within_the_byte_budget(monkeypatch):
    nbytes, eigh = [], np.linalg.eigh

    def recorded(x, *args, **kwargs):
        nbytes.append(np.asarray(x).nbytes)
        return eigh(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    rng = np.random.default_rng(51)
    with _blas_threads_at(2) as before:
        sweep = nrange_boundary(rand_complex(rng, 24), refine_tol=1e-6)
        assert before is None or _blas_threads() == before
    assert sweep.angles.size > 720
    assert nbytes and max(nbytes) <= nrange._BATCH_BYTES


def test_concurrent_sweeps_agree_and_restore_blas_threads(monkeypatch):
    # More sweeping threads than cores, each round split into chunks on
    # the one shared pool; a lost restore of the BLAS thread count or a
    # mixed-up chunk order would show.
    rng = np.random.default_rng(52)
    a = rand_complex(rng, 6)
    monkeypatch.setattr(nrange, "_BATCH_BYTES", 5 * 16 * 36)
    monkeypatch.setattr(nrange, "_START_ANGLES", 64)
    want = nrange_boundary(a, refine_tol=1e-6)
    results, errors = [None] * 4, []

    def sweep(i):
        try:
            results[i] = nrange_boundary(a, refine_tol=1e-6)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with _blas_threads_at(2) as before:
            threads = [threading.Thread(target=sweep, args=(i,)) for i in range(len(results))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert before is None or _blas_threads() == before
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for got in results:
        assert _same_bits(got.support_points, want.support_points)


def _sweep_in_child(a, out):
    out.put(nrange_boundary(a, refine_tol=1e-6).hull.vertices)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="fork is unavailable")
def test_forked_child_sweeps_after_a_pooled_sweep(monkeypatch):
    rng = np.random.default_rng(53)
    a = rand_complex(rng, 5)
    monkeypatch.setattr(nrange, "_BATCH_BYTES", 7 * 16 * 25)
    monkeypatch.setattr(nrange, "_START_ANGLES", 128)
    batches = _count_stacked_eigh(monkeypatch)
    want = nrange_boundary(a, refine_tol=1e-6).hull.vertices
    assert len(batches) > 1
    ctx = multiprocessing.get_context("fork")
    out = ctx.Queue()
    with warnings.catch_warnings():
        # Newer Pythons warn on fork in a process with threads; the
        # child resets the pool, which is what this test checks.
        warnings.simplefilter("ignore", DeprecationWarning)
        child = ctx.Process(target=_sweep_in_child, args=(a, out))
        child.start()
    try:
        got = out.get(timeout=120)
        child.join(timeout=60)
    except queue.Empty:
        pytest.fail("the forked child did not finish its sweep")
    finally:
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
    assert got == want
    assert child.exitcode == 0


def test_sweep_arrays_match_list_bookkeeping(monkeypatch):
    # eye(3) is degenerate at every angle, diag(1, 1, 2j) on the arc of
    # angles whose support face is the doubled eigenvalue 1.  Sweeps
    # start from 64 angles, unrefined (at tolerance 1) and refined.
    monkeypatch.setattr(nrange, "_START_ANGLES", 64)
    rng = np.random.default_rng(50)
    for a in (np.eye(3, dtype=complex), np.diag([1.0, 1.0, 2j]), rand_complex(rng, 4),
              build_v(np.array([[0.0, 1.0], [0.0, 0.0]])).v):
        for refine_tol in (1.0, 1e-8):
            got = nrange_boundary(a, refine_tol=refine_tol)
            want = oracles.sweep_ref(
                a, 64, refine_tol, nrange.DEGENERACY_GAP * frob(a),
                nrange._rotated_hermitian_parts, nrange._degenerate_face,
                nrange._apex_chord_bounds, nrange._curvatures, nrange._split_counts)
            for field, ref in zip(("angles", "support_points", "support_values"), want):
                arr = getattr(got, field)
                assert arr.dtype == ref.dtype
                assert np.array_equal(arr.view(np.int64), ref.view(np.int64))


def _bisecting_sweep(a, refine_tol):
    return oracles.sweep_ref(
        a, 720, refine_tol, nrange.DEGENERACY_GAP * frob(a), nrange._rotated_hermitian_parts,
        nrange._degenerate_face, nrange._apex_chord_bounds, nrange._curvatures,
        oracles.bisect_counts)


def test_smooth_boundary_refines_in_two_rounds_with_fewer_angles(monkeypatch):
    # A random 6x6 and its graph compression V, the operator that
    # `srg matrix` sweeps: at most two rounds sized from the curvature,
    # and fewer angles than bisection, whose last round overshoots the
    # tolerance by up to 4x.
    calls, faces = [], nrange._faces

    def counted(*args):
        calls.append(1)
        return faces(*args)

    monkeypatch.setattr(nrange, "_faces", counted)
    a = rand_complex(np.random.default_rng(55), 6)
    for a in (a, build_v(a).v):
        calls.clear()
        sweep = nrange_boundary(a, refine_tol=1e-8)
        assert len(calls) <= 3
        assert sweep.angles.size <= 0.8 * _bisecting_sweep(a, 1e-8)[0].size


def test_polygons_and_segments_cost_no_more_than_bisection():
    # A normal matrix has curvature 0 away from its corners and a
    # Hermitian one is a segment; their wedges are bisected.
    rng = np.random.default_rng(56)
    diag = np.diag(rng.normal(size=8) + 1j * rng.normal(size=8))
    herm = rand_complex(rng, 5)
    herm = (herm + herm.conj().T) / 2
    for a in (diag, herm):
        sweep = nrange_boundary(a, refine_tol=1e-8)
        assert sweep.angles.size <= _bisecting_sweep(a, 1e-8)[0].size


def test_curvature_is_h_plus_second_derivative():
    rng = np.random.default_rng(57)
    a = rand_complex(rng, 4)
    thetas = np.linspace(0.0, 2 * math.pi, 16, endpoint=False) + 0.1
    rho = nrange._faces_batch(a, thetas, nrange.DEGENERACY_GAP * frob(a))[3]
    step = 1e-3
    h = [oracles.support_values_ref(a, thetas + d) for d in (-step, 0.0, step)]
    want = h[1] + (h[0] - 2.0 * h[1] + h[2]) / step**2
    assert np.all(np.isfinite(rho))
    assert np.max(np.abs(rho - want) / np.abs(want)) <= 1e-5


def test_apex_chord_bound_is_accurate_on_narrow_wedges():
    # A circle of radius R: the apex of a wedge of width w stands
    # R*sin(w/2)*tan(w/2) above its chord.  Intersecting the support
    # lines would lose eps*R/w, about 1e-9 at w = 1e-6.
    rng = np.random.default_rng(58)
    radius, centre = 2.0, 0.3 - 0.7j
    for width in (0.5, 1e-2, 1e-4, 1e-6, 1e-8):
        ta = rng.uniform(0.0, 2 * math.pi, 200)
        tb = ta + width
        ha, hb = (centre.real * np.cos(t) + centre.imag * np.sin(t) + radius for t in (ta, tb))
        pa, pb = (centre + radius * np.exp(1j * t) for t in (ta, tb))
        got = nrange._apex_chord_bounds(ta, ha, pa, tb, hb, pb)
        want = radius * math.sin(width / 2) * math.tan(width / 2)
        assert np.max(np.abs(got - want)) <= 1e-14


def test_polygon_refinement_ends_below_its_tolerance(monkeypatch):
    # A unitary's range is the polygon of its eigenvalues.  Its corner
    # wedges are bisected down to about 3e-8; the last bounds must come
    # under refine_tol there, not stop on REFINE_MIN_WEDGE above it.
    last = {}

    def recorded(*args):
        last["bounds"] = bounds(*args)
        last["widths"] = args[3] - args[0]
        return last["bounds"]

    bounds = nrange._apex_chord_bounds
    monkeypatch.setattr(nrange, "_apex_chord_bounds", recorded)
    nrange_boundary(rand_unitary(np.random.default_rng(59), 6), refine_tol=1e-8)
    assert np.max(last["bounds"]) <= 1e-8
    assert np.min(last["widths"]) > nrange.REFINE_MIN_WEDGE


def test_bound_certifies_the_hull_in_every_direction():
    # Johnson's outer bound: W(A) lies within bound of the hull, so the
    # true support function exceeds the hull's by at most bound in every
    # direction (4 ulps of slack for the eigensolvers).
    rng = np.random.default_rng(60)
    phis = 2 * math.pi * (np.arange(1 << 14) + 0.5 * (math.sqrt(5.0) - 1.0)) / (1 << 14)
    for n in (2, 5, 8):
        t = rand_complex(rng, n)
        for a in (t, build_v(t).v):
            sweep = nrange_boundary(a)
            h_true = oracles.support_values_ref(a, phis)
            h_hull = oracles.hull_support_many(list(sweep.hull.vertices), phis)
            w = float(np.max(h_true))
            assert 0.0 < sweep.bound <= 1e-8 * max(1.0, w)
            assert float(np.max(h_true - h_hull)) <= sweep.bound + 4 * np.finfo(float).eps * w


def test_depth_guard_leaves_a_reported_bound_and_widens_membership(monkeypatch):
    # A unitary's range is the polygon of its eigenvalues, whose corner
    # wedges need many bisections; one round leaves them above
    # refine_tol.  The sweep reports what is left, and membership counts
    # a point inside up to that bound: just outside a corner, by more
    # than refine_tol and less than the bound.
    u = rand_unitary(np.random.default_rng(61), 6)
    corner = complex(np.linalg.eigvals(u)[0])
    full = nrange_boundary(u)
    assert full.bound <= 1e-8
    monkeypatch.setattr(nrange, "REFINE_MAX_DEPTH", 1)
    cut = nrange_boundary(u)
    assert cut.bound > 1e-6
    z = corner * (1.0 + 1e-7)
    assert nrange_contains(u, [z]).tolist() == [True]
    monkeypatch.undo()
    assert nrange_contains(u, [z]).tolist() == [False]


def test_sweep_cost_and_hull_are_scale_equivariant():
    # The target scales with max(1, largest support value), so c*A costs
    # no more than twice the angles of A, and its hull is c*hull(A) up
    # to tol*max(1, c).  An absolute target grows the angle count with c,
    # about 30x at c = 1e3.
    a = rand_complex(np.random.default_rng(62), 4)
    base = nrange_boundary(a, refine_tol=1e-8)
    for c in (1e-9, 1.0, 1e6, 1e12):
        sweep = nrange_boundary(c * a, refine_tol=1e-8)
        assert sweep.angles.size <= 2 * base.angles.size
        scaled = [c * v for v in base.hull.vertices]
        d = oracles.hausdorff_support_exact(list(sweep.hull.vertices), scaled)
        assert d <= 1e-8 * max(1.0, c)
