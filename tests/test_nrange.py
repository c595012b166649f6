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
    SrgOptions,
    bk_forward,
    build_v,
    convex_hull_2d,
    frob,
    nrange_boundary,
    nrange_contains,
    polygon_hausdorff,
    spectrum_check,
    support_values,
)
from srgraph import nrange
from srgraph.nrange import support_margins


def test_scalar_matrix_gives_point_hull():
    b = nrange_boundary(np.array([[2 + 1j]]), num_angles=32)
    assert all(abs(p - (2 + 1j)) < 1e-14 for p in b.support_points)
    assert b.hull.vertices == (2 + 1j,)


def test_diag01_gives_unit_segment():
    b = nrange_boundary(np.diag([0.0, 1.0]).astype(complex), num_angles=360)
    assert all(abs(p.imag) < 1e-12 for p in b.support_points)
    assert min(p.real for p in b.support_points) == pytest.approx(0.0, abs=1e-12)
    assert max(p.real for p in b.support_points) == pytest.approx(1.0, abs=1e-12)
    assert len(b.hull.vertices) == 2


def test_nilpotent_boundary_is_half_disk_radius():
    b = nrange_boundary(np.array([[0, 1], [0, 0]], dtype=complex), num_angles=720)
    radii = np.abs(np.array(b.support_points, dtype=complex))
    assert np.max(np.abs(radii - 0.5)) <= 1e-9


def test_boundary_fields_are_consistent():
    rng = np.random.default_rng(40)
    a = rand_complex(rng, 4)
    b = nrange_boundary(a, num_angles=240)
    assert len(b.angles) == len(b.support_points) == len(b.support_values) == 240
    assert all(0.0 <= t < 2 * math.pi for t in b.angles)
    assert list(b.angles) == sorted(b.angles)
    # Support condition: each point attains its support value.
    tol = 1e-9 * max(1.0, frob(a))
    for theta, p, h in zip(b.angles, b.support_points, b.support_values):
        attained = p.real * math.cos(theta) + p.imag * math.sin(theta)
        assert abs(attained - h) <= tol
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
    b = nrange_boundary(a, num_angles=120)
    phis = np.linspace(0.0, 2 * math.pi, 480, endpoint=False)
    hs = support_values(a, phis)
    pts = np.array(b.support_points, dtype=complex)
    for phi, h in zip(phis, hs):
        proj = pts.real * math.cos(phi) + pts.imag * math.sin(phi)
        assert np.max(proj) <= h + 1e-8


def test_rayleigh_samples_stay_inside_hull():
    rng = np.random.default_rng(42)
    a = rand_complex(rng, 4)
    b = nrange_boundary(a, num_angles=720, refine_tol=1e-7)
    samples = oracles.rayleigh_points(a, rng, 4000)
    dists = oracles.polygon_distance_many(list(b.hull.vertices), samples)
    # Samples sit inside the hull up to the refinement defect.
    assert float(np.max(dists)) <= 1e-6


def test_refined_sweep_resolves_boundary_to_tolerance():
    rng = np.random.default_rng(43)
    a = rand_complex(rng, 3)
    tol = 1e-8
    b = nrange_boundary(a, num_angles=90, refine_tol=tol)
    phis = np.linspace(0.0, 2 * math.pi, 5000, endpoint=False)
    hs = support_values(a, phis)
    # The refinement guarantee: the support-point set reaches within tol
    # of the true support value in every direction.
    pts = np.array(b.support_points, dtype=complex)
    proj = np.empty(len(phis))
    for lo in range(0, len(phis), 64):
        block = phis[lo:lo + 64]
        m = np.outer(np.cos(block), pts.real) + np.outer(np.sin(block), pts.imag)
        proj[lo:lo + 64] = m.max(axis=1)
    assert float(np.max(hs - proj)) <= tol + 1e-10
    # The assembled hull adds only the distance-form collinear pruning
    # slack, which is negligible next to the refinement tolerance.
    hull_h = oracles.hull_support_many(list(b.hull.vertices), phis)
    assert float(np.max(hs - hull_h)) <= tol + 1e-9


def test_hermitian_matrix_has_real_range():
    rng = np.random.default_rng(44)
    a = rand_complex(rng, 5)
    h = (a + a.conj().T) / 2
    b = nrange_boundary(h, num_angles=180)
    assert all(abs(p.imag) <= 1e-10 for p in b.support_points)


def test_degenerate_flat_faces_emit_segment_endpoints():
    # diag(i, -i) has a fully degenerate Hermitian part at angle 0; the
    # face is the whole segment [-i, i] and both endpoints must appear.
    a = np.diag([1j, -1j])
    b = nrange_boundary(a, num_angles=8)
    pts = np.array(b.support_points, dtype=complex)
    assert np.min(np.abs(pts - 1j)) < 1e-12
    assert np.min(np.abs(pts - (-1j))) < 1e-12
    assert len(b.hull.vertices) == 2


def test_normal_matrix_range_is_spectral_hull():
    rng = np.random.default_rng(45)
    from conftest import rand_normal_matrix

    a, eigs = rand_normal_matrix(rng, 6)
    b = nrange_boundary(a, num_angles=720, refine_tol=1e-8)
    want = convex_hull_2d([complex(e) for e in eigs])
    assert polygon_hausdorff(b.hull, want) <= 1e-8


def test_equivariance_under_affine_maps():
    rng = np.random.default_rng(46)
    a = rand_complex(rng, 4)
    alpha = np.exp(1j * rng.uniform(0, 2 * math.pi))
    beta = complex(rng.normal(), rng.normal())
    b1 = nrange_boundary(a, num_angles=720, refine_tol=1e-9)
    b2 = nrange_boundary(alpha * a + beta * np.eye(4), num_angles=720,
                         refine_tol=1e-9)
    mapped = convex_hull_2d([alpha * complex(v) + beta for v in b1.hull.vertices])
    d = oracles.hausdorff_support_exact(list(b2.hull.vertices), list(mapped.vertices))
    assert d <= 1e-8


def test_unitary_similarity_invariance():
    rng = np.random.default_rng(47)
    a = rand_complex(rng, 5)
    u = rand_unitary(rng, 5)
    b1 = nrange_boundary(a, num_angles=720, refine_tol=1e-9)
    b2 = nrange_boundary(u.conj().T @ a @ u, num_angles=720, refine_tol=1e-9)
    d = oracles.hausdorff_support_exact(list(b1.hull.vertices), list(b2.hull.vertices))
    assert d <= 1e-8


def test_membership_queries():
    seg = np.diag([0.0, 1.0]).astype(complex)
    assert nrange_contains(seg, 0.5, 1e-9, 360)
    assert not nrange_contains(seg, 0.5 + 0.1j, 1e-9, 360)
    nil = np.array([[0, 1], [0, 0]], dtype=complex)
    assert nrange_contains(nil, 0.49j, 1e-9, 720)
    assert not nrange_contains(nil, 0.51j, 1e-9, 720)


def test_membership_of_eigenvalues():
    rng = np.random.default_rng(48)
    from srgraph import general_eig

    for _ in range(10):
        a = rand_complex(rng, 4)
        for lam in general_eig(a):
            assert nrange_contains(a, complex(lam), 1e-7, 360)
        # spectrum_check measures the mapped eigenvalues against W(V).
        report = spectrum_check(a, SrgOptions(num_angles=360))
        ws = [bk_forward(lam) for lam in report.eigenvalues]
        assert report.margins == tuple(support_margins(build_v(a).v, ws, 360))


def test_input_validation():
    with pytest.raises(InputError):
        nrange_boundary(np.eye(2, dtype=complex), num_angles=4)
    with pytest.raises(InputError):
        nrange_boundary(np.zeros((2, 3)), num_angles=64)


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
        for x, y in zip(got[:3], want[:3]):
            assert _same_bits(x, y)
        assert list(got[3]) == list(want[3])
        for k, pts in want[3].items():
            assert _same_bits(got[3][k], pts)
        # Whole sweeps, refinement rounds included, against the list
        # bookkeeping, which solves each round as one stack.
        for refine_tol in (None, 1e-6):
            sweep = nrange_boundary(a, num_angles=64, refine_tol=refine_tol)
            ref = oracles.sweep_ref(
                a, 64, refine_tol, gap_tol, nrange._rotated_hermitian_parts,
                nrange._degenerate_face, nrange._apex_chord_bounds)
            for field, arr in zip(("angles", "support_points", "support_values"), ref):
                assert _same_bits(getattr(sweep, field), arr)
        monkeypatch.undo()


def test_eigensolver_inputs_stay_within_the_byte_budget(monkeypatch):
    nbytes = []
    for name in ("eigh", "eigvalsh"):
        def recorded(x, *args, _solver=getattr(np.linalg, name), **kwargs):
            nbytes.append(np.asarray(x).nbytes)
            return _solver(x, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)
    rng = np.random.default_rng(51)
    with _blas_threads_at(2) as before:
        sweep = nrange_boundary(rand_complex(rng, 24), num_angles=720, refine_tol=1e-6)
        assert before is None or _blas_threads() == before
        h = support_values(rand_complex(rng, 64), np.linspace(0.0, 2 * math.pi, 720))
        assert before is None or _blas_threads() == before
    assert sweep.angles.size > 720
    assert h.shape == (720,)
    assert nbytes and max(nbytes) <= nrange._BATCH_BYTES


def test_concurrent_sweeps_agree_and_restore_blas_threads(monkeypatch):
    # More sweeping threads than cores, each round split into chunks on
    # the one shared pool; a lost restore of the BLAS thread count or a
    # mixed-up chunk order would show.
    rng = np.random.default_rng(52)
    a = rand_complex(rng, 6)
    monkeypatch.setattr(nrange, "_BATCH_BYTES", 5 * 16 * 36)
    want = nrange_boundary(a, num_angles=64, refine_tol=1e-6)
    results, errors = [None] * 4, []

    def sweep(i):
        try:
            results[i] = nrange_boundary(a, num_angles=64, refine_tol=1e-6)
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
    out.put(nrange_boundary(a, num_angles=128, refine_tol=1e-6).hull.vertices)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="fork is unavailable")
def test_forked_child_sweeps_after_a_pooled_sweep(monkeypatch):
    rng = np.random.default_rng(53)
    a = rand_complex(rng, 5)
    monkeypatch.setattr(nrange, "_BATCH_BYTES", 7 * 16 * 25)
    batches = _count_stacked_eigh(monkeypatch)
    want = nrange_boundary(a, num_angles=128, refine_tol=1e-6).hull.vertices
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


def test_sweep_arrays_match_list_bookkeeping():
    # eye(3) is degenerate at every angle, diag(1, 1, 2j) on the arc of
    # angles whose support face is the doubled eigenvalue 1.
    rng = np.random.default_rng(50)
    for a in (np.eye(3, dtype=complex), np.diag([1.0, 1.0, 2j]), rand_complex(rng, 4),
              build_v(np.array([[0.0, 1.0], [0.0, 0.0]])).v):
        for refine_tol in (None, 1e-8):
            got = nrange_boundary(a, num_angles=64, refine_tol=refine_tol)
            want = oracles.sweep_ref(
                a, 64, refine_tol, nrange.DEGENERACY_GAP * frob(a),
                nrange._rotated_hermitian_parts, nrange._degenerate_face,
                nrange._apex_chord_bounds)
            for field, ref in zip(("angles", "support_points", "support_values"), want):
                arr = getattr(got, field)
                assert arr.dtype == ref.dtype
                assert np.array_equal(arr.view(np.int64), ref.view(np.int64))
