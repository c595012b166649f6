from __future__ import annotations

import contextlib
import functools
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
    INFINITY,
    InputError,
    bk_forward,
    build_v,
    convex_hull_2d,
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


def test_boundary_fields_are_consistent(monkeypatch):
    def chain(pts, tol):
        raise AssertionError("a smooth sweep needs no monotone chain")

    monkeypatch.setattr(cgeom, "_half_chain", chain)
    rng = np.random.default_rng(40)
    a = rand_complex(rng, 4)
    b = nrange_boundary(a, refine_tol=1e-6)
    assert len(b.angles) == len(b.support_points) == len(b.support_values) > 720
    assert all(0.0 <= t < 2 * math.pi for t in b.angles)
    assert list(b.angles) == sorted(b.angles)
    # Support condition: each point attains its support value.
    tol = 1e-9 * max(1.0, oracles.frob(a))
    attained = b.support_points.real * np.cos(b.angles) + b.support_points.imag * np.sin(b.angles)
    assert np.max(np.abs(attained - b.support_values)) <= tol
    # The hull is exactly the hull of the support points: all of them,
    # in sweep order, from the smallest.
    assert b.hull.vertices == convex_hull_2d(b.support_points).vertices
    start = b.support_points.tolist().index(b.hull.vertices[0])
    assert b.hull.vertices == tuple(np.roll(b.support_points, -start).tolist())
    # Convexity: pruning never strands a support point outside the hull.
    outside = oracles.polygon_distance_many(
        list(b.hull.vertices), np.array(b.support_points, dtype=complex)
    )
    assert float(np.max(outside)) <= 1e-9


def test_sweep_above_1e154_matches_the_scaled_sweep():
    # Cross products of these support points overflow: the hull and the
    # distance kernel decide on coordinates scaled to unit size.
    a = np.array([[1e200, 1e200 + 3e199j], [0.0, 1.0]])
    scale = 2.0 ** 664
    big, unit = nrange_boundary(a), nrange_boundary(a / scale)
    assert len(big.hull.vertices) == len(unit.hull.vertices)
    gap = oracles.hausdorff_support_exact(np.array(big.hull.vertices) / scale,
                                          list(unit.hull.vertices))
    assert gap <= 1e-14 * np.max(np.abs(unit.hull.vertices))
    assert nrange_contains(a, np.mean(big.support_points))
    assert not nrange_contains(a, 3.0 * np.mean(big.support_points))


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


def test_flat_face_seen_only_from_the_bottom_emits_both_endpoints():
    # The edge 0 -> 1 of the triangle diag(0, 1, 0.5 + i) has its normal
    # at 3*pi/2, so only the bottom eigenpairs of H(pi/2) see it.  That
    # angle keeps one row, like every other, and the face's endpoints
    # come from the angles on either side of it.
    b = nrange_boundary(np.diag([0.0, 1.0, 0.5 + 1j]))
    assert np.all(np.diff(b.angles) > 0.0)
    assert np.all((b.angles >= 0.0) & (b.angles < 2 * math.pi))
    assert np.min(np.abs(b.angles - 1.5 * math.pi)) < 1e-12
    for end in (0.0, 1.0):
        assert np.min(np.abs(b.support_points - end)) < 1e-12
    assert b.hull.vertices == (0j, 1 + 0j, 0.5 + 1j)


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


def test_each_eigensolve_fills_two_angles(monkeypatch):
    # Every row is one angle, and one evaluation gives the angle theta
    # in [0, pi) and its opposite theta + pi: one eigendecomposition on
    # the start grid and for a row that falls back, and otherwise one
    # shifted solve per side.  Also where the extreme eigenvalue is
    # repeated: at every angle for eye(3), on an arc for diag(1, 1, 2j),
    # and at every angle for the direct sums I (x) B and V of I (x) T.
    problems = _count_stacked(monkeypatch, "eigh")
    solved = _count_solved(monkeypatch, "solve")
    evaluated, batch = [], nrange._supports_batch

    def counted(m, a, b, thetas, sigma=None):
        evaluated.append((len(thetas), sigma is None))
        return batch(m, a, b, thetas, sigma)

    monkeypatch.setattr(nrange, "_supports_batch", counted)
    rng = np.random.default_rng(63)
    blocks = (np.eye(3, dtype=complex), np.diag([1.0, 1.0, 2j]),
              np.kron(np.eye(2), rand_complex(rng, 3)),
              build_v(np.kron(np.eye(2), rng.normal(size=(2, 2)))).v)
    for a in (rand_complex(rng, 5), build_v(rng.normal(size=(4, 4))).v, *blocks):
        for record in (problems, solved, evaluated):
            record.clear()
        b = nrange_boundary(a)
        assert np.all(np.diff(b.angles) > 0.0)
        assert 2 * sum(k for k, _ in evaluated) == b.angles.size
        assert sum(k for k, start in evaluated if start) == nrange._START_ANGLES // 2
        refined = sum(k for k, start in evaluated if not start)
        fallback = sum(problems) - nrange._START_ANGLES // 2
        assert 0 <= fallback <= refined
        # A side whose solve fails is among the fallback rows.
        assert 2 * (refined - fallback) <= sum(solved) <= 2 * refined
        assert np.max(b.angles[:b.angles.size // 2]) < math.pi


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


@pytest.mark.parametrize("z", [INFINITY, math.nan, math.inf, -math.inf, complex(0.0, math.inf),
                               complex(math.nan, 0.0)])
def test_membership_rejects_points_that_are_not_finite(z):
    # INFINITY used to raise a raw TypeError, and NaN or a float
    # infinity to answer False.
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    for zs in ([0.1, z], z, np.array([0.1, z], dtype=object)):
        with pytest.raises(InputError, match="finite"):
            nrange_contains(a, zs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1e-8])
def test_invalid_refine_tol_is_rejected(bad):
    # NaN used to skip refinement silently; 0 or less refined until the
    # guards (or the memory) ran out.
    with pytest.raises(InputError, match="refine_tol"):
        nrange_boundary(np.array([[0, 1], [0, 0]], dtype=complex), refine_tol=bad)


def _reference_sweep(a, num_angles, refine_tol, split_counts=nrange._split_counts,
                     eigh_only=False):
    """oracles.sweep_ref around the library's per-angle helpers, or with
    eigh_only around oracles.eigh_supports_ref, which takes every (h, p)
    from the full eigendecomposition."""
    m = nrange.as_matrix(a, square=True)
    part_a, part_b = nrange._hermitian_parts(m)
    if eigh_only:
        supports = oracles.eigh_supports_ref(m, part_a, part_b, nrange._rotated_hermitian_parts)
    else:
        supports = functools.partial(nrange._supports_batch, m, part_a, part_b)
    return oracles.sweep_ref(num_angles, refine_tol, supports, nrange._apex_chord_bounds,
                             split_counts, nrange._predicted_supports)


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and np.array_equal(x.view(np.int64), y.view(np.int64))


def _count_stacked(monkeypatch, name: str) -> list:
    """Patch np.linalg.<name> to record the batch length of each stacked call."""
    batches, solver = [], getattr(np.linalg, name)

    def counted(x, *args, **kwargs):
        if np.ndim(x) == 3:
            batches.append(len(x))
        return solver(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return batches


def _count_solved(monkeypatch, name: str) -> list:
    """Patch np.linalg.<name> to record the batch length of each stacked
    call that returns; a stack holding a failing matrix raises."""
    batches, solver = [], getattr(np.linalg, name)

    def counted(x, *args, **kwargs):
        out = solver(x, *args, **kwargs)
        if np.ndim(x) == 3:
            batches.append(len(x))
        return out

    monkeypatch.setattr(np.linalg, name, counted)
    return batches


def _predictions(a, thetas, rng):
    """Predicted support values at thetas, as (sigma, top, second): the
    top eigenvalue of sH(theta) for s = +1, -1 off by up to 1e-9
    relative, except on every fifth angle of each side, where sigma is
    the second eigenvalue; and the top and second eigenvalues."""
    part_a, part_b = nrange._hermitian_parts(nrange.as_matrix(a, square=True))
    w = np.linalg.eigvalsh(nrange._rotated_hermitian_parts(part_a, part_b, thetas))
    top, second = np.stack([w[:, -1], -w[:, 0]]), np.stack([w[:, -2], -w[:, 1]])
    sigma = top * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, top.shape))
    sigma[0, ::5], sigma[1, 2::5] = second[0, ::5], second[1, 2::5]
    return sigma, top, second


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
    # A budget of three matrices, with no floor on the chunk length,
    # splits every round into many chunks, which run on the shared pool
    # where there is one.
    # eye(3) has a repeated top eigenvalue at every angle and diag(1, 1,
    # 2j) on an arc at the top and on the opposite arc at the bottom, so
    # such angles fall on both sides of chunk borders; both are real
    # symmetric stacks, and the random matrix a complex one.  70 angles
    # leave a last chunk of one angle.  Without predictions every row
    # takes the full eigendecomposition; with them, every fifth side's
    # prediction is the second eigenvalue, and eye(3)'s are exact, so
    # solves and factorizations fail on rows scattered over the chunks.
    rng = np.random.default_rng(49)
    for a in (np.eye(3, dtype=complex), np.diag([1.0, 1.0, 2j]), rand_complex(rng, 4)):
        part_a, part_b = nrange._hermitian_parts(a)
        thetas = np.concatenate([math.pi * np.arange(32) / 32, rng.uniform(0.0, math.pi, 38)])
        sigma = _predictions(a, thetas, rng)[0]
        wants = [nrange._supports_batch(a, part_a, part_b, thetas, s) for s in (None, sigma)]
        monkeypatch.setattr(nrange, "_BATCH_BYTES", 3 * part_a.nbytes)
        monkeypatch.setattr(nrange, "_GIL_FREE_VALUES", 1)
        stacks = {name: _count_stacked(monkeypatch, name) for name in ("eigh", "solve", "cholesky")}
        for s, want in zip((None, sigma), wants):
            for batches in stacks.values():
                batches.clear()
            got = nrange._supports(a, part_a, part_b, thetas, s)
            eigh = stacks["eigh"]
            assert eigh and max(eigh) <= 3
            if s is None:
                assert max(eigh) == 3 and sum(eigh) == thetas.size
                assert stacks["solve"] == stacks["cholesky"] == []
            else:
                assert max(stacks["solve"]) == max(stacks["cholesky"]) == 3
            assert len(got) == len(want) == 2
            for x, y in zip(got, want):
                assert x.shape == (2, thetas.size)
                assert _same_bits(x, y)
        # Whole sweeps from 64 angles, unrefined (at tolerance 1) and
        # refined, against the list bookkeeping, which solves each round
        # as one stack.
        monkeypatch.setattr(nrange, "_START_ANGLES", 64)
        for refine_tol in (1.0, 1e-6):
            sweep = nrange_boundary(a, refine_tol=refine_tol)
            ref = _reference_sweep(a, 64, refine_tol)
            for field, arr in zip(("angles", "support_points", "support_values"), ref):
                assert _same_bits(getattr(sweep, field), arr)
        monkeypatch.undo()


def test_eigensolver_inputs_stay_within_the_byte_budget(monkeypatch):
    # A complex 24x24 matrix, and V of a real one, whose stacks are
    # real: chunks are sized by the stack's itemsize, so a real chunk
    # holds twice the matrices of a complex one in the same bytes.  The
    # eigendecompositions of the start grid and of fallback rows, and
    # the shifted stacks of the solves and factorizations, one per side,
    # each keep to the budget.
    stacks = {}

    def record(name):
        solver = getattr(np.linalg, name)

        def recorded(x, *args, **kwargs):
            x = np.asarray(x)
            if x.ndim == 3:
                stacks[name].append((x.dtype, len(x), x.nbytes))
            return solver(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)

    names = ("eigh", "solve", "cholesky")
    for name in names:
        record(name)
    rng = np.random.default_rng(51)
    n = 24
    for a, dtype in ((rand_complex(rng, n), np.complex128),
                     (build_v(rng.normal(size=(n, n))).v, np.float64)):
        stacks.update((name, []) for name in names)
        with _blas_threads_at(2) as before:
            sweep = nrange_boundary(a, refine_tol=1e-6)
            assert before is None or _blas_threads() == before
        assert sweep.angles.size > 720
        per_chunk = nrange._BATCH_BYTES // (np.dtype(dtype).itemsize * n * n)
        for name in names:
            assert stacks[name] and {d for d, _, _ in stacks[name]} == {np.dtype(dtype)}
            assert max(b for _, _, b in stacks[name]) <= nrange._BATCH_BYTES
            assert max(k for _, k, _ in stacks[name]) == per_chunk


def test_chunks_of_large_matrices_keep_enough_for_the_pool(monkeypatch):
    # At n = 40 the budget holds 10 complex matrices, whose solves with
    # one right-hand side give 400 values, too few for numpy to release
    # the GIL; a chunk holds 13 instead, 520 values.
    batches = _count_stacked(monkeypatch, "solve")
    rng = np.random.default_rng(67)
    a = rand_complex(rng, 40)
    part_a, part_b = nrange._hermitian_parts(a)
    assert nrange._BATCH_BYTES // part_a.nbytes == 10
    thetas = np.linspace(0.0, math.pi, 30, endpoint=False)
    nrange._supports(a, part_a, part_b, thetas, _predictions(a, thetas, rng)[0])
    assert sorted(batches) == [4, 4, 13, 13, 13, 13]


def test_concurrent_sweeps_agree_and_restore_blas_threads(monkeypatch):
    # More sweeping threads than cores, each round split into chunks on
    # the one shared pool; a lost restore of the BLAS thread count or a
    # mixed-up chunk order would show.
    rng = np.random.default_rng(52)
    a = rand_complex(rng, 6)
    monkeypatch.setattr(nrange, "_BATCH_BYTES", 5 * 16 * 36)
    monkeypatch.setattr(nrange, "_GIL_FREE_VALUES", 1)
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
    monkeypatch.setattr(nrange, "_GIL_FREE_VALUES", 1)
    monkeypatch.setattr(nrange, "_START_ANGLES", 128)
    batches = _count_stacked(monkeypatch, "solve")
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
    # eye(3) has a repeated top eigenvalue at every angle, diag(1, 1, 2j)
    # on the arc of angles whose support point is the doubled eigenvalue
    # 1.  Sweeps start from 64 angles, unrefined (at tolerance 1) and
    # refined.
    monkeypatch.setattr(nrange, "_START_ANGLES", 64)
    rng = np.random.default_rng(50)
    for a in (np.eye(3, dtype=complex), np.diag([1.0, 1.0, 2j]), rand_complex(rng, 4),
              build_v(np.array([[0.0, 1.0], [0.0, 0.0]])).v):
        for refine_tol in (1.0, 1e-8):
            got = nrange_boundary(a, refine_tol=refine_tol)
            want = _reference_sweep(a, 64, refine_tol)
            for field, ref in zip(("angles", "support_points", "support_values"), want):
                arr = getattr(got, field)
                assert arr.dtype == ref.dtype
                assert np.array_equal(arr.view(np.int64), ref.view(np.int64))


def _bisecting_sweep(a, refine_tol):
    return _reference_sweep(a, 720, refine_tol, oracles.bisect_counts)


def test_smooth_boundary_refines_in_two_rounds_with_fewer_angles(monkeypatch):
    # A random 6x6 and its graph compression V, the operator that
    # `srg matrix` sweeps: at most two rounds sized from the curvature
    # that neighbouring bounds measure, and fewer angles than bisection,
    # whose last round overshoots the tolerance by up to 4x.
    calls, supports = [], nrange._supports

    def counted(*args):
        calls.append(1)
        return supports(*args)

    monkeypatch.setattr(nrange, "_supports", counted)
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


def test_certificate_holds_where_the_extreme_eigenvalue_repeats():
    # A flat face, an arc of repeated top eigenvalues, and a direct sum
    # repeated at every angle: each angle's one support point lies on its
    # support line, so the hull still meets the target in every
    # direction.  W(I (x) B) = W(B), so the two hulls agree within the
    # inner gap of each.
    rng = np.random.default_rng(64)
    block = rand_complex(rng, 3)
    phis = 2 * math.pi * (np.arange(4096) + 0.5 * (math.sqrt(5.0) - 1.0)) / 4096
    for a in (np.diag([0.0, 1.0, 0.5 + 1j]), np.diag([1.0, 1.0, 2j]),
              np.kron(np.eye(2), block)):
        sweep, target = nrange._sweep(nrange.as_matrix(a, square=True), 1e-8)
        h_true = oracles.support_values_ref(a, phis)
        h_hull = oracles.hull_support_many(list(sweep.hull.vertices), phis)
        assert float(np.max(h_true - h_hull)) <= target
    base, base_target = nrange._sweep(nrange.as_matrix(block, square=True), 1e-8)
    d = oracles.hausdorff_support_exact(list(sweep.hull.vertices), list(base.hull.vertices))
    assert d <= 2 * max(target, base_target)


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


def _kernel_cases():
    """Seeded real and complex matrices of every size 1 to 24, and inputs
    whose extreme eigenvalue repeats: everywhere for eye(3) and I (x) B,
    on an arc for diag(1, 1, 2j), and V of a real T, whose stacks are
    real."""
    rng = np.random.default_rng(65)
    for n in range(1, 25):
        yield rng.normal(size=(n, n))
        yield rand_complex(rng, n)
    yield np.eye(3)
    yield np.diag([1.0, 1.0, 2j])
    yield np.kron(np.eye(2), rand_complex(rng, 3))
    yield build_v(rng.normal(size=(5, 5))).v


def test_shifted_solve_rows_match_the_eigh_sweep(monkeypatch):
    # Each row's support point lies on its support line up to rounding:
    # a certified row's h is 2^-46 times the larger |h| of its angle's
    # two rows above x*Hx.  The sweep takes the angles of one that gets
    # every (h, p) from the full eigendecomposition.  A certified x
    # differs from the top eigenvector by up to sqrt(depth/eigengap), so
    # its p may slide along the support line, but both hulls lie in W
    # and W within each sweep's bound of its hull, so the hulls agree
    # within the larger bound.
    monkeypatch.setattr(nrange, "_START_ANGLES", 64)
    for a in _kernel_cases():
        sweep = nrange_boundary(a, refine_tol=1e-5)
        h = sweep.support_values
        scale = np.maximum(1.0, np.maximum(np.abs(h), np.abs(np.roll(h, h.size // 2))))
        attained = (sweep.support_points * np.exp(-1j * sweep.angles)).real
        assert np.all(h - attained <= 2.0**-45 * scale)
        angles, points, values = _reference_sweep(a, 64, 1e-5, eigh_only=True)
        assert _same_bits(sweep.angles, angles)
        ends = [np.roll(col, -1) for col in (angles, values, points)]
        ends[0][-1] += 2.0 * math.pi
        bound = np.max(nrange._apex_chord_bounds(angles, values, points, *ends))
        gap = oracles.hausdorff_support_exact(list(sweep.hull.vertices),
                                              list(convex_hull_2d(points).vertices))
        assert gap <= max(sweep.bound, bound)


def test_rows_off_their_support_line_take_the_eigh_vector(monkeypatch):
    # The diagonal of this Hermitian direct sum is 0, so the shifted
    # solve starts from a vector in the kernel of H(theta), which it
    # never leaves, even with the top eigenvalue as its prediction:
    # rho = 0 is |cos(theta)| below it at every angle, and no Cholesky
    # factor certifies it.  Those rows take (h, p) from the full
    # eigendecomposition, and W is the segment [-1, 1], up to the
    # rounding of its eigenvectors' entries.
    a = np.kron(np.eye(2), [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    m = nrange.as_matrix(a, square=True)
    part_a, part_b = nrange._hermitian_parts(m)
    calls, eigh_supports = [], nrange._eigh_supports

    def counted(*args):
        calls.append(args[-1].size)
        return eigh_supports(*args)

    monkeypatch.setattr(nrange, "_eigh_supports", counted)
    thetas = math.pi * np.arange(8) / 8 + 0.1
    sigma = np.abs(np.cos(thetas)) * np.ones((2, 1))
    h, p = nrange._supports_batch(m, part_a, part_b, thetas, sigma)
    assert calls == [thetas.size]
    assert _same_bits(h, nrange._eigh_supports(m, part_a, part_b, thetas)[0])
    assert np.all(np.abs((p * np.exp(-1j * np.stack([thetas, thetas + math.pi]))).real - h)
                  <= 4 * np.finfo(float).eps)
    sweep = nrange_boundary(a)
    assert len(sweep.hull.vertices) == 2
    assert np.all(sweep.support_points.imag == 0.0)
    assert np.max(np.abs(np.abs(sweep.hull.vertices) - 1.0)) <= 2 * np.finfo(float).eps


def test_refined_sweeps_run_eigh_only_on_fallback_rows(monkeypatch):
    # Refinement rows take no eigenvalues: the full eigendecomposition
    # runs on the start grid and on the rows whose certificate fails,
    # and eigvalsh never runs.  A random 6x6 and its V, whose boundary
    # bends sharply near angle 0; 2.0% and 6.6% of their refinement rows
    # fall back.
    problems = _count_stacked(monkeypatch, "eigh")
    values = _count_stacked(monkeypatch, "eigvalsh")
    fallback, eigh_supports = [], nrange._eigh_supports

    def counted(m, a, b, thetas):
        fallback.append(thetas.size)
        return eigh_supports(m, a, b, thetas)

    monkeypatch.setattr(nrange, "_eigh_supports", counted)
    a = rand_complex(np.random.default_rng(66), 6)
    for a in (a, build_v(a).v):
        problems.clear()
        fallback.clear()
        sweep = nrange_boundary(a)
        start = nrange._START_ANGLES // 2
        refined = sweep.angles.size // 2 - start
        assert refined > 0
        assert sum(problems) == sum(fallback) <= start + 0.1 * refined
    assert values == []


def test_wrong_prediction_falls_back_to_the_eigh_row():
    # A prediction at the second eigenvalue leads the solve to the second
    # eigenvector, whose rho no Cholesky factor certifies: that side takes
    # the full eigendecomposition's row bit for bit, and the other sides,
    # predicted to 1e-9, keep their certified rows.
    rng = np.random.default_rng(68)
    for a in (rand_complex(rng, 6), build_v(rng.normal(size=(5, 5))).v):
        m = nrange.as_matrix(a, square=True)
        part_a, part_b = nrange._hermitian_parts(m)
        thetas = rng.uniform(0.0, math.pi, 40)
        sigma, top, _ = _predictions(a, thetas, rng)
        h, p = nrange._supports_batch(m, part_a, part_b, thetas, sigma)
        exact_h, exact_p = nrange._eigh_supports(m, part_a, part_b, thetas)
        wrong = np.zeros(sigma.shape, dtype=bool)
        wrong[0, ::5] = wrong[1, 2::5] = True
        assert _same_bits(h[wrong], exact_h[wrong]) and _same_bits(p[wrong], exact_p[wrong])
        assert np.all(h[~wrong] > top[~wrong])


def test_positive_definite_rows_match_their_eigenvalues():
    # One Cholesky stack answers row by row, whatever the other rows
    # are: mixed stacks, single rows and stacks where every row fails.
    rng = np.random.default_rng(69)
    for n, dtype in ((1, np.float64), (3, np.complex128), (6, np.float64), (6, np.complex128)):
        x = rng.normal(size=(40, n, n)).astype(dtype)
        if dtype == np.complex128:
            x = x + 1j * rng.normal(size=(40, n, n))
        h = (x + np.conj(np.swapaxes(x, 1, 2))) / 2
        w = np.linalg.eigvalsh(h)
        shift = -w[:, 0] + rng.choice([-1.0, 1.0], 40) * rng.uniform(0.1, 1.0, 40)
        stack = h + shift[:, None, None] * np.eye(n)
        want = np.linalg.eigvalsh(stack).min(axis=1) > 0.0
        assert 0 < want.sum() < want.size
        for rows in (stack, stack[:1], stack[~want], stack[want]):
            got = nrange._positive_definite(rows)
            assert got.tolist() == (np.linalg.eigvalsh(rows).min(axis=1) > 0.0).tolist()


def test_certified_rows_bound_the_top_eigenvalue_from_above():
    # With the top eigenvalues predicted to 1e-10, most rows certify, and
    # a certified h is above the top eigenvalue lambda of sH by at most
    # 2^-45 max(1, |h|), |h| the larger of the angle's two rows: tau is
    # 2^-46 times that, and rounding adds little.  Below lambda it is
    # only by rounding, which eigvalsh's own lambda shares.
    rng = np.random.default_rng(70)
    thetas = np.linspace(0.0, math.pi, 50, endpoint=False) + 0.01
    certified = total = 0
    for a in _kernel_cases():
        m = nrange.as_matrix(a, square=True)
        part_a, part_b = nrange._hermitian_parts(m)
        w = np.linalg.eigvalsh(nrange._rotated_hermitian_parts(part_a, part_b, thetas))
        top = np.stack([w[:, -1], -w[:, 0]])
        sigma = top + 1e-10 * rng.uniform(-1.0, 1.0, top.shape) * np.max(np.abs(top), axis=0)
        h, _ = nrange._supports_batch(m, part_a, part_b, thetas, sigma)
        scale = np.maximum(1.0, np.max(np.abs(h), axis=0))
        cert = h != nrange._eigh_supports(m, part_a, part_b, thetas)[0]
        assert np.all(h <= top + 2.0**-45 * scale)
        assert np.all(h[cert] >= (top - 2.0**-48 * scale)[cert])
        certified += cert.sum()
        total += cert.size
    assert certified >= 0.9 * total
