"""Tests for the matrix SRG: graph compression, regions, scalings."""

import inspect
import math

import numpy as np
import pytest

import oracles
from conftest import rand_complex, rand_normal_matrix, rand_unitary
from srgraph.cgeom import EDGE_SPACING
from srgraph import (
    IllConditionedError,
    InputError,
    bk_forward,
    build_v,
    convex_hull_2d,
    gamma_scaling_demo,
    general_eig,
    hull_bk,
    hull_bk_spectrum,
    nrange_boundary,
    polygon_area,
    polygon_distance,
    polygon_hausdorff,
    similarity_scaled_srg,
    spectrum_check,
    srg_complex,
    srg_real,
)


# ---------------------------------------------------------------------------
# The refine_tol keyword, the only sweep option


def test_options_validation():
    # Every matrix SRG function takes refine_tol, default 1e-8, and no
    # angle count or separate containment tolerance.
    for fn in (srg_complex, srg_real, similarity_scaled_srg, gamma_scaling_demo,
               spectrum_check):
        params = inspect.signature(fn).parameters
        assert params["refine_tol"].default == 1e-8
        assert not {"opts", "num_angles", "tol"} & set(params)
    with pytest.raises(TypeError, match="num_angles"):
        srg_complex(np.eye(2), num_angles=720)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1e-8])
def test_options_reject_invalid_refine_tol_and_spacing(bad):
    # A NaN tolerance used to skip refinement silently.  The branch-point
    # spacing is the constant EDGE_SPACING, not an option.
    t = np.array([[0.0, 1.0], [0.0, 0.0]])
    for fn in (srg_complex, srg_real, spectrum_check):
        with pytest.raises(InputError, match="refine_tol"):
            fn(t, refine_tol=bad)
    with pytest.raises(TypeError, match="spacing"):
        srg_complex(t, spacing=bad)


# ---------------------------------------------------------------------------
# build_v


def test_build_v_normalizer_identity():
    # S*S(I + T*T) = I, i.e. S really is the inverse square root; S is
    # Hermitian and S^2 commutes with I + T*T.
    rng = np.random.default_rng(50)
    cases = [rand_complex(rng, n) for n in (2, 3, 5, 8)]
    cases += [np.zeros((3, 3)), np.diag([math.sqrt(3.0), math.sqrt(8.0)])]
    for t in cases:
        n = t.shape[0]
        s = build_v(t).s_factor
        gram = np.eye(n) + t.conj().T @ t
        assert oracles.frob(s.conj().T @ s @ gram - np.eye(n)) <= 1e-9 * n
        assert oracles.frob(s.conj().T - s) <= 1e-12 * oracles.frob(s)
        assert oracles.frob(s @ s @ gram - gram @ s @ s) <= 1e-9 * n
    s = build_v(np.diag([math.sqrt(3.0), math.sqrt(8.0)])).s_factor
    assert oracles.frob(s - np.diag([0.5, 1.0 / 3.0])) <= 1e-15
    assert oracles.frob(build_v(np.zeros((3, 3))).s_factor - np.eye(3)) == 0.0


def test_build_v_across_gains():
    # S and V come from the SVD of T, so neither over- nor underflows
    # where I + T*T would: V stays finite and [S; TS] orthonormal.
    rng = np.random.default_rng(55)
    for n in (1, 2, 5):
        t0 = rand_complex(rng, n) / math.sqrt(2 * n)
        for g in (1e-9, 1e-3, 1.0, 1e3, 1e8, 1e12, 1e200):
            t = g * t0
            vop = build_v(t)
            assert np.all(np.isfinite(vop.v))
            graph = np.vstack([vop.s_factor, t @ vop.s_factor])
            assert oracles.frob(graph.conj().T @ graph - np.eye(n)) <= 1e-12 * n


def test_build_v_of_real_matrix_is_complex_symmetric():
    # For real T the SVD is real, so V = A - iB with A and B real
    # symmetric, and V = V^T exactly: no imaginary rounding dust in A or
    # B, which would send the sweep to complex eigensolves.
    rng = np.random.default_rng(56)
    for n in (1, 2, 3, 8, 24):
        for t in (rng.normal(size=(n, n)), rng.normal(size=(n, n)).astype(complex)):
            vop = build_v(t)
            assert vop.v.dtype == np.complex128
            assert np.array_equal(vop.v, vop.v.T)
            graph = np.vstack([vop.s_factor, t @ vop.s_factor])
            assert oracles.frob(graph.conj().T @ graph - np.eye(n)) <= 1e-12 * n
    v = build_v(rand_complex(rng, 4)).v
    assert not np.array_equal(v, v.T)


def test_sweep_dtype_follows_the_field_of_t(monkeypatch):
    # Real T gives float64 stacks, complex T complex128 ones, in the
    # eigendecompositions of the start grid, the shifted solves and the
    # Cholesky certificates alike; eigvalsh never runs.
    dtypes = set()

    def record(name):
        solver = getattr(np.linalg, name)

        def recorded(x, *args, **kwargs):
            if np.ndim(x) == 3:
                dtypes.add((name, np.asarray(x).dtype))
            return solver(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)

    names = ("eigh", "solve", "cholesky")
    for name in names + ("eigvalsh",):
        record(name)
    rng = np.random.default_rng(57)
    for t, want in ((rng.normal(size=(5, 5)), np.float64), (rand_complex(rng, 5), np.complex128)):
        dtypes.clear()
        srg_complex(t)
        assert dtypes == {(name, np.dtype(want)) for name in names}


def test_real_and_complex_sweeps_of_one_range_agree():
    # V of a real T sweeps in real arithmetic; Q V Q* for a complex
    # unitary Q has the same numerical range but sweeps in complex
    # arithmetic.  Both hulls are within the target of W(V), so within
    # twice the target of each other.
    rng = np.random.default_rng(58)
    for n in (2, 4, 8):
        v = build_v(rng.normal(size=(n, n))).v
        q = rand_unitary(rng, n)
        real = nrange_boundary(v)
        cplx = nrange_boundary(q @ v @ q.conj().T)
        target = 1e-8 * max(1.0, float(np.max(real.support_values)))
        d = oracles.hausdorff_support_exact(list(real.hull.vertices), list(cplx.hull.vertices))
        assert d <= 2.0 * target


def test_build_v_range_in_unit_disk():
    rng = np.random.default_rng(51)
    for n in (2, 4, 6):
        t = rand_complex(rng, n) * rng.uniform(0.1, 10.0)
        vop = build_v(t)
        b = nrange_boundary(vop.v)
        assert max(abs(p) for p in b.support_points) <= 1.0 + 1e-8


def test_build_v_fixed_points():
    vop0 = build_v(np.zeros((3, 3)))
    assert oracles.frob(vop0.v + np.eye(3)) <= 1e-12
    vop1 = build_v(np.eye(3))
    assert oracles.frob(vop1.v + 1j * np.eye(3)) <= 1e-12


def test_build_v_shift_nilpotent_closed_form():
    vop = build_v(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert oracles.frob(vop.v - oracles.NILPOTENT_V) <= 1e-12


def test_build_v_nilpotent_range_is_known_ellipse():
    # W(V) for the 2x2 shift is the filled ellipse with foci
    # -(1+i)/2, -(1-i)/2 and major axis sqrt(2).
    vop = build_v(np.array([[0.0, 1.0], [0.0, 0.0]]))
    b = nrange_boundary(vop.v, refine_tol=1e-9)
    res = max(abs(oracles.ellipse_residual(complex(p))) for p in b.support_points)
    assert res <= 1e-8


# ---------------------------------------------------------------------------
# srg_complex


def test_scalar_multiple_of_identity_is_a_point():
    region = srg_complex(3.0 * np.eye(4))
    assert len(region.disk_hull.vertices) == 1
    assert abs(region.disk_hull.vertices[0] - bk_forward(3.0 + 0j)) <= 1e-12
    assert len(region.upper_branch) == 1
    assert abs(complex(region.upper_branch[0]) - 3.0) <= 1e-6
    assert not region.contains_infinity
    assert not region.boundary_only


def test_normal_diagonal_matches_spectral_hull():
    region = srg_complex(np.diag([1.0, 2.0]))
    target = hull_bk([1.0 + 0j, 2.0 + 0j])
    d = polygon_hausdorff(region.disk_hull, target.disk_hull)
    assert d <= 1e-7


def test_branches_are_exact_conjugates():
    rng = np.random.default_rng(52)
    region = srg_complex(rand_complex(rng, 3))
    assert len(region.upper_branch) == len(region.lower_branch)
    for u, l in zip(region.upper_branch, region.lower_branch):
        assert complex(l) == complex(u).conjugate()
        assert complex(u).imag >= 0.0


def test_containment_chain_spectral_hull_inside_srg():
    # Every vertex of the hyperbolic spectral hull's disk hull lies in
    # the SRG's disk hull: srg(T) contains hull_bk(spectrum(T)).
    rng = np.random.default_rng(53)
    for n in (2, 3, 5):
        t = rand_complex(rng, n)
        region = srg_complex(t)
        spec = hull_bk_spectrum(t)
        for w in spec.disk_hull.vertices:
            assert polygon_distance(region.disk_hull, w) <= 1e-7


def test_s_choice_invariance_under_unitary_factor():
    # Replacing S by S U (U unitary) turns V into U* V U, which leaves
    # hull(W(V)) unchanged.
    rng = np.random.default_rng(54)
    t = rand_complex(rng, 3)
    vop = build_v(t)
    u = rand_unitary(rng, 3)
    b1 = nrange_boundary(vop.v, refine_tol=1e-9)
    b2 = nrange_boundary(u.conj().T @ vop.v @ u, refine_tol=1e-9)
    d = oracles.hausdorff_support_exact(list(b1.hull.vertices), list(b2.hull.vertices))
    assert d <= 1e-8


# ---------------------------------------------------------------------------
# srg_real


def test_real_srg_rejects_complex_entries():
    with pytest.raises(InputError):
        srg_real(np.array([[1.0 + 1e-18j, 0.0], [0.0, 1.0]]))


def test_real_one_by_one_is_a_point():
    region = srg_real(np.array([[2.0]]))
    assert not region.boundary_only
    assert len(region.disk_hull.vertices) == 1
    # Real operators map onto the unit circle, where pulling the branch
    # point back through the square root amplifies round-off to ~1e-8.
    assert abs(complex(region.upper_branch[0]) - 2.0) <= 1e-6


def test_real_two_by_two_is_boundary_only():
    region = srg_real(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert region.boundary_only
    res = max(abs(oracles.ellipse_residual(complex(w))) for w in region.disk_hull.vertices)
    assert res <= 1e-8


def test_real_three_by_three_fills_region():
    region = srg_real(np.diag([1.0, 2.0, 3.0]))
    assert not region.boundary_only
    target = hull_bk([1.0 + 0j, 2.0 + 0j, 3.0 + 0j])
    assert polygon_hausdorff(region.disk_hull, target.disk_hull) <= 1e-7


def test_real_and_complex_agree_above_dimension_two():
    rng = np.random.default_rng(55)
    t = rng.normal(size=(4, 4))
    r_real = srg_real(t)
    r_cplx = srg_complex(t)
    assert r_real.disk_hull.vertices == r_cplx.disk_hull.vertices
    assert not r_real.boundary_only


# ---------------------------------------------------------------------------
# hull_bk_spectrum


def test_spectral_hull_of_rotation_is_imaginary_pair():
    region = hull_bk_spectrum(np.array([[0.0, -1.0], [1.0, 0.0]]))
    # Both eigenvalues i and -i map to the disk origin; eigensolver dust
    # may keep two distinct near-zero vertices.
    assert all(abs(w) <= 1e-9 for w in region.disk_hull.vertices)
    assert all(abs(complex(u) - 1j) <= 1e-8 for u in region.upper_branch)
    assert all(abs(complex(l) + 1j) <= 1e-8 for l in region.lower_branch)


def test_spectral_hull_matches_direct_eigen_hull():
    rng = np.random.default_rng(56)
    t = rand_complex(rng, 4)
    region = hull_bk_spectrum(t)
    direct = hull_bk([complex(ev) for ev in general_eig(t)])
    assert region.disk_hull.vertices == direct.disk_hull.vertices


def test_spectral_hull_equals_srg_for_normal_matrices():
    rng = np.random.default_rng(57)
    t, _ = rand_normal_matrix(rng, 4)
    region = srg_complex(t)
    spec = hull_bk_spectrum(t)
    assert polygon_hausdorff(region.disk_hull, spec.disk_hull) <= 1e-7


# ---------------------------------------------------------------------------
# similarity_scaled_srg


def test_identity_similarity_is_identical():
    rng = np.random.default_rng(58)
    t = rand_complex(rng, 3)
    base = srg_complex(t)
    scaled = similarity_scaled_srg(t, np.eye(3))
    assert scaled.disk_hull.vertices == base.disk_hull.vertices


def test_unitary_similarity_leaves_hull_unchanged():
    rng = np.random.default_rng(59)
    t = rand_complex(rng, 3)
    u = rand_unitary(rng, 3)
    base = srg_complex(t)
    scaled = similarity_scaled_srg(t, u)
    d = oracles.hausdorff_support_exact(
        list(base.disk_hull.vertices), list(scaled.disk_hull.vertices)
    )
    assert d <= 1e-7


def test_graded_scaling_shrinks_jordan_block_region():
    t = np.array([[1.0, 1.0], [0.0, 1.0]])
    import scipy.linalg

    _, z = scipy.linalg.schur(t, output="complex")
    s = np.diag([10.0, 100.0]) @ z.conj().T
    base = srg_complex(t)
    scaled = similarity_scaled_srg(t, s)
    assert polygon_area(scaled.disk_hull) < polygon_area(base.disk_hull)
    # The shrunken region still contains the mapped spectrum {f(1)} = {-i}.
    assert polygon_distance(scaled.disk_hull, -1j) <= 1e-7


def test_similarity_validation():
    t = np.eye(2)
    with pytest.raises(InputError):
        similarity_scaled_srg(t, np.eye(3))
    with pytest.raises(IllConditionedError):
        similarity_scaled_srg(t, np.diag([1.0, 1e13]))
    with pytest.raises(IllConditionedError):
        similarity_scaled_srg(t, np.array([[1.0, 0.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# gamma_scaling_demo


def test_gamma_demo_normal_matrix_is_already_tight():
    rng = np.random.default_rng(60)
    t, _ = rand_normal_matrix(rng, 3)
    for _, dist in gamma_scaling_demo(t, [1.0, 10.0]):
        assert dist <= 1e-7


def test_gamma_demo_jordan_block_distances_decrease():
    out = gamma_scaling_demo(np.array([[1.0, 1.0], [0.0, 1.0]]), [1.0, 10.0, 100.0])
    gammas = [g for g, _ in out]
    dists = [d for _, d in out]
    assert gammas == [1.0, 10.0, 100.0]
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] <= 0.02


def test_gamma_demo_nilpotent_collapses_to_point():
    # With gamma = 100 the scaled matrix has norm 1/100, so its SRG
    # stays within a small disk around 0 and its disk hull within 0.02
    # of f(0) = -1.
    out = gamma_scaling_demo(np.array([[0.0, 1.0], [0.0, 0.0]]), [100.0])
    assert out[0][1] <= 0.02


def test_gamma_demo_validation():
    t = np.eye(2)
    with pytest.raises(InputError):
        gamma_scaling_demo(t, [])
    with pytest.raises(InputError):
        gamma_scaling_demo(t, [-1.0, 2.0])
    with pytest.raises(InputError):
        gamma_scaling_demo(t, [1.0, 1.0])
    with pytest.raises(InputError):
        gamma_scaling_demo(t, [10.0, 1.0])


# ---------------------------------------------------------------------------
# spectrum_check


def test_spectrum_check_normal_matrix_touches_boundary():
    rng = np.random.default_rng(61)
    t, _ = rand_normal_matrix(rng, 4)
    report = spectrum_check(t)
    assert report.all_contained
    # For normal T the extreme eigenvalues sit on the boundary of W(V),
    # so the worst margin is zero up to solver noise.
    assert abs(report.worst_margin) <= 1e-8
    assert len(report.eigenvalues) == 4
    # The sweep of V meets its target 1e-8, so that is the radius.
    assert report.tol == 1e-8


def test_spectrum_check_four_by_four_benchmark_matrix():
    report = spectrum_check(oracles.FIG_MATRIX, refine_tol=1e-7)
    assert len(report.eigenvalues) == 4
    assert report.all_contained


def test_spectrum_check_random_matrices_never_fail():
    rng = np.random.default_rng(62)
    for _ in range(100):
        t = rand_complex(rng, 5)
        report = spectrum_check(t, refine_tol=1e-7)
        assert report.all_contained


# ---------------------------------------------------------------------------
# region structure invariants


def test_disk_hull_is_convex_hull_of_its_vertices():
    rng = np.random.default_rng(63)
    region = srg_complex(rand_complex(rng, 3))
    rebuilt = convex_hull_2d(region.disk_hull.vertices)
    assert rebuilt.vertices == region.disk_hull.vertices


def test_branch_points_respect_spacing():
    rng = np.random.default_rng(64)
    region = srg_complex(rand_complex(rng, 3))
    ws = [bk_forward(complex(u)) for u in region.upper_branch]
    gaps = [abs(b - a) for a, b in zip(ws, ws[1:])]
    # Boundary points on the disk side are spaced at most ~EDGE_SPACING
    # apart (vertices may be closer).
    assert max(gaps) <= EDGE_SPACING + 1e-9
