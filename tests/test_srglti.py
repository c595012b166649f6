"""Tests for transfer-function SRGs: factorization, grids, sweeps."""

import cmath
import math
import warnings

import numpy as np
import pytest

import oracles
from srgraph import (
    FactorizationDegenerateError,
    INFINITY,
    InputError,
    NumericalError,
    bk_forward,
    convex_hull_2d,
    default_grid,
    freq_grid,
    is_infinity,
    lti_disk_point,
    lti_srg,
    polygon_distance,
    polygon_hausdorff,
    poly_roots,
    rational_tf,
    spectral_factorize,
    tf_value,
)

TWO_OVER_SQUARE = ([2.0], [1.0, 2.0, 1.0])  # h = 2/(iw+1)^2
INTEGRATOR = ([1.0], [1.0, 0.0])  # h = 1/(iw)


def _abs2_at(coeffs, omega: float) -> float:
    v = complex(np.polyval(np.asarray(coeffs, dtype=complex), 1j * omega))
    return abs(v) ** 2


# ---------------------------------------------------------------------------
# rational_tf


def test_rational_tf_trims_leading_zeros():
    tf = rational_tf([0.0, 0.0, 2.0], [0.0, 1.0, 2.0, 1.0])
    assert tf.num == (2.0 + 0j,)
    assert tf.den == (1.0 + 0j, 2.0 + 0j, 1.0 + 0j)
    assert tf.degree_num == 0
    assert tf.degree_den == 2


def test_rational_tf_zero_numerator_allowed():
    tf = rational_tf([0.0], [1.0, 1.0])
    assert tf.is_zero


def test_rational_tf_validation():
    with pytest.raises(InputError):
        rational_tf([1.0], [0.0])
    with pytest.raises(InputError):
        rational_tf([1.0], [])
    with pytest.raises(InputError):
        rational_tf([], [1.0])
    with pytest.raises(InputError):
        rational_tf([float("nan")], [1.0])
    with pytest.raises(InputError):
        rational_tf([1.0], [float("inf"), 1.0])


# ---------------------------------------------------------------------------
# spectral_factorize


def test_factor_double_pole_example_radicals():
    tf = rational_tf(*TWO_OVER_SQUARE)
    factor = spectral_factorize(tf)
    assert factor.s_num == tf.den
    assert len(factor.s_den) == 3
    for got, want in zip(factor.s_den, oracles.FACTOR_DEN_RADICALS):
        assert abs(got - want) <= 1e-9


def test_factor_constant_function():
    factor = spectral_factorize(rational_tf([3.0], [1.0]))
    assert factor.s_num == (1.0 + 0j,)
    assert len(factor.s_den) == 1
    assert abs(factor.s_den[0] - math.sqrt(10.0)) <= 1e-12


def test_factor_integrator():
    factor = spectral_factorize(rational_tf(*INTEGRATOR))
    assert factor.s_num == (1.0 + 0j, 0.0 + 0j)
    assert len(factor.s_den) == 2
    assert abs(factor.s_den[0] - 1.0) <= 1e-12
    assert abs(factor.s_den[1] - 1.0) <= 1e-12
    # s(w) = iw/(iw+1): |s|^2 (1 + 1/w^2) = 1 exactly in exact arithmetic.
    for w in (0.1, 1.0, 7.5, 100.0):
        s2 = _abs2_at(factor.s_num, w) / _abs2_at(factor.s_den, w)
        assert abs(s2 * (1.0 + 1.0 / w**2) - 1.0) <= 1e-12


def test_factor_denominator_is_hurwitz():
    rng = np.random.default_rng(70)
    for _ in range(10):
        num = rng.normal(size=rng.integers(1, 4))
        den = np.concatenate([[1.0], rng.normal(size=rng.integers(1, 4))])
        try:
            factor = spectral_factorize(rational_tf(num, den))
        except FactorizationDegenerateError:
            continue
        for r in poly_roots(np.asarray(factor.s_den)):
            assert complex(r).real < -1e-10


def test_factor_defining_identity_on_frequency_sweep():
    # |s|^2 (|h|^2 + 1) = 1 with s = s_num/s_den, checked pole-safely as
    # |s_num|^2 (|a|^2 + |b|^2) = |s_den|^2 |a|^2.
    cases = [
        rational_tf(*TWO_OVER_SQUARE),
        rational_tf(*INTEGRATOR),
        rational_tf([1.0, 0.0], [1.0]),  # improper h = iw
        rational_tf([1.0, 2.0], [1.0, 0.5, 2.0]),
        rational_tf([1.0 + 1j, 0.5], [1.0, 1.0 + 0.25j, 1.0]),
        rational_tf([3.0], [2.0 - 1j, 4.0, 2.0]),  # non-monic denominator
    ]
    omegas = np.linspace(-8.0, 8.0, 64)
    for tf in cases:
        factor = spectral_factorize(tf)
        for w in omegas:
            w = float(w)
            a2 = _abs2_at(tf.den, w)
            lhs = _abs2_at(factor.s_num, w) * (a2 + _abs2_at(tf.num, w))
            rhs = _abs2_at(factor.s_den, w) * a2
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, rhs)


def test_factor_invariant_under_common_rescaling():
    alpha = 2.5 - 1.25j
    tf1 = rational_tf([1.0, 2.0], [1.0, 0.5, 2.0])
    tf2 = rational_tf(
        [alpha * c for c in (1.0, 2.0)], [alpha * c for c in (1.0, 0.5, 2.0)]
    )
    f1 = spectral_factorize(tf1)
    f2 = spectral_factorize(tf2)
    assert len(f1.s_den) == len(f2.s_den)
    for a, b in zip(f1.s_den, f2.s_den):
        assert abs(a - b) <= 1e-9


def test_factor_real_coefficients_stay_real():
    for num, den in (TWO_OVER_SQUARE, INTEGRATOR, ([1.0, 3.0], [1.0, 2.0, 2.0])):
        factor = spectral_factorize(rational_tf(num, den))
        assert all(c.imag == 0.0 for c in factor.s_den)


def test_factor_degenerate_shared_axis_zero():
    # num = s^2 + 1 and den = (s+1)(s^2+1) share roots at +-i, so
    # |a|^2 + |b|^2 vanishes on the axis and no Hurwitz factor exists.
    with pytest.raises(FactorizationDegenerateError):
        spectral_factorize(rational_tf([1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0]))


@pytest.mark.parametrize("num, den", [
    ([1.0, 0.0, 1.0], [1.0, 0.0, 2.0, 0.0, 1.0]),                 # (s^2+1)/(s^2+1)^2
    ([1.0, 0.0, 2.0, 0.0, 1.0], [1.0, 0.0, 2.0, 0.0, 1.0]),       # (s^2+1)^2/(s^2+1)^2
    ([1.0, 0.0, 2.0, 0.0, 1.0], [1.0, 1.0, 3.0, 2.0, 3.0, 1.0, 1.0]),  # a double shared pair
])
def test_factor_shared_axis_zeros_split_off_the_axis(num, den):
    # The shared zeros are multiple roots of a~a + b~b, which the root
    # finder splits off the axis by 1e-8 to 1e-4, past AXIS_TOL; the
    # factor used to come out non-Hurwitz, with imaginary dust.
    with pytest.raises(FactorizationDegenerateError, match="imaginary-axis zero"):
        spectral_factorize(rational_tf(num, den))


def test_factor_axis_zero_of_numerator_alone_is_fine():
    # h = s/(s^2+s+1) has an axis zero at 0 but the denominator does
    # not vanish there; factorization is regular.
    factor = spectral_factorize(rational_tf([1.0, 0.0], [1.0, 1.0, 1.0]))
    for r in poly_roots(np.asarray(factor.s_den)):
        assert complex(r).real < -1e-10


# ---------------------------------------------------------------------------
# tf_value


def test_tf_value_degree_rules_at_infinity():
    assert tf_value(rational_tf([1.0, 0.0], [1.0]), INFINITY) is INFINITY
    assert tf_value(rational_tf(*INTEGRATOR), INFINITY) == 0j
    v = tf_value(rational_tf([2.0, 0.0], [4.0, 1.0]), INFINITY)
    assert abs(complex(v) - 0.5) <= 1e-15


def test_tf_value_matches_direct_evaluation():
    tf = rational_tf([1.0, 2.0 + 1j], [1.0, 0.5, 2.0])
    for w in (-3.0, -0.5, 0.0, 0.25, 10.0):
        want = oracles.tf_eval(tf.num, tf.den, 1j * w)
        got = tf_value(tf, w)
        assert abs(complex(got) - want) <= 1e-12 * max(1.0, abs(want))


def test_tf_value_pole_returns_infinity():
    assert is_infinity(tf_value(rational_tf(*INTEGRATOR), 0.0))
    assert is_infinity(tf_value(rational_tf([1.0], [1.0, 0.0, 1.0]), 1.0))


# ---------------------------------------------------------------------------
# lti_disk_point


def test_disk_point_double_pole_at_zero_frequency():
    tf = rational_tf(*TWO_OVER_SQUARE)
    assert abs(lti_disk_point(tf, 0.0) - (0.6 - 0.8j)) <= 1e-12


def test_disk_point_zero_of_h_maps_to_minus_one():
    tf = rational_tf([1.0, 0.0], [1.0, 1.0])  # h = iw/(iw+1), zero at w=0
    assert abs(lti_disk_point(tf, 0.0) - (-1.0)) <= 1e-12


def test_disk_point_integrator_limits():
    tf = rational_tf(*INTEGRATOR)
    # At infinity h -> 0, so the point is f(0) = -1.
    assert abs(lti_disk_point(tf, INFINITY) - (-1.0)) <= 1e-12
    # At the axis pole h -> infinity, so the point is f(infinity) = 1.
    assert lti_disk_point(tf, 0.0) == 1.0 + 0j


def test_disk_point_identity_with_direct_map():
    # lti_disk_point(w) = f(h(w)) at every finite non-pole frequency.
    cases = [
        rational_tf(*TWO_OVER_SQUARE),
        rational_tf(*INTEGRATOR),
        rational_tf([1.0, 2.0 + 1j], [1.0, 0.5, 2.0]),
    ]
    for tf in cases:
        for w in default_grid(tf, 512).omegas:
            h = tf_value(tf, w)
            if is_infinity(h):
                continue
            want = bk_forward(complex(h))
            assert abs(lti_disk_point(tf, w) - want) <= 1e-10


# ---------------------------------------------------------------------------
# freq_grid / default_grid


def test_freq_grid_sorts_and_deduplicates():
    g = freq_grid([3.0, -1.0, 3.0, 0.0])
    assert g.omegas == (-1.0, 0.0, 3.0)


def test_freq_grid_validation():
    with pytest.raises(InputError):
        freq_grid([])
    with pytest.raises(InputError):
        freq_grid([1.0, float("inf")])


def test_default_grid_minimum_size():
    tf = rational_tf(*TWO_OVER_SQUARE)
    with pytest.raises(InputError):
        default_grid(tf, 15)


def test_default_grid_shape_and_symmetry():
    g = default_grid(rational_tf(*TWO_OVER_SQUARE), 16)
    assert len(g.omegas) == 17
    ws = g.omegas
    for lo, hi in zip(ws, reversed(ws)):
        assert abs(lo + hi) <= 1e-12 * max(1.0, abs(hi))
    assert ws[8] == 0.0


def test_default_grid_magnitude_coverage():
    tf = rational_tf(*TWO_OVER_SQUARE)
    # The tan spacing reaches |w| > 100 once n is large enough; at
    # n = 64 the extreme point is ~41.4, crossing 100 near n = 157.
    assert 41.0 < max(abs(w) for w in default_grid(tf, 64).omegas) < 42.0
    assert max(abs(w) for w in default_grid(tf, 512).omegas) > 100.0


def test_default_grid_inserts_pole_neighborhoods():
    g = default_grid(rational_tf(*INTEGRATOR), 16)
    for w in (0.0, -1e-2, 1e-2, -1e-3, 1e-3, -1e-4, 1e-4):
        assert w in g.omegas


def test_default_grid_self_convergence():
    tf = rational_tf(*TWO_OVER_SQUARE)
    h512 = lti_srg(tf, default_grid(tf, 512)).region.disk_hull
    h2048 = lti_srg(tf, default_grid(tf, 2048)).region.disk_hull
    assert polygon_hausdorff(h512, h2048) <= 1e-4


# ---------------------------------------------------------------------------
# lti_srg


def test_constant_function_gives_single_point():
    out = lti_srg(rational_tf([3.0], [1.0]))
    target = bk_forward(3.0 + 0j)
    assert all(abs(w - target) <= 1e-9 for w in out.region.disk_hull.vertices)
    assert all(abs(complex(u) - 3.0) <= 1e-6 for u in out.region.upper_branch)
    assert not out.region.contains_infinity


def test_integrator_region_is_imaginary_axis_with_infinity():
    out = lti_srg(rational_tf(*INTEGRATOR))
    hull = out.region.disk_hull
    # Disk side: the real segment [-1, 1].
    assert all(abs(w.imag) <= 1e-9 for w in hull.vertices)
    assert polygon_distance(hull, -1.0 + 0j) <= 1e-9
    assert polygon_distance(hull, 1.0 + 0j) <= 1e-9
    assert out.region.contains_infinity
    # Mapped back: the imaginary axis plus the point at infinity.
    saw_infinity = False
    for u in out.region.upper_branch:
        if is_infinity(u):
            saw_infinity = True
            continue
        assert abs(complex(u).real) <= 1e-6
    assert saw_infinity


def test_improper_function_forces_infinity():
    tf = rational_tf([1.0, 0.0], [1.0])  # h = iw, improper
    grid = freq_grid([0.5, 1.0, 2.0])
    out = lti_srg(tf, grid)
    assert is_infinity(out.omegas[-1])
    assert out.disk_points[-1] == 1.0 + 0j
    assert out.region.contains_infinity


def test_sweep_emits_matching_curve_and_points():
    tf = rational_tf(*TWO_OVER_SQUARE)
    grid = default_grid(tf, 64)
    out = lti_srg(tf, grid)
    assert len(out.omegas) == len(out.disk_points) == len(out.curve)
    for w, p, h in zip(out.omegas, out.disk_points, out.curve):
        assert p == lti_disk_point(tf, w)
        hv = tf_value(tf, w)
        if is_infinity(hv):
            assert is_infinity(h)
        else:
            assert complex(h) == complex(hv)
    # Every swept point lies in the hull.
    for p in out.disk_points:
        assert polygon_distance(out.region.disk_hull, p) <= 1e-9


def test_multiplication_operator_is_normal():
    # The SRG equals the hyperbolic hull of the frequency response:
    # building the hull from f(h(w)) directly gives the same polygon.
    tf = rational_tf([1.0, 2.0], [1.0, 0.5, 2.0])
    grid = default_grid(tf, 256)
    out = lti_srg(tf, grid)
    direct = convex_hull_2d(
        [bk_forward(tf_value(tf, w)) for w in out.omegas]
    )
    assert polygon_hausdorff(out.region.disk_hull, direct) <= 1e-9


def test_real_coefficients_give_even_symmetry():
    tf = rational_tf(*TWO_OVER_SQUARE)
    for w in (0.25, 1.0, 3.0, 17.5):
        plus = lti_disk_point(tf, w)
        minus = lti_disk_point(tf, -w)
        assert abs(plus - minus) <= 1e-12


def test_double_pole_region_contains_static_gain():
    out = lti_srg(rational_tf(*TWO_OVER_SQUARE))
    assert polygon_distance(out.region.disk_hull, 0.6 - 0.8j) <= 1e-9
    assert not out.region.contains_infinity


# ---------------------------------------------------------------------------
# Array kernel against exact rational arithmetic


def _real_roots(rng, count: int, sign: float) -> list:
    roots = []
    while len(roots) < count:
        real = sign * rng.uniform(0.1, 2.0)
        if count - len(roots) >= 2 and rng.random() < 0.5:
            z = complex(real, rng.uniform(0.2, 3.0))
            roots += [z, z.conjugate()]
        else:
            roots.append(complex(real, 0.0))
    return roots


def _identity_cases():
    """(tf, axis-pole frequencies): the three fixed functions, gains 1e-9
    and 1e3, and seeded degree 1-6 strict, biproper and improper
    functions; some with a pole at 0 or at +-i w0, some with complex
    coefficients."""
    out = [
        (rational_tf(*TWO_OVER_SQUARE), []),
        (rational_tf([1.0, 0.0, 0.0, 1.0], [1.0, 0.3, 2.0, 0.5, 1.0]), []),
        (rational_tf([1.0, 0.1, 1.0], [1.0, 0.02, 4.0, 0.0]), [-2.0, 0.0, 2.0]),
        (rational_tf([1e-9], [1.0, 1.0]), []),
        (rational_tf([1e3, 2e3], [1.0, 1.0, 1.0]), []),
    ]
    rng = np.random.default_rng(515)
    for deg in range(1, 7):
        for num_deg in (deg - 1, deg, deg + 1):
            axis = []
            poles = _real_roots(rng, deg, -1.0)
            kind = (deg + num_deg) % 3
            if kind == 1:
                poles[0], axis = 0j, [0.0]
            elif kind == 2 and deg >= 2:
                w0 = float(rng.uniform(0.5, 3.0))
                poles = [1j * w0, -1j * w0] + _real_roots(rng, deg - 2, -1.0)
                axis = [-w0, w0]
            zeros = _real_roots(rng, num_deg, 1.0 if rng.random() < 0.5 else -1.0)
            num = 10.0 ** rng.uniform(-9.0, 3.0) * np.poly(zeros)
            den = np.poly(poles)
            if (deg + num_deg) % 2:
                num = num * (1.0 + 0.5j)
                den = np.poly([p + 0.25j for p in poles[len(axis):]] + poles[:len(axis)])
            out.append((rational_tf(np.atleast_1d(num), den), axis))
    return out


def test_lti_srg_matches_the_exact_rational_oracle():
    # Disk points within 1e-12 and the curve within 1e-11 relative of
    # exact rational arithmetic, poles at the same frequencies, on every
    # grid.  The cases include a gain-1e-9 function with axis poles,
    # where |a|^2 + |b|^2 has near-double roots next to the axis.
    poles_hit = 0
    for tf, axis in _identity_cases():
        user = freq_grid([-2.5, -0.5, 0.0, 0.5, 1.0, 2.5] + axis)
        for grid in (default_grid(tf, 16), default_grid(tf, 256), user):
            out = lti_srg(tf, grid)
            assert out.omegas == grid.omegas + (INFINITY,)
            disk, curve = oracles.lti_points_exact(tf.num, tf.den, out.omegas)
            assert max(map(abs, np.subtract(out.disk_points, disk))) <= 1e-12
            assert list(map(is_infinity, out.curve)) == list(map(is_infinity, curve))
            for got, want in zip(out.curve, curve):
                if not is_infinity(want):
                    assert abs(got - want) <= 1e-11 * abs(want)
            if grid is user:
                poles_hit += sum(map(is_infinity, out.curve))
        disk, curve = oracles.lti_points_exact(tf.num, tf.den, user.omegas + (INFINITY,))
        for w, d, h in zip(user.omegas + (INFINITY,), disk, curve):
            assert abs(lti_disk_point(tf, w) - d) <= 1e-12
            got = tf_value(tf, w)
            assert is_infinity(got) == is_infinity(h)
            if not is_infinity(h):
                assert abs(got - h) <= 1e-11 * abs(h)
    assert poles_hit >= 10


def test_shared_imaginary_axis_zero_is_a_degenerate_error():
    # a and b both vanish at +-i: the disk point is 0/0 there.
    cases = [
        rational_tf([1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0]),  # (s^2+1)/((s+1)(s^2+1))
        rational_tf([1.0, 0.0, 2.0, 0.0, 1.0], [1.0, 1.0, 2.0, 2.0, 1.0, 1.0]),  # doubled
        rational_tf([0.0], [1.0, 0.0, 1.0]),  # 0/(s^2+1)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tf in cases:
            with pytest.raises(FactorizationDegenerateError, match="imaginary-axis"):
                lti_srg(tf)


def test_overflow_is_a_numerical_error_without_warnings():
    # The numerator values of 1e305 s^3/(s+1) overflow on the outer grid
    # frequencies: a typed error naming the first such frequency, and no
    # RuntimeWarning from numpy.
    tf = rational_tf([1e305, 0.0, 0.0, 0.0], [1.0, 1.0])
    grid = default_grid(tf, 512)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"not finite .* at omega = ") as info:
            lti_srg(tf, grid)
        with pytest.raises(NumericalError):
            lti_disk_point(tf, grid.omegas[0])
    assert f"omega = {grid.omegas[0]!r}" in str(info.value)
    with pytest.raises(NumericalError, match="omega = INFINITY"):
        tf_value(rational_tf([1e300], [1e-300]), INFINITY)


def test_coefficient_scales_beyond_the_square_range_compute():
    # |b|^2 overflows for 1e200/(s+1), and the leading coefficient of
    # |a|^2 + |b|^2 underflows for 1/(1e-200 s + 1); scaling a and b by
    # max(|a|, |b|) keeps every disk point exact, down to the -2e-200 i
    # that separates f(h(0)) = 1 - 2e-200 i from the point at infinity.
    for num, den in (([1e200], [1.0, 1.0]), ([1.0], [1e-200, 1.0])):
        tf = rational_tf(num, den)
        out = lti_srg(tf, freq_grid([-1e200, -1.0, 0.0, 1e-3, 1.0, 1e200]))
        disk, _ = oracles.lti_points_exact(tf.num, tf.den, out.omegas)
        assert max(map(abs, np.subtract(out.disk_points, disk))) <= 1e-12
    assert lti_disk_point(rational_tf([1e200], [1.0, 1.0]), 0.0) == complex(1.0, -2e-200)
