from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from conftest import rand_complex
from srgraph import (
    InputError,
    as_matrix,
    build_v,
    general_eig,
    poly_roots,
)


def test_as_matrix_validation():
    with pytest.raises(InputError):
        as_matrix([[1, 2, 3], [4, 5, 6]], square=True)
    with pytest.raises(InputError):
        as_matrix([[float("nan"), 0], [0, 1]])
    with pytest.raises(InputError):
        as_matrix([[float("inf"), 0], [0, 1]])
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128


def test_general_eig_known_spectra():
    assert np.allclose(general_eig(np.array([[0, 1], [0, 0]], dtype=complex)), [0, 0])
    vals = general_eig(np.diag([1 + 2j, 3 + 0j]))
    assert sorted(vals, key=lambda z: z.real) == pytest.approx([1 + 2j, 3 + 0j])


def test_general_eig_example_matrix_closed_form():
    vals = sorted(general_eig(oracles.FIG_MATRIX), key=lambda z: (z.imag, z.real))
    for got, want in zip(vals, oracles.FIG_MATRIX_EIGS):
        assert abs(got - want) < 1e-9


def test_frob_scales_by_a_power_of_two_without_overflow():
    # Squares of entries above about 1e154 used to overflow to inf, and
    # those below 1e-154 to vanish.  The power-of-two scaling is exact,
    # so in range the norm is the plain one, bit for bit.
    a = rand_complex(np.random.default_rng(35), 4)
    assert oracles.frob(a) == float(np.linalg.norm(a, "fro"))
    for e in (-1000, -500, 500, 1000):
        assert oracles.frob(a * 2.0**e) == oracles.frob(a) * 2.0**e
    big = np.array([[1e200, 1e200 + 3e199j], [0.0, 1.0]])
    assert oracles.frob(big) == pytest.approx(math.hypot(1e200, 1e200, 3e199, 1.0), rel=1e-15)
    assert oracles.frob([[1e-200, 0.0]]) == 1e-200
    assert oracles.frob(np.zeros((2, 2))) == 0.0


def test_general_eig_trace_and_det_identities():
    rng = np.random.default_rng(34)
    for n in (2, 4, 6):
        a = rand_complex(rng, n)
        vals = general_eig(a)
        assert abs(np.trace(a) - np.sum(vals)) <= 1e-9 * n * oracles.frob(a)
        det_lu = np.linalg.det(a)
        det_eig = np.prod(vals)
        assert abs(det_eig - det_lu) <= 1e-7 * abs(det_lu)


# build_v(T).s_factor is (I + T*T)^(-1/2), computed from the SVD of T
# without forming I + T*T.


def test_inv_sqrt_hpd_reference_values():
    assert np.allclose(build_v(np.zeros((3, 3))).s_factor, np.eye(3))
    s = build_v(np.diag([math.sqrt(3.0), math.sqrt(8.0)])).s_factor
    assert np.allclose(s, np.diag([0.5, 1 / 3]))


def test_inv_sqrt_hpd_defining_relation_and_commutation():
    rng = np.random.default_rng(35)
    t = rand_complex(rng, 5)
    m = np.eye(5) + t.conj().T @ t
    s = build_v(t).s_factor
    assert np.linalg.norm(s.conj().T - s) <= 1e-12 * np.linalg.norm(s)
    assert np.linalg.norm(s @ s @ m - np.eye(5)) <= 1e-9
    assert np.linalg.norm(s @ m - m @ s) <= 1e-9


def test_poly_roots_known_and_symmetric():
    assert sorted(r.real for r in poly_roots([1, -3, 2])) == pytest.approx([1.0, 2.0])
    roots = sorted(poly_roots([1, 0, 1]), key=lambda z: z.imag)
    assert roots == pytest.approx([-1j, 1j])
    with pytest.raises(InputError):
        poly_roots([0.0])


def test_poly_roots_left_half_plane_pair_of_factor_polynomial():
    # (s^2-1)^2 + 4 = s^4 - 2 s^2 + 5: the stable pair has product sqrt(5)
    # and sum -sqrt(2 + 2 sqrt(5)).
    roots = poly_roots([1, 0, -2, 0, 5])
    lhp = [r for r in roots if r.real < 0]
    assert len(lhp) == 2
    prod = lhp[0] * lhp[1]
    total = lhp[0] + lhp[1]
    assert abs(prod - math.sqrt(5)) < 1e-10
    assert abs(total + math.sqrt(2 + 2 * math.sqrt(5))) < 1e-10


def test_poly_roots_coefficient_reconstruction():
    rng = np.random.default_rng(36)
    for deg in (3, 7, 12):
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        roots = poly_roots(list(coeffs))
        recon = coeffs[0] * np.poly(np.array(roots))
        scale = np.max(np.abs(coeffs))
        assert np.allclose(recon, coeffs, atol=1e-7 * scale)
