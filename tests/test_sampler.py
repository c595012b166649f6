"""Tests for the brute-force SRG sampler and containment checking."""

import numpy as np
import pytest

import oracles
from conftest import rand_complex, rand_normal_matrix
from srgraph import (
    InputError,
    bk_forward,
    check_containment,
    convex_hull_2d,
    polygon_hausdorff,
    sample_srg,
    srg_complex,
    srg_real,
)


def test_identity_samples_are_all_one():
    samples = sample_srg(np.eye(3), field="complex", count=500, seed=7)
    assert len(samples) == 1000
    assert all(s == 1.0 + 0j for s in samples)
    # Extreme gains neither underflow to the point 0 nor overflow.
    for g in (1e-300, 1e200):
        samples = sample_srg(g * np.eye(2), field="complex", count=500, seed=7)
        assert len(samples) == 1000
        assert np.all(np.abs(samples - g) <= 1e-15 * g)


def test_zero_matrix_emits_single_zero_per_draw():
    samples = sample_srg(np.zeros((2, 2)), field="real", count=400, seed=7)
    assert len(samples) == 400
    assert all(s == 0j for s in samples)


def test_sampling_is_deterministic():
    rng = np.random.default_rng(80)
    t = rand_complex(rng, 3)
    a = sample_srg(t, field="complex", count=257, seed=123)
    b = sample_srg(t, field="complex", count=257, seed=123)
    assert len(a) == len(b)
    assert all(x == y for x, y in zip(a, b))
    c = sample_srg(t, field="complex", count=257, seed=124)
    assert any(x != y for x, y in zip(a, c))


def test_samples_come_in_conjugate_pairs():
    rng = np.random.default_rng(81)
    t = rand_complex(rng, 3)
    samples = sample_srg(t, field="complex", count=100, seed=5)
    assert len(samples) == 200
    for upper, lower in zip(samples[0::2], samples[1::2]):
        assert complex(lower) == complex(upper).conjugate()
        assert complex(upper).imag >= 0.0


def test_shift_nilpotent_samples_lie_on_known_ellipse():
    samples = sample_srg(
        np.array([[0.0, 1.0], [0.0, 0.0]]), field="real", count=10000, seed=3
    )
    worst = max(
        abs(oracles.ellipse_residual(bk_forward(complex(s)))) for s in samples
    )
    assert worst <= 1e-9


def test_sample_array_matches_per_draw_reference():
    rng = np.random.default_rng(86)
    cases = [(rng.normal(size=(3, 3)), "real", 500), (rand_complex(rng, 4), "complex", 500),
             (rand_complex(rng, 2), "complex", 1), (np.zeros((3, 3)), "real", 50),
             (np.array([[0.0, 1.0], [0.0, 0.0]]), "complex", 300)]
    for t, field, count in cases:
        got = sample_srg(t, field=field, count=count, seed=31)
        assert isinstance(got, np.ndarray) and got.dtype == np.complex128
        want = oracles.sample_srg_ref(t, field, count, 31)
        assert [repr(complex(s)) for s in got] == [repr(complex(s)) for s in want]


def test_sampler_validation():
    with pytest.raises(InputError):
        sample_srg(np.eye(2), count=0)
    with pytest.raises(InputError):
        sample_srg(np.eye(2), field="quaternion")
    with pytest.raises(InputError):
        sample_srg(np.eye(2) * (1 + 1j), field="real")
    # numpy's generator would raise a bare ValueError or TypeError.
    for seed in (-1, 1.5, "1", None, True):
        with pytest.raises(InputError, match="seed"):
            sample_srg(np.eye(2), seed=seed)
    assert sample_srg(np.eye(2), count=1, seed=np.int64(3)).size == 2
    # A float, bool or string count used to raise a raw TypeError, or
    # pass as a number.
    for count in (2.5, True, "3", None):
        with pytest.raises(InputError, match="count"):
            sample_srg(np.eye(2), count=count)
    assert sample_srg(np.eye(2), count=np.int64(2)).size == 4
    # A few hundred bytes per vector entry are live at peak, so the
    # count is checked before any allocation: at most 2**20 vectors and
    # 2**24 entries.
    for n, count in ((2, 10**12), (2, 2**20 + 1), (32, 2**19 + 1)):
        with pytest.raises(InputError, match="count"):
            sample_srg(np.eye(n), count=count)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, -1e-12, "1e-7", None])
def test_containment_rejects_a_bad_tolerance(tol):
    # NaN used to count every sample out with max_violation 0.0, and a
    # negative tolerance passed.
    samples = sample_srg(np.eye(2), count=4)
    region = srg_complex(np.eye(2))
    with pytest.raises(InputError, match="tol"):
        check_containment(samples, region, tol=tol)
    assert check_containment(samples, region, tol=0.0).total == 8


def test_disjoint_region_contains_nothing():
    samples = sample_srg(3.0 * np.eye(2), field="complex", count=200, seed=9)
    region = srg_complex(2.0 * np.eye(2))
    report = check_containment(samples, region, tol=1e-7)
    assert report.total == 400
    assert report.contained == 0
    assert report.max_violation > 0.0
    assert report.worst_point is not None
    assert report.generator == "pcg64"


def test_samples_always_inside_complex_region():
    rng = np.random.default_rng(82)
    for n in (2, 3, 4):
        t = rand_complex(rng, n)
        region = srg_complex(t)
        samples = sample_srg(t, field="complex", count=2000, seed=11 + n)
        report = check_containment(samples, region, tol=1e-7)
        assert report.contained == report.total == 4000
        assert report.max_violation == 0.0
        assert report.worst_point is None


def test_real_two_by_two_samples_lie_on_boundary_curve():
    rng = np.random.default_rng(83)
    for _ in range(3):
        t = rng.normal(size=(2, 2))
        region = srg_real(t)
        assert region.boundary_only
        samples = sample_srg(t, field="real", count=2000, seed=17)
        report = check_containment(samples, region, tol=1e-6)
        assert report.contained == report.total


def test_samples_saturate_normal_region():
    rng = np.random.default_rng(84)
    t, _ = rand_normal_matrix(rng, 3)
    region = srg_complex(t)
    samples = sample_srg(t, field="complex", count=100000, seed=21)
    sample_hull = convex_hull_2d([bk_forward(complex(s)) for s in samples])
    assert polygon_hausdorff(sample_hull, region.disk_hull) <= 0.01


def test_report_counts_are_consistent():
    rng = np.random.default_rng(85)
    t = rand_complex(rng, 3)
    # A deliberately tiny region: srg of the halved matrix.
    region = srg_complex(0.5 * t)
    samples = sample_srg(t, field="complex", count=500, seed=2)
    report = check_containment(samples, region, tol=1e-7)
    assert 0 <= report.contained <= report.total == 1000
    assert report.max_violation >= 0.0
