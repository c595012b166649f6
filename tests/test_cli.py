"""End-to-end tests of the command-line interface."""

import json
import math
import re
import warnings

import numpy as np
import pytest

import oracles
from srgraph import (
    INFINITY,
    InputError,
    SampleReport,
    default_grid,
    general_eig,
    hull_bk_spectrum,
    lti_srg,
    nrange_boundary,
    srg_complex,
)
from srgraph import cli, srglti, svgfig


def parse_csv(text: str):
    lines = text.splitlines()
    assert lines[0] == "kind,theta,re,im,branch"
    rows = []
    for line in lines[1:]:
        kind, theta, re, im, branch = line.split(",")
        rows.append((kind, float(theta), re, im, branch))
    return rows


def finite_points(rows, kind=None):
    pts = []
    for k, _, re, im, _ in rows:
        if k == "infinity":
            continue
        if kind is not None and k != kind:
            continue
        pts.append(complex(float(re), float(im)))
    return pts


# ---------------------------------------------------------------------------
# Input loaders


def test_matrix_loader_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "re": [[1.0, 0.0]]}))
    with pytest.raises(InputError):
        cli.load_matrix_file(str(bad))
    bad.write_text(json.dumps({"n": 2}))
    with pytest.raises(InputError):
        cli.load_matrix_file(str(bad))
    bad.write_text(json.dumps({"n": 1, "re": [[1.0]], "field": "integer"}))
    with pytest.raises(InputError):
        cli.load_matrix_file(str(bad))
    bad.write_text(
        json.dumps({"n": 1, "re": [[1.0]], "im": [[2.0]], "field": "real"})
    )
    with pytest.raises(InputError):
        cli.load_matrix_file(str(bad))
    bad.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(InputError):
        cli.load_matrix_file(str(bad))
    # n must be a JSON integer: no strings, nulls, floats or booleans.
    for n in ("abc", None, 1.7, True):
        bad.write_text(json.dumps({"n": n, "re": [[1.0]]}))
        with pytest.raises(InputError):
            cli.load_matrix_file(str(bad))


def test_matrix_loader_defaults_to_zero_imaginary(matrix_file):
    path = matrix_file("m.json", [[1.0, 2.0], [3.0, 4.0]])
    matrix, field = cli.load_matrix_file(path)
    assert field == "complex"
    assert np.array_equal(matrix, np.array([[1, 2], [3, 4]], dtype=complex))


def test_tf_loader_validation(tmp_path):
    bad = tmp_path / "tf.json"
    bad.write_text(json.dumps({"num_re": [1.0]}))
    with pytest.raises(InputError):
        cli.load_tf_file(str(bad))
    bad.write_text(json.dumps({"num_re": [1.0], "den_re": [1.0], "num_im": [1.0, 2.0]}))
    with pytest.raises(InputError):
        cli.load_tf_file(str(bad))


# ---------------------------------------------------------------------------
# CSV schema


def test_csv_schema_and_sorting(run_cli, matrix_file):
    path = matrix_file("id2.json", [[1.0, 0.0], [0.0, 1.0]], field="real")
    code, out, _ = run_cli(["matrix", "--input", path])
    assert code == 0
    rows = parse_csv(out)
    assert rows, "no data rows"
    keys = [(theta, branch) for _, theta, _, _, branch in rows]
    assert keys == sorted(keys)
    for kind, _, re, im, branch in rows:
        assert kind == "srg"
        assert branch in ("upper", "lower")
        float(re), float(im)  # both parse as finite floats
        assert math.isfinite(float(re)) and math.isfinite(float(im))


def test_identity_matrix_csv_is_single_repeated_point(run_cli, matrix_file):
    path = matrix_file("id2.json", [[1.0, 0.0], [0.0, 1.0]], field="real")
    code, out, _ = run_cli(["matrix", "--input", path])
    assert code == 0
    pts = finite_points(parse_csv(out))
    assert pts
    assert all(abs(p - 1.0) <= 1e-6 for p in pts)


def test_csv_numbers_roundtrip_at_full_precision(run_cli, matrix_file):
    rng = np.random.default_rng(90)
    m = rng.normal(size=(3, 3))
    path = matrix_file("m.json", m)
    code, out, _ = run_cli(
        ["matrix", "--input", path, "--format", "csv"]
    )
    assert code == 0
    for kind, _, re, im, _ in parse_csv(out):
        if kind == "infinity":
            continue
        # 17 significant digits reproduce the double exactly.
        assert format(float(re), ".17g") == re
        assert format(float(im), ".17g") == im


# ---------------------------------------------------------------------------
# nrange subcommand


def test_nrange_segment_endpoints(run_cli, matrix_file):
    path = matrix_file("d01.json", [[0.0, 0.0], [0.0, 1.0]])
    code, out, _ = run_cli(["nrange", "--input", path])
    assert code == 0
    pts = finite_points(parse_csv(out), kind="support")
    # 720 sweep angles, none refined, since every wedge's bound is 0,
    # one row each; the two angles whose support line touches the whole
    # segment give one point of it, and the endpoints come from the
    # angles beside them.
    assert len(pts) == 720
    assert all(abs(p.imag) <= 1e-9 for p in pts)
    assert min(p.real for p in pts) <= 1e-9
    assert max(p.real for p in pts) >= 1.0 - 1e-9
    assert all(-1e-9 <= p.real <= 1.0 + 1e-9 for p in pts)


def test_nrange_shift_nilpotent_circle(run_cli, matrix_file):
    path = matrix_file("nil.json", [[0.0, 1.0], [0.0, 0.0]])
    code, out, _ = run_cli(["nrange", "--input", path])
    assert code == 0
    pts = finite_points(parse_csv(out), kind="support")
    # The refined sweep: more rows than the 720 start angles.
    assert len(pts) > 720
    assert all(abs(abs(p) - 0.5) <= 1e-9 for p in pts)


def test_nrange_prints_a_certified_boundary(run_cli, matrix_file):
    # The printed support points are refined to the default tolerance:
    # the true support function exceeds that of their hull by at most
    # 1e-8*max(1, largest support value) in every direction.  The bare
    # 720-angle grid misses by about 3e-5 here.
    rng = np.random.default_rng(92)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    path = matrix_file("a.json", a.real, a.imag)
    code, out, _ = run_cli(["nrange", "--input", path])
    assert code == 0
    pts = finite_points(parse_csv(out), kind="support")
    phis = 2 * math.pi * (np.arange(4096) + 0.5 * (math.sqrt(5.0) - 1.0)) / 4096
    h_true = oracles.support_values_ref(a, phis)
    h_hull = oracles.hull_support_many(pts, phis)
    assert float(np.max(h_true - h_hull)) <= 1e-8 * max(1.0, float(np.max(h_true)))


def test_nrange_hermitian_is_real(run_cli, matrix_file):
    rng = np.random.default_rng(91)
    a = rng.normal(size=(4, 4))
    h = (a + a.T) / 2
    path = matrix_file("h.json", h)
    code, out, _ = run_cli(["nrange", "--input", path])
    assert code == 0
    pts = finite_points(parse_csv(out), kind="support")
    assert all(abs(p.imag) <= 1e-10 for p in pts)


def test_nrange_entries_above_1e154_sweep_like_the_scaled_matrix(run_cli, matrix_file):
    # The Frobenius norm of this matrix used to overflow, which made every
    # angle look degenerate: a RuntimeWarning and two rows per angle.
    re_part = np.array([[1e200, 1e200], [0.0, 1.0]])
    im_part = np.array([[0.0, 3e199], [0.0, 0.0]])
    path = matrix_file("big.json", re_part, im=im_part)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["nrange", "--input", path])
    assert (code, err) == (0, "")
    pts = np.array(finite_points(parse_csv(out), kind="support"))
    # The refinement target scales with the matrix, so the sweep takes
    # the angles of the matrix scaled down to unit size, not the
    # millions an absolute 1e-8 would ask for.
    scale = 2.0 ** 664
    unit = nrange_boundary((re_part + 1j * im_part) / scale)
    assert 720 < pts.size <= 2 * unit.angles.size
    assert pts.size == unit.support_points.size
    want = unit.support_points * scale
    assert np.max(np.abs(pts - want)) <= 1e-14 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# matrix subcommand extras


def test_matrix_check_passes_for_shift_nilpotent(run_cli, matrix_file):
    path = matrix_file("nil.json", [[0.0, 1.0], [0.0, 0.0]], field="real")
    code, _, err = run_cli(
        ["matrix", "--input", path, "--check",
         "--samples", "2000", "--seed", "3"]
    )
    assert code == 0
    assert "contained 4000/4000" in err


def test_matrix_check_passes_at_gain_1e8(run_cli, matrix_file):
    # I + T*T has spectrum [2, 1e16] here; S and V come from the SVD of
    # T, so the region is still computed and certified.
    path = matrix_file("big.json", [[1e8, 1.0], [0.0, 1.0]], field="real")
    code, _, err = run_cli(["matrix", "--input", path, "--check", "--seed", "3"])
    assert code == 0
    assert re.search(r"contained (\d+)/\1 ", err)


def test_matrix_check_negative_seed_exits_one_without_traceback(run_cli, matrix_file,
                                                               tmp_path):
    # numpy's generator refuses a negative seed with a raw ValueError;
    # the sampler reports it as an input error, before any output.
    path = matrix_file("nil.json", [[0.0, 1.0], [0.0, 0.0]])
    out = tmp_path / "out.csv"
    code, _, err = run_cli(["matrix", "--input", path, "--check", "--seed", "-1",
                            "--out", str(out)])
    assert code == 1
    assert err.startswith("error: ") and "seed" in err and "Traceback" not in err
    assert not out.exists()


def test_matrix_check_failure_exits_three(run_cli, matrix_file, monkeypatch):
    path = matrix_file("id2.json", [[1.0, 0.0], [0.0, 1.0]])

    def fake_check(samples, region, tol=1e-7):
        return SampleReport(
            total=10, contained=9, max_violation=0.5, worst_point=2.0 + 0j
        )

    monkeypatch.setattr("srgraph.sampler.check_containment", fake_check)
    code, _, err = run_cli(
        ["matrix", "--input", path, "--check"]
    )
    assert code == 3
    assert "contained 9/10" in err


def test_matrix_below_1e154_of_its_spectrum_draws_without_warnings(run_cli, matrix_file, tmp_path):
    # The region of diag(1e-320, 0) has an edge whose squared length
    # underflows to 0; the distance kernels divided by it and printed a
    # RuntimeWarning, which -W error turned into a traceback.
    path = matrix_file("tiny.json", [[1e-320, 0.0], [0.0, 0.0]])
    for fmt in ("svg", "csv"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(["matrix", "--input", path, "--format", fmt, "--spectrum",
                                    "--out", str(tmp_path / f"tiny.{fmt}")])
        assert (code, err) == (0, "")


def test_matrix_spectrum_rows(run_cli, matrix_file):
    path = matrix_file("fig.json", oracles.FIG_MATRIX.real)
    code, out, _ = run_cli(
        ["matrix", "--input", path, "--spectrum"]
    )
    assert code == 0
    rows = parse_csv(out)
    spec = finite_points(rows, kind="spectrum")
    assert len(spec) == 4
    remaining = list(spec)
    for w in oracles.FIG_MATRIX_EIGS:
        g = min(remaining, key=lambda z: abs(z - complex(w)))
        assert abs(g - complex(w)) <= 1e-9
        remaining.remove(g)


# ---------------------------------------------------------------------------
# Byte identity with the per-row reference renderers


def _lti_result(path, grid):
    tf = cli.load_tf_file(path)
    return lti_srg(tf, default_grid(tf, grid))


def test_matrix_spectrum_csv_matches_row_reference(run_cli, matrix_file):
    # The doubled eigenvalue 2 gives spectrum rows with equal sort keys.
    m = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, -1.0]])
    path = matrix_file("m.json", m)
    code, out, _ = run_cli(["matrix", "--input", path, "--spectrum"])
    assert code == 0
    region = srg_complex(m)
    rows = oracles.region_rows_ref(region)
    rows += [("spectrum", 0.0, complex(ev), "") for ev in general_eig(m)]
    assert out == oracles.csv_text_ref(rows)


@pytest.mark.parametrize("num, den", [
    ([1.0, 0.0, 1.0], [1.0, 2.0]),               # improper: infinity markers
    ([1.0, 0.1, 1.0], [1.0, 0.02, 4.0, 0.0]),     # poles at 0 and +-2j
])
def test_lti_csv_matches_row_reference(run_cli, tf_file, num, den):
    path = tf_file("tf.json", num, den)
    code, out, _ = run_cli(["lti", "--tf", path, "--grid", "64"])
    assert code == 0
    result = _lti_result(path, 64)
    assert result.region.at_infinity.any()
    rows = oracles.region_rows_ref(result.region)
    curve = oracles.extended_ref(result.curve, result.curve_at_infinity)
    rows += oracles.indexed_rows_ref("curve", curve, "")
    assert out == oracles.csv_text_ref(rows)
    assert "\ninfinity," in out and "\ncurve," in out


def test_nrange_csv_matches_row_reference(run_cli, matrix_file):
    m = np.diag([1.0, 1.0, 2.0]) + np.diag([0.5j, 0.0], 1)
    path = matrix_file("m.json", m.real, m.imag)
    code, out, _ = run_cli(["nrange", "--input", path])
    assert code == 0
    b = nrange_boundary(m)
    rows = [("support", float(t), complex(p), "")
            for t, p in zip(b.angles, b.support_points)]
    assert out == oracles.csv_text_ref(rows)


def test_csv_signed_zero_ties_keep_input_order():
    rows = [
        ("spectrum", 0.0, complex(0.0, 0.0), ""),
        ("spectrum", -0.0, complex(-0.0, 0.0), ""),
        ("spectrum", 0.0, complex(0.0, -0.0), ""),
        ("spectrum", -0.0, complex(-0.0, -0.0), ""),
        ("srg", 0.0, 1.0 - 0.0j, "lower"),
        ("srg", -0.0, complex(1.0, -0.0), "lower"),
        ("srg", 0.0, 1.0 + 0.0j, "upper"),
        ("curve", 0.0, INFINITY, ""),
        ("curve", -0.0, -0.0 + 2.0j, ""),
        ("curve", 0.5, INFINITY, "upper"),
        ("curve", 0.5, -1e-300 + 1e300j, ""),
        ("spectrum", 0.0, 1.0 + 2.0j, ""),
        ("spectrum", 0.0, 2.0 + 1.0j, ""),
    ]
    for rotated in (rows, rows[::-1], rows[3:] + rows[:3]):
        groups = [cli._columns(k, t, [0j if v is INFINITY else v], np.array([v is INFINITY]), b)
                  for k, t, v, b in rotated]
        assert cli._csv_text(*cli._concat(groups)) == oracles.csv_text_ref(rotated)


def test_lti_svg_with_infinity_breaks_matches_point_reference(run_cli, tf_file, tmp_path):
    path = tf_file("tf.json", [1.0, 0.1, 1.0], [1.0, 0.02, 4.0, 0.0])
    dest = tmp_path / "lti.svg"
    code, _, _ = run_cli(["lti", "--tf", path, "--grid", "64", "--format", "svg",
                          "--out", str(dest)])
    assert code == 0
    result = _lti_result(path, 64)
    assert result.region.at_infinity.any()
    outline = oracles.region_outline_ref(result.region)
    runs = oracles.finite_runs_ref(oracles.extended_ref(result.curve, result.curve_at_infinity))
    assert len(runs) >= 2  # the curve breaks at its poles
    tracked = outline + [p for run in runs for p in run]
    want = [oracles.svg_coords_ref(pts, tracked) for pts in [outline, *runs]]
    assert re.findall(r'points="([^"]*)"', dest.read_text()) == want


def test_svg_coordinates_print_negative_zero_as_zero():
    xs = np.array([-0.0, -4e-5, -5e-5, -6e-5, 0.0, 3.14159, -10.00004, 1e20])
    want = " ".join(f"{oracles.svg_fmt_ref(x)},{oracles.svg_fmt_ref(-x)}" for x in xs)
    assert svgfig._coords(xs, -xs) == want


# ---------------------------------------------------------------------------
# lti subcommand
# ---------------------------------------------------------------------------
# lti subcommand


def test_lti_emit_factor_prints_radicals(run_cli, tf_file):
    path = tf_file("tf.json", [2.0], [1.0, 2.0, 1.0])
    code, out, err = run_cli(
        ["lti", "--tf", path, "--grid", "64", "--emit-factor"]
    )
    assert code == 0
    assert "s_num: 1 2 1" in err
    den_line = next(l for l in err.splitlines() if l.startswith("s_den:"))
    coeffs = [float(tok) for tok in den_line.split(":")[1].split()]
    assert len(coeffs) == 3
    for got, want in zip(coeffs, oracles.FACTOR_DEN_RADICALS):
        assert abs(got - want) <= 1e-9
    assert out.startswith("kind,theta,re,im,branch\n")


def test_lti_computes_without_the_spectral_factor(run_cli, tf_file, monkeypatch):
    # After an --emit-factor run, the reused parser gives a plain run that
    # never calls the factorization, and the same CSV.
    path = tf_file("tf.json", [1.0, 0.1, 1.0], [1.0, 0.02, 4.0, 0.0])
    code, want, err = run_cli(["lti", "--tf", path, "--grid", "64", "--emit-factor"])
    assert code == 0 and "s_den:" in err

    def refuse(tf):
        raise AssertionError("spectral_factorize was called")

    monkeypatch.setattr(srglti, "spectral_factorize", refuse)
    monkeypatch.setattr(cli, "spectral_factorize", refuse)
    code, out, err = run_cli(["lti", "--tf", path, "--grid", "64"])
    assert (code, out, err) == (0, want, "")
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("num, den", [([1e200], [1.0, 1.0]), ([1.0], [1e-200, 1.0])])
def test_lti_extreme_coefficient_scales_exit_zero(run_cli, tf_file, num, den):
    # |a|^2 + |b|^2 overflows or underflows in floating point here; the
    # disk points never form it.
    code, out, err = run_cli(["lti", "--tf", tf_file("tf.json", num, den)])
    assert code == 0 and err == ""
    assert out.startswith("kind,theta,re,im,branch\n")


def test_lti_emit_factor_on_shared_axis_zeros_exits_two(run_cli, tf_file):
    # (s^2+1)/(s^2+1)^2: a and b share the zeros +-i, so no Hurwitz factor
    # exists.  The root finder splits the double roots of a~a + b~b off
    # the axis; the factor used to be printed with imaginary dust.
    path = tf_file("tf.json", [1.0, 0.0, 1.0], [1.0, 0.0, 2.0, 0.0, 1.0])
    code, _, err = run_cli(["lti", "--tf", path, "--emit-factor"])
    assert code == 2
    assert err.startswith("numerical error: ") and "imaginary-axis zero" in err
    assert "s_den" not in err and "Traceback" not in err
    # Without the flag the SRG of 1/(s^2+1) is still computed.
    code, out, err = run_cli(["lti", "--tf", path])
    assert (code, err) == (0, "")
    assert out.startswith("kind,theta,re,im,branch\n")


@pytest.mark.parametrize("num, den", [([1e200], [1.0, 1.0]), ([1.0], [1e-200, 1.0])])
def test_lti_emit_factor_out_of_range_exits_two(run_cli, tf_file, num, den):
    # The same inputs with --emit-factor: a~a + b~b overflows or loses its
    # leading coefficient, which is a numerical failure, not bad input.
    code, _, err = run_cli(["lti", "--tf", tf_file("tf.json", num, den), "--emit-factor"])
    assert code == 2
    assert err.startswith("numerical error: ") and "Traceback" not in err


def test_lti_constant_is_single_point(run_cli, tf_file):
    path = tf_file("const.json", [1.0], [1.0])
    code, out, _ = run_cli(["lti", "--tf", path, "--grid", "16"])
    assert code == 0
    rows = parse_csv(out)
    assert all(kind != "infinity" for kind, *_ in rows)
    srg_pts = finite_points(rows, kind="srg")
    assert srg_pts
    assert all(abs(p - 1.0) <= 1e-6 for p in srg_pts)


def test_lti_improper_emits_infinity_markers(run_cli, tf_file):
    path = tf_file("imp.json", [1.0, 0.0], [1.0])
    code, out, _ = run_cli(["lti", "--tf", path, "--grid", "16"])
    assert code == 0
    lines = out.splitlines()
    markers = [ln for ln in lines if ln.startswith("infinity,")]
    # One per branch at the hull's contact with the disk rim, one on
    # the spectrum curve at omega = infinity.
    assert len(markers) == 3
    for ln in markers:
        kind, _, re, im, _ = ln.split(",")
        assert re == "" and im == ""
    assert "inf" not in out.replace("infinity", "")
    assert "nan" not in out


def test_lti_curve_rows_match_frequency_response(run_cli, tf_file):
    path = tf_file("tf.json", [2.0], [1.0, 2.0, 1.0])
    code, out, _ = run_cli(["lti", "--tf", path, "--grid", "32"])
    assert code == 0
    curve = finite_points(parse_csv(out), kind="curve")
    assert curve
    # Static gain h(0) = 2 appears on the curve.
    assert min(abs(p - 2.0) for p in curve) <= 1e-12


# ---------------------------------------------------------------------------
# Exit codes


def test_exit_one_on_missing_file(run_cli, tmp_path):
    code, _, err = run_cli(["matrix", "--input", str(tmp_path / "nope.json")])
    assert code == 1
    assert "error" in err.lower()


def test_exit_one_on_malformed_json(run_cli, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(["matrix", "--input", str(path)])
    assert code == 1


def test_exit_one_on_shape_mismatch(run_cli, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "re": [[1.0, 0.0], [0.0, 1.0]]}))
    code, _, err = run_cli(["matrix", "--input", str(path)])
    assert code == 1
    assert "3x3" in err


def test_exit_one_on_sizes_above_the_limits(run_cli, matrix_file, tf_file, tmp_path):
    # Checked before any allocation, and before any output is written.
    dest = tmp_path / "out.csv"
    path = matrix_file("m.json", np.eye(2))
    code, _, err = run_cli(["matrix", "--input", path, "--check", "--samples", str(10**12),
                            "--out", str(dest)])
    assert code == 1 and "count" in err
    path = tf_file("tf.json", [1.0], [1.0, 1.0])
    code, _, err = run_cli(["lti", "--tf", path, "--grid", str(10**12), "--out", str(dest)])
    assert code == 1 and "1048576" in err
    assert not dest.exists()


def test_exit_two_on_degenerate_factorization(run_cli, tf_file):
    path = tf_file("dg.json", [1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0])
    code, _, err = run_cli(["lti", "--tf", path])
    assert code == 2
    assert "imaginary-axis" in err


def test_exit_two_on_disk_inverse_overflow(run_cli, matrix_file, tf_file):
    # A gain of 1e9 puts the disk points within 1 ulp of w = 1 but off
    # the point at infinity; both front ends report a typed error.
    path = matrix_file("big.json", [[1e9]], field="real")
    code, _, err = run_cli(["matrix", "--input", path])
    assert code == 2
    assert err.startswith("numerical error: ") and "Traceback" not in err
    path = tf_file("big.json", [1e9], [1.0, 1.0])
    code, _, err = run_cli(["lti", "--tf", path])
    assert code == 2
    assert err.startswith("numerical error: ") and "Traceback" not in err


@pytest.mark.parametrize("re_part,im_part", [([[0.0]], [[2e6]]), ([[1e13]], None),
                                          ([[1e200]], None)])
def test_exit_two_when_a_matrix_maps_to_infinity(run_cli, matrix_file, tmp_path,
                                                 re_part, im_part):
    # The disk points of these bounded matrices fall in the ball around
    # w = 1 whose preimage is the point at infinity; printing infinity
    # rows for a bounded operator would be wrong, so the run fails.
    path = matrix_file("big.json", re_part, im=im_part)
    out = tmp_path / "out.csv"
    code, _, err = run_cli(["matrix", "--input", path, "--check", "--out", str(out)])
    assert code == 2
    assert err.startswith("numerical error: ") and "point at infinity" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_exit_two_on_lti_overflow_without_warnings(run_cli, tf_file):
    # The numerator values of 1e305 s^3/(s+1) overflow on the grid: a
    # typed error that names the frequency, and no numpy RuntimeWarning
    # on the way.
    path = tf_file("overflow.json", [1e305, 0.0, 0.0, 0.0], [1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(["lti", "--tf", path])
    assert code == 2
    assert err.startswith("numerical error: ") and "at omega = " in err
    assert "RuntimeWarning" not in err and "Traceback" not in err
    # The pole of 1/(1e-320 s + 1) is at -1e320: the root finder's
    # companion matrix is not finite.
    path = tf_file("tiny.json", [1.0], [1e-320, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(["lti", "--tf", path])
    assert code == 2
    assert err.startswith("numerical error: ") and err.count("\n") == 1


def test_exit_one_on_usage_errors(run_cli):
    code, _, _ = run_cli(["matrix"])  # missing required --input
    assert code == 1
    code, _, _ = run_cli(["matrix", "--input", "x.json", "--format", "png"])
    assert code == 1
    code, _, _ = run_cli(["frobnicate"])
    assert code == 1
    # The sweep has no angle count to set.
    for sub in ("matrix", "nrange"):
        code, _, _ = run_cli([sub, "--input", "x.json", "--angles", "64"])
        assert code == 1


def test_version_exits_zero(run_cli):
    code, out, _ = run_cli(["--version"])
    assert code == 0
    assert out.startswith("srg ")


# ---------------------------------------------------------------------------
# Determinism and SVG structure


def test_repeated_runs_are_byte_identical(run_cli, matrix_file, tmp_path):
    path = matrix_file("m.json", [[0.0, 1.0], [0.0, 0.0]], field="real")
    outs = []
    for name in ("a.csv", "b.csv"):
        dest = tmp_path / name
        code, _, _ = run_cli(
            ["matrix", "--input", path, "--out", str(dest)]
        )
        assert code == 0
        outs.append(dest.read_bytes())
    assert outs[0] == outs[1]

    svgs = []
    for name in ("a.svg", "b.svg"):
        dest = tmp_path / name
        code, _, _ = run_cli(
            ["matrix", "--input", path, "--format", "svg",
             "--spectrum", "--out", str(dest)]
        )
        assert code == 0
        svgs.append(dest.read_bytes())
    assert svgs[0] == svgs[1]


def test_matrix_svg_spectrum_solves_the_eigenproblem_once(run_cli, matrix_file, tmp_path,
                                                          monkeypatch):
    m = np.array([[1.0, -2.0, 0.5], [2.0, 1.0, 0.0], [0.0, 0.3, -1.0]])
    path = matrix_file("spec.json", m)
    calls, eigvals = [], np.linalg.eigvals

    def counted(a):
        calls.append(np.array_equal(a, m))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    dest = tmp_path / "spec.svg"
    code, _, _ = run_cli(["matrix", "--input", path, "--format", "svg",
                          "--spectrum", "--out", str(dest)])
    assert code == 0
    assert calls.count(True) == 1
    monkeypatch.undo()
    # The figure assembled from hull_bk_spectrum and a second eigensolve.
    fig = svgfig.SvgFigure(title="srg")
    fig.add_polygon(cli._region_outline(cli.srg_real(m)),
                    fill=svgfig.REGION_FILL, stroke=svgfig.REGION_EDGE)
    fig.add_polygon(cli._region_outline(hull_bk_spectrum(m)), fill=svgfig.HULL_FILL,
                    stroke=svgfig.HULL_EDGE, opacity=0.9)
    for ev in general_eig(m).tolist():
        fig.add_dot(ev)
    assert dest.read_text() == fig.render()


def test_svg_is_self_contained(run_cli, matrix_file, tmp_path):
    path = matrix_file("fig.json", oracles.FIG_MATRIX.real)
    dest = tmp_path / "fig.svg"
    code, _, _ = run_cli(
        ["matrix", "--input", path, "--format", "svg",
         "--spectrum", "--out", str(dest)]
    )
    assert code == 0
    svg = dest.read_text()
    assert svg.startswith("<?xml") or svg.startswith("<svg")
    assert "<svg" in svg and "</svg>" in svg
    assert "<polygon" in svg
    assert svg.count("<circle") == 4  # one dot per eigenvalue
    # No external references: the only URL is the xmlns declaration.
    assert "href" not in svg
    assert "url(" not in svg
    assert "<image" not in svg
    assert svg.count("http") == svg.count("http://www.w3.org/2000/svg")


def test_lti_svg_has_region_and_curve(run_cli, tf_file, tmp_path):
    path = tf_file("tf.json", [2.0], [1.0, 2.0, 1.0])
    dest = tmp_path / "lti.svg"
    code, _, _ = run_cli(
        ["lti", "--tf", path, "--grid", "64", "--format", "svg",
         "--out", str(dest)]
    )
    assert code == 0
    svg = dest.read_text()
    assert "<polygon" in svg
    assert "<polyline" in svg


def test_stdout_output_with_dash(run_cli, matrix_file):
    path = matrix_file("id1.json", [[2.0]])
    code, out, _ = run_cli(["matrix", "--input", path, "--out", "-"])
    assert code == 0
    assert out.startswith("kind,theta,re,im,branch\n")
