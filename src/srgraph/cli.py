"""Command-line front end: subcommands matrix, lti, and nrange.

Inputs are JSON files (real/imaginary parts as separate arrays, so no
complex-literal parsing is needed); outputs are CSV boundary data with
the fixed header ``kind,theta,re,im,branch`` or a self-contained SVG
figure.  Exit codes: 0 success, 1 input/parse errors, 2 numerical
failures, 3 validation (--check) failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__, cgeom, sampler, svgfig
from .errors import InputError, NumericalError
from .linalg import general_eig
from .nrange import nrange_boundary
from .srglti import default_grid, lti_srg, rational_tf, spectral_factorize
from .srgmatrix import srg_complex, srg_real

CSV_HEADER = "kind,theta,re,im,branch"


# ---------------------------------------------------------------------------
# Input files
# ---------------------------------------------------------------------------


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _as_real_array(value, what: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must be a numeric array") from exc
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{what} must contain only finite numbers")
    return arr


def load_matrix_file(path: str) -> tuple[np.ndarray, str]:
    """Read a matrix JSON file; returns (matrix, field)."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise InputError("matrix file must be a JSON object")
    try:
        n = data["n"]
        re = _as_real_array(data["re"], "re")
    except KeyError as exc:
        raise InputError(f"matrix file is missing the {exc.args[0]!r} entry") from exc
    if isinstance(n, bool) or not isinstance(n, int):
        raise InputError(f"n must be an integer, got {n!r}")
    if re.shape != (n, n):
        raise InputError(f"re must be a {n}x{n} array")
    if "im" in data and data["im"] is not None:
        im = _as_real_array(data["im"], "im")
        if im.shape != (n, n):
            raise InputError(f"im must be a {n}x{n} array")
    else:
        im = np.zeros((n, n))
    field = data.get("field", "complex")
    if field not in ("real", "complex"):
        raise InputError("field must be 'real' or 'complex'")
    if field == "real" and np.any(im != 0.0):
        raise InputError("field 'real' requires im to be absent or all zero")
    return re + 1j * im, field


def load_tf_file(path: str):
    """Read a transfer-function JSON file; returns a RationalTF."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise InputError("transfer-function file must be a JSON object")
    try:
        num_re = _as_real_array(data["num_re"], "num_re").ravel()
        den_re = _as_real_array(data["den_re"], "den_re").ravel()
    except KeyError as exc:
        raise InputError(f"tf file is missing the {exc.args[0]!r} entry") from exc

    def _combine(re_part, key):
        if key in data and data[key] is not None:
            im_part = _as_real_array(data[key], key).ravel()
            if im_part.shape != re_part.shape:
                raise InputError(f"{key} must match its real part in length")
            return re_part + 1j * im_part
        return re_part.astype(np.complex128)

    num = _combine(num_re, "num_im")
    den = _combine(den_re, "den_im")
    return rational_tf(num.tolist(), den.tolist())


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _write_text(path: str, text: str) -> None:
    """Write atomically (temp file + rename); '-' streams to stdout."""
    if path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".srg-", dir=directory, text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _columns(kind: str, theta, values, branch: str):
    """CSV columns (kind, theta, re, im, branch, infinite) of rows that
    share one kind and one branch; theta may be a scalar."""
    zs, infinite = cgeom.split_infinity(values)
    theta = np.broadcast_to(np.asarray(theta, dtype=np.float64), zs.shape)
    return (np.full(zs.size, kind), theta, zs.real, zs.imag, np.full(zs.size, branch),
            infinite)


def _concat(groups):
    """Join column groups, in order, into one set of columns."""
    return tuple(np.concatenate(cols) for cols in zip(*groups))


def _region_columns(region: cgeom.SrgRegion):
    """CSV columns of both branches; point j of a branch sits at 2*pi*j/count."""
    count = max(1, len(region.upper_branch))
    theta = 2.0 * math.pi * np.arange(len(region.upper_branch)) / count
    return [_columns("srg", theta, region.upper_branch, "upper"),
            _columns("srg", theta, region.lower_branch, "lower")]


def _csv_text(kind, theta, re, im, branch, infinite) -> str:
    """Render CSV rows given as columns, sorted by theta, branch, kind, re,
    then im (stable, so exact ties keep their input order).  Rows under
    the infinite mask become kind=infinity marker rows with empty re/im,
    never float infinities.
    """
    kind = np.where(infinite, "infinity", kind)
    re = np.where(infinite, math.inf, re)
    im = np.where(infinite, math.inf, im)
    # String columns become codes whose order is their sort order.
    kinds, kind_code = np.unique(kind, return_inverse=True)
    branches, branch_code = np.unique(branch, return_inverse=True)
    order = np.lexsort((im, re, kind_code, branch_code, theta))
    theta, re, im, finite = (col[order] for col in (theta, re, im, ~infinite))
    # A region's conjugate rows end up next to each other and share theta,
    # re and |im|, so each run of bitwise-equal triples is formatted once,
    # in one %-operation ('%.17g' % x == format(x, '.17g')).
    nums = np.stack((theta, re, np.abs(im)), axis=1)
    bits = nums.view(np.int64)
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(bits[1:] != bits[:-1], axis=1)
    runs = nums[first].ravel().tolist()
    text = ("%.17g\n" * len(runs) % tuple(runs)).split("\n")[:-1]
    numbers = np.array(text, dtype=object).reshape(-1, 3)[np.cumsum(first) - 1]
    # Each row's line template carries its kind, its branch and the sign
    # of im; the numbers fill it in: theta, re and |im|, or theta alone.
    templates = np.array([f"{k},{cells},{b}" for k in kinds.tolist() for b in branches.tolist()
                          for cells in ("%s,%s,%s", "%s,%s,-%s", "%s,,")], dtype=object)
    state = np.where(finite, np.signbit(im) & ~np.isnan(im), 2)
    rows = templates[(kind_code[order] * branches.size + branch_code[order]) * 3 + state]
    keep = np.ones(numbers.shape, dtype=bool)
    keep[:, 1:] = finite[:, None]
    body = "\n".join(rows.tolist()) % tuple(numbers[keep].tolist())
    return CSV_HEADER + "\n" + body + ("\n" if body else "")


def _finite_runs(points) -> list[np.ndarray]:
    """Split a point sequence at INFINITY into runs of at least 2 finite values."""
    zs, infinite = cgeom.split_infinity(points)
    cuts = np.flatnonzero(infinite)
    runs = np.split(zs, cuts)
    # Every run after the first starts with the infinite point it was cut at.
    runs = runs[:1] + [run[1:] for run in runs[1:]]
    return [run for run in runs if run.size >= 2]


def _region_outline(region: cgeom.SrgRegion) -> np.ndarray:
    upper, up_inf = cgeom.split_infinity(region.upper_branch)
    lower, lo_inf = cgeom.split_infinity(region.lower_branch[::-1])
    return np.concatenate((upper[~up_inf], lower[~lo_inf]))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_srg_matrix(args) -> int:
    matrix, field = load_matrix_file(args.input)
    region = srg_real(matrix) if field == "real" else srg_complex(matrix)
    if args.check:
        # Drawn before any output is written, so that a bad --samples or
        # --seed leaves none.
        samples = sampler.sample_srg(matrix, field=field, count=args.samples,
                                     seed=args.seed)

    if args.format == "csv":
        groups = _region_columns(region)
        if args.spectrum:
            groups.append(_columns("spectrum", 0.0, general_eig(matrix), ""))
        text = _csv_text(*_concat(groups))
    else:
        fig = svgfig.SvgFigure(title="srg")
        fig.add_polygon(_region_outline(region), fill=svgfig.REGION_FILL,
                        stroke=svgfig.REGION_EDGE)
        if args.spectrum:
            eigs = general_eig(matrix).tolist()
            fig.add_polygon(_region_outline(cgeom.hull_bk(eigs)), fill=svgfig.HULL_FILL,
                            stroke=svgfig.HULL_EDGE, opacity=0.9)
            for ev in eigs:
                fig.add_dot(ev)
        text = fig.render()
    _write_text(args.out, text)

    if args.check:
        report = sampler.check_containment(samples, region, tol=1e-7)
        print(
            f"check: contained {report.contained}/{report.total} "
            f"(max violation {report.max_violation:.3e}, prng {report.generator})",
            file=sys.stderr,
        )
        if report.contained != report.total:
            return 3
    return 0


def cmd_srg_lti(args) -> int:
    tf = load_tf_file(args.tf)
    if args.emit_factor:
        factor = spectral_factorize(tf)
        for name, coeffs in (("s_num", factor.s_num), ("s_den", factor.s_den)):
            text = " ".join(_fmt17(c.real) + ("" if c.imag == 0 else f"{c.imag:+.17g}j")
                            for c in coeffs)
            print(f"{name}: {text}", file=sys.stderr)
    result = lti_srg(tf, default_grid(tf, args.grid))

    if args.format == "csv":
        groups = _region_columns(result.region)
        count = max(1, len(result.curve))
        theta = 2.0 * math.pi * np.arange(len(result.curve)) / count
        groups.append(_columns("curve", theta, result.curve, ""))
        text = _csv_text(*_concat(groups))
    else:
        fig = svgfig.SvgFigure(title="srg-lti")
        fig.add_polygon(_region_outline(result.region), fill=svgfig.HULL_FILL,
                        stroke=svgfig.HULL_EDGE, opacity=0.9)
        for run in _finite_runs(result.curve):
            fig.add_polyline(run)
        text = fig.render()
    _write_text(args.out, text)
    return 0


def cmd_nrange(args) -> int:
    matrix, _ = load_matrix_file(args.input)
    boundary = nrange_boundary(matrix)
    if args.format == "csv":
        text = _csv_text(*_columns("support", boundary.angles, boundary.support_points, ""))
    else:
        fig = svgfig.SvgFigure(title="nrange")
        fig.add_polygon(boundary.hull.vertices, fill=svgfig.HULL_FILL,
                        stroke=svgfig.HULL_EDGE, opacity=0.9)
        pts = boundary.support_points
        if len(pts) >= 2:
            fig.add_polyline(np.append(pts, pts[:1]), stroke=svgfig.CURVE_COLOR,
                             stroke_width=1.0)
        else:
            fig.add_dot(pts[0])
        text = fig.render()
    _write_text(args.out, text)
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srg",
        description="Scaled relative graphs of matrices and rational "
                    "transfer functions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # The options every subcommand shares.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--version", action="version", version=f"srg {__version__}")
    common.add_argument("--out", default="-", help="output path, or - for stdout")
    common.add_argument("--format", choices=("csv", "svg"), default="csv")

    matrix = sub.add_parser("matrix", parents=[common], help="SRG of a dense matrix")
    matrix.add_argument("--input", required=True, help="matrix JSON file")
    matrix.add_argument("--spectrum", action="store_true",
                        help="overlay the spectral hull and eigenvalues")
    matrix.add_argument("--check", action="store_true",
                        help="validate against direct SRG sampling")
    matrix.add_argument("--samples", type=int, default=10000)
    matrix.add_argument("--seed", type=int, default=1)
    matrix.set_defaults(func=cmd_srg_matrix)

    lti = sub.add_parser("lti", parents=[common], help="SRG of a rational transfer function")
    lti.add_argument("--tf", required=True, help="transfer-function JSON file")
    lti.add_argument("--grid", type=int, default=512)
    lti.add_argument("--emit-factor", action="store_true",
                     help="print the spectral factor coefficients to stderr")
    lti.set_defaults(func=cmd_srg_lti)

    nra = sub.add_parser("nrange", parents=[common],
                         help="numerical-range boundary of a matrix")
    nra.add_argument("--input", required=True, help="matrix JSON file")
    nra.set_defaults(func=cmd_nrange)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 2 reserved for numerical
        # failures and report bad invocations as input errors instead.
        if exc.code not in (0, None):
            raise SystemExit(1) from None
        raise
    try:
        return args.func(args)
    except BrokenPipeError:
        # Reader closed the pipe (e.g. piping --out - into head); exit
        # quietly without tripping another pipe error during shutdown.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (InputError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
