"""SRG of the multiplication operator of a scalar rational transfer function.

h(omega) = b(i*omega)/a(i*omega) acts by multiplication on frequency
components.  The operator is normal, so each frequency contributes the
single disk point

    f(h(omega)) = (|b|^2 - |a|^2 - 2i*Re(conj(a) b)) / (|a|^2 + |b|^2),

evaluated pole-safely from the raw polynomial values, and the SRG is
the hyperbolic hull of these points over a frequency grid that includes
omega = infinity and any imaginary-axis poles.

The spectral factor s = a/c, with a*~a + b*~b = c*~c and Hurwitz c (~ is
the paraconjugate), satisfies |s|^2 (1 + |h|^2) = 1; it cancels out of
the disk point, so the SRG does not need it.  spectral_factorize computes
it for callers that want its coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cgeom
from .cgeom import INFINITY, ExtComplex
from .errors import FactorizationDegenerateError, InputError, NumericalError
from .linalg import poly_roots

# Relative half-plane tolerance when classifying roots of the factored
# even polynomial; companion-matrix roots at these degrees are accurate
# to ~1e-10, so 1e-8 separates the axis safely.
AXIS_TOL = 1e-8
# Largest n default_grid takes; the CLI's CSV output of srg lti holds
# about 1 KB per grid point at peak.
_MAX_GRID = 1 << 20


def _coeff_tuple(coeffs, what: str) -> tuple[complex, ...]:
    try:
        arr = [complex(c) for c in coeffs]
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must be a sequence of numbers") from exc
    if not arr:
        raise InputError(f"{what} must have at least one coefficient")
    if any(not (math.isfinite(c.real) and math.isfinite(c.imag)) for c in arr):
        raise InputError(f"{what} coefficients must be finite")
    while len(arr) > 1 and arr[0] == 0:
        arr.pop(0)
    return tuple(arr)


@dataclass(frozen=True)
class RationalTF:
    """Scalar rational transfer function, coefficients leading first.

    num/den are stored trimmed of leading zeros; the zero numerator is
    allowed (the zero transfer function), a zero denominator is not.
    """

    num: tuple[complex, ...]
    den: tuple[complex, ...]

    @property
    def degree_num(self) -> int:
        if self.is_zero:
            return -1
        return len(self.num) - 1

    @property
    def degree_den(self) -> int:
        return len(self.den) - 1

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.num)


def rational_tf(num, den) -> RationalTF:
    """Validate and trim coefficient lists into a RationalTF."""
    num_t = _coeff_tuple(num, "numerator")
    den_t = _coeff_tuple(den, "denominator")
    if all(c == 0 for c in den_t):
        raise InputError("denominator must not be the zero polynomial")
    return RationalTF(num=num_t, den=den_t)


def _paraconjugate(coeffs: np.ndarray) -> np.ndarray:
    """p~(s) = conj-coefficients of p evaluated at -s, leading first."""
    out = np.conj(np.asarray(coeffs, dtype=np.complex128))
    # Leading first: the odd powers are every other entry back from the
    # second to last.
    out[-2::-2] = -out[-2::-2]
    return out


@dataclass(frozen=True)
class SpectralFactor:
    """Stable factor s = s_num/s_den with |s|^2 (1 + |h|^2) = 1.

    s_num is the denominator of h; s_den is Hurwitz (all roots in the
    open left half-plane) with a positive real leading coefficient.
    """

    s_num: tuple[complex, ...]
    s_den: tuple[complex, ...]


def spectral_factorize(tf: RationalTF) -> SpectralFactor:
    """Factor a~a + b~b = c~c with Hurwitz c; return s = a/c.

    The even polynomial a~a + b~b is nonnegative on the imaginary axis
    and its roots come in (r, -conj(r)) pairs; c collects the open
    left-half-plane roots, scaled by the positive gain sqrt(|p_0|), p_0
    the leading coefficient of a~a + b~b, which is |c_0|^2 exactly since
    its top-degree terms never cancel.  A root on the axis itself means
    a and b share an imaginary-axis zero, which has no stable
    factorization.

    Both coefficient arrays of the result are divided by the modulus
    of the denominator's leading coefficient, so s_den depends only on
    the function h itself: rescaling num and den by a common constant
    leaves s_den unchanged and moves only a unimodular factor onto
    s_num.
    """
    a = np.asarray(tf.den, dtype=np.complex128)
    b = np.asarray(tf.num, dtype=np.complex128)
    norm = abs(complex(tf.den[0]))
    m = max(tf.degree_den, tf.degree_num if not tf.is_zero else 0)
    if m == 0:
        gain = math.hypot(abs(a[0]), abs(b[0]))
        return SpectralFactor(
            s_num=tuple(complex(x) / norm for x in tf.den),
            s_den=(complex(gain / norm),),
        )

    p = np.polyadd(np.polymul(a, _paraconjugate(a)), np.polymul(b, _paraconjugate(b)))
    if not (np.all(np.isfinite(p)) and p[0] != 0):
        raise NumericalError(
            f"a~a + b~b is not finite with degree {2 * m} in floating point; "
            "the coefficients are out of range for a spectral factor")
    roots = poly_roots(p)
    lhp = []
    for r in roots:
        r = complex(r)
        if abs(r.real) <= AXIS_TOL * max(1.0, abs(r)):
            raise FactorizationDegenerateError(
                "numerator and denominator share an imaginary-axis zero "
                f"near s = {r:.6g}; no stable spectral factor exists"
            )
        if r.real < 0:
            lhp.append(r)
    # A zero that a and b share on the axis is a multiple root of p,
    # which the root finder may split off the axis by 1e-8 or more, past
    # the test above.  The mean of such a cluster is accurate to round-off,
    # so a and b are tested at the mean of each root's cluster (the roots
    # within twice its nearest neighbour's distance) with the tolerance
    # _response uses for a shared zero.
    gaps = np.abs(roots[:, None] - roots[None, :])
    cluster = gaps <= 2.0 * np.min(gaps + np.diag(np.full(roots.size, np.inf)), axis=1)[:, None]
    omegas = (cluster @ roots).imag / np.count_nonzero(cluster, axis=1)
    shared = ((np.abs(np.polyval(a, 1j * omegas)) <= _pole_tol(tf.den, omegas))
              & (np.abs(np.polyval(b, 1j * omegas)) <= _pole_tol(tf.num, omegas)))
    if shared.any():
        raise FactorizationDegenerateError(
            "numerator and denominator share an imaginary-axis zero near "
            f"s = {float(omegas[np.argmax(shared)]):.6g}j; no stable spectral factor exists")
    if len(lhp) != m:
        raise NumericalError(
            f"spectral factor degree bookkeeping failed: expected {m} stable "
            f"roots, found {len(lhp)}"
        )
    c_monic = np.poly(np.array(lhp, dtype=np.complex128))
    c_arr = (math.sqrt(abs(p[0])) / norm) * c_monic
    if all(x.imag == 0 for x in tf.num) and all(x.imag == 0 for x in tf.den):
        # Real data gives a conjugate-symmetric stable root set, so the
        # factor is real up to root-finder round-off; drop the dust.
        if float(np.max(np.abs(c_arr.imag))) <= 1e-9 * float(np.max(np.abs(c_arr))):
            c_arr = c_arr.real.astype(np.complex128)
    c = tuple(complex(x) for x in c_arr)
    return SpectralFactor(
        s_num=tuple(complex(x) / norm for x in tf.den), s_den=c
    )


def _frequency(omega) -> float:
    """omega as a float, inf for INFINITY; InputError for anything else
    that is not a real number."""
    if cgeom.is_infinity(omega):
        return math.inf
    try:
        return float(omega)
    except (TypeError, ValueError) as exc:
        raise InputError(f"a frequency must be a real number or INFINITY, got {omega!r}") from exc


def _pole_tol(coeffs: tuple[complex, ...], omegas: np.ndarray) -> np.ndarray:
    scale = max(abs(c) for c in coeffs)
    return 1e-12 * scale * np.maximum(1.0, np.abs(omegas)) ** (len(coeffs) - 1)


def _response(tf: RationalTF, omegas):
    """Array kernel of tf_value and lti_disk_point at finite frequencies.

    Returns the values of h = b/a, the mask of the imaginary-axis poles
    (|a(i omega)| within _pole_tol of 0, where h is infinite and its
    values are meaningless) and the disk points f(h) of the module
    docstring, from a and b scaled by max(|a|, |b|) so the squares stay
    finite, with the disk point 1 at the poles.  In grid order, the
    first frequency where a and b both vanish within their tolerances
    raises FactorizationDegenerateError, and the first where a
    polynomial value, h or the disk point is not finite in floating
    point raises NumericalError.
    """
    w = np.asarray(omegas, dtype=float).ravel()
    s = 1j * w
    with np.errstate(all="ignore"):
        av = np.polyval(np.asarray(tf.den), s)
        bv = np.polyval(np.asarray(tf.num), s)
        abs_a, abs_b = np.abs(av), np.abs(bv)
        tol = _pole_tol(tf.den, w)
        pole = abs_a <= tol
        shared = pole & (abs_b <= _pole_tol(tf.num, w))
        curve = bv / av
        scale = np.maximum(abs_a, abs_b)
        ar, ai, br, bi = av.real / scale, av.imag / scale, bv.real / scale, bv.imag / scale
        a2, b2 = ar * ar + ai * ai, br * br + bi * bi
        disk = (b2 - a2 - 2j * (ar * br + ai * bi)) / (a2 + b2)
        disk[pole] = 1.0
        ok = pole | (np.isfinite(av) & np.isfinite(bv) & np.isfinite(curve))
        ok &= np.isfinite(disk) & np.isfinite(tol)
    bad = shared | ~ok
    if bad.any():
        k = int(np.argmax(bad))
        if shared[k]:
            raise FactorizationDegenerateError(
                "numerator and denominator share an imaginary-axis zero at "
                f"omega = {float(w[k])!r}; the disk point is 0/0")
        raise NumericalError(
            "h or its disk point is not finite in floating point at "
            f"omega = {float(w[k])!r}")
    return curve, pole, cgeom._clamp_disk_array(disk)


def _value_at_infinity(tf: RationalTF) -> ExtComplex:
    """h(infinity): infinity if the numerator degree is larger, 0 if
    smaller, the leading-coefficient ratio if equal."""
    q, deg_p = tf.degree_num, tf.degree_den
    if q > deg_p:
        return INFINITY
    if q < deg_p:
        return 0j
    h = complex(tf.num[0] / tf.den[0])
    if not (math.isfinite(h.real) and math.isfinite(h.imag)):
        raise NumericalError(f"h is not finite in floating point at omega = {INFINITY!r}")
    return h


def tf_value(tf: RationalTF, omega) -> ExtComplex:
    """h(omega) as an extended complex number.

    Imaginary-axis poles return infinity; omega = infinity follows the
    degree rules (infinity if the numerator degree is larger, 0 if
    smaller, the leading-coefficient ratio if equal).  A zero shared by
    numerator and denominator raises FactorizationDegenerateError.
    """
    w = _frequency(omega)
    if math.isinf(w):
        return _value_at_infinity(tf)
    curve, pole, _ = _response(tf, [w])
    return INFINITY if pole[0] else complex(curve[0])


def lti_disk_point(tf: RationalTF, omega) -> complex:
    """The disk point f(h(omega)), evaluated pole-safely.

    Uses (|b|^2 - |a|^2 - 2i Re(conj(a) b)) / (|a|^2 + |b|^2) with the
    raw numerator/denominator values b and a, so imaginary-axis poles
    land exactly on f(infinity) = 1 instead of overflowing.
    """
    w = _frequency(omega)
    if math.isinf(w):
        return cgeom.bk_forward(_value_at_infinity(tf))
    return complex(_response(tf, [w])[2][0])


@dataclass(frozen=True)
class FreqGrid:
    """Finite ascending deduplicated frequencies; lti_srg adds infinity."""

    omegas: tuple[float, ...]


def freq_grid(omegas) -> FreqGrid:
    """Sort, deduplicate, and validate a frequency list."""
    try:
        vals = [float(w) for w in omegas]
    except (TypeError, ValueError) as exc:
        raise InputError("a frequency grid must be a sequence of real numbers") from exc
    if not vals:
        raise InputError("frequency grid must be non-empty")
    if any(not math.isfinite(w) for w in vals):
        raise InputError("grid frequencies must be finite; infinity is always included")
    return FreqGrid(omegas=tuple(sorted(set(vals))))


def _axis_poles(tf: RationalTF) -> list[float]:
    if len(tf.den) < 2:
        return []
    poles = []
    for r in poly_roots(np.asarray(tf.den)):
        r = complex(r)
        if abs(r.real) <= AXIS_TOL * max(1.0, abs(r)):
            poles.append(float(r.imag))
    return sorted(set(poles))


def default_grid(tf: RationalTF, n: int = 512) -> FreqGrid:
    """Projective frequency grid: tan-spaced to cover all magnitudes.

    omega_k = tan(pi (2k - n) / (2n + 2)) for k = 0..n (lti_srg adds
    infinity); imaginary-axis poles of h are inserted exactly, with
    symmetric neighborhoods so the curve's approach to them is sampled.
    n must be an integer from 16 to 2**20 (1,048,576); anything else
    raises InputError before any allocation.
    """
    if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
            or not 16 <= n <= _MAX_GRID):
        raise InputError(f"default grid needs an integer n from 16 to {_MAX_GRID}, got {n!r}")
    omegas = [math.tan(math.pi * (2 * k - n) / (2 * n + 2)) for k in range(n + 1)]
    for wp in _axis_poles(tf):
        omegas.append(wp)
        for delta in (1e-2, 1e-3, 1e-4):
            step = delta * max(1.0, abs(wp))
            omegas.extend((wp - step, wp + step))
    return freq_grid(omegas)


@dataclass(frozen=True, eq=False)
class LtiSrg:
    """SRG of a transfer function plus the raw data behind it, as arrays.

    region is the SRG proper.  omegas is the float grid, ending in
    inf for omega = infinity.  curve is the frequency response
    h(omega) over it (the spectrum of the multiplication operator,
    useful for plotting), with curve_at_infinity marking where h is
    infinite and the values are 0.  disk_points are the mapped grid
    points whose hull is the region's disk side.
    """

    region: cgeom.SrgRegion
    omegas: np.ndarray
    disk_points: np.ndarray
    curve: np.ndarray
    curve_at_infinity: np.ndarray


def lti_srg(tf: RationalTF, grid: FreqGrid | None = None) -> LtiSrg:
    """SRG of the multiplication operator of h over a frequency grid.

    The operator is normal, so the SRG is the hyperbolic hull of the
    frequency-response curve: disk side = convex hull of the per-omega
    disk points.  omega = infinity always ends the grid: the closure of
    h(i R) contains h(infinity).  A grid that is not a FreqGrid raises
    InputError.
    """
    if grid is None:
        grid = default_grid(tf)
    elif not isinstance(grid, FreqGrid):
        raise InputError(f"grid must be a FreqGrid, got {type(grid).__name__}")
    values, pole, disk = _response(tf, grid.omegas)
    last = _value_at_infinity(tf)
    at_infinity = np.append(pole, cgeom.is_infinity(last))
    curve = np.append(values, 0j if at_infinity[-1] else last)
    curve[at_infinity] = 0.0
    disk = np.append(disk, cgeom.bk_forward(last))
    region = cgeom.region_from_disk_hull(cgeom.convex_hull_2d(disk))
    return LtiSrg(region=region, omegas=np.append(grid.omegas, math.inf),
                  disk_points=disk, curve=curve, curve_at_infinity=at_infinity)
