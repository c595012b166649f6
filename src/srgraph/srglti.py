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


def _coeff_tuple(coeffs, what: str) -> tuple[complex, ...]:
    arr = [complex(c) for c in coeffs]
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
    length = len(out)
    for idx in range(length):
        power = length - 1 - idx
        if power % 2:
            out[idx] = -out[idx]
    return out


@dataclass(frozen=True)
class SpectralFactor:
    """Stable factor s = s_num/s_den with |s|^2 (1 + |h|^2) = 1.

    s_num is the denominator of h; s_den is Hurwitz (all roots in the
    open left half-plane) with a positive real gain fixed at a
    reference frequency.
    """

    s_num: tuple[complex, ...]
    s_den: tuple[complex, ...]


def spectral_factorize(tf: RationalTF) -> SpectralFactor:
    """Factor a~a + b~b = c~c with Hurwitz c; return s = a/c.

    The even polynomial a~a + b~b is nonnegative on the imaginary axis
    and its roots come in (r, -conj(r)) pairs; c collects the open
    left-half-plane roots, scaled by the positive constant that makes
    |c|^2 = |a|^2 + |b|^2 at a reference frequency.  A root on the
    axis itself means a and b share an imaginary-axis zero, which has
    no stable factorization.

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
        if gain == 0.0:
            raise FactorizationDegenerateError("transfer function has no finite gain")
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

    # Fix the positive gain at omega = 0, falling back to nearby
    # frequencies if the reference value degenerates there.
    p_scale = float(np.max(np.abs(a)) ** 2 + np.max(np.abs(b)) ** 2)
    c_scale = float(np.max(np.abs(c_monic)) ** 2)
    candidates = [0.0]
    for k in range(1, 2 * m + 6):
        candidates.extend((0.5 * k, -0.5 * k))
    gain2 = None
    for w0 in candidates:
        s0 = 1j * w0
        pv = abs(np.polyval(a, s0)) ** 2 + abs(np.polyval(b, s0)) ** 2
        cv = abs(np.polyval(c_monic, s0)) ** 2
        if pv > 1e-12 * p_scale and cv > 1e-12 * c_scale:
            gain2 = pv / cv
            break
    if gain2 is None:
        raise NumericalError("could not normalize the spectral factor gain")
    c_arr = (math.sqrt(gain2) / norm) * c_monic
    if all(x.imag == 0 for x in tf.num) and all(x.imag == 0 for x in tf.den):
        # Real data gives a conjugate-symmetric stable root set, so the
        # factor is real up to root-finder round-off; drop the dust.
        if float(np.max(np.abs(c_arr.imag))) <= 1e-9 * float(np.max(np.abs(c_arr))):
            c_arr = c_arr.real.astype(np.complex128)
    c = tuple(complex(x) for x in c_arr)
    return SpectralFactor(
        s_num=tuple(complex(x) / norm for x in tf.den), s_den=c
    )


def _freq_is_infinite(omega) -> bool:
    if cgeom.is_infinity(omega):
        return True
    try:
        return math.isinf(float(omega))
    except (TypeError, ValueError):
        return False


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
    if _freq_is_infinite(omega):
        return _value_at_infinity(tf)
    curve, pole, _ = _response(tf, [float(omega)])
    return INFINITY if pole[0] else complex(curve[0])


def lti_disk_point(tf: RationalTF, omega) -> complex:
    """The disk point f(h(omega)), evaluated pole-safely.

    Uses (|b|^2 - |a|^2 - 2i Re(conj(a) b)) / (|a|^2 + |b|^2) with the
    raw numerator/denominator values b and a, so imaginary-axis poles
    land exactly on f(infinity) = 1 instead of overflowing.
    """
    if _freq_is_infinite(omega):
        return cgeom.bk_forward(_value_at_infinity(tf))
    return complex(_response(tf, [float(omega)])[2][0])


@dataclass(frozen=True)
class FreqGrid:
    """Finite ascending deduplicated frequencies; lti_srg adds infinity."""

    omegas: tuple[float, ...]


def freq_grid(omegas) -> FreqGrid:
    """Sort, deduplicate, and validate a frequency list."""
    vals = [float(w) for w in omegas]
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
    """
    if n < 16:
        raise InputError("default grid needs n >= 16")
    omegas = [math.tan(math.pi * (2 * k - n) / (2 * n + 2)) for k in range(n + 1)]
    for wp in _axis_poles(tf):
        omegas.append(wp)
        for delta in (1e-2, 1e-3, 1e-4):
            step = delta * max(1.0, abs(wp))
            omegas.extend((wp - step, wp + step))
    return freq_grid(omegas)


@dataclass(frozen=True)
class LtiSrg:
    """SRG of a transfer function plus the raw data behind it.

    region is the SRG proper; curve is the frequency response
    h(omega) over the same grid (the spectrum of the multiplication
    operator, useful for plotting); disk_points are the mapped grid
    points whose hull is the region's disk side.
    """

    region: cgeom.SrgRegion
    omegas: tuple[ExtComplex, ...]
    disk_points: tuple[complex, ...]
    curve: tuple[ExtComplex, ...]


def lti_srg(tf: RationalTF, grid: FreqGrid | None = None) -> LtiSrg:
    """SRG of the multiplication operator of h over a frequency grid.

    The operator is normal, so the SRG is the hyperbolic hull of the
    frequency-response curve: disk side = convex hull of the per-omega
    disk points.  omega = infinity always ends the grid: the closure of
    h(i R) contains h(infinity).
    """
    if grid is None:
        grid = default_grid(tf)
    values, pole, disk = _response(tf, grid.omegas)
    omegas = grid.omegas + (INFINITY,)
    curve = [INFINITY if p else h for h, p in zip(values.tolist(), pole.tolist())]
    curve.append(_value_at_infinity(tf))
    disk = np.append(disk, cgeom.bk_forward(curve[-1]))
    hull = cgeom.convex_hull_2d(disk)
    region = cgeom.region_from_disk_hull(hull)
    return LtiSrg(
        region=region,
        omegas=omegas,
        disk_points=tuple(disk.tolist()),
        curve=tuple(curve),
    )
