"""Brute-force SRG sampling straight from the definition.

Each random unit vector x contributes the conjugate pair

    (|Tx| / |x|) * exp(+/- i * arccos(Re<Tx, x> / (|Tx| |x|)))

(the single point 0 when Tx = 0).  Samples validate computed regions:
they must land inside a filled region, or on the curve of a
boundary-only region, up to tolerance.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import cgeom
from .cgeom import INFINITY, ExtComplex
from .errors import InputError
from .linalg import as_matrix

# Fixed, portable PRNG so failures reproduce across platforms.
GENERATOR = "pcg64"
# Largest count, and largest count * n, sample_srg takes: about 40 bytes
# per vector entry are live at peak.
_MAX_SAMPLES = 1 << 20
_MAX_SAMPLE_ENTRIES = 1 << 24


def _draw(rng: np.random.Generator, field: str, rows: int, n: int) -> np.ndarray:
    """rows standard Gaussian vectors of length n over the field, as
    complex128; a complex draw takes its real parts first."""
    if field == "real":
        return rng.standard_normal((rows, n)).astype(np.complex128)
    return rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))


def _by_rows(fn, count: int, n: int) -> np.ndarray:
    """fn(rows) over consecutive row slices of a count-by-n array, 2^16
    entries at a time, joined: for row norms, whose temporaries then stay
    small.  A row's norm does not depend on how many rows there are, so
    neither does the result."""
    step = max(1, (1 << 16) // n)
    return np.concatenate([fn(slice(lo, lo + step)) for lo in range(0, count, step)])


def sample_srg(t, field: str = "complex", count: int = 10000, seed: int = 1) -> np.ndarray:
    """Sample the SRG of T from its definition; deterministic per seed.

    Unit vectors are normalized standard Gaussians over the requested
    field.  Each draw yields the conjugate pair (upper first); a zero
    output vector yields the single point 0.  Returns a complex128 array.
    count may be at most 2**20 (1,048,576), and count * n at most 2**24;
    a larger count raises InputError before any allocation.
    """
    m = as_matrix(t, square=True)
    if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
        raise InputError(f"count must be a positive integer, got {count!r}")
    if count > _MAX_SAMPLES or count * m.shape[0] > _MAX_SAMPLE_ENTRIES:
        raise InputError(f"count must be at most {_MAX_SAMPLES} and count * n at most "
                         f"{_MAX_SAMPLE_ENTRIES}, got count {count} for n = {m.shape[0]}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")
    if field not in ("real", "complex"):
        raise InputError("field must be 'real' or 'complex'")
    if field == "real" and np.max(np.abs(m.imag)) != 0.0:
        raise InputError("real-field sampling requires a matrix with real entries")
    n = m.shape[0]
    rng = np.random.Generator(np.random.PCG64(seed))
    x = _draw(rng, field, count, n)
    nx = _by_rows(lambda r: np.linalg.norm(x[r], axis=1), count, n)
    while np.any(nx == 0.0):  # probability ~0, but keep the math total
        bad = np.nonzero(nx == 0.0)[0]
        x[bad] = _draw(rng, field, bad.size, n)
        nx = _by_rows(lambda r: np.linalg.norm(x[r], axis=1), count, n)
    # Sample T / 2^k, with 2^k just above the largest |entry|, so that
    # |Tx| neither over- nor underflows, and scale the gain back at the
    # end.  Powers of two scale exactly: normal-range samples keep every bit.
    k = math.frexp(float(np.max(np.abs(m))))[1]
    y = x @ np.ldexp(m.view(np.float64), -k).view(np.complex128).T
    ny = _by_rows(lambda r: np.linalg.norm(y[r], axis=1), count, n)
    # The defining angle is arccos(Re<y,x> / (|y||x|)), clamped against
    # round-off.  It is evaluated through the half-angle identity
    # tan(theta/2) = |v - u| / |v + u| for the normalized vectors,
    # which is the same angle in exact arithmetic but stays accurate
    # at both ends of [0, pi] (a raw arccos turns a 1-ulp defect in
    # the cosine into ~1e-8 of angle).  x and y are normalized in place;
    # a zero row of y stays zero, and its angle is not used.
    nonzero = ny > 0.0
    x /= nx[:, None]
    np.divide(y, ny[:, None], out=y, where=nonzero[:, None])
    angles = _by_rows(lambda r: 2.0 * np.arctan2(np.linalg.norm(y[r] - x[r], axis=1),
                                                 np.linalg.norm(y[r] + x[r], axis=1)), count, n)
    del x, y  # free the vectors before the samples are built
    # Rows are (upper, conjugate) pairs; a zero output keeps only its
    # first slot, the point 0.  cos and sin come from libm through math,
    # as scalar code gets them (numpy's SIMD versions may differ by an ulp).
    ratio = np.ldexp(ny[nonzero] / nx[nonzero], k)
    kept = angles[nonzero].tolist()
    cos = np.fromiter(map(math.cos, kept), dtype=np.float64, count=len(kept))
    sin = np.fromiter(map(math.sin, kept), dtype=np.float64, count=len(kept))
    pairs = np.zeros((count, 2), dtype=np.complex128)
    pairs.real[nonzero] = (ratio * cos)[:, None]
    pairs.imag[nonzero, 0] = ratio * sin
    pairs.imag[nonzero, 1] = -pairs.imag[nonzero, 0]
    keep = np.ones((count, 2), dtype=bool)
    keep[:, 1] = nonzero
    return pairs[keep]


@dataclass(frozen=True)
class SampleReport:
    """Aggregate of a containment check over sampled SRG points.

    max_violation is the largest disk-side distance beyond tolerance
    among non-contained samples (0 when everything is contained);
    worst_point is the sample achieving it.
    """

    total: int
    contained: int
    max_violation: float
    worst_point: ExtComplex | None
    generator: str = GENERATOR


def check_containment(samples, region: cgeom.SrgRegion, tol: float = 1e-7) -> SampleReport:
    """Check every sample against a region; boundary-only regions test
    distance to the boundary curve instead of interior membership.

    Bulk decisions come from certified locator bounds; samples the
    bounds cannot settle are re-measured exactly, so every decision
    and the reported violation are exact.  tol must be finite and at
    least 0.
    """
    if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and math.isfinite(tol)
                                     and tol >= 0):
        raise InputError(f"tol must be a finite non-negative number, got {tol!r}")
    zs, at_infinity = cgeom.split_infinity(samples)
    ws = cgeom.bk_forward_array(zs)
    ws[at_infinity] = 1.0
    locator = cgeom.PolygonLocator(region.disk_hull)
    _, signed_ub, boundary_ub = locator.query(ws)
    if region.boundary_only:
        certain_in = boundary_ub <= tol
    else:
        certain_in = signed_ub <= tol
    unresolved = np.nonzero(~certain_in)[0]
    exact = locator.exact(ws[unresolved])
    if region.boundary_only:
        exact = np.abs(exact)
    violation = np.where(exact > tol, exact, 0.0)
    max_violation = 0.0
    worst: ExtComplex | None = None
    if violation.size and violation.max() > 0.0:
        k = int(np.argmax(violation))  # first sample at the maximum
        max_violation = float(violation[k])
        i = int(unresolved[k])
        worst = INFINITY if at_infinity[i] else complex(zs[i])
    return SampleReport(
        total=zs.size,
        contained=int(np.count_nonzero(certain_in)) + int(np.count_nonzero(exact <= tol)),
        max_violation=max_violation,
        worst_point=worst,
        generator=GENERATOR,
    )
