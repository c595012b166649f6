"""Independent reference values and formulas used to validate the package.

Everything here is computed from first principles (closed forms, direct
definitions, brute-force sampling) without calling the code under test,
so the tests compare two genuinely different routes to the same answer.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

# Disk image of z under the Beltrami-Klein map, straight from the formula.
def bk_map(z: complex) -> complex:
    z = complex(z)
    return 1.0 - 2.0 * (1.0 + 1j * z.real) / (1.0 + abs(z) ** 2)


# The disk image of the SRG of [[0,1],[0,0]] is the filled ellipse with
# foci -(1±i)/2 and major-axis sum sqrt(2); its boundary has residual 0.
def ellipse_residual(w: complex) -> float:
    return abs(abs(w + (1 + 1j) / 2) + abs(w + (1 - 1j) / 2) - math.sqrt(2))


# V operator of the nilpotent 2x2, worked by hand:
# S = diag(1, 1/sqrt(2)); V = S(-I - iT - iT* + T*T)S.
NILPOTENT_V = np.array(
    [[-1.0, -1j / math.sqrt(2)], [-1j / math.sqrt(2), 0.0]], dtype=complex
)

# Spectrum of the 4x4 example matrix [[1,0,-1,0],[0,2,0,1],[1,1,0,0],[0,0,1,1]]:
# its characteristic polynomial is (x-1)^4 - 2(x-1), so the eigenvalues are
# 1 and 1 + 2^(1/3) * {1, exp(±2πi/3)}.
_CBRT2 = 2.0 ** (1.0 / 3.0)
FIG_MATRIX = np.array(
    [[1, 0, -1, 0], [0, 2, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1]], dtype=float
)
FIG_MATRIX_EIGS = sorted(
    [
        1.0 + 0j,
        1.0 + _CBRT2,
        1.0 + _CBRT2 * cmath.exp(2j * math.pi / 3),
        1.0 + _CBRT2 * cmath.exp(-2j * math.pi / 3),
    ],
    key=lambda z: (z.imag, z.real),
)

# Stable spectral factor denominator for h = 2/(iw+1)^2: the even polynomial
# is s^4 - 2 s^2 + 5 and its left-half-plane factor is
# s^2 + sqrt(2 + 2 sqrt(5)) s + sqrt(5), with unit gain.
FACTOR_DEN_RADICALS = (1.0, math.sqrt(2.0 + 2.0 * math.sqrt(5.0)), math.sqrt(5.0))


# ---------------------------------------------------------------------------
# Brute-force constructions
# ---------------------------------------------------------------------------

def srg_points_definition(t: np.ndarray, xs: np.ndarray) -> list[complex]:
    """SRG points straight from the definition, one conjugate pair per row
    of xs (or the single point 0 when T x = 0)."""
    out: list[complex] = []
    for x in xs:
        y = t @ x
        nx = float(np.linalg.norm(x))
        ny = float(np.linalg.norm(y))
        if ny == 0.0:
            out.append(0.0 + 0j)
            continue
        cosang = float(np.real(np.vdot(x, y))) / (nx * ny)
        cosang = min(1.0, max(-1.0, cosang))
        ang = math.acos(cosang)
        r = ny / nx
        out.append(r * cmath.exp(1j * ang))
        out.append(r * cmath.exp(-1j * ang))
    return out


def rayleigh_points(a: np.ndarray, rng: np.random.Generator, count: int) -> np.ndarray:
    """Numerical-range members <Ax,x> for random unit x (complex field)."""
    n = a.shape[0]
    x = rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n))
    x /= np.linalg.norm(x, axis=1)[:, None]
    return np.einsum("ki,ij,kj->k", x.conj(), a, x)


def point_segment_distance(p: complex, a: complex, b: complex) -> float:
    """Plain 2D point-to-segment distance, written independently."""
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(p - a)
    t = max(0.0, min(1.0, ((p - a).real * ab.real + (p - a).imag * ab.imag) / denom))
    return abs(p - (a + t * ab))


def polygon_distance_ref(vertices: list[complex], p: complex) -> float:
    """Distance from p to a convex polygon (0 when inside), edge by edge."""
    m = len(vertices)
    if m == 1:
        return abs(p - vertices[0])
    if m == 2:
        return point_segment_distance(p, vertices[0], vertices[1])
    inside = True
    best = math.inf
    for k in range(m):
        a, b = vertices[k], vertices[(k + 1) % m]
        e = b - a
        cross = e.real * (p - a).imag - e.imag * (p - a).real
        if cross < 0.0:
            inside = False
        best = min(best, point_segment_distance(p, a, b))
    return 0.0 if inside else best


def hull_support(vertices: list[complex], theta: float) -> float:
    """Support function of a polygon in direction theta."""
    return max(v.real * math.cos(theta) + v.imag * math.sin(theta) for v in vertices)


def hull_chain_ref(points) -> tuple:
    """Convex hull by a stable lexicographic sort and Andrew's monotone
    chain, one point at a time: counter-clockwise from the smallest
    point, equal points kept once, and a vertex pruned when it lies
    within 1e-12*max(1, largest coordinate) of the chord from the
    vertex before it to the next point.  No overflow guard: for points
    below about 1e154."""
    pts = sorted((complex(p) for p in points), key=lambda p: (p.real, p.imag))
    tol = 1e-12 * max(1.0, max(max(abs(p.real), abs(p.imag)) for p in pts))
    pts = pts[:1] + [q for p, q in zip(pts, pts[1:]) if q != p]

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                e, d = out[-1] - out[-2], p - out[-2]
                if e.real * d.imag - e.imag * d.real > tol * abs(d):
                    break
                out.pop()
            out.append(p)
        return out

    if len(pts) == 1:
        return (pts[0],)
    verts = chain(pts)[:-1] + chain(pts[::-1])[:-1]
    return tuple(verts) if len(verts) >= 2 else (pts[0], pts[-1])


def hausdorff_ref(va: list[complex], vb: list[complex]) -> float:
    """Hausdorff distance between convex polygons via vertex distances."""
    d1 = max(polygon_distance_ref(vb, v) for v in va)
    d2 = max(polygon_distance_ref(va, v) for v in vb)
    return max(d1, d2)


def _support_breakpoints(verts: np.ndarray):
    """Outward-normal angles of a CCW polygon's edges, plus the map from
    angle intervals to the active (support-attaining) vertex."""
    m = len(verts)
    if m == 1:
        return np.zeros(0), np.zeros(1, dtype=int)
    edges = np.roll(verts, -1) - verts
    normals = np.angle(edges * -1j)  # outward normal of a CCW edge
    normals = np.mod(normals, 2 * math.pi)
    order = np.argsort(normals, kind="stable")
    # After edge k's normal angle, vertex k+1 becomes the support argmax.
    active = (order + 1) % m
    return normals[order], active


def _support_at(verts: np.ndarray, normals, active, phis: np.ndarray) -> np.ndarray:
    if len(verts) == 1:
        v = verts[0]
        return v.real * np.cos(phis) + v.imag * np.sin(phis)
    idx = np.searchsorted(normals, np.mod(phis, 2 * math.pi), side="right") - 1
    v = verts[active[idx]]  # idx = -1 wraps to the last interval correctly
    return v.real * np.cos(phis) + v.imag * np.sin(phis)


def hausdorff_support_exact(va: list[complex], vb: list[complex]) -> float:
    """Exact Hausdorff distance between convex polygons.

    For convex compact sets the Hausdorff metric equals the sup-norm
    distance of support functions.  Between consecutive breakpoint
    angles both supports are single sinusoids, so the sup is attained
    either at a breakpoint or at the interior peak of the difference
    sinusoid; checking those finitely many angles is exact.
    """
    a = np.asarray(va, dtype=complex)
    b = np.asarray(vb, dtype=complex)
    na, aa = _support_breakpoints(a)
    nb, ab = _support_breakpoints(b)
    brk = np.unique(np.concatenate([na, nb, [0.0]]))
    # Interior critical angles: on each interval the difference is
    # R*cos(phi - psi) for the active vertex pair; its peak sits at psi
    # (or psi + pi), found from the vertex difference.
    mids = (brk + np.roll(brk, -1)) / 2.0
    mids[-1] = (brk[-1] + 2 * math.pi + brk[0]) / 2.0
    ia = aa[np.searchsorted(na, mids, side="right") - 1] if len(a) > 1 else np.zeros(len(mids), dtype=int)
    ib = ab[np.searchsorted(nb, mids, side="right") - 1] if len(b) > 1 else np.zeros(len(mids), dtype=int)
    diff = a[ia] - b[ib]
    psi = np.mod(np.angle(diff), 2 * math.pi)
    cand = [brk, psi, np.mod(psi + math.pi, 2 * math.pi)]
    phis = np.unique(np.concatenate(cand))
    ha = _support_at(a, na, aa, phis)
    hb = _support_at(b, nb, ab, phis)
    return float(np.max(np.abs(ha - hb)))


def polygon_distance_many(verts: list[complex], points: np.ndarray) -> np.ndarray:
    """Distance from each point to a convex polygon (0 inside), chunked."""
    v = np.asarray(verts, dtype=complex)
    m = len(v)
    pts = np.asarray(points, dtype=complex)
    if m == 1:
        return np.abs(pts - v[0])
    a = v
    e = np.roll(v, -1) - v
    if m == 2:
        a, e = a[:1], e[:1]
    out = np.empty(len(pts))
    elen2 = np.maximum(np.abs(e) ** 2, 1e-300)
    for lo in range(0, len(pts), 256):
        p = pts[lo:lo + 256][:, None]
        rel = p - a[None, :]
        cross = e.real * rel.imag - e.imag * rel.real
        inside = np.all(cross >= 0.0, axis=1) if m > 2 else np.zeros(p.shape[0], bool)
        t = np.clip((rel.real * e.real + rel.imag * e.imag) / elen2, 0.0, 1.0)
        seg = np.min(np.abs(rel - t * e[None, :]), axis=1)
        out[lo:lo + 256] = np.where(inside, 0.0, seg)
    return out


def hull_support_many(verts: list[complex], phis: np.ndarray) -> np.ndarray:
    """Support function of a polygon at many angles, exactly."""
    v = np.asarray(verts, dtype=complex)
    normals, active = _support_breakpoints(v)
    return _support_at(v, normals, active, np.asarray(phis, dtype=float))


def support_values_ref(a, thetas) -> np.ndarray:
    """Support function h(theta) = lambda_max((e^{-i theta} A + e^{i theta} A*)/2)
    of W(A), one numpy eigvalsh call per block of 256 angles."""
    a = np.asarray(a, dtype=complex)
    thetas = np.asarray(thetas, dtype=float)
    out = np.empty(thetas.size)
    for lo in range(0, thetas.size, 256):
        rot = np.exp(-1j * thetas[lo:lo + 256])[:, None, None] * a
        out[lo:lo + 256] = np.linalg.eigvalsh((rot + np.conj(np.swapaxes(rot, 1, 2))) / 2)[:, -1]
    return out


def tf_eval(num, den, s: complex) -> complex:
    """Rational function value by Horner evaluation of both polynomials."""
    def horner(c):
        acc = 0j
        for ck in c:
            acc = acc * s + complex(ck)
        return acc

    return horner(num) / horner(den)


# ---------------------------------------------------------------------------
# Reference copies of the scalar and per-row implementations that the
# array code replaced.  Byte- and bit-identity tests compare against
# them; they share nothing with the package but the INFINITY marker and,
# for the sweep, the per-angle helpers passed in by the caller.
# ---------------------------------------------------------------------------

from srgraph import INFINITY  # noqa: E402

CSV_HEADER = "kind,theta,re,im,branch"


def bk_forward_ref(z) -> complex:
    """The scalar disk map: 1 - 2/d and -2 Re z/d, then a radial clamp."""
    if z is INFINITY:
        return complex(1.0, 0.0)
    z = complex(z)
    d = 1.0 + (z.real * z.real + z.imag * z.imag)
    w = complex(1.0 - 2.0 / d, -2.0 * z.real / d)
    r = abs(w)
    if r > 1.0:
        w = w / r
    return w


def sample_srg_ref(t, field: str, count: int, seed: int) -> list:
    """SRG samples built one draw at a time, as a list of complex."""
    m = np.asarray(t, dtype=np.complex128)
    n = m.shape[0]
    rng = np.random.Generator(np.random.PCG64(seed))
    if field == "real":
        x = rng.standard_normal((count, n)).astype(np.complex128)
    else:
        x = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    nx = np.linalg.norm(x, axis=1)
    y = x @ m.T
    ny = np.linalg.norm(y, axis=1)
    angles = np.zeros(count)
    nonzero = ny > 0.0
    if np.any(nonzero):
        un = x[nonzero] / nx[nonzero, None]
        vn = y[nonzero] / ny[nonzero, None]
        diff = np.linalg.norm(vn - un, axis=1)
        summ = np.linalg.norm(vn + un, axis=1)
        angles[nonzero] = 2.0 * np.arctan2(diff, summ)
    samples = []
    for i in range(count):
        if ny[i] == 0.0:
            samples.append(0j)
            continue
        upper = ny[i] / nx[i] * complex(math.cos(angles[i]), math.sin(angles[i]))
        samples.append(upper)
        samples.append(upper.conjugate())
    return samples


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def csv_text_ref(rows) -> str:
    """CSV text from (kind, theta, value-or-None, branch) row tuples,
    sorted with list.sort on (theta, branch, kind, re, im)."""
    entries = []
    for kind, theta, value, branch in rows:
        if value is None or value is INFINITY:
            entries.append((float(theta), branch, "infinity", math.inf, math.inf, "", ""))
        else:
            z = complex(value)
            entries.append(
                (float(theta), branch, kind, z.real, z.imag, _fmt17(z.real), _fmt17(z.imag))
            )
    entries.sort(key=lambda e: (e[0], e[1], e[2], e[3], e[4]))
    lines = [CSV_HEADER]
    for theta, branch, kind, _, _, re_s, im_s in entries:
        lines.append(f"{kind},{_fmt17(theta)},{re_s},{im_s},{branch}")
    return "\n".join(lines) + "\n"


def indexed_rows_ref(kind: str, values, branch: str) -> list:
    """Rows for point j of `values` at theta = 2*pi*j/count."""
    count = max(1, len(values))
    return [(kind, 2.0 * math.pi * j / count, v, branch) for j, v in enumerate(values)]


def extended_ref(values, at_infinity) -> tuple:
    """Points as Python complex numbers, INFINITY where the mask is set."""
    return tuple(INFINITY if inf else complex(v)
                 for v, inf in zip(np.asarray(values).tolist(), np.asarray(at_infinity).tolist()))


def branches_ref(region) -> tuple[tuple, tuple]:
    """The region's (upper, lower) branches with INFINITY under its mask."""
    return (extended_ref(region.upper_branch, region.at_infinity),
            extended_ref(region.lower_branch, region.at_infinity))


def region_rows_ref(region) -> list:
    upper, lower = branches_ref(region)
    return indexed_rows_ref("srg", upper, "upper") + indexed_rows_ref("srg", lower, "lower")


def finite_runs_ref(points) -> list:
    """Runs of at least two finite points between INFINITY entries."""
    runs, current = [], []
    for p in points:
        if p is INFINITY:
            if len(current) >= 2:
                runs.append(current)
            current = []
        else:
            current.append(complex(p))
    if len(current) >= 2:
        runs.append(current)
    return runs


def region_outline_ref(region) -> list:
    upper, lower = branches_ref(region)
    pts = [p for p in upper if p is not INFINITY]
    pts.extend(p for p in reversed(lower) if p is not INFINITY)
    return pts


def svg_coords_ref(points, tracked, size: int = 640) -> str:
    """SVG 'x,y x,y ...' text, one point and one format call at a time,
    on the square canvas that fits every tracked point."""
    xs = [complex(p).real for p in tracked]
    ys = [complex(p).imag for p in tracked]
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    cx, cy = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
    half = 0.54 * max(xmax - xmin, ymax - ymin, 1e-6)
    out = []
    for p in points:
        p = complex(p)
        px = (p.real - (cx - half)) / (2.0 * half) * size
        py = size - (p.imag - (cy - half)) / (2.0 * half) * size
        out.append(f"{svg_fmt_ref(px)},{svg_fmt_ref(py)}")
    return " ".join(out)


def svg_fmt_ref(x: float) -> str:
    s = f"{x:.4f}"
    return "0.0000" if s == "-0.0000" else s


def polygon_area_ref(vertices) -> float:
    """Shoelace area, one vertex at a time; 0 below three vertices."""
    s = 0.0
    if len(vertices) < 3:
        return s
    for i in range(len(vertices)):
        a, b = vertices[i], vertices[(i + 1) % len(vertices)]
        s += a.real * b.imag - b.real * a.imag
    return 0.5 * s


def paraconjugate_ref(coeffs) -> list:
    """Coefficients, leading first, of conj(p(-conj(s))): each conjugated,
    and negated at every odd power."""
    n = len(coeffs)
    return [-c.conjugate() if (n - 1 - i) % 2 else c.conjugate()
            for i, c in enumerate(complex(c) for c in coeffs)]


def bisect_counts(ta, tb, bounds, refine_tol) -> np.ndarray:
    """The split rule of plain bisection: two children for every wedge."""
    return np.full(np.shape(ta), 2, dtype=np.int64)


def eigh_supports_ref(a, part_a, part_b, rotated_parts):
    """Support data from one full eigendecomposition per angle: the
    reference for the sweep's kernels.

    Returns a function of angles theta, and of predicted support values
    sigma, which it ignores but for whether they are given, that gives
    (h, p).  Without sigma, as on the start grid, each angle in [0, pi)
    has row 0 at theta, from the top eigenpair of H(theta), and row 1 at
    theta + pi, from the bottom one with the eigenvalue negated; with
    it, one row per angle, from the top eigenpair.
    """
    def supports(thetas, sigma=None):
        w, v = np.linalg.eigh(rotated_parts(part_a, part_b, thetas))
        rows = []
        for ws, vs in ((w, v), (-w[:, ::-1], v[:, :, ::-1])):
            top = vs[:, :, -1]
            rows.append((ws[:, -1], np.einsum("ki,ij,kj->k", np.conj(top), a, top)))
        if sigma is not None:
            return rows[0]
        return tuple(np.stack(col) for col in zip(*rows))

    return supports


def start_table_ref(num_angles: int, paired):
    """The start table of a sweep on num_angles directions, from
    num_angles // 2 angles theta in [0, pi): paired(thetas) gives (h, p),
    each with row 0 at theta and row 1 at theta + pi.  Returns (t, h, p)
    as arrays in order round the circle from angle 0."""
    half = num_angles // 2
    thetas = math.pi * np.arange(half) / half
    h, p = (col.tolist() for col in paired(thetas))
    rows = [(theta + side * math.pi, h[side][i], p[side][i])
            for side in (0, 1) for i, theta in enumerate(thetas.tolist())]
    return tuple(np.array(col) for col in zip(*rows))


def polygon_oracle(vertices):
    """Exact support data of the polygon with these vertices: a function
    of angles theta (and of predictions, which it ignores) that gives
    h(theta) = max Re(conj(e^{i theta}) v) over the vertices and the
    first vertex attaining it, one row per angle.  No LAPACK."""
    v = np.asarray(vertices, dtype=np.complex128)

    def evaluate(thetas, sigma=None):
        proj = v.real * np.cos(thetas)[:, None] + v.imag * np.sin(thetas)[:, None]
        best = np.argmax(proj, axis=1)
        return proj[np.arange(best.size), best], v[best]

    return evaluate


def ellipse_oracle(semi_x: float, semi_y: float, centre: complex = 0j):
    """Exact support data of the ellipse with these semi-axes along the
    coordinate axes: h(theta) = <centre, u> + sqrt(a^2 cos^2 + b^2 sin^2)
    and the boundary point p whose outward normal is u = e^{i theta}, one
    row per angle; predictions are ignored.  No LAPACK."""
    def evaluate(thetas, sigma=None):
        c, s = np.cos(thetas), np.sin(thetas)
        r = np.hypot(semi_x * c, semi_y * s)
        p = centre + (semi_x * semi_x * c + 1j * semi_y * semi_y * s) / r
        return centre.real * c + centre.imag * s + r, p

    return evaluate


def sweep_ref(t, h, p, target: float, evaluate, apex_chord_bounds, split_counts, predict):
    """Angle-sweep bookkeeping with a Python list of (theta, h, p) ends,
    one per angle, in order round the circle from the first.

    The per-angle helpers and the split rule are passed in; this checks
    the ordering and refinement bookkeeping around them.  The sweep
    starts from the table (t, h, p), ascending from t[0] over less than
    a full turn, and the last wedge closes at t[0] + 2*pi.  Each wedge
    whose own bound is above target is split on its own, and its new
    angles come one row each from evaluate(thetas, sigma), sigma the
    support values that predict(ta, tb, ha, pa, hb, pb, t) gives at each
    new angle from the ends of its wedge, t the angle's fraction of the
    wedge.  split_counts(ta, tb, bounds, target) takes every wedge in
    order round the circle (bisect_counts for plain bisection).  Returns
    (angles, support_points, support_values, bounds) as arrays, bounds
    those of every wedge of the last table.
    """
    ends = list(zip(t.tolist(), h.tolist(), p.tolist()))
    for depth in range(49):
        # Angles are not wrapped: the last wedge ends at t[0] + 2*pi.
        wedges = list(zip(ends, ends[1:] + [(ends[0][0] + 2.0 * math.pi, *ends[0][1:])]))
        ta, ha, pa, tb, hb, pb = (np.array(col) for col in zip(
            *[(*lo, *hi) for lo, hi in wedges]))
        bounds = apex_chord_bounds(ta, ha, pa, tb, hb, pb).tolist()
        needy = [hi[0] - lo[0] > 1e-9 and bound > target
                 for (lo, hi), bound in zip(wedges, bounds)]
        if depth == 48 or not any(needy):
            break
        counts = split_counts(ta, tb, np.array(bounds), target).tolist()
        # A wedge that is not split stays whole: k = 1.
        split = [(wedge, k if over else 1) for wedge, k, over in zip(wedges, counts, needy)]
        inner = [(wedge, j, k) for wedge, k in split for j in range(1, k)]
        thetas = np.array([lo[0] + (hi[0] - lo[0]) * j / k for (lo, hi), j, k in inner])
        ta, ha, pa, tb, hb, pb = (np.array([wedge[end][i] for wedge, _, _ in inner])
                                  for end in (0, 1) for i in (0, 1, 2))
        sigma = predict(ta, tb, ha, pa, hb, pb, np.array([j / k for _, j, k in inner]))
        h, p = (col.tolist() for col in evaluate(thetas, sigma))
        mid = iter(zip(thetas.tolist(), h, p))
        ends = []
        for (lo, _), k in split:
            ends.append(lo)
            ends.extend(next(mid) for _ in range(k - 1))
    return (np.array([t for t, _, _ in ends], dtype=np.float64),
            np.array([p for _, _, p in ends], dtype=np.complex128),
            np.array([h for _, h, _ in ends], dtype=np.float64),
            np.array(bounds, dtype=np.float64))


def frob(a) -> float:
    """Frobenius norm, taken of the entries divided by a power of two
    near the largest modulus, so that their squares neither overflow
    (entries above about 1e154) nor all vanish (below about 1e-154).
    The division is exact, so where the plain norm stays in range the
    result is the same float.
    """
    a = np.asarray(a)
    exponent = math.frexp(float(np.max(np.abs(a), initial=0.0)))[1]
    scale = 2.0 ** min(max(exponent, -1000), 1000)
    return float(np.linalg.norm(a / scale, "fro")) * scale


def clamp_disk_ref(w, eps: float = 1e-9) -> complex:
    """The scalar radial clamp; raises ValueError with the package's messages."""
    w = complex(w)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise ValueError(f"expected a finite complex value, got {w!r}")
    r = abs(w)
    if r > 1.0 + eps:
        raise ValueError(f"|w| = {r!r} exceeds the unit disk beyond tolerance {eps}")
    if r > 1.0:
        return w / r
    return w


def bk_inverse_ref(w) -> tuple:
    """The scalar inverse map: the preimages (upper, lower) of a disk
    point after the radial clamp, or (INFINITY, INFINITY) within 1e-12
    of w = 1; 1 - |w|^2 is clamped to [0, inf) before the square root."""
    w = clamp_disk_ref(w)
    if math.hypot(w.real - 1.0, w.imag) <= 1e-12:
        return INFINITY, INFINITY
    denom = 1.0 - w.real
    rad = 1.0 - (w.real * w.real + w.imag * w.imag)
    rad = 0.0 if rad < 0.0 else rad
    upper = complex(-w.imag / denom, math.sqrt(rad) / denom)
    return upper, upper.conjugate()


# ---------------------------------------------------------------------------
# Transfer functions in exact rational arithmetic
# ---------------------------------------------------------------------------


def _horner_exact(coeffs, w: Fraction) -> tuple[Fraction, Fraction]:
    """p(i w) without rounding, as (real part, imaginary part)."""
    re, im = Fraction(0), Fraction(0)
    for c in coeffs:
        c = complex(c)
        re, im = Fraction(c.real) - im * w, Fraction(c.imag) + re * w
    return re, im


def _disk_and_value_exact(b, a):
    """f(b/a) = (|b|^2 - |a|^2 - 2i Re(conj(a) b)) / (|a|^2 + |b|^2) and
    b/a, each rounded once to complex."""
    (br, bi), (ar, ai) = b, a
    a2, b2, re_ab = ar * ar + ai * ai, br * br + bi * bi, ar * br + ai * bi
    disk = complex(float((b2 - a2) / (a2 + b2)), float(-2 * re_ab / (a2 + b2)))
    return disk, complex(float(re_ab / a2), float((ar * bi - ai * br) / a2))


def lti_points_exact(num, den, omegas) -> tuple[list, list]:
    """Disk points and frequency response of a transfer function in exact
    rational arithmetic.

    Floats are exact rationals, so num(i w) and den(i w) come from
    Horner's rule in fractions.Fraction with no rounding, and each output
    is rounded once at the end.  num and den are coefficient tuples,
    leading first; omegas may end with INFINITY, where the degree rules
    apply.  Poles, where |den(i w)| is within the package's tolerance
    1e-12 max|den_k| max(1, |w|)^deg of 0, give the disk point 1 and the
    curve value INFINITY.
    """
    scale = max(abs(c) for c in den)
    disk, curve = [], []
    for w in omegas:
        if w is INFINITY:
            q = -1 if all(c == 0 for c in num) else len(num) - 1
            if q == len(den) - 1:
                d, h = _disk_and_value_exact(_horner_exact(num[:1], Fraction(0)),
                                             _horner_exact(den[:1], Fraction(0)))
            else:
                d, h = (1 + 0j, INFINITY) if q > len(den) - 1 else (-1 + 0j, 0j)
        else:
            a = _horner_exact(den, Fraction(w))
            tol = Fraction(1e-12 * scale * max(1.0, abs(w)) ** (len(den) - 1))
            if a[0] ** 2 + a[1] ** 2 <= tol ** 2:
                d, h = 1 + 0j, INFINITY
            else:
                d, h = _disk_and_value_exact(_horner_exact(num, Fraction(w)), a)
        disk.append(d)
        curve.append(h)
    return disk, curve
