"""Correctness checks that share no code with the library.

They run after the timed loop, on the inputs read back from the case
files and the hull each case returned.

* ``support_gap``: largest amount by which the support function of
  W(V) exceeds that of the returned hull, over a dense angle grid.  V
  is rebuilt here from T with numpy alone.  The library promises that
  W(V) lies within refine_tol of the hull, so the gap must not exceed
  refine_tol.
* ``hull_miss``: disk-side distance by which a dense reference curve of
  a transfer function leaves the returned hull.  The library states no
  tolerance for it yet, so it is reported, not judged.
* ``output_summary``: hash, size and row count of a CSV or SVG output,
  and whether it has the documented shape.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

# The library's documented default outer-approximation bound.
REFINE_TOL = 1e-8
GAP_ANGLES = 2048
REFERENCE_POINTS = 16384
CSV_HEADER = b"kind,theta,re,im,branch\n"
_CHUNK = 1 << 21  # elements per broadcast block


def load_matrix(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    m = np.asarray(doc["re"], dtype=np.float64).astype(np.complex128)
    if doc.get("im") is not None:
        m = m + 1j * np.asarray(doc["im"], dtype=np.float64)
    return m


def load_tf(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return np.asarray(doc["num_re"], dtype=np.float64), np.asarray(doc["den_re"], dtype=np.float64)


def graph_compression(t: np.ndarray) -> np.ndarray:
    """V = S(-I - iT - iT* + T*T)S with S = (I + T*T)^(-1/2)."""
    n = t.shape[0]
    eye = np.eye(n)
    tt = t.conj().T @ t
    w, u = np.linalg.eigh(eye + tt)
    s = (u / np.sqrt(w)) @ u.conj().T
    return s @ (-eye - 1j * t - 1j * t.conj().T + tt) @ s


def support_gap(t: np.ndarray, hull_vertices) -> float:
    """max over angles of h_W(V)(theta) - h_hull(theta)."""
    v = graph_compression(t)
    # An irrational offset keeps the grid off the sweep's dyadic angles.
    theta = 2.0 * math.pi * (np.arange(GAP_ANGLES) + 0.5 * (math.sqrt(5.0) - 1.0)) / GAP_ANGLES
    rot = np.exp(-1j * theta)[:, None, None] * v[None]
    h_true = np.linalg.eigvalsh((rot + np.conj(np.swapaxes(rot, 1, 2))) / 2.0)[:, -1]
    verts = np.asarray(hull_vertices, dtype=np.complex128)
    cos, sin = np.cos(theta), np.sin(theta)
    h_hull = np.empty(GAP_ANGLES)
    step = max(1, _CHUNK // len(verts))
    for lo in range(0, GAP_ANGLES, step):
        hi = lo + step
        h_hull[lo:hi] = np.max(np.outer(cos[lo:hi], verts.real)
                               + np.outer(sin[lo:hi], verts.imag), axis=1)
    return float(np.max(h_true - h_hull))


def _disk_point(num: np.ndarray, den: np.ndarray, s) -> np.ndarray:
    """f(h) = (|b|^2 - |a|^2 - 2i Re(conj(a) b)) / (|a|^2 + |b|^2)."""
    a = np.polyval(den, s)
    b = np.polyval(num, s)
    pa, pb = np.abs(a) ** 2, np.abs(b) ** 2
    return (pb - pa - 2j * np.real(np.conj(a) * b)) / (pa + pb)


def lti_reference_points(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Disk image of h on a tan-spaced grid of REFERENCE_POINTS + 1
    frequencies, plus omega = infinity."""
    num = np.trim_zeros(num, "f")
    den = np.trim_zeros(den, "f")
    count = REFERENCE_POINTS
    k = np.arange(count + 1)
    omega = np.tan(math.pi * (2 * k - count) / (2 * count + 2))
    pts = _disk_point(num, den, 1j * omega)
    if len(num) > len(den):
        inf_pt = 1.0 + 0j
    elif len(num) < len(den):
        inf_pt = -1.0 + 0j
    else:
        inf_pt = _disk_point(num[:1], den[:1], 0.0)
    return np.append(pts, inf_pt)


def hull_miss(points: np.ndarray, hull_vertices) -> float:
    """Largest distance from a point outside the convex polygon to it."""
    v = np.asarray(hull_vertices, dtype=np.complex128)
    if len(v) < 3:
        return float(np.max(_segment_distance(points, v)))
    e = np.roll(v, -1) - v
    keep = np.abs(e) > 0.0
    a, e = v[keep], e[keep]
    normal = -1j * e / np.abs(e)  # outward for counter-clockwise vertices
    worst = 0.0
    step = max(1, _CHUNK // len(a))
    for lo in range(0, len(points), step):
        p = points[lo:lo + step]
        outside = np.max(np.real(np.conj(normal)[None] * (p[:, None] - a[None])), axis=1) > 0.0
        if np.any(outside):
            q = p[outside][:, None]
            t = np.clip(np.real(np.conj(e)[None] * (q - a[None])) / np.abs(e)[None] ** 2, 0.0, 1.0)
            worst = max(worst, float(np.max(np.min(np.abs(q - (a[None] + t * e[None])), axis=1))))
    return worst


def _segment_distance(points: np.ndarray, v: np.ndarray) -> np.ndarray:
    if len(v) == 1:
        return np.abs(points - v[0])
    e = v[1] - v[0]
    t = np.clip(np.real(np.conj(e) * (points - v[0])) / abs(e) ** 2, 0.0, 1.0)
    return np.abs(points - (v[0] + t * e))


def output_summary(data: bytes, fmt: str) -> dict:
    """sha256, byte count, row count and shape check of one output file.

    Rows are CSV data rows, or SVG coordinate pairs.
    """
    if fmt == "csv":
        rows = data.count(b"\n") - 1
        ok = data.startswith(CSV_HEADER) and rows > 0
    else:
        rows = data.count(b",")
        ok = data.startswith(b"<svg") and data.endswith(b"</svg>\n") and rows > 0
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
            "rows": rows, "ok": bool(ok)}
