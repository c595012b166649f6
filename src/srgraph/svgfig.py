"""Deterministic, self-contained SVG rendering of plane figures.

Shapes are collected in plane coordinates and mapped to a square
pixel canvas with equal scales on both axes (so disks stay round).
Rendering uses fixed-precision decimal formatting and no external
assets, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Fill/stroke palette for the standard figures.
REGION_FILL = "#e8913a"
REGION_EDGE = "#b05f10"
HULL_FILL = "#b8b8b8"
HULL_EDGE = "#7a7a7a"
CURVE_COLOR = "#000000"
DOT_COLOR = "#000000"


def _fmt(x: float) -> str:
    s = f"{x:.4f}"
    return "0.0000" if s == "-0.0000" else s


def _coords(px: np.ndarray, py: np.ndarray) -> str:
    """'x,y x,y ...' with one '%.4f' operation; -0.0000 prints as 0.0000.

    A '-' only starts a number and '%.4f' always prints four decimals,
    so the text "-0.0000" is always a whole number.
    """
    text = " ".join(["%.4f,%.4f"] * px.size) % tuple(np.column_stack((px, py)).ravel().tolist())
    return text.replace("-0.0000", "0.0000")


@dataclass
class _Polygon:
    points: np.ndarray
    fill: str
    stroke: str
    opacity: float


@dataclass
class _Polyline:
    points: np.ndarray
    stroke: str
    stroke_width: float


class SvgFigure:
    """Accumulates shapes in plane coordinates; renders one SVG string."""

    size = 640  # canvas side in pixels

    def __init__(self, title: str | None = None):
        self.title = title
        self._items: list = []
        self._tracked: list[np.ndarray] = []

    def _track(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.complex128).ravel()
        self._tracked.append(pts)
        return pts

    def add_polygon(self, points, fill: str = REGION_FILL, stroke: str = "none",
                    opacity: float = 0.85) -> None:
        pts = self._track(points)
        if pts.size:
            self._items.append(_Polygon(pts, fill, stroke, opacity))

    def add_polyline(self, points, stroke: str = CURVE_COLOR,
                     stroke_width: float = 1.5) -> None:
        pts = self._track(points)
        if len(pts) >= 2:
            self._items.append(_Polyline(pts, stroke, stroke_width))

    def add_dot(self, point) -> None:
        (pt,) = self._track([point])
        self._items.append(pt)

    def _mapper(self):
        pts = np.concatenate(self._tracked) if self._tracked else np.empty(0)
        if pts.size:
            xmin, xmax = float(np.min(pts.real)), float(np.max(pts.real))
            ymin, ymax = float(np.min(pts.imag)), float(np.max(pts.imag))
        else:
            xmin = ymin = -1.0
            xmax = ymax = 1.0
        cx = 0.5 * (xmin + xmax)
        cy = 0.5 * (ymin + ymax)
        half = 0.54 * max(xmax - xmin, ymax - ymin, 1e-6)
        size = float(self.size)

        def to_px(p):
            """Pixel coordinates of a point or an array of points."""
            px = (p.real - (cx - half)) / (2.0 * half) * size
            py = size - (p.imag - (cy - half)) / (2.0 * half) * size
            return px, py

        return to_px

    def render(self) -> str:
        to_px = self._mapper()
        size = self.size
        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
            f'height="{size}" viewBox="0 0 {size} {size}">'
        ]
        if self.title:
            out.append(f"<title>{self.title}</title>")
        out.append(f'<rect x="0" y="0" width="{size}" height="{size}" fill="#ffffff"/>')
        for item in self._items:
            if isinstance(item, _Polygon):
                coords = _coords(*to_px(item.points))
                out.append(
                    f'<polygon points="{coords}" fill="{item.fill}" '
                    f'fill-opacity="{_fmt(item.opacity)}" fill-rule="evenodd" '
                    f'stroke="{item.stroke}" stroke-width="1.0000"/>'
                )
            elif isinstance(item, _Polyline):
                coords = _coords(*to_px(item.points))
                out.append(
                    f'<polyline points="{coords}" fill="none" '
                    f'stroke="{item.stroke}" stroke-width="{_fmt(item.stroke_width)}" '
                    f'stroke-linejoin="round"/>'
                )
            else:
                px, py = to_px(complex(item))
                out.append(
                    f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4.0000" '
                    f'fill="{DOT_COLOR}"/>'
                )
        out.append("</svg>")
        return "\n".join(out) + "\n"
