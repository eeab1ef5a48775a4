"""Bird's-eye-view box geometry on a metric pixel grid.

Boxes live in a metric frame (meters, yaw about the vertical axis); the grid
maps them onto pixels. Everything here is pure float64 arithmetic: margin
enlargement, corner projection, pixel-center membership rasterization, convex
polygon clipping, and 3D IoU.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import NegativeMargin, XckitError


def wrap_angle(theta: float) -> float:
    """Map an angle in radians into (-pi, pi]."""
    t = math.fmod(theta, 2.0 * math.pi)
    if t <= -math.pi:
        t += 2.0 * math.pi
    elif t > math.pi:
        t -= 2.0 * math.pi
    return t


@dataclass(frozen=True)
class GridMeta:
    """Pixel grid over a metric BEV window.

    ``origin_x, origin_y`` give the meter coordinates of the corner of pixel
    (0, 0); ``pixel_size`` is meters per (square) pixel.
    """

    height: int
    width: int
    origin_x: float
    origin_y: float
    pixel_size: float

    def __post_init__(self):
        for name in ("height", "width"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise XckitError(f"grid {name} must be an integer, got {value!r}")
        for name in ("origin_x", "origin_y", "pixel_size"):
            if not math.isfinite(getattr(self, name)):
                raise XckitError(f"grid {name} must be a finite number, got {getattr(self, name)}")
        if self.pixel_size <= 0:
            raise XckitError(f"pixel_size must be positive, got {self.pixel_size}")
        if self.height < 1 or self.width < 1:
            raise XckitError(f"grid needs at least one pixel, got {self.height}x{self.width}")


@dataclass(frozen=True)
class Box3D:
    """An upright 3D box: center (cx, cy, cz), extents (dx, dy, dz), yaw."""

    cx: float
    cy: float
    cz: float
    dx: float
    dy: float
    dz: float
    yaw: float

    def __post_init__(self):
        fields = (self.cx, self.cy, self.cz, self.dx, self.dy, self.dz, self.yaw)
        if not all(map(math.isfinite, fields)):
            raise XckitError(f"box fields must be finite, got {fields}")
        if self.dx <= 0 or self.dy <= 0 or self.dz <= 0:
            raise XckitError(f"box extents must be positive, got ({self.dx}, {self.dy}, {self.dz})")
        if not (-math.pi < self.yaw <= math.pi):
            raise XckitError(f"yaw must lie in (-pi, pi], got {self.yaw}; wrap_angle() normalizes")
        # built once here, so a box whose footprint is no polygon (extents that
        # underflow, or vanish against the center's ulp) is rejected up front
        try:
            footprint = _footprint(self)
        except XckitError as e:
            raise XckitError(f"box footprint is degenerate: {e}") from None
        if not math.isfinite(self.volume):
            raise XckitError(f"box volume overflows: ({self.dx}, {self.dy}, {self.dz})")
        object.__setattr__(self, "_footprint", footprint)

    @property
    def volume(self) -> float:
        return self.dx * self.dy * self.dz


class BevPolygon:
    """Convex quad in BEV meters, corners counter-clockwise, finite area > 0."""

    __slots__ = ("corners",)

    def __init__(self, corners):
        pts = np.asarray(corners, dtype=np.float64)
        if pts.shape != (4, 2):
            raise XckitError(f"polygon needs 4 corner points, got shape {pts.shape}")
        bound = np.abs(pts).max()
        if not bound < math.inf:  # NaN fails this too
            raise XckitError("polygon corners must be finite")
        # beyond 1e150 the shoelace sums may overflow to an inf or NaN area, rejected below
        with np.errstate(over="ignore", invalid="ignore") if bound > 1e150 else nullcontext():
            area = _signed_area(pts)
        if not (area > 0):
            raise XckitError("polygon corners must be counter-clockwise with positive area")
        if area == math.inf:
            raise XckitError("polygon area overflows")
        p = pts.tolist()
        for i in range(4):
            (x0, y0), (x1, y1), (x2, y2) = p[i - 1], p[i], p[(i + 1) % 4]
            if (x1 - x0) * (y2 - y1) - (y1 - y0) * (x2 - x1) < 0:
                raise XckitError("polygon must be convex")
        self.corners = pts

    @property
    def area(self) -> float:
        return _signed_area(self.corners)

    @property
    def perimeter(self) -> float:
        d = np.roll(self.corners, -1, axis=0) - self.corners
        return float(np.hypot(d[:, 0], d[:, 1]).sum())


def _signed_area(pts) -> float:
    x, y = pts[:, 0], pts[:, 1]
    xn, yn = np.concatenate((x[1:], x[:1])), np.concatenate((y[1:], y[:1]))  # np.roll(-1)
    return 0.5 * float(np.dot(x, yn) - np.dot(xn, y))


def enlarge(box: Box3D, m: float) -> Box3D:
    """Grow a box by margin ``m`` meters on every side (extents gain 2m)."""
    if m < 0:
        raise NegativeMargin(f"margin must be >= 0, got {m}")
    return Box3D(
        cx=box.cx, cy=box.cy, cz=box.cz,
        dx=box.dx + 2.0 * m, dy=box.dy + 2.0 * m, dz=box.dz + 2.0 * m,
        yaw=box.yaw,
    )


def project_to_bev(box: Box3D) -> BevPolygon:
    """Corners of the box footprint: center +/- (dx/2, dy/2) rotated by yaw.

    The polygon is built with the box and shared; its corners are read-only.
    """
    return box._footprint


def _footprint(box) -> BevPolygon:
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    hx, hy = 0.5 * box.dx, 0.5 * box.dy
    local = np.array([(hx, hy), (-hx, hy), (-hx, -hy), (hx, -hy)])
    rot = np.array([[c, -s], [s, c]])
    poly = BevPolygon(local @ rot.T + np.array([box.cx, box.cy]))
    poly.corners.flags.writeable = False
    return poly


def _pixel_window(lo: float, hi: float, origin: float, size: float, n: int):
    """Indices [i0, i1) of the pixels whose centers may lie in [lo, hi], padded by one.

    The pad keeps rounding in the edge tests inside the window; non-finite
    bounds give the whole axis.
    """
    a, b = (lo - origin) / size - 0.5, (hi - origin) / size - 0.5  # center indices at lo, hi
    if not (math.isfinite(a) and math.isfinite(b)):
        return 0, n
    return max(math.ceil(a) - 1, 0), min(math.floor(b) + 2, n)


def membership_mask(poly: BevPolygon, grid: GridMeta) -> np.ndarray:
    """(H, W) boolean mask of pixels whose center lies in or on the polygon.

    Only the pixels around the corners' bounding box are tested, at centers
    ``origin + (i + 0.5) * pixel_size``; the mask equals testing every pixel.
    """
    pts = poly.corners.tolist()
    xs, ys = zip(*pts)
    i0, i1 = _pixel_window(min(xs), max(xs), grid.origin_x, grid.pixel_size, grid.width)
    j0, j1 = _pixel_window(min(ys), max(ys), grid.origin_y, grid.pixel_size, grid.height)
    mask = np.zeros((grid.height, grid.width), dtype=bool)
    if i0 >= i1 or j0 >= j1:
        return mask
    px = grid.origin_x + (np.arange(i0, i1) + 0.5) * grid.pixel_size
    py = (grid.origin_y + (np.arange(j0, j1) + 0.5) * grid.pixel_size)[:, None]
    inside = mask[j0:j1, i0:i1]
    inside[...] = True
    for i in range(4):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % 4]
        # CCW edges: inside is the non-negative side of each edge normal
        inside &= (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1) >= 0.0
    return mask


_SLIVER_AREA = 1e-10  # m^2; below this a clipped region counts as empty
# relative (and absolute, in m) slack of the circle test in iou_3d: far above
# the rounding of corners and distances, so a pair it rejects clips to 0.0
_REACH_SLACK = 1e-9


def intersection_area(a: BevPolygon, b: BevPolygon) -> float:
    """Overlap area of two convex quads (Sutherland-Hodgman clipping on Python floats)."""
    subject = a.corners.tolist()
    clip = b.corners.tolist()
    for i in range(4):
        if not subject:
            return 0.0
        cx1, cy1 = clip[i]
        cx2, cy2 = clip[(i + 1) % 4]
        ex, ey = cx2 - cx1, cy2 - cy1

        def side(p):
            return ex * (p[1] - cy1) - ey * (p[0] - cx1)

        clipped = []
        prev = subject[-1]
        prev_side = side(prev)
        for cur in subject:
            cur_side = side(cur)
            if cur_side >= 0:
                if prev_side < 0:
                    clipped.append(_edge_cross(prev, cur, prev_side, cur_side))
                clipped.append(cur)
            elif prev_side >= 0:
                clipped.append(_edge_cross(prev, cur, prev_side, cur_side))
            prev, prev_side = cur, cur_side
        subject = clipped
    if len(subject) < 3:
        return 0.0
    pts = np.asarray(subject)
    area = abs(_signed_area(pts))
    return 0.0 if area < _SLIVER_AREA else area


def _edge_cross(p, q, sp, sq):
    t = sp / (sp - sq)
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Volume IoU of two upright boxes.

    The vertical overlap comes from the [cz - dz/2, cz + dz/2] interval
    intersection; the footprint overlap from rotated polygon clipping, which
    is skipped when the footprints' circumscribed circles are apart. Disjoint
    boxes give exactly 0.0.
    """
    z_lo = max(a.cz - 0.5 * a.dz, b.cz - 0.5 * b.dz)
    z_hi = min(a.cz + 0.5 * a.dz, b.cz + 0.5 * b.dz)
    if z_hi <= z_lo:
        return 0.0
    reach = 0.5 * (math.hypot(a.dx, a.dy) + math.hypot(b.dx, b.dy))
    scale = reach + max(abs(a.cx), abs(a.cy), abs(b.cx), abs(b.cy))
    if math.hypot(a.cx - b.cx, a.cy - b.cy) > reach + _REACH_SLACK * scale + _REACH_SLACK:
        return 0.0
    bev = intersection_area(project_to_bev(a), project_to_bev(b))
    if bev == 0.0:
        return 0.0
    inter = bev * (z_hi - z_lo)
    union = a.volume + b.volume - inter
    iou = inter / union
    return min(max(iou, 0.0), 1.0)
