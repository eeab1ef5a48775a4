"""Geometry tests with Monte Carlo area/volume oracles."""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import reference_bev_corners, reference_iou_3d, reference_membership_mask

from xckit.errors import NegativeMargin, XckitError
from xckit.geometry import (
    BevPolygon,
    Box3D,
    GridMeta,
    enlarge,
    intersection_area,
    iou_3d,
    membership_mask,
    project_to_bev,
    wrap_angle,
)


def box(cx=0.0, cy=0.0, cz=0.0, dx=1.0, dy=1.0, dz=1.0, yaw=0.0):
    return Box3D(cx=cx, cy=cy, cz=cz, dx=dx, dy=dy, dz=dz, yaw=yaw)


def random_box(rng, span=8.0):
    return box(
        cx=rng.uniform(-span, span),
        cy=rng.uniform(-span, span),
        cz=rng.uniform(-1, 1),
        dx=rng.uniform(0.5, 4.0),
        dy=rng.uniform(0.5, 4.0),
        dz=rng.uniform(0.5, 3.0),
        yaw=rng.uniform(-math.pi, math.pi) or 0.1,
    )


def mc_points_in_poly(poly, pts):
    """Vectorized CCW half-plane membership, written independently of the library."""
    inside = np.ones(len(pts), dtype=bool)
    c = poly.corners
    for i in range(4):
        x1, y1 = c[i]
        x2, y2 = c[(i + 1) % 4]
        inside &= (x2 - x1) * (pts[:, 1] - y1) - (y2 - y1) * (pts[:, 0] - x1) >= 0
    return inside


class TestEnlarge:
    def test_margin_point_two(self):
        b = enlarge(box(dx=1.5, dy=1.7, dz=1.6), 0.2)
        assert (b.dx, b.dy, b.dz) == (1.9, 2.1, 2.0)

    def test_zero_margin_identity(self):
        b = box(cx=3.0, cy=-1.0, dx=2.0, dy=1.0, dz=1.5, yaw=0.4)
        assert enlarge(b, 0.0) == b

    def test_center_and_yaw_unchanged(self):
        b = enlarge(box(cx=5.0, cy=2.0, cz=-0.5, yaw=1.2), 0.3)
        assert (b.cx, b.cy, b.cz, b.yaw) == (5.0, 2.0, -0.5, 1.2)

    def test_area_growth_closed_form(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            b = random_box(rng)
            grown = project_to_bev(enlarge(b, 0.1)).area - project_to_bev(b).area
            want = (b.dx + 0.2) * (b.dy + 0.2) - b.dx * b.dy
            assert grown == pytest.approx(want, abs=1e-9)

    def test_negative_margin_rejected(self):
        with pytest.raises(NegativeMargin):
            enlarge(box(), -0.01)


class TestProjectToBev:
    def test_axis_aligned_unit_box(self):
        corners = {tuple(p) for p in np.round(project_to_bev(box()).corners, 12)}
        assert corners == {(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)}

    def test_quarter_turn_swaps_extents(self):
        p = project_to_bev(box(dx=2.0, dy=1.0, yaw=math.pi / 2))
        spans = p.corners.max(axis=0) - p.corners.min(axis=0)
        assert spans[0] == pytest.approx(1.0, abs=1e-12)
        assert spans[1] == pytest.approx(2.0, abs=1e-12)

    def test_diagonal_square(self):
        p = project_to_bev(box(dx=math.sqrt(2), dy=math.sqrt(2), yaw=math.pi / 4))
        got = {tuple(np.round(c, 9)) for c in p.corners}
        assert got == {(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)}

    def test_counter_clockwise_and_area(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            b = random_box(rng)
            p = project_to_bev(b)  # constructor rejects CW / degenerate quads
            assert p.area == pytest.approx(b.dx * b.dy, rel=1e-12)


class TestBevPolygon:
    def test_clockwise_rejected(self):
        with pytest.raises(XckitError):
            BevPolygon([(0.5, 0.5), (0.5, -0.5), (-0.5, -0.5), (-0.5, 0.5)])

    def test_degenerate_rejected(self):
        with pytest.raises(XckitError):
            BevPolygon([(0, 0), (1, 0), (2, 0), (3, 0)])

    def test_nonconvex_rejected(self):
        with pytest.raises(XckitError):
            BevPolygon([(0, 0), (2, 0), (0.1, 0.1), (0, 2)])


class TestMembershipMask:
    def test_full_cover(self):
        grid = GridMeta(height=6, width=4, origin_x=0, origin_y=0, pixel_size=1.0)
        poly = project_to_bev(box(cx=2, cy=3, dx=100, dy=100, dz=1))
        assert membership_mask(poly, grid).all()

    def test_fully_outside(self):
        grid = GridMeta(height=6, width=4, origin_x=0, origin_y=0, pixel_size=1.0)
        poly = project_to_bev(box(cx=50, cy=50, dx=2, dy=2, dz=1))
        assert not membership_mask(poly, grid).any()

    def test_sixteen_pixel_example(self):
        # meters [2,6]x[3,7] on a 10x10 unit grid: centers 2.5..5.5 x 3.5..6.5
        grid = GridMeta(height=10, width=10, origin_x=0, origin_y=0, pixel_size=1.0)
        poly = project_to_bev(box(cx=4, cy=5, dx=4, dy=4, dz=1))
        mask = membership_mask(poly, grid)
        assert int(mask.sum()) == 16
        xs = (np.arange(10) + 0.5)[None, :]
        ys = (np.arange(10) + 0.5)[:, None]
        # independent exhaustive enumeration of qualifying centers
        want = (xs >= 2) & (xs <= 6) & (ys >= 3) & (ys <= 7)
        assert np.array_equal(mask, want)

    def test_boundary_pixels_included(self):
        # an edge running exactly through pixel centers counts as inside
        grid = GridMeta(height=4, width=4, origin_x=0, origin_y=0, pixel_size=1.0)
        poly = BevPolygon([(1.5, 0.0), (1.5, 4.0), (0.0, 4.0), (0.0, 0.0)])
        mask = membership_mask(poly, grid)
        assert mask[:, 1].all()  # centers at x = 1.5 sit on the boundary

    def test_enlargement_superset(self):
        rng = np.random.default_rng(9)
        grid = GridMeta(height=24, width=24, origin_x=-6, origin_y=-6, pixel_size=0.5)
        for _ in range(25):
            b = random_box(rng, span=4.0)
            m = rng.uniform(0, 1.0)
            base = membership_mask(project_to_bev(b), grid)
            grown = membership_mask(project_to_bev(enlarge(b, m)), grid)
            assert np.all(grown | ~base), "enlarged mask must cover the base mask"

    def test_count_tracks_area_within_boundary_band(self):
        rng = np.random.default_rng(13)
        grid = GridMeta(height=40, width=40, origin_x=-10, origin_y=-10, pixel_size=0.5)
        samples = rng.uniform(-10, 10, size=(400_000, 2))
        for _ in range(10):
            poly = project_to_bev(random_box(rng, span=5.0))
            mask_area = membership_mask(poly, grid).sum() * grid.pixel_size**2
            mc_area = mc_points_in_poly(poly, samples).mean() * 400.0
            assert abs(mask_area - mc_area) <= poly.perimeter * grid.pixel_size


class TestIntersectionArea:
    def test_identical(self):
        p = project_to_bev(box(dx=2, dy=3))
        assert intersection_area(p, p) == pytest.approx(6.0, rel=1e-12)

    def test_disjoint(self):
        a = project_to_bev(box(cx=0, dx=2, dy=2))
        b = project_to_bev(box(cx=10, dx=2, dy=2))
        assert intersection_area(a, b) == 0.0

    def test_half_overlap_rectangles(self):
        a = project_to_bev(box(cx=0, dx=2, dy=2))
        b = project_to_bev(box(cx=1, dx=2, dy=2))
        assert intersection_area(a, b) == pytest.approx(2.0, rel=1e-12)

    def test_touching_edge_is_sliver(self):
        a = project_to_bev(box(cx=0, dx=2, dy=2))
        b = project_to_bev(box(cx=2, dx=2, dy=2))
        assert intersection_area(a, b) == 0.0

    def test_monte_carlo_oracle_100_pairs(self):
        rng = np.random.default_rng(17)
        pairs = 0
        while pairs < 100:
            a = random_box(rng, span=1.5)
            b = random_box(rng, span=1.5)
            pa, pb = project_to_bev(a), project_to_bev(b)
            exact = intersection_area(pa, pb)
            if exact < 0.3 * min(pa.area, pb.area):
                continue  # keep the MC relative error meaningful
            # the intersection lives inside the overlap of the two bounding
            # boxes; sampling only there keeps the estimator variance low
            lo = np.maximum(pa.corners.min(axis=0), pb.corners.min(axis=0))
            hi = np.minimum(pa.corners.max(axis=0), pb.corners.max(axis=0))
            pts = rng.uniform(lo, hi, size=(600_000, 2))
            frac = (mc_points_in_poly(pa, pts) & mc_points_in_poly(pb, pts)).mean()
            mc = frac * float(np.prod(hi - lo))
            assert abs(mc - exact) / exact < 0.01, (exact, mc)
            pairs += 1

    def test_symmetric(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            a = project_to_bev(random_box(rng, span=2.0))
            b = project_to_bev(random_box(rng, span=2.0))
            assert intersection_area(a, b) == pytest.approx(intersection_area(b, a), abs=1e-12)


class TestIou3d:
    def test_identical_boxes(self):
        b = box(dx=2, dy=3, dz=1.5, yaw=0.7)
        assert iou_3d(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou_3d(box(), box(cx=100)) == 0.0

    def test_disjoint_in_z_only(self):
        assert iou_3d(box(cz=0, dz=1), box(cz=5, dz=1)) == 0.0

    def test_hand_case_one_third(self):
        a = box(dx=2, dy=2, dz=2)
        b = box(cx=1, dx=2, dy=2, dz=2)
        assert iou_3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_hand_case_monte_carlo(self):
        a = box(dx=2, dy=2, dz=2)
        b = box(cx=1, dx=2, dy=2, dz=2)
        rng = np.random.default_rng(23)
        pts = rng.uniform([-1, -1, -1], [2, 1, 1], size=(300_000, 3))
        in_a = np.all(np.abs(pts - [0, 0, 0]) <= 1, axis=1)
        in_b = np.all(np.abs(pts - [1, 0, 0]) <= 1, axis=1)
        mc = (in_a & in_b).sum() / (in_a | in_b).sum()
        assert iou_3d(a, b) == pytest.approx(mc, abs=0.01)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            a, b = random_box(rng, span=2.0), random_box(rng, span=2.0)
            ab, ba = iou_3d(a, b), iou_3d(b, a)
            assert ab == pytest.approx(ba, abs=1e-12)
            assert 0.0 <= ab <= 1.0

    def test_one_only_for_identical_nonsquare(self):
        b = box(dx=3, dy=1.5, dz=1)
        rotated = box(dx=3, dy=1.5, dz=1, yaw=math.pi / 2)
        assert iou_3d(b, rotated) < 1.0
        nudged = box(cx=0.05, dx=3, dy=1.5, dz=1)
        assert iou_3d(b, nudged) < 1.0


class TestAngles:
    def test_wrap_cases(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
        assert wrap_angle(2 * math.pi + 0.25) == pytest.approx(0.25)

    def test_invalid_box_values(self):
        with pytest.raises(XckitError):
            box(dx=-1)
        with pytest.raises(XckitError):
            box(yaw=4.0)
        with pytest.raises(XckitError):
            GridMeta(height=0, width=4, origin_x=0, origin_y=0, pixel_size=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["cx", "cy", "cz", "dx", "dy", "dz"])
    def test_non_finite_box_field_rejected(self, name, value):
        with pytest.raises(XckitError, match="finite"):
            box(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["origin_x", "origin_y", "pixel_size"])
    def test_non_finite_grid_field_rejected(self, name, value):
        fields = dict(height=4, width=4, origin_x=0.0, origin_y=0.0, pixel_size=1.0)
        with pytest.raises(XckitError, match=f"grid {name} must be a finite number"):
            GridMeta(**{**fields, name: value})


# --- bitwise parity with the full computations (tests/oracles.py) ---
#
# iou_3d rejects disjoint pairs before clipping and membership_mask tests only
# the pixels around the polygon; both must return exactly what projecting,
# clipping and testing every pixel return.

PARITY = settings(max_examples=300, deadline=None, derandomize=True)
YAWS = st.one_of(
    st.floats(-math.pi, math.pi).filter(lambda t: t > -math.pi),
    st.sampled_from([math.pi, math.nextafter(-math.pi, 0.0), 0.0, math.pi / 2]),
)
EXTENTS = st.floats(0.2, 6.0) | st.floats(0.2, 6.0) | st.floats(1e-6, 1e-3)  # 1 in 3 tiny


def bits(x: float) -> bytes:
    return struct.pack("<d", x)  # tells 0.0 from -0.0


@st.composite
def boxes(draw, cx=st.floats(-12.0, 12.0), cy=st.floats(-12.0, 12.0)):
    return box(cx=draw(cx), cy=draw(cy), cz=draw(st.floats(-1.0, 1.0)), dx=draw(EXTENTS),
               dy=draw(EXTENTS), dz=draw(st.floats(0.1, 3.0)), yaw=draw(YAWS))


@st.composite
def box_pairs(draw):
    a, b = draw(boxes()), draw(boxes())
    kind = draw(st.sampled_from(["far", "near", "touching", "within_reach"]))
    if kind == "near":
        b = replace(b, cx=a.cx + draw(st.floats(-2.0, 2.0)), cy=a.cy + draw(st.floats(-2.0, 2.0)))
    elif kind == "touching":  # same yaw, b's side flush against a's
        off = 0.5 * (a.dx + b.dx)
        b = replace(b, yaw=a.yaw, cz=a.cz, cx=a.cx + off * math.cos(a.yaw),
                    cy=a.cy + off * math.sin(a.yaw))
    elif kind == "within_reach":
        # centers up to, or exactly, the sum of the half-diagonals apart
        d = 0.5 * (math.hypot(a.dx, a.dy) + math.hypot(b.dx, b.dy))
        d *= draw(st.one_of(st.just(1.0), st.floats(0.5, 1.0)))
        t = draw(st.floats(-math.pi, math.pi))
        b = replace(b, cz=a.cz, cx=a.cx + d * math.cos(t), cy=a.cy + d * math.sin(t))
    return a, b


@st.composite
def grids_and_boxes(draw):
    size = draw(st.floats(0.05, 2.0))
    grid = GridMeta(height=draw(st.integers(1, 24)), width=draw(st.integers(1, 24)),
                    origin_x=draw(st.floats(-10.0, 10.0)), origin_y=draw(st.floats(-10.0, 10.0)),
                    pixel_size=size)
    x1 = grid.origin_x + grid.width * size
    y1 = grid.origin_y + grid.height * size
    b = draw(boxes(cx=st.floats(grid.origin_x - 4.0, x1 + 4.0),
                   cy=st.floats(grid.origin_y - 4.0, y1 + 4.0)))
    if draw(st.booleans()):
        # upright box with a corner on a pixel center: its edges run through centers
        i, j = draw(st.integers(0, grid.width - 1)), draw(st.integers(0, grid.height - 1))
        sx, sy = draw(st.sampled_from([-0.5, 0.5])), draw(st.sampled_from([-0.5, 0.5]))
        b = replace(b, yaw=draw(st.sampled_from([0.0, math.pi])),
                    cx=grid.origin_x + (i + 0.5) * size + sx * b.dx,
                    cy=grid.origin_y + (j + 0.5) * size + sy * b.dy)
    return grid, b


class TestFastPathParity:
    @PARITY
    @given(box_pairs())
    @example((box(dx=2.0, dy=2.0), box(cx=1.9, cy=1.9, dx=2.0, dy=2.0)))  # corners overlap
    def test_iou_3d_equals_full_clipping(self, pair):
        a, b = pair
        assert bits(iou_3d(a, b)) == bits(reference_iou_3d(a, b))
        assert bits(iou_3d(b, a)) == bits(reference_iou_3d(b, a))

    @PARITY
    @given(grids_and_boxes())
    def test_membership_mask_equals_full_grid(self, case):
        grid, b = case
        poly = project_to_bev(b)
        got = membership_mask(poly, grid)
        want = reference_membership_mask(poly.corners, grid)
        assert got.dtype == bool and got.shape == (grid.height, grid.width)
        assert np.array_equal(got, want)

    @PARITY
    @given(st.builds(box, cx=st.floats(-1e6, 1e6), cy=st.floats(-1e6, 1e6),
                     dx=st.floats(-170.0, 1.0).map(lambda e: 10.0**e),
                     dy=st.floats(-170.0, 1.0).map(lambda e: 10.0**e), yaw=YAWS))
    @example(box(dx=1e-170, dy=1e-170))  # the footprint area underflows to 0
    def test_project_to_bev_raises_where_reference_does(self, b):
        try:
            want = reference_bev_corners(b)
        except XckitError as e:
            with pytest.raises(XckitError) as got:
                project_to_bev(b)
            assert str(got.value) == str(e)
        else:
            assert np.array_equal(project_to_bev(b).corners, want)
