"""Concentration score tests: hand cases, brute-force oracle parity, properties."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from xckit.attribution import AttributionMap
from xckit.errors import ShapeMismatch, XckitError
from xckit.geometry import Box3D, GridMeta, enlarge, project_to_bev
from xckit.xc import XcConfig, XcScores, significance_mask, xc_scores

import oracles


def amap(values):
    return AttributionMap(values=np.asarray(values, dtype=np.float64), method="saliency")


def hand_scene():
    """4x4 unit grid, one channel; 2x2 box over pixels (0..1, 0..1); one outside hot pixel."""
    grid = GridMeta(height=4, width=4, origin_x=0.0, origin_y=0.0, pixel_size=1.0)
    box = Box3D(cx=1.0, cy=1.0, cz=0.0, dx=2.0, dy=2.0, dz=1.0, yaw=0.0)
    v = np.zeros((4, 4, 1))
    v[0, 0], v[0, 1], v[1, 0], v[1, 1] = 0.5, 0.3, 0.2, 0.05
    v[3, 3] = 0.4
    return grid, box, v


class TestSignificanceMask:
    def test_inclusive_at_threshold(self):
        assert significance_mask(np.array([[0.1]]), 0.1)[0, 0]

    def test_vector_example(self):
        agg = np.array([[0.05, 0.5, 0.1, 0.0]])
        assert significance_mask(agg, 0.1).tolist() == [[False, True, True, False]]

    def test_zero_threshold_is_all_ones(self):
        agg = np.array([[0.0, 0.3], [0.0, 0.0]])
        assert significance_mask(agg, 0.0).all()

    def test_negative_threshold_rejected(self):
        with pytest.raises(XckitError):
            significance_mask(np.zeros((2, 2)), -0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_threshold_rejected(self, value):
        with pytest.raises(XckitError, match=f"a_thresh must be finite and >= 0, got {value}"):
            significance_mask(np.zeros((2, 2)), value)


class TestHandCase:
    def test_summing_and_counting_scores(self):
        grid, box, v = hand_scene()
        sc = xc_scores(amap(v), box, grid, XcConfig(a_thresh=0.1, margin_m=0.2))
        assert sc.s_plus == 1.0
        assert sc.S_plus == 1.4
        assert sc.xc_s_plus == 1.0 / 1.4
        assert (sc.c_plus, sc.C_plus) == (3, 4)
        assert sc.xc_c_plus == 0.75

    def test_negative_side_of_hand_case(self):
        grid, box, v = hand_scene()
        v = v.copy()
        v[1, 1] = -0.6   # replaces the insignificant 0.05
        v[2, 3] = -0.15
        sc = xc_scores(amap(v), box, grid, XcConfig(a_thresh=0.1, margin_m=0.2))
        assert sc.s_minus == 0.6
        assert sc.S_minus == pytest.approx(0.75)
        assert (sc.c_minus, sc.C_minus) == (1, 2)
        assert sc.xc_c_minus == 0.5
        # positive side unchanged except the lost 0.05 (was insignificant)
        assert sc.xc_s_plus == 1.0 / 1.4

    def test_all_inside_gives_ones(self):
        grid = GridMeta(height=6, width=6, origin_x=0.0, origin_y=0.0, pixel_size=1.0)
        box = Box3D(cx=3.0, cy=3.0, cz=0.0, dx=4.0, dy=4.0, dz=1.0, yaw=0.0)
        v = np.zeros((6, 6, 1))
        v[2, 2], v[3, 3] = 0.7, 0.2
        sc = xc_scores(amap(v), box, grid)
        assert sc.xc_s_plus == 1.0
        assert sc.xc_c_plus == 1.0

    def test_all_zero_map_every_ratio_undefined(self):
        grid, box, _ = hand_scene()
        sc = xc_scores(amap(np.zeros((4, 4, 1))), box, grid)
        assert sc.xc_s_plus is None and sc.xc_c_plus is None
        assert sc.xc_s_minus is None and sc.xc_c_minus is None
        assert (sc.S_plus, sc.C_plus, sc.S_minus, sc.C_minus) == (0.0, 0, 0.0, 0)

    def test_zero_threshold_zero_map_counting_defined(self):
        # with a_thresh 0 every pixel is significant, so counting works
        # while the summing ratio stays undefined (S == 0)
        grid, box, _ = hand_scene()
        sc = xc_scores(amap(np.zeros((4, 4, 1))), box, grid, XcConfig(a_thresh=0.0, margin_m=0.2))
        assert sc.xc_s_plus is None
        assert sc.C_plus == 16
        assert sc.xc_c_plus == pytest.approx(sc.c_plus / 16)

    def test_shape_mismatch_rejected(self):
        grid, box, _ = hand_scene()
        with pytest.raises(ShapeMismatch, match="does not cover the 4x4 grid"):
            xc_scores(amap(np.zeros((5, 4, 1))), box, grid)

    def test_two_dim_map_rejected(self):
        grid, box, v = hand_scene()
        with pytest.raises(ShapeMismatch, match=r"must be \(H, W, C\), got \(4, 4\)"):
            xc_scores(amap(v[:, :, 0]), box, grid)

    def test_bad_config_rejected(self):
        with pytest.raises(XckitError):
            XcConfig(a_thresh=-0.1)
        with pytest.raises(XckitError):
            XcConfig(margin_m=-0.5)

    @pytest.mark.parametrize("field", ["a_thresh", "margin_m"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_config_rejected(self, field, value):
        with pytest.raises(XckitError, match=f"{field} must be finite and >= 0, got {value}"):
            XcConfig(**{field: value})


def random_instance(rng):
    h = int(rng.integers(6, 20))
    w = int(rng.integers(6, 20))
    ps = float(rng.uniform(0.25, 1.0))
    grid = GridMeta(
        height=h, width=w,
        origin_x=float(rng.uniform(-5, 0)), origin_y=float(rng.uniform(-5, 0)),
        pixel_size=ps,
    )
    box = Box3D(
        cx=float(rng.uniform(grid.origin_x, grid.origin_x + w * ps)),
        cy=float(rng.uniform(grid.origin_y, grid.origin_y + h * ps)),
        cz=0.0,
        dx=float(rng.uniform(0.5, 4.0)),
        dy=float(rng.uniform(0.5, 4.0)),
        dz=1.5,
        yaw=float(rng.uniform(-3.0, 3.0)),
    )
    ch = int(rng.integers(1, 5))
    v = rng.normal(size=(h, w, ch)) * rng.exponential(0.3)
    v[rng.random(size=(h, w)) < 0.5] = 0.0  # sparse maps, like real attributions
    cfg = XcConfig(
        a_thresh=float(rng.choice([0.0, 0.05, 0.1, 0.3])),
        margin_m=float(rng.choice([0.0, 0.2, 0.5])),
    )
    return grid, box, v, cfg


class TestOracleParity:
    def test_matches_brute_force_exactly_200_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            grid, box, v, cfg = random_instance(rng)
            got = xc_scores(amap(v), box, grid, cfg)
            want = oracles.oracle_xc(v, box, grid, cfg.a_thresh, cfg.margin_m)
            assert got.s_plus == want["s_plus"]
            assert got.S_plus == want["S_plus"]
            assert got.c_plus == want["c_plus"]
            assert got.C_plus == want["C_plus"]
            assert got.s_minus == want["s_minus"]
            assert got.S_minus == want["S_minus"]
            assert got.c_minus == want["c_minus"]
            assert got.C_minus == want["C_minus"]
            assert got.xc_s_plus == want["xc_s_plus"]
            assert got.xc_c_plus == want["xc_c_plus"]
            assert got.xc_s_minus == want["xc_s_minus"]
            assert got.xc_c_minus == want["xc_c_minus"]


class TestProperties:
    def test_bounds_and_nesting(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            grid, box, v, cfg = random_instance(rng)
            sc = xc_scores(amap(v), box, grid, cfg)
            assert 0.0 <= sc.s_plus <= sc.S_plus + 1e-15
            assert sc.c_plus <= sc.C_plus and sc.c_minus <= sc.C_minus
            for r in (sc.xc_s_plus, sc.xc_c_plus, sc.xc_s_minus, sc.xc_c_minus):
                assert r is None or 0.0 <= r <= 1.0

    def test_margin_monotonicity(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            grid, box, v, _ = random_instance(rng)
            prev = None
            for m in (0.0, 0.2, 0.5, 1.0):
                sc = xc_scores(amap(v), box, grid, XcConfig(a_thresh=0.05, margin_m=m))
                cur = (sc.xc_s_plus, sc.xc_c_plus, sc.xc_s_minus, sc.xc_c_minus)
                if prev is not None:
                    for before, after in zip(prev, cur):
                        if before is not None:
                            assert after >= before - 1e-15
                prev = cur

    def test_outlier_shifts_counting_by_one_pixel_only(self):
        grid, box, v = hand_scene()
        base = xc_scores(amap(v), box, grid)
        c, cap = base.c_plus, base.C_plus
        prev_s = base.xc_s_plus
        for outlier in (10.0, 1e3, 1e6, 1e12):
            v2 = v.copy()
            v2[3, 0] = outlier  # far outside the box
            sc = xc_scores(amap(v2), box, grid)
            assert sc.xc_c_plus == c / (cap + 1)  # independent of magnitude
            assert sc.xc_s_plus < prev_s  # summing score keeps collapsing
            prev_s = sc.xc_s_plus
        assert prev_s < 1e-11

    def test_scale_covariance_of_summing(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            # continuous draws keep channel sums away from the exact
            # threshold boundary, where a one-ulp scaling difference flips
            grid, box, v, _ = random_instance(rng)
            base = xc_scores(amap(v), box, grid, XcConfig(a_thresh=0.1, margin_m=0.2))
            for k in (0.5, 3.0, 100.0):
                scaled = xc_scores(
                    amap(v * k), box, grid, XcConfig(a_thresh=0.1 * k, margin_m=0.2)
                )
                assert scaled.c_plus == base.c_plus and scaled.C_plus == base.C_plus
                assert scaled.c_minus == base.c_minus and scaled.C_minus == base.C_minus
                for a, b in (
                    (scaled.xc_s_plus, base.xc_s_plus),
                    (scaled.xc_s_minus, base.xc_s_minus),
                ):
                    if b is None:
                        assert a is None
                    else:
                        assert a == pytest.approx(b, rel=1e-12)

    def test_result_is_plain_dataclass(self):
        grid, box, v = hand_scene()
        sc = xc_scores(amap(v), box, grid)
        assert isinstance(sc, XcScores)
        assert isinstance(sc.c_plus, int)
        assert not any(
            isinstance(r, float) and math.isnan(r)
            for r in (sc.xc_s_plus, sc.xc_c_plus, sc.xc_s_minus, sc.xc_c_minus)
            if r is not None
        )


METAMORPHIC = settings(max_examples=200, deadline=None, derandomize=True)
SHIFT = 3  # zero border, in pixels, and the largest shift along each axis

# eighths tie with the thresholds below; the continuous part stays clear of
# subnormals, so scaling by 2^k (|k| <= 20) is exact
VALUES = st.one_of(
    st.integers(-16, 16).map(lambda n: n / 8.0),
    st.floats(-4.0, 4.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-6),
)
CONFIGS = st.builds(
    XcConfig,
    a_thresh=st.sampled_from([0.125, 0.25, 0.5, 1.0]) | st.floats(1e-3, 2.0),
    margin_m=st.sampled_from([0.0, 0.2, 0.5]),
)


@st.composite
def scenes(draw, border=0):
    """(grid, box, values, cfg); ``values`` is zero within ``border`` pixels of the edge."""
    h, w = draw(st.integers(4, 9)), draw(st.integers(4, 9))
    ps = draw(st.sampled_from([0.25, 0.5, 1.0]))
    grid = GridMeta(height=h + 2 * border, width=w + 2 * border,
                    origin_x=draw(st.floats(-5.0, 0.0)), origin_y=draw(st.floats(-5.0, 0.0)),
                    pixel_size=ps)
    inner = draw(arrays(np.float64, (h, w, draw(st.integers(1, 4))), elements=VALUES,
                        fill=st.just(0.0)))
    values = np.pad(inner, ((border, border), (border, border), (0, 0)))
    box = Box3D(
        cx=grid.origin_x + draw(st.floats(0.0, 1.0)) * grid.width * ps,
        cy=grid.origin_y + draw(st.floats(0.0, 1.0)) * grid.height * ps,
        cz=0.0, dx=draw(st.floats(0.3, 4.0)), dy=draw(st.floats(0.3, 4.0)), dz=1.5,
        yaw=draw(st.floats(-math.pi, math.pi, exclude_min=True)),
    )
    return grid, box, values, draw(CONFIGS)


def bits(x):
    return None if x is None else float(x).hex()


def sign_fields(sc, sign):
    """One sign's accumulators and ratios, floats as hex so equality is bitwise."""
    return (bits(getattr(sc, f"s_{sign}")), bits(getattr(sc, f"S_{sign}")),
            getattr(sc, f"c_{sign}"), getattr(sc, f"C_{sign}"),
            bits(getattr(sc, f"xc_s_{sign}")), bits(getattr(sc, f"xc_c_{sign}")))


def edge_clearance(box, grid, margin, pad):
    """Least distance from a pixel center (grid padded by ``pad``) to an enlarged-box edge line."""
    corners = project_to_bev(enlarge(box, margin)).corners
    px = grid.origin_x + (np.arange(-pad, grid.width + pad) + 0.5) * grid.pixel_size
    py = (grid.origin_y + (np.arange(-pad, grid.height + pad) + 0.5) * grid.pixel_size)[:, None]
    least = math.inf
    for (x1, y1), (x2, y2) in zip(corners, np.roll(corners, -1, axis=0)):
        cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
        least = min(least, float(np.abs(cross).min()) / math.hypot(x2 - x1, y2 - y1))
    return least


class TestMetamorphic:
    """Relations between the scores of transformed inputs, checked without an oracle."""

    @METAMORPHIC
    @given(scenes())
    def test_negating_map_swaps_signs(self, scene):
        grid, box, v, cfg = scene
        base = xc_scores(amap(v), box, grid, cfg)
        neg = xc_scores(amap(-v), box, grid, cfg)
        assert sign_fields(neg, "plus") == sign_fields(base, "minus")
        assert sign_fields(neg, "minus") == sign_fields(base, "plus")

    @METAMORPHIC
    @given(scenes(), st.integers(-20, 20))
    def test_power_of_two_scaling_keeps_ratios_and_counts(self, scene, k):
        grid, box, v, cfg = scene
        f = 2.0**k
        base = xc_scores(amap(v), box, grid, cfg)
        scaled = xc_scores(amap(v * f), box, grid,
                           XcConfig(a_thresh=cfg.a_thresh * f, margin_m=cfg.margin_m))
        for sign in ("plus", "minus"):
            want, got = sign_fields(base, sign), sign_fields(scaled, sign)
            assert got[2:] == want[2:]  # counts and both ratios
            assert got[:2] == tuple(bits(float.fromhex(x) * f) for x in want[:2])

    @METAMORPHIC
    @given(scenes(border=SHIFT), st.integers(-SHIFT, SHIFT), st.integers(-SHIFT, SHIFT))
    def test_whole_pixel_shift_keeps_scores(self, scene, di, dj):
        grid, box, v, cfg = scene
        # rounding in the shifted corners must not move an edge across a pixel center
        assume(edge_clearance(box, grid, cfg.margin_m, SHIFT) > 1e-6)
        moved = Box3D(cx=box.cx + dj * grid.pixel_size, cy=box.cy + di * grid.pixel_size,
                      cz=box.cz, dx=box.dx, dy=box.dy, dz=box.dz, yaw=box.yaw)
        shifted = np.roll(v, (di, dj), axis=(0, 1))  # nothing wraps: the border is zero
        base = xc_scores(amap(v), box, grid, cfg)
        got = xc_scores(amap(shifted), moved, grid, cfg)
        for sign in ("plus", "minus"):
            assert sign_fields(got, sign) == sign_fields(base, sign)
