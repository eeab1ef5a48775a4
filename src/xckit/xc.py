"""Explanation concentration scoring for one predicted box.

For each attribution sign the per-pixel aggregate map is thresholded into a
significance mask; a summing ratio and a counting ratio then measure how much
of the significant attribution mass (respectively, how many significant
pixels) fall inside the margin-enlarged box footprint. Zero-denominator
ratios are reported as explicitly undefined rather than NaN.

Sums over attribution mass are exactly rounded, so results are independent
of order and bit-comparable with a naive math.fsum loop. Channel sums are
vectorized, with a TwoSum exactness check and an fsum fallback per pixel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .attribution import AttributionMap, aggregate_signed
from .errors import ShapeMismatch, XckitError
from .geometry import Box3D, GridMeta, enlarge, membership_mask, project_to_bev


@dataclass(frozen=True)
class XcConfig:
    """Significance threshold and box margin (meters)."""

    a_thresh: float = 0.1
    margin_m: float = 0.2

    def __post_init__(self):
        for name in ("a_thresh", "margin_m"):
            if not 0 <= getattr(self, name) < math.inf:
                raise XckitError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class XcScores:
    """Accumulators and ratios for both attribution signs.

    ``xc_*`` fields are None when the corresponding denominator (S or C)
    is zero: no significant attribution of that sign exists anywhere.
    """

    s_plus: float
    S_plus: float
    c_plus: int
    C_plus: int
    s_minus: float
    S_minus: float
    c_minus: int
    C_minus: int
    xc_s_plus: Optional[float]
    xc_c_plus: Optional[float]
    xc_s_minus: Optional[float]
    xc_c_minus: Optional[float]


def significance_mask(agg: np.ndarray, a_thresh: float) -> np.ndarray:
    """Boolean mask of pixels whose aggregated attribution reaches a_thresh.

    The comparison is inclusive: a value exactly equal to a_thresh counts
    as significant. With a_thresh = 0 every pixel qualifies.
    """
    if not 0 <= a_thresh < math.inf:
        raise XckitError(f"a_thresh must be finite and >= 0, got {a_thresh}")
    return np.asarray(agg, dtype=np.float64) >= a_thresh


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den > 0 else None


def _one_sign(agg, sig, member):
    inside = sig & member
    # fsum is exactly rounded, so any summation order gives the same bits
    s = math.fsum(agg[inside].tolist())
    S = math.fsum(agg[sig].tolist())
    c = int(inside.sum())
    C = int(sig.sum())
    return s, S, c, C


def xc_scores(map: AttributionMap, box: Box3D, grid: GridMeta, cfg: XcConfig = XcConfig()) -> XcScores:
    """Compute all four concentration scores of one box's attribution map.

    The box is enlarged by ``cfg.margin_m`` before rasterizing membership;
    significance uses ``cfg.a_thresh`` on the per-pixel signed aggregates.
    """
    shape = np.shape(map.values)
    if len(shape) != 3:
        raise ShapeMismatch(f"attribution values must be (H, W, C), got {shape}")
    if shape[:2] != (grid.height, grid.width):
        raise ShapeMismatch(f"map {shape[:2]} does not cover the {grid.height}x{grid.width} grid")

    pos, neg = aggregate_signed(map)
    member = membership_mask(project_to_bev(enlarge(box, cfg.margin_m)), grid)

    sp, Sp, cp, Cp = _one_sign(pos, significance_mask(pos, cfg.a_thresh), member)
    sm, Sm, cm, Cm = _one_sign(neg, significance_mask(neg, cfg.a_thresh), member)

    return XcScores(
        s_plus=sp, S_plus=Sp, c_plus=cp, C_plus=Cp,
        s_minus=sm, S_minus=Sm, c_minus=cm, C_minus=Cm,
        xc_s_plus=_ratio(sp, Sp),
        xc_c_plus=_ratio(float(cp), float(Cp)),
        xc_s_minus=_ratio(sm, Sm),
        xc_c_minus=_ratio(float(cm), float(Cm)),
    )
