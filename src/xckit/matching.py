"""Per-frame categorization of predictions into TP, FP, or Ignore.

A prediction whose top class score falls below ``score_thresh`` is ignored.
Otherwise its best-overlapping ground truth (by 3D IoU, argmax) decides:
meeting the class IoU threshold with a matching label makes it a TP, anything
else an FP. Ground truths are not consumed; several predictions may legally
match the same object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .errors import EmptyClassThresholds, UnknownLabel, XckitError
from .geometry import Box3D, iou_3d

TP = "TP"
FP = "FP"
IGNORE = "Ignore"

DEFAULT_IOU_THRESH = {"car": 0.5, "pedestrian": 0.25, "cyclist": 0.25}


@dataclass(frozen=True)
class Detection:
    """One predicted box with its label, per-class scores, and point count.

    ``label`` is the predicted (top-scoring) class; ``scores`` maps every
    class name to its score. ``anchor_index`` ties the detection back to the
    model output slot that produced it, which attribution targeting needs.
    """

    box: Box3D
    label: str
    scores: Dict[str, float]
    n_points: int = 0
    distance: Optional[float] = None
    anchor_index: Optional[int] = None

    @property
    def top_score(self) -> float:
        if self.label not in self.scores:
            raise UnknownLabel(f"detection label {self.label!r} missing from its scores")
        return self.scores[self.label]


@dataclass(frozen=True)
class GroundTruth:
    box: Box3D
    label: str


@dataclass(frozen=True)
class MatchConfig:
    score_thresh: float = 0.1
    iou_thresh: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_IOU_THRESH))

    def __post_init__(self):
        if not 0.0 <= self.score_thresh <= 1.0:
            raise XckitError(f"score_thresh must be in [0, 1], got {self.score_thresh}")
        if not self.iou_thresh:
            raise EmptyClassThresholds("iou_thresh has no classes")
        for name, t in self.iou_thresh.items():
            if not 0.0 < t <= 1.0:
                raise XckitError(f"iou_thresh[{name!r}] must be in (0, 1], got {t}")


@dataclass
class MatchOutcome:
    """Tags partition the predictions; matched_gt[i] is set only for TPs."""

    tags: List[str]
    matched_gt: List[Optional[int]]


def categorize(
    preds: List[Detection], gts: List[GroundTruth], cfg: MatchConfig = MatchConfig()
) -> MatchOutcome:
    """Tag every prediction against the frame's ground truth.

    Follows a single argmax-over-IoU pass per prediction: the best ground
    truth must both clear the class threshold and carry the same label. An
    exact IoU tie resolves to the lower ground-truth index.
    """
    tags: List[str] = []
    matched: List[Optional[int]] = []
    for pred in preds:
        if pred.top_score < cfg.score_thresh:
            tags.append(IGNORE)
            matched.append(None)
            continue
        if pred.label not in cfg.iou_thresh:
            raise UnknownLabel(f"no IoU threshold for class {pred.label!r}")
        best_iou = -1.0
        best_idx = None
        for j, gt in enumerate(gts):
            iou = iou_3d(pred.box, gt.box)
            if iou > best_iou:  # strict: ties keep the earlier ground truth
                best_iou, best_idx = iou, j
        if (
            best_idx is not None
            and best_iou >= cfg.iou_thresh[pred.label]
            and gts[best_idx].label == pred.label
        ):
            tags.append(TP)
            matched.append(best_idx)
        else:
            tags.append(FP)
            matched.append(None)
    return MatchOutcome(tags=tags, matched_gt=matched)
