"""Categorization traces and threshold/ordering properties."""

import numpy as np
import pytest

from xckit.errors import EmptyClassThresholds, UnknownLabel, XckitError
from xckit.geometry import Box3D
from xckit.matching import (
    FP,
    IGNORE,
    TP,
    Detection,
    GroundTruth,
    MatchConfig,
    categorize,
)

import gen


def det(label="car", score=0.9, cx=0.0, dx=4.0, dy=2.0, **kw):
    box = Box3D(cx=cx, cy=0.0, cz=0.0, dx=dx, dy=dy, dz=1.6, yaw=0.0, **kw)
    scores = {"car": 0.0, "pedestrian": 0.0, "cyclist": 0.0}
    scores[label] = score
    return Detection(box=box, label=label, scores=scores, n_points=100)


def gt(label="car", cx=0.0, dx=4.0, dy=2.0):
    return GroundTruth(box=Box3D(cx=cx, cy=0.0, cz=0.0, dx=dx, dy=dy, dz=1.6, yaw=0.0), label=label)


class TestTraces:
    def test_low_score_ignored(self):
        out = categorize([det(score=0.05)], [gt()])
        assert out.tags == [IGNORE]
        assert out.matched_gt == [None]

    def test_score_equal_to_threshold_not_ignored(self):
        out = categorize([det(score=0.1)], [gt()])
        assert out.tags == [TP]

    def test_good_overlap_same_label_is_tp(self):
        # offset 1.2m on a 4m box: IoU = 2.8/5.2 ~ 0.538 >= 0.5
        out = categorize([det(cx=1.2)], [gt()])
        assert out.tags == [TP]
        assert out.matched_gt == [0]

    def test_good_overlap_wrong_label_is_fp(self):
        out = categorize([det(label="car", cx=1.2)], [gt(label="pedestrian")])
        assert out.tags == [FP]

    def test_no_ground_truth_is_fp(self):
        out = categorize([det(score=0.9)], [])
        assert out.tags == [FP]
        assert out.matched_gt == [None]

    def test_two_predictions_share_one_gt(self):
        out = categorize([det(cx=0.3), det(cx=-0.3)], [gt()])
        assert out.tags == [TP, TP]
        assert out.matched_gt == [0, 0]

    def test_weak_overlap_is_fp(self):
        out = categorize([det(cx=3.5)], [gt()])
        assert out.tags == [FP]

    def test_pedestrian_threshold_lower(self):
        # IoU ~ 0.333 passes the 0.25 pedestrian bar but not the 0.5 car bar
        p_ped = det(label="pedestrian", cx=1.0, dx=2.0, dy=2.0)
        p_car = det(label="car", cx=1.0, dx=2.0, dy=2.0)
        assert categorize([p_ped], [gt(label="pedestrian", dx=2.0, dy=2.0)]).tags == [TP]
        assert categorize([p_car], [gt(label="car", dx=2.0, dy=2.0)]).tags == [FP]

    def test_iou_tie_takes_lower_gt_index(self):
        # two identical ground truths; the argmax must stay on index 0,
        # so a label mismatch there makes the prediction FP even though
        # gt 1 would have matched at the same IoU
        out = categorize([det(label="car")], [gt(label="car"), gt(label="car")])
        assert out.matched_gt == [0]
        out2 = categorize([det(label="car")], [gt(label="pedestrian"), gt(label="car")])
        assert out2.tags == [FP]


class TestValidation:
    def test_empty_thresholds(self):
        with pytest.raises(EmptyClassThresholds):
            MatchConfig(iou_thresh={})

    def test_unknown_label(self):
        cfg = MatchConfig(iou_thresh={"car": 0.5})
        with pytest.raises(UnknownLabel):
            categorize([det(label="pedestrian")], [gt()], cfg)

    def test_bad_score_thresh(self):
        with pytest.raises(XckitError):
            MatchConfig(score_thresh=1.5)

    def test_bad_iou_value(self):
        with pytest.raises(XckitError):
            MatchConfig(iou_thresh={"car": 0.0})

    def test_defaults(self):
        cfg = MatchConfig()
        assert cfg.score_thresh == 0.1
        assert cfg.iou_thresh == {"car": 0.5, "pedestrian": 0.25, "cyclist": 0.25}


class TestProperties:
    def test_ignore_grows_with_score_thresh(self):
        rng = np.random.default_rng(53)
        for _ in range(60):
            preds, gts = gen.random_frame(rng)
            prev_ignored = set()
            for thresh in (0.05, 0.1, 0.3, 0.6):
                out = categorize(preds, gts, MatchConfig(score_thresh=thresh))
                ignored = {i for i, t in enumerate(out.tags) if t == IGNORE}
                assert prev_ignored <= ignored
                prev_ignored = ignored

    def test_raising_iou_never_makes_tp(self):
        rng = np.random.default_rng(59)
        for _ in range(60):
            preds, gts = gen.random_frame(rng)
            prev_tp = None
            for bar in (0.25, 0.5, 0.7, 0.9):
                cfg = MatchConfig(iou_thresh={c: bar for c in gen.CLASSES})
                tp = {i for i, t in enumerate(categorize(preds, gts, cfg).tags) if t == TP}
                if prev_tp is not None:
                    assert tp <= prev_tp
                prev_tp = tp

    def test_order_independence(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            preds, gts = gen.random_frame(rng, n_pred=(2, 8))
            out = categorize(preds, gts)
            perm = rng.permutation(len(preds))
            shuffled = categorize([preds[i] for i in perm], gts)
            for new_pos, old_pos in enumerate(perm):
                assert shuffled.tags[new_pos] == out.tags[old_pos]
                assert shuffled.matched_gt[new_pos] == out.matched_gt[old_pos]

    def test_tags_partition_predictions(self):
        rng = np.random.default_rng(67)
        for _ in range(40):
            preds, gts = gen.random_frame(rng)
            out = categorize(preds, gts)
            assert len(out.tags) == len(preds)
            assert all(t in (TP, FP, IGNORE) for t in out.tags)
            for t, m in zip(out.tags, out.matched_gt):
                assert (m is not None) == (t == TP)
