"""Random frame and feature-row generators shared across test modules."""

import math

import numpy as np

from xckit.geometry import Box3D, wrap_angle
from xckit.io_formats import FeatureRow
from xckit.matching import Detection, GroundTruth

CLASSES = ("car", "pedestrian", "cyclist")


def random_box(rng, span=20.0):
    return Box3D(
        cx=float(rng.uniform(-span, span)),
        cy=float(rng.uniform(-span, span)),
        cz=float(rng.uniform(-0.5, 0.5)),
        dx=float(rng.uniform(0.6, 4.5)),
        dy=float(rng.uniform(0.6, 2.2)),
        dz=float(rng.uniform(1.0, 2.0)),
        yaw=wrap_angle(float(rng.uniform(-math.pi, math.pi))),
    )


def scores_with_top(rng, label):
    """Random per-class scores whose argmax is the given label."""
    raw = {c: float(rng.uniform(0.0, 0.6)) for c in CLASSES}
    raw[label] = float(rng.uniform(0.65, 1.0))
    return raw


def random_frame(rng, n_gt=(0, 5), n_pred=(0, 7)):
    """A loosely-coupled frame: some predictions jitter a ground truth, some float free."""
    gts = [GroundTruth(box=random_box(rng), label=str(rng.choice(CLASSES)))
           for _ in range(int(rng.integers(*n_gt)))]
    preds = []
    for _ in range(int(rng.integers(*n_pred))):
        if gts and rng.random() < 0.6:
            src = gts[int(rng.integers(len(gts)))]
            b = src.box
            box = Box3D(
                cx=b.cx + float(rng.normal(0, 0.4)),
                cy=b.cy + float(rng.normal(0, 0.4)),
                cz=b.cz,
                dx=b.dx * float(rng.uniform(0.85, 1.15)),
                dy=b.dy * float(rng.uniform(0.85, 1.15)),
                dz=b.dz,
                yaw=wrap_angle(b.yaw + float(rng.normal(0, 0.1))),
            )
            label = src.label if rng.random() < 0.8 else str(rng.choice(CLASSES))
        else:
            box = random_box(rng)
            label = str(rng.choice(CLASSES))
        score_scale = float(rng.uniform(0.02, 1.0))
        scores = {c: v * score_scale for c, v in scores_with_top(rng, label).items()}
        preds.append(
            Detection(box=box, label=label, scores=scores,
                      n_points=int(rng.integers(5, 500)))
        )
    return preds, gts


def noisy_and_feature_rows(n_rows, rng_seed=0):
    """A dataset where TP-ness is a noisy AND of two latent factors.

    The top class score tracks one factor, the concentration scores track the
    other, so no single column can ever separate the classes well; a model
    that combines them can. Used to exercise the meta-classifier's synergy.
    """
    rng = np.random.default_rng(rng_seed)
    rows = []
    for _ in range(n_rows):
        u = float(rng.uniform())
        w = float(rng.uniform())
        label = (u > 0.45) and (w > 0.45)
        if rng.random() < 0.08:
            label = not label

        def noisy(x, scale=0.08):
            return float(np.clip(x + rng.normal(0, scale), 0.0, 1.0))

        rows.append(
            FeatureRow(
                top_score=noisy(u),
                xc_s_plus=noisy(w, 0.10),
                xc_c_plus=noisy(w),
                xc_s_minus=noisy(1.0 - w, 0.10),
                xc_c_minus=noisy(1.0 - w),
                xc_s_plus_valid=True, xc_c_plus_valid=True,
                xc_s_minus_valid=True, xc_c_minus_valid=True,
                n_points=int(rng.integers(10, 400)),
                distance=float(rng.uniform(2.0, 60.0)),
                pred_label=str(rng.choice(CLASSES)),
                is_tp=bool(label),
            )
        )
    return rows
