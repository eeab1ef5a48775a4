"""Threshold-independent binary metrics over per-box scores.

Each metric takes a 1-d float array of scores and a boolean array of labels
of the same length (True = positive). AUROC integrates the tie-grouped ROC
curve with trapezoids, which reproduces the Mann-Whitney pair statistic.
AUPR uses the step (average precision) rule sum_k (R_k - R_{k-1}) P_k, again
with tied scores collapsed into one threshold step; trapezoids on PR curves
systematically overestimate and are deliberately avoided. AUPR_op measures
how well LOW scores pick out the negative class: scores are negated and
labels flipped, then scored the same way. The KS statistic is the
sup-distance between the two empirical CDFs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import DegenerateClassBalance, EmptySample, NoPositives, ShapeMismatch, XckitError

TP_AS_POSITIVE = "tp-as-positive"
FP_AS_POSITIVE = "fp-as-positive"


@dataclass
class MetricReport:
    """One evaluated feature (optionally within one row group)."""

    auroc: float
    aupr: float
    aupr_op: float
    n_pos: int
    n_neg: int
    feature: str = ""
    group: str = ""


def _finite_1d(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeMismatch(f"{what} must be 1-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise XckitError(f"{what} must be finite")
    return arr


def _to_arrays(scores, labels):
    scores = _finite_1d(scores, "scores")
    labels = np.asarray(labels, dtype=bool)
    if labels.shape != scores.shape:
        raise ShapeMismatch(f"{scores.size} scores but labels of shape {labels.shape}")
    return scores, labels


def _tie_grouped_counts(scores, labels):
    """Per unique score (descending): positives and totals in that group."""
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    # first index of each run of equal sorted scores
    starts = np.concatenate([[0], np.flatnonzero(s[1:] != s[:-1]) + 1])
    pos = np.add.reduceat(labels[order], starts, dtype=np.int64)
    tot = np.diff(np.append(starts, s.size))
    return pos, tot


def auroc(scores, labels) -> float:
    """Area under the ROC curve; ties contribute half-concordance."""
    scores, labels = _to_arrays(scores, labels)
    n_pos = int(labels.sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise DegenerateClassBalance(f"need both classes, got {n_pos} pos / {n_neg} neg")
    pos, tot = _tie_grouped_counts(scores, labels)
    neg = tot - pos
    cum_tp = np.concatenate([[0], np.cumsum(pos)])
    cum_fp = np.concatenate([[0], np.cumsum(neg)])
    tpr = cum_tp / n_pos
    fpr = cum_fp / n_neg
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) * 0.5))


def aupr(scores, labels, positive_class: str = TP_AS_POSITIVE) -> float:
    """Average-precision area under the PR curve.

    ``fp-as-positive`` evaluates the operator's view: scores are negated so
    that confidently-low scores rank first, and the negative class becomes
    the detection target.
    """
    scores, labels = _to_arrays(scores, labels)
    if positive_class == FP_AS_POSITIVE:
        scores, labels = -scores, ~labels
    elif positive_class != TP_AS_POSITIVE:
        raise XckitError(f"unknown positive_class {positive_class!r}")
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise NoPositives(f"no {positive_class} samples to rank")
    pos, tot = _tie_grouped_counts(scores, labels)
    cum_tp = np.cumsum(pos)
    cum_all = np.cumsum(tot)
    recall = cum_tp / n_pos
    precision = cum_tp / cum_all
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev_recall) * precision))


def ks_statistic(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup |ECDF_a - ECDF_b|."""
    a = np.sort(_finite_1d(sample_a, "sample values"))
    b = np.sort(_finite_1d(sample_b, "sample values"))
    if a.size == 0 or b.size == 0:
        raise EmptySample("both samples must be non-empty")
    pooled = np.unique(np.concatenate([a, b]))
    ecdf_a = np.searchsorted(a, pooled, side="right") / a.size
    ecdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(ecdf_a - ecdf_b)))


def evaluate_feature(
    rows,
    feature: str,
    group_name: str = "",
    rng_seed: Optional[int] = None,
) -> MetricReport:
    """Score one feature column of a per-box dataset as a TP/FP classifier.

    ``rows`` is any sequence of objects with an ``is_tp`` attribute and the
    named feature attribute, e.g. one group of ``meta.split_groups``, whose
    name ``group_name`` carries into the report. ``feature="random"``
    substitutes a seeded uniform score, the no-information baseline.
    """
    subset = list(rows)
    if not subset:
        raise EmptySample(f"group {group_name or '<all>'} selected no rows")
    labels = np.array([bool(r.is_tp) for r in subset])
    if feature == "random":
        rng = np.random.default_rng(rng_seed)
        values = rng.uniform(0.0, 1.0, size=len(subset))
    else:
        values = np.array([float(getattr(r, feature)) for r in subset])
    n_pos = int(labels.sum())
    return MetricReport(
        auroc=auroc(values, labels),
        aupr=aupr(values, labels, TP_AS_POSITIVE),
        aupr_op=aupr(values, labels, FP_AS_POSITIVE),
        n_pos=n_pos,
        n_neg=len(subset) - n_pos,
        feature=feature,
        group=group_name,
    )


def render_table(reports: List[MetricReport]) -> str:
    """Fixed-width text table, one row per evaluated feature/group."""
    headers = ("feature", "group", "n_pos", "n_neg", "AUROC", "AUPR", "AUPR_op")
    rows = [
        (
            r.feature or "-",
            r.group or "all",
            str(r.n_pos),
            str(r.n_neg),
            f"{r.auroc:.3f}",
            f"{r.aupr:.3f}",
            f"{r.aupr_op:.3f}",
        )
        for r in reports
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(tuple("-" * w for w in widths))]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
