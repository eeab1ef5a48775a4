"""Per-box feature datasets and the small TP/FP meta-classifier.

The dataset joins, for every kept prediction, its top class score, the four
concentration scores, and baseline features (point count, distance). The
meta-classifier is a two-layer MLP (d -> 3 -> 1, relu then sigmoid) that
holds its own float32 weights and computes its own binary-cross-entropy
gradients; Adam updates the weights in float64, once per step over one flat
float32 vector that W1, b1, W2, b2 view. Each step runs in place on buffers
allocated once per fit, one operation at a time in the order of the textbook
update, so the weights are bitwise those of per-array, allocating updates.
It stores no normalization statistics, so callers pass normalized features.
Cross-validation follows one fixed protocol, stated once in the constants
below: z-score with training-fold statistics, 4x duplication with
U(-0.05, 0.05) feature noise on the training folds only, 5 repeats of 5
stratified folds, 25 metric triples averaged.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .autodiff import _init_array
from .errors import (
    ConstantFeature,
    InsufficientRows,
    MissingAttribution,
    ShapeMismatch,
    SingleClassTrainingSet,
    XckitError,
)
from .geometry import GridMeta
from .io_formats import FeatureRow
from .matching import IGNORE, MatchConfig, categorize
from .metrics import FP_AS_POSITIVE, TP_AS_POSITIVE, MetricReport, aupr, auroc
from .xc import XcConfig, xc_scores

XC_RATIOS = ("xc_s_plus", "xc_c_plus", "xc_s_minus", "xc_c_minus")
# the five meta-features; baseline columns n_points / distance stay separate
DEFAULT_FEATURES = ("top_score", *XC_RATIOS)

POINT_SPLIT = 100  # rows with n_points >= POINT_SPLIT form the "large" bucket

# the one meta-classifier protocol: repeated stratified k-fold CV, noisy
# duplication of the training folds, and the MLP's width and Adam schedule
FOLDS, REPEATS = 5, 5
DUPLICATION, NOISE_HALF_WIDTH = 4, 0.05
HIDDEN, EPOCHS, BATCH_SIZE, LEARNING_RATE = 3, 12, 16, 0.001


def build_feature_dataset(
    frames: Iterable[tuple],
    grid: GridMeta,
    xc_cfg: XcConfig = XcConfig(),
    match_cfg: MatchConfig = MatchConfig(),
) -> List[FeatureRow]:
    """Assemble one FeatureRow per kept (non-Ignored) prediction.

    Each frame is a triple (preds, maps, gts) where ``maps`` aligns with
    ``preds`` and holds each prediction's attribution map for its top class.
    A kept prediction without a map is an error; ignored ones may omit it.
    """
    rows: List[FeatureRow] = []
    for frame_no, (preds, maps, gts) in enumerate(frames):
        if len(maps) != len(preds):
            raise MissingAttribution(
                f"frame {frame_no}: {len(preds)} predictions but {len(maps)} maps"
            )
        outcome = categorize(preds, gts, match_cfg)
        for i, (pred, amap) in enumerate(zip(preds, maps)):
            if outcome.tags[i] == IGNORE:
                continue
            if amap is None:
                raise MissingAttribution(f"frame {frame_no}: prediction {i} has no map")
            sc = xc_scores(amap, pred.box, grid, xc_cfg)
            ratios = {name: getattr(sc, name) for name in XC_RATIOS}
            dist = pred.distance
            if dist is None:
                dist = math.hypot(pred.box.cx, pred.box.cy)
            rows.append(FeatureRow(
                top_score=pred.top_score,
                # an undefined ratio is stored as 0.0 with its validity flag cleared
                **{name: 0.0 if v is None else float(v) for name, v in ratios.items()},
                **{f"{name}_valid": v is not None for name, v in ratios.items()},
                n_points=int(pred.n_points),
                distance=float(dist),
                pred_label=pred.label,
                is_tp=outcome.tags[i] == "TP",
            ))
    return rows


def split_groups(
    rows: Sequence[FeatureRow], by: Sequence[str] = ()
) -> List[Tuple[str, List[FeatureRow]]]:
    """Named row groups for evaluation: all rows (named ""), then the ``by`` splits.

    ``by`` may hold "class" (one group per label present, in sorted order)
    and "points100" (below / at-or-above ``POINT_SPLIT`` = 100 points; the
    boundary count goes to the ">=" bucket). With both, each label is split
    by point count, named like "car,<100". Groups keep the input row order
    and may be empty.
    """
    unknown = set(by) - {"class", "points100"}
    if unknown:
        raise XckitError(f"unknown grouping keys: {sorted(unknown)}")
    groups = [("", list(rows))]
    if not by:
        return groups
    labels = sorted({r.pred_label for r in rows}) if "class" in by else [None]
    buckets = [(None, None)]
    if "points100" in by:
        buckets = [(f"<{POINT_SPLIT}", False), (f">={POINT_SPLIT}", True)]
    for lab in labels:
        for bucket, large in buckets:
            members = [
                r for r in rows
                if (lab is None or r.pred_label == lab)
                and (large is None or (r.n_points >= POINT_SPLIT) == large)
            ]
            groups.append((",".join(p for p in (lab, bucket) if p is not None), members))
    return groups


def feature_matrix(rows: Sequence[FeatureRow], feature_subset: Sequence[str]):
    """Extract (X, y) arrays; columns follow sorted(feature_subset)."""
    names = sorted(feature_subset)
    X = np.array([[float(getattr(r, f)) for f in names] for r in rows], dtype=np.float64)
    y = np.array([float(r.is_tp) for r in rows])
    return X, y, tuple(names)


def normalize(X: np.ndarray, stats: Optional[Tuple[np.ndarray, np.ndarray]] = None):
    """z = (x - mean) / sd per column, population standard deviation.

    Returns (z, (mean, sd)). With ``stats`` given as a (mean, sd) pair (a
    validation fold), they are applied unchanged; otherwise they are computed
    from X, rejecting constant columns.
    """
    X = np.asarray(X, dtype=np.float64)
    if stats is None:
        if X.shape[0] < 2:
            raise InsufficientRows("need at least 2 rows to fit normalization stats")
        mean = X.mean(axis=0)
        sd = X.std(axis=0)  # population (ddof = 0)
        if np.any(sd == 0):
            cols = np.flatnonzero(sd == 0).tolist()
            raise ConstantFeature(f"constant feature column(s) {cols}")
        stats = (mean, sd)
    mean, sd = stats
    return (X - mean) / sd, stats


def augment(X: np.ndarray, y: np.ndarray, rng) -> tuple:
    """Duplicate training rows ``DUPLICATION`` (4) times, then jitter.

    Every copy of every feature receives independent U(-0.05, +0.05) noise
    (``NOISE_HALF_WIDTH``); labels are copied verbatim. Deterministic for a
    given generator state.
    """
    Xd = np.tile(np.asarray(X, dtype=np.float64), (DUPLICATION, 1))
    Xd = Xd + rng.uniform(-NOISE_HALF_WIDTH, NOISE_HALF_WIDTH, size=Xd.shape)
    return Xd, np.tile(np.asarray(y), DUPLICATION)


@dataclass
class MetaClassifier:
    """Trained MLP weights, float32: W1 (d, hidden), b1 (hidden,), W2 (hidden, 1), b2 (1,)."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Sigmoid scores in [0, 1] for (n, d) features normalized with the training stats."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.W1.shape[0]:
            raise ShapeMismatch(f"expected (n, {self.W1.shape[0]}) features, got {X.shape}")
        hidden = np.maximum(X.astype(np.float32) @ self.W1 + self.b1, 0)
        logits = (hidden @ self.W2 + self.b2).reshape(-1)
        return 1.0 / (1.0 + np.exp(-logits.astype(np.float64)))


def _gradient_buffers(d, width, rows):
    """The buffers ``_bce_gradients`` writes for ``rows`` rows: a float32 vector and its (dW1,
    db1, dW2, db2) views, scratch, the relu mask, float64 sums; then the float32 constants 0, 1
    and ``rows`` as arrays, since an array operand costs less per call than a Python scalar."""
    grad = np.empty((d + 2) * width + 1, np.float32)
    dW1, db1, dW2, db2 = np.split(grad, np.cumsum([d * width, width, width]))
    return [grad, (dW1.reshape(d, width), db1, dW2.reshape(width, 1), db2),
            *(np.empty((rows, k), np.float32) for k in (width, width, 1, width)),
            np.empty((rows, width), bool), np.empty(width), np.empty(1),
            *(np.full((rows, k), v, np.float32) for k, v in ((width, 0), (1, 1), (1, rows)))]


def _bce_gradients(params, X32, y32, buffers=None):
    """Mean binary-cross-entropy-with-logits gradients (dW1, db1, dW2, db2).

    ``params`` is (W1, b1, W2, b2); inputs, targets and results are float32. The results
    are views into ``buffers`` (``_gradient_buffers`` for X32's rows), which a call overwrites.
    """
    W1, b1, W2, b2 = params
    _, (dW1, db1, dW2, db2), pre, hidden, z, dpre, relu, sum1, sum2, zero, one, count = (
        buffers or _gradient_buffers(*W1.shape, X32.shape[0]))
    np.add(np.dot(X32, W1, out=pre), b1, out=pre)
    np.add(np.dot(np.maximum(pre, zero, out=hidden), W2, out=z), b2, out=z)
    np.add(one, np.exp(np.negative(z, out=z), out=z), out=z)
    dz = np.divide(np.subtract(np.divide(one, z, out=z), y32.reshape(-1, 1), out=z), count, out=z)
    dpre = np.multiply(np.dot(dz, W2.T, out=dpre), np.greater(pre, zero, out=relu), out=dpre)
    np.dot(X32.T, dpre, out=dW1)  # dpre took the relu subgradient, 0 at the kink
    db1[...] = np.add.reduce(dpre, 0, np.float64, sum1)
    np.dot(hidden.T, dz, out=dW2)
    db2[...] = np.add.reduce(dz, 0, np.float64, sum2)
    return dW1, db1, dW2, db2


def train_mlp(X: np.ndarray, y: np.ndarray, rng_seed=0) -> MetaClassifier:
    """Train the d -> HIDDEN -> 1 logistic MLP on a prepared training matrix.

    ``X`` must already be normalized/augmented as desired; this function
    only shuffles, batches, and optimizes. Deterministic for a given seed.
    Weights are drawn uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) in the order
    W1, b1, W2, b2, as ``autodiff.build_model`` draws a dense-relu-dense spec.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise XckitError(f"bad training shapes {X.shape} vs {y.shape}")
    classes = np.unique(y)
    if classes.size < 2:
        raise SingleClassTrainingSet(f"training labels are all {classes[0] if classes.size else '?'}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise XckitError("targets must be 0 or 1")

    init_seed, shuffle_seed = np.random.SeedSequence(rng_seed).generate_state(2)
    init_rng = np.random.default_rng(int(init_seed))
    (n, d), width = X.shape, HIDDEN
    init = [_init_array(init_rng, shape, fan_in) for shape, fan_in in
            (((d, width), d), ((width,), d), ((width, 1), width), ((1,), width))]
    # one float32 vector holds W1, b1, W2, b2 (as views), so Adam runs once per step
    flat = np.concatenate([a.ravel() for a in init])
    ends = np.cumsum([a.size for a in init])[:-1]
    params = tuple(part.reshape(a.shape) for part, a in zip(np.split(flat, ends), init))
    # one set of buffers per batch size: BATCH_SIZE, and a shorter last batch's
    sized = {k: _gradient_buffers(d, width, k) for k in (BATCH_SIZE, n % BATCH_SIZE) if k}
    beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, LEARNING_RATE
    decay, rate, (eps_, lr_) = (np.repeat(c, flat.size, 1) for c in (
        [[beta1], [beta2]], [[1 - beta1], [1 - beta2]], [[eps], [lr]]))
    # Adam in place: m and v are the rows of mv, g holds the gradient twice, hat each row's
    # new term, then m_hat and v_hat, then lr * m_hat and the denominator
    mv, g, hat = np.zeros((3, 2, flat.size))
    (m_hat, v_hat), (g_m, g_v) = hat, g
    # Python's float power, not numpy's: the two differ in the last bit at some t
    steps = range(1, EPOCHS * -(-n // BATCH_SIZE) + 1)
    bias = iter(np.array([[1 - beta1**t for t in steps],
                          [1 - beta2**t for t in steps]]).T[..., None])
    rng = np.random.default_rng(shuffle_seed)
    X32, y32 = X.astype(np.float32), y.astype(np.float32)
    for _ in range(EPOCHS):
        order = rng.permutation(n)
        X_epoch, y_epoch = X32[order], y32[order]
        for start in range(0, n, BATCH_SIZE):
            stop = start + BATCH_SIZE
            buffers = sized[min(stop, n) - start]
            _bce_gradients(params, X_epoch[start:stop], y_epoch[start:stop], buffers)
            # op for op as m = beta1 * m + (1 - beta1) * g, v = beta2 * v + (1 - beta2) * g * g,
            # m_hat = m / (1 - beta1**t), v_hat alike and the step on float64 copies
            g[...] = buffers[0]  # float32 -> float64 is exact
            np.multiply(rate, g, out=hat)
            np.multiply(v_hat, g_v, out=v_hat)
            np.divide(np.add(np.multiply(mv, decay, out=mv), hat, out=mv), next(bias), out=hat)
            np.add(np.sqrt(v_hat, out=v_hat), eps_, out=v_hat)
            np.divide(np.multiply(lr_, m_hat, out=m_hat), v_hat, out=m_hat)
            flat[...] = np.subtract(flat, m_hat, out=g_m)
    return MetaClassifier(*params)


def _subset_seed_key(feature_subset: Sequence[str]) -> List[int]:
    return [zlib.crc32(name.encode("utf-8")) for name in sorted(feature_subset)]


def check_fold_counts(n_pos: int, n_neg: int) -> None:
    """Raise InsufficientRows unless each class has ``FOLDS`` rows, one per stratified fold."""
    if n_pos + n_neg < FOLDS:
        raise InsufficientRows(f"{n_pos + n_neg} rows cannot fill {FOLDS} folds")
    for cls, count in ((0, n_neg), (1, n_pos)):
        if count < FOLDS:
            raise InsufficientRows(f"class {cls} has fewer rows than folds ({FOLDS})")


def cross_validate(
    rows: Sequence[FeatureRow],
    feature_subset: Sequence[str] = DEFAULT_FEATURES,
    rng_seed=0,
) -> MetricReport:
    """``REPEATS`` x ``FOLDS``-fold protocol; returns the averaged metric triple.

    Folds are stratified by class, so whenever each class has at least
    ``FOLDS`` rows every validation fold contains both classes and every
    metric stays defined. Normalization stats come from the training folds;
    validation rows are normalized with those stats and never duplicated or
    jittered. The seed stream is keyed by the sorted feature names, so a
    reordered subset gives identical results.
    """
    n = len(rows)
    X_all, y_all, names = feature_matrix(rows, feature_subset)
    n_pos = int(y_all.sum())
    check_fold_counts(n_pos, n - n_pos)

    base = np.random.SeedSequence([int(rng_seed) & 0xFFFFFFFF, *_subset_seed_key(feature_subset)])
    repeat_seqs = base.spawn(REPEATS)
    aurocs, auprs, auprs_op = [], [], []
    for r in range(REPEATS):
        fold_seqs = repeat_seqs[r].spawn(FOLDS + 1)
        rng_order = np.random.default_rng(fold_seqs[0])
        val_parts = [[] for _ in range(FOLDS)]
        for cls in (1.0, 0.0):
            idx = rng_order.permutation(np.flatnonzero(y_all == cls))
            b = np.linspace(0, idx.size, FOLDS + 1, dtype=int)
            for f in range(FOLDS):
                val_parts[f].append(idx[b[f] : b[f + 1]])
        for f in range(FOLDS):
            val_idx = np.concatenate(val_parts[f])
            mask = np.ones(n, dtype=bool)
            mask[val_idx] = False
            train_idx = np.flatnonzero(mask)
            fold_rng = np.random.default_rng(fold_seqs[f + 1])

            X_train, stats = normalize(X_all[train_idx])
            X_val, _ = normalize(X_all[val_idx], stats)
            X_aug, y_aug = augment(X_train, y_all[train_idx], fold_rng)
            clf = train_mlp(X_aug, y_aug, rng_seed=int(fold_rng.integers(2**32)))
            scores, labels = clf.predict(X_val), y_all[val_idx]
            aurocs.append(auroc(scores, labels))
            auprs.append(aupr(scores, labels, TP_AS_POSITIVE))
            auprs_op.append(aupr(scores, labels, FP_AS_POSITIVE))

    return MetricReport(
        auroc=float(np.mean(aurocs)),
        aupr=float(np.mean(auprs)),
        aupr_op=float(np.mean(auprs_op)),
        n_pos=n_pos,
        n_neg=n - n_pos,
        feature=",".join(names),
        group="",
    )
