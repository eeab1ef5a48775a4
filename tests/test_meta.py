"""Feature dataset assembly, preprocessing, MLP gradients and training, cross-validation."""

import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from xckit.attribution import AttributionMap
from xckit.errors import (
    ConstantFeature,
    InsufficientRows,
    MissingAttribution,
    ShapeMismatch,
    SingleClassTrainingSet,
    XckitError,
)
from xckit.geometry import Box3D, GridMeta
from xckit.matching import Detection, GroundTruth
from xckit.meta import (
    DEFAULT_FEATURES,
    _bce_gradients,
    FOLDS,
    REPEATS,
    FeatureRow,
    augment,
    build_feature_dataset,
    cross_validate,
    feature_matrix,
    normalize,
    split_groups,
    train_mlp,
)
import xckit.meta as meta_mod
from xckit.metrics import auroc

import gen
import oracles
from gen import noisy_and_feature_rows


def mkrow(is_tp, top=0.5, xsp=0.5, xcp=0.5, xsm=0.5, xcm=0.5, pts=50, label="car"):
    return FeatureRow(
        top_score=top,
        xc_s_plus=xsp, xc_c_plus=xcp, xc_s_minus=xsm, xc_c_minus=xcm,
        xc_s_plus_valid=True, xc_c_plus_valid=True,
        xc_s_minus_valid=True, xc_c_minus_valid=True,
        n_points=pts, distance=10.0, pred_label=label, is_tp=is_tp,
    )


def hand_frame():
    grid = GridMeta(height=4, width=4, origin_x=0.0, origin_y=0.0, pixel_size=1.0)
    box = Box3D(cx=1.0, cy=1.0, cz=0.0, dx=2.0, dy=2.0, dz=1.0, yaw=0.0)
    v = np.zeros((4, 4, 1))
    v[0, 0], v[0, 1], v[1, 0], v[1, 1] = 0.5, 0.3, 0.2, 0.05
    v[3, 3] = 0.4
    amap = AttributionMap(values=v, method="saliency")
    det = Detection(box=box, label="car", scores={"car": 0.9, "pedestrian": 0.1, "cyclist": 0.1},
                    n_points=120)
    gt = GroundTruth(box=box, label="car")
    return grid, det, amap, gt


class TestBuildFeatureDataset:
    def test_hand_frame_row(self):
        grid, det, amap, gt = hand_frame()
        rows = build_feature_dataset([([det], [amap], [gt])], grid)
        assert len(rows) == 1
        r = rows[0]
        assert r.is_tp and r.pred_label == "car"
        assert r.top_score == 0.9
        assert r.xc_c_plus == 0.75
        assert r.xc_s_plus == 1.0 / 1.4
        assert r.n_points == 120
        assert r.distance == pytest.approx(np.hypot(1.0, 1.0))
        # no negative attributions anywhere: encoded as 0 + cleared flag
        assert not r.xc_s_minus_valid and r.xc_s_minus == 0.0

    def test_ignored_prediction_gets_no_row(self):
        grid, det, amap, gt = hand_frame()
        quiet = Detection(box=det.box, label="car",
                          scores={"car": 0.05, "pedestrian": 0.0, "cyclist": 0.0})
        rows = build_feature_dataset([([quiet], [None], [gt])], grid)
        assert rows == []

    def test_empty_frame(self):
        grid, *_ = hand_frame()
        assert build_feature_dataset([([], [], [])], grid) == []

    def test_missing_map_for_kept_prediction(self):
        grid, det, _, gt = hand_frame()
        with pytest.raises(MissingAttribution):
            build_feature_dataset([([det], [None], [gt])], grid)

    def test_map_list_length_mismatch(self):
        grid, det, amap, gt = hand_frame()
        with pytest.raises(MissingAttribution):
            build_feature_dataset([([det], [], [gt])], grid)

    def test_fp_when_no_gt(self):
        grid, det, amap, _ = hand_frame()
        rows = build_feature_dataset([([det], [amap], [])], grid)
        assert len(rows) == 1 and not rows[0].is_tp


class TestSplitGroups:
    def test_boundary_100(self):
        rows = [mkrow(True, pts=99), mkrow(True, pts=100), mkrow(False, pts=101)]
        groups = dict(split_groups(rows, ["class", "points100"]))
        assert len(groups["car,<100"]) == 1
        assert len(groups["car,>=100"]) == 2

    def test_group_names_and_order(self):
        rows = [mkrow(True, label=lab) for lab in ("pedestrian", "car", "cyclist")]
        names = [name for name, _ in split_groups(rows, ["class", "points100"])]
        assert names == [""] + [
            f"{lab},{b}" for lab in ("car", "cyclist", "pedestrian") for b in ("<100", ">=100")
        ]
        assert [n for n, _ in split_groups(rows, ["class"])] == ["", "car", "cyclist", "pedestrian"]
        assert [n for n, _ in split_groups(rows, ["points100"])] == ["", "<100", ">=100"]
        assert split_groups(rows) == [("", rows)]

    def test_rows_keep_input_order(self):
        rows = [mkrow(True, top=t / 10, pts=150) for t in (3, 1, 2)]
        groups = dict(split_groups(rows, ["points100"]))
        assert groups[">=100"] == rows and groups["<100"] == []

    def test_unknown_key_rejected(self):
        with pytest.raises(XckitError):
            split_groups([], ["color"])

    def test_partition_sums(self):
        rng = np.random.default_rng(3)
        rows = [
            mkrow(bool(rng.random() < 0.5), pts=int(rng.integers(0, 300)),
                  label=str(rng.choice(["car", "pedestrian", "cyclist"])))
            for _ in range(10)
        ]
        (overall, everything), *groups = split_groups(rows, ["class", "points100"])
        assert overall == "" and len(everything) == 10
        assert sum(len(members) for _, members in groups) == 10


class TestNormalize:
    def test_two_point_example(self):
        z, (mean, sd) = normalize(np.array([[1.0], [3.0]]))
        assert mean[0] == 2.0 and sd[0] == 1.0
        assert z.tolist() == [[-1.0], [1.0]]

    def test_supplied_stats_are_applied_not_refit(self):
        stats = (np.array([2.0]), np.array([1.0]))
        z, out = normalize(np.array([[5.0]]), stats)
        assert z[0, 0] == 3.0
        assert out is stats

    def test_idempotence(self):
        rng = np.random.default_rng(7)
        X = rng.normal(3.0, 2.5, size=(200, 4))
        z1, _ = normalize(X)
        z2, _ = normalize(z1)
        assert np.max(np.abs(z2 - z1)) < 1e-6

    def test_constant_column_rejected(self):
        X = np.column_stack([np.arange(5.0), np.full(5, 2.0)])
        with pytest.raises(ConstantFeature):
            normalize(X)

    def test_single_row_rejected(self):
        with pytest.raises(InsufficientRows):
            normalize(np.array([[1.0, 2.0]]))


class TestAugment:
    def test_four_times_size(self):
        X = np.arange(20.0).reshape(10, 2)
        y = np.arange(10.0) % 2
        Xa, ya = augment(X, y, np.random.default_rng(0))
        assert Xa.shape == (40, 2) and ya.shape == (40,)
        assert np.array_equal(ya, np.tile(y, 4))

    def test_seed_determinism(self):
        X = np.random.default_rng(2).normal(size=(8, 5))
        y = np.arange(8.0) % 2
        a1 = augment(X, y, np.random.default_rng(42))
        a2 = augment(X, y, np.random.default_rng(42))
        assert np.array_equal(a1[0], a2[0])

    def test_noise_bounded(self):
        X = np.zeros((50, 4))
        Xa, _ = augment(X, np.zeros(50), np.random.default_rng(3))
        assert np.max(np.abs(Xa)) <= 0.05


def separable_set(rng, n=200, margin_shift=1.0):
    y = (np.arange(n) % 2).astype(float)
    X = rng.normal(scale=0.35, size=(n, 2))
    X[y == 1] += margin_shift
    X[y == 0] -= margin_shift
    return X, y


def random_mlp(rng, d, width):
    return tuple(
        rng.normal(scale=0.7, size=shape).astype(np.float32)
        for shape in ((d, width), (width,), (width, 1), (1,))
    )


class TestMlpGradients:
    def test_logistic_neuron_bias_gradient(self):
        # with W2 = 0 the logit is b2; target 1 gives dL/db2 = sigmoid(b2) - 1
        for b in (-1.0, 0.0, 0.7):
            params = (np.ones((1, 3), np.float32), np.zeros(3, np.float32),
                      np.zeros((3, 1), np.float32), np.array([b], np.float32))
            grads = _bce_gradients(params, np.zeros((1, 1), np.float32), np.ones(1, np.float32))
            want = 1.0 / (1.0 + np.exp(-b)) - 1.0
            assert grads[3][0] == pytest.approx(want, abs=1e-6)
            assert not np.any(grads[0]) and not np.any(grads[2])

    def test_matches_fd(self):
        rng = np.random.default_rng(8)
        params = random_mlp(rng, 4, 3)
        xs = rng.normal(size=(6, 4)).astype(np.float32)
        ys = rng.integers(0, 2, size=6).astype(np.float32)
        grads = _bce_gradients(params, xs, ys)
        for index, name in enumerate(("W1", "b1", "W2", "b2")):
            assert grads[index].dtype == np.float32 and grads[index].shape == params[index].shape
            fd = oracles.fd_param_gradient(params, (xs, ys), index)
            assert np.allclose(grads[index], fd, rtol=1e-4, atol=1e-6), name

    def test_duplicated_batch_same_mean_gradient(self):
        rng = np.random.default_rng(14)
        params = random_mlp(rng, 3, 2)
        xs = rng.normal(size=(5, 3)).astype(np.float32)
        ys = rng.integers(0, 2, size=5).astype(np.float32)
        g1 = _bce_gradients(params, xs, ys)
        g2 = _bce_gradients(params, np.tile(xs, (2, 1)), np.tile(ys, 2))
        for a, b in zip(g1, g2):
            assert np.allclose(a, b, rtol=1e-5, atol=1e-7)


def pin_set(d, n):
    """``n`` rows of ``d`` features with alternating labels, the positives shifted by 0.5."""
    rng = np.random.default_rng(1000 * d + n)
    y = (np.arange(n) % 2).astype(float)
    return rng.normal(size=(n, d)) + 0.5 * y[:, None], y


def weight_digest(clf):
    h = hashlib.sha256()
    for arr in (clf.W1, clf.b1, clf.W2, clf.b2):
        assert arr.dtype == np.float32
        h.update(arr.tobytes())
    return h.hexdigest()


# train_mlp(*pin_set(d, n), rng_seed=n) -> weight_digest, keyed by (d, n)
WEIGHT_PINS = {
    (1, 5): "1163ceb1ac605eb600eb7eef523c0e73944934b7b94b438ef5358f7d4af4f052",
    (1, 16): "0196269478455dfe1c93378e45917b6b6032884e6838f9afd105381186b372da",
    (1, 17): "1d72aba1c18b0df7a32766c93c909b1c9e113ff489e002471f74c51623df2ba0",
    (1, 1280): "7b9d43665ca4bed968ed1f208590747251962c9e21077645a512dea3e341aed6",
    (5, 5): "506316dbe573b191b36abe0dc1df07fe04e9781e2ec874badab72fe7527993ff",
    (5, 16): "5f158678c38e9ee3f29c07c35bb2960e2fb000a81ffe021d52556c7ffb453e68",
    (5, 17): "d623b48bfefec9d2ac6c3cb726b2dac35e38a5cd5ce8393636a48141669a46e4",
    (5, 1280): "d37e6e6f4efb99c770f4f1f71b6e9743ed2486fa4659080742e3b05f95b75f14",
}


class TestTrainMlp:
    def test_separable_high_train_accuracy(self):
        # sized so the fixed 12-epoch budget yields enough optimizer steps
        rng = np.random.default_rng(11)
        X, y = separable_set(rng, n=1000)
        Xn, _ = normalize(X)
        clf = train_mlp(Xn, y, rng_seed=0)
        acc = float(((clf.predict(Xn) > 0.5) == (y == 1)).mean())
        assert acc >= 0.98

    def test_matches_logistic_regression_baseline(self):
        sklearn_linear = pytest.importorskip("sklearn.linear_model")
        rng = np.random.default_rng(13)
        X, y = separable_set(rng, n=300)
        Xn, stats = normalize(X)
        X_tr, y_tr = Xn[:200], y[:200]
        X_va, y_va = Xn[200:], y[200:]
        clf = train_mlp(X_tr, y_tr, rng_seed=0)
        ours = auroc(clf.predict(X_va), y_va)
        lr = sklearn_linear.LogisticRegression().fit(X_tr, y_tr)
        theirs = auroc(lr.predict_proba(X_va)[:, 1], y_va)
        assert ours >= theirs - 0.01

    def test_near_oracle_feature(self):
        rng = np.random.default_rng(17)
        y = (rng.random(400) < 0.5).astype(float)
        X = (y + rng.normal(scale=0.01, size=400)).reshape(-1, 1)
        Xn, _ = normalize(X)
        clf = train_mlp(Xn[:300], y[:300], rng_seed=1)
        scores = clf.predict(Xn[300:])
        val = auroc(scores, y[300:])
        assert val >= 0.99

    def test_constant_features_give_constant_scores(self):
        X = np.full((40, 3), 0.7)
        y = (np.arange(40) % 2).astype(float)
        clf = train_mlp(X, y, rng_seed=2)
        scores = clf.predict(X)
        assert np.all(scores == scores[0])
        assert auroc(scores, y) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassTrainingSet):
            train_mlp(np.random.default_rng(0).normal(size=(10, 2)), np.ones(10))

    def test_deterministic(self):
        rng = np.random.default_rng(19)
        X, y = separable_set(rng, n=64)
        a = train_mlp(X, y, rng_seed=7).predict(X)
        b = train_mlp(X, y, rng_seed=7).predict(X)
        assert np.array_equal(a, b)

    def test_weights_and_scores_pinned(self):
        # digests recorded from the earlier implementation, which trained the
        # same MLP through the generic layer graph; the float32 ops and their
        # order are unchanged, so weights and scores must match bit for bit
        rng = np.random.default_rng(2024)
        X = rng.normal(size=(123, 4))
        y = (X[:, 0] + 0.5 * X[:, 1] + rng.normal(scale=0.8, size=123) > 0).astype(float)
        clf = train_mlp(X, y, rng_seed=5)
        h = hashlib.sha256()
        for arr in (clf.W1, clf.b1, clf.W2, clf.b2):
            assert arr.dtype == np.float32
            h.update(arr.tobytes())
        assert h.hexdigest() == "071c2d4835ad838cf1bac66af7a385f1ae5636d51f385f351735db52b7499bb3"
        scores = hashlib.sha256(clf.predict(X).tobytes()).hexdigest()
        assert scores == "2fc4e7399bdb995be6b0e7493f648ad38bfd9a5f509d8ef867bb7c39f288f347"

    @pytest.mark.parametrize("d, n", sorted(WEIGHT_PINS))
    def test_weights_pinned_across_batch_shapes(self, d, n):
        # recorded before the Adam step ran in place: one short batch (5), one full batch
        # (16), a full batch and one row (17), and 960 steps (1280), which pass the steps
        # (t = 7, 23, ...) where numpy's float64 power and Python's differ in the last bit
        X, y = pin_set(d, n)
        assert weight_digest(train_mlp(X, y, rng_seed=n)) == WEIGHT_PINS[d, n]

    def test_fits_share_nothing(self):
        # fits of one shape, on other rows and seeds: a second fit leaves the first
        # classifier as it was, and fits in four threads, switching often, give the
        # sequential bits
        X, y = pin_set(5, 1280)
        fits = [(X, y, 1280), (X[::-1], y, 1), (X, y[::-1], 2), (-X, y, 3)]
        first = train_mlp(*fits[0])
        sequential = [weight_digest(train_mlp(*fit)) for fit in fits]
        assert weight_digest(first) == sequential[0] == WEIGHT_PINS[5, 1280]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(fits)) as pool:
                threaded = list(pool.map(lambda fit: weight_digest(train_mlp(*fit)), fits))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == sequential
        assert not [name for name, value in vars(meta_mod).items()
                    if isinstance(value, np.ndarray)]

    def test_empty_set_rejected(self):
        with pytest.raises(SingleClassTrainingSet):
            train_mlp(np.zeros((0, 2)), np.zeros(0))

    def test_predict_rejects_wrong_feature_count(self):
        rng = np.random.default_rng(3)
        X, y = separable_set(rng, n=32)
        clf = train_mlp(X, y, rng_seed=0)
        with pytest.raises(ShapeMismatch):
            clf.predict(np.zeros((4, X.shape[1] + 1)))


def informative_rows(rng, n=600, tp_rate=0.3):
    rows = []
    for _ in range(n):
        tp = bool(rng.random() < tp_rate)
        noise = rng.normal(scale=0.12, size=5)
        rows.append(
            mkrow(
                tp,
                top=float(np.clip(0.35 + 0.35 * tp + noise[0], 0, 1)),
                xsp=float(np.clip(0.4 + 0.3 * tp + noise[1], 0, 1)),
                xcp=float(np.clip(0.4 + 0.3 * tp + noise[2], 0, 1)),
                xsm=float(np.clip(0.5 - 0.2 * tp + noise[3], 0, 1)),
                xcm=float(np.clip(0.5 - 0.2 * tp + noise[4], 0, 1)),
                pts=int(rng.integers(10, 300)),
            )
        )
    return rows


class TestCrossValidate:
    def test_oracle_feature_saturates(self):
        rng = np.random.default_rng(23)
        rows = [mkrow(bool(rng.random() < 0.4)) for _ in range(300)]
        for r in rows:
            r.top_score = float(r.is_tp)
        rep = cross_validate(rows, ("top_score",), rng_seed=0)
        assert rep.auroc == 1.0

    def test_random_feature_near_chance(self):
        rng = np.random.default_rng(29)
        rows = [mkrow(i < 500, top=float(rng.uniform())) for i in range(2000)]
        rep = cross_validate(rows, ("top_score",), rng_seed=0)
        assert rep.auroc == pytest.approx(0.5, abs=0.03)
        assert rep.aupr == pytest.approx(0.25, abs=0.03)

    def test_feature_order_permutation_invariant(self):
        rng = np.random.default_rng(31)
        rows = informative_rows(rng, n=250)
        a = cross_validate(rows, ("top_score", "xc_c_plus", "xc_s_minus"), rng_seed=3)
        b = cross_validate(rows, ("xc_s_minus", "top_score", "xc_c_plus"), rng_seed=3)
        assert (a.auroc, a.aupr, a.aupr_op) == (b.auroc, b.aupr, b.aupr_op)
        assert a.feature == b.feature

    def test_seed_determinism(self):
        rng = np.random.default_rng(37)
        rows = informative_rows(rng, n=200)
        a = cross_validate(rows, DEFAULT_FEATURES, rng_seed=11)
        b = cross_validate(rows, DEFAULT_FEATURES, rng_seed=11)
        assert (a.auroc, a.aupr, a.aupr_op) == (b.auroc, b.aupr, b.aupr_op)

    def test_report_pinned(self):
        # recorded from the per-array Adam loop. 38 TP / 65 FP rows give folds
        # of unequal size, so the augmented training sets end in batches of
        # different lengths; the classes overlap, so scores interleave and
        # the rank metrics move with any change to the trained weights
        rows = noisy_and_feature_rows(103, rng_seed=43)
        rep = cross_validate(rows, DEFAULT_FEATURES, rng_seed=2)
        assert (rep.auroc, rep.aupr, rep.aupr_op) == (
            0.7104945054945055, 0.6775908793740781, 0.8095829029931195)

    def test_report_pinned_at_1000_rows(self):
        # recorded before the Adam step ran in place; 3,200 augmented rows per fold give
        # 2,400 steps per fit, so 25 fits cover the full-batch path at every late t
        rep = cross_validate(noisy_and_feature_rows(1000, rng_seed=47), DEFAULT_FEATURES,
                             rng_seed=3)
        assert (rep.auroc, rep.aupr, rep.aupr_op) == (
            0.8979109405884068, 0.858802232420488, 0.9212208409740655)

    def test_insufficient_rows(self):
        rows = [mkrow(True), mkrow(False), mkrow(True)]
        with pytest.raises(InsufficientRows):
            cross_validate(rows, ("top_score",))

    def test_minority_class_below_folds(self):
        rows = [mkrow(i < 3) for i in range(50)]
        with pytest.raises(InsufficientRows):
            cross_validate(rows, ("top_score",))

    def test_validation_rows_never_normalized_from_or_augmented(self, monkeypatch):
        import xckit.meta as meta_mod

        rng = np.random.default_rng(41)
        rows = informative_rows(rng, n=100)
        fit_sizes, apply_sizes, augment_sizes = [], [], []

        real_normalize, real_augment = meta_mod.normalize, meta_mod.augment

        def spy_normalize(X, stats=None):
            (fit_sizes if stats is None else apply_sizes).append(len(X))
            return real_normalize(X, stats)

        def spy_augment(X, y, rng_):
            augment_sizes.append(len(X))
            return real_augment(X, y, rng_)

        monkeypatch.setattr(meta_mod, "normalize", spy_normalize)
        monkeypatch.setattr(meta_mod, "augment", spy_augment)
        cross_validate(rows, ("top_score", "xc_c_plus"), rng_seed=5)

        runs = REPEATS * FOLDS
        assert len(fit_sizes) == len(apply_sizes) == len(augment_sizes) == runs
        # each run fits stats on the training complement and only applies
        # them to the held-out rows; no validation row is ever augmented
        assert all(f + a == 100 for f, a in zip(fit_sizes, apply_sizes))
        assert all(18 <= a <= 22 for a in apply_sizes)
        assert augment_sizes == fit_sizes


class TestFeatureMatrix:
    def test_columns_sorted_by_name(self):
        rows = [mkrow(True, top=0.9, xcp=0.3)]
        X, y, names = feature_matrix(rows, ("top_score", "xc_c_plus"))
        assert names == ("top_score", "xc_c_plus")
        X2, _, names2 = feature_matrix(rows, ("xc_c_plus", "top_score"))
        assert names2 == names
        assert np.array_equal(X, X2)

    def test_labels_extracted(self):
        rows = [mkrow(True), mkrow(False)]
        _, y, _ = feature_matrix(rows, ("top_score",))
        assert y.tolist() == [1.0, 0.0]
