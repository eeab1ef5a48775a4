"""Acceptance gate: every release-blocking behavior in one module.

Each test prints one ``criterion NN PASS/FAIL`` line (bypassing capture so
the line lands in the terminal log). Tolerances are stated inline; oracle
helpers live in tests/oracles.py and are independent reimplementations.
"""

import math
import struct
import time
from contextlib import contextmanager

import numpy as np
import pytest

import gen
import oracles
from gen import noisy_and_feature_rows
from xckit.attribution import (
    AttributionMap,
    backprop_saliency,
    integrated_gradients,
    modified_integrated_gradients,
)
from xckit.autodiff import build_model, forward_array
from xckit.errors import BadMagic, ParseError, TruncatedPayload, VersionUnsupported
from xckit.geometry import Box3D, GridMeta
from xckit.io_formats import (
    load_model,
    read_arrays,
    read_detections,
    read_feature_csv,
    read_xcam,
    save_model,
    write_arrays,
    write_detections,
    write_feature_csv,
    write_xcam,
)
from xckit.matching import FP, IGNORE, TP, Detection, GroundTruth, MatchConfig, categorize
from xckit.meta import DEFAULT_FEATURES, build_feature_dataset, cross_validate
from xckit.metrics import auroc, aupr, ks_statistic
from xckit.synth import (
    BENCHMARK_A_THRESH,
    SceneSpec,
    frame_attributions,
    generate_benchmark,
)
from xckit.xc import XcConfig, xc_scores

_MODULE_T0 = time.monotonic()


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def _criterion(num, desc):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\ncriterion {num:02d} FAIL: {desc}")
            raise
        with capsys.disabled():
            print(f"\ncriterion {num:02d} PASS: {desc}")

    return _criterion


def smooth_convnet(seed, h=9, w=9, cin=2):
    # sigmoid activations keep the path integrand smooth, so the midpoint
    # rule's error shrinks monotonically as steps grow
    return build_model(
        {
            "input_shape": [h, w, cin],
            "seed": seed,
            "layers": [
                {"kind": "conv2d", "in_channels": cin, "out_channels": 4, "kernel": [3, 3]},
                {"kind": "sigmoid"},
                {"kind": "conv2d", "in_channels": 4, "out_channels": 3, "kernel": [3, 3]},
                {"kind": "sigmoid"},
                {"kind": "dense", "in_features": h * w * 3, "out_features": 1},
            ],
        }
    )


def relu_convnet(seed, h=8, w=8, cin=2):
    return build_model(
        {
            "input_shape": [h, w, cin],
            "seed": seed,
            "layers": [
                {"kind": "conv2d", "in_channels": cin, "out_channels": 4, "kernel": [3, 3]},
                {"kind": "relu"},
                {"kind": "dense", "in_features": h * w * 4, "out_features": 1},
            ],
        }
    )


def completeness_rel_error(model, x, steps):
    ig = integrated_gradients(model, x, 0, steps=steps)
    total = float(ig.values.sum())
    fx = float(forward_array(model, x)[0])
    f0 = float(forward_array(model, np.zeros_like(x))[0])
    return abs(total - (fx - f0)) / max(abs(fx - f0), 1e-12)


def test_criterion_01_completeness(criterion):
    with criterion(1, "integrated gradients sum to the output delta"):
        t0 = time.monotonic()
        for seed in range(5):
            model = smooth_convnet(seed)
            x = np.random.default_rng(100 + seed).uniform(-1, 1, (9, 9, 2))
            assert completeness_rel_error(model, x, 256) < 1e-3
            errors = [completeness_rel_error(model, x, s) for s in (8, 32, 128, 512)]
            assert all(a > b for a, b in zip(errors, errors[1:])), (seed, errors)
        assert time.monotonic() - t0 < 30.0


def test_criterion_02_linear_exactness(criterion):
    with criterion(2, "linear model attributions equal weight*input at any steps"):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(12, 1))
        model = build_model(
            {
                "input_shape": [12],
                "layers": [
                    {"kind": "dense", "in_features": 12, "out_features": 1,
                     "weight": w, "bias": [0.37]},
                ],
            }
        )
        x = rng.normal(size=12)
        expected = model.layers[0].weight[:, 0].astype(np.float64) * x
        for steps in (1, 2, 7, 64):
            ig = integrated_gradients(model, x, 0, steps=steps)
            assert np.max(np.abs(ig.values - expected)) < 1e-6


def test_criterion_03_modified_ig_identity(criterion):
    with criterion(3, "averaged path gradient times input delta equals IG"):
        for seed in range(5):
            model = smooth_convnet(seed) if seed % 2 == 0 else relu_convnet(seed, 9, 9)
            rng = np.random.default_rng(200 + seed)
            x = rng.uniform(-1, 1, (9, 9, 2))
            baseline = None if seed < 3 else rng.uniform(-0.2, 0.2, (9, 9, 2))
            ig = integrated_gradients(model, x, 0, steps=16, baseline=baseline)
            mig = modified_integrated_gradients(model, x, 0, steps=16, baseline=baseline)
            b = np.zeros_like(x) if baseline is None else baseline
            assert np.max(np.abs(mig.values * (x - b) - ig.values)) <= 1e-9


def test_criterion_04_gradient_oracle(criterion):
    with criterion(4, "saliency matches central finite differences"):
        for seed in range(5):
            model = smooth_convnet(seed)
            rng = np.random.default_rng(300 + seed)
            x = rng.uniform(-1, 1, (9, 9, 2))
            grad = backprop_saliency(model, x, 0).values.ravel()
            idx = rng.choice(x.size, size=50, replace=False)
            fd = oracles.fd_gradient_at(model, x, 0, idx)
            denom = np.maximum(np.abs(fd), 1e-12)
            assert np.max(np.abs(grad[idx] - fd) / denom) < 1e-4


def _amap(values):
    return AttributionMap(values=np.asarray(values, dtype=np.float64), method="test")


def test_criterion_05_xc_oracle_equivalence(criterion):
    with criterion(5, "concentration scores equal the brute-force reference exactly"):
        rng = np.random.default_rng(101)
        for _ in range(200):
            h, w = int(rng.integers(6, 18)), int(rng.integers(6, 18))
            ps = float(rng.uniform(0.3, 1.0))
            grid = GridMeta(height=h, width=w,
                            origin_x=float(rng.uniform(-4, 0)),
                            origin_y=float(rng.uniform(-4, 0)), pixel_size=ps)
            box = Box3D(
                cx=float(rng.uniform(grid.origin_x, grid.origin_x + w * ps)),
                cy=float(rng.uniform(grid.origin_y, grid.origin_y + h * ps)),
                cz=0.0, dx=float(rng.uniform(0.5, 4.0)), dy=float(rng.uniform(0.5, 4.0)),
                dz=1.5, yaw=float(rng.uniform(-3.0, 3.0)),
            )
            v = rng.normal(size=(h, w, int(rng.integers(1, 5)))) * rng.exponential(0.3)
            v[rng.random(size=(h, w)) < 0.5] = 0.0
            cfg = XcConfig(a_thresh=float(rng.choice([0.0, 0.05, 0.1, 0.3])),
                           margin_m=float(rng.choice([0.0, 0.2, 0.5])))
            got = xc_scores(_amap(v), box, grid, cfg)
            want = oracles.oracle_xc(v, box, grid, cfg.a_thresh, cfg.margin_m)
            for field in ("s_plus", "S_plus", "c_plus", "C_plus",
                          "s_minus", "S_minus", "c_minus", "C_minus",
                          "xc_s_plus", "xc_c_plus", "xc_s_minus", "xc_c_minus"):
                assert getattr(got, field) == want[field]

        # 4x4 hand case: box covers the four lowest-index pixels, three of
        # them significant plus one far outlier
        grid = GridMeta(height=4, width=4, origin_x=0.0, origin_y=0.0, pixel_size=1.0)
        box = Box3D(cx=1.0, cy=1.0, cz=0.0, dx=2.0, dy=2.0, dz=1.0, yaw=0.0)
        v = np.zeros((4, 4, 1))
        v[0, 0, 0] = 0.5
        v[0, 1, 0] = 0.3
        v[1, 0, 0] = 0.2
        v[1, 1, 0] = 0.05
        v[3, 3, 0] = 0.4
        sc = xc_scores(_amap(v), box, grid, XcConfig(a_thresh=0.1, margin_m=0.2))
        assert sc.xc_s_plus == 1.0 / 1.4
        assert sc.xc_c_plus == 0.75


def test_criterion_06_metric_oracles(criterion):
    with criterion(6, "ranking metrics match independent oracles and baselines"):
        rng = np.random.default_rng(55)
        # pairwise-counting parity, with deliberate ties, n <= 500
        for _ in range(30):
            n = int(rng.integers(10, 501))
            scores = rng.normal(size=n)
            if rng.random() < 0.5:
                scores = np.round(scores, 1)  # force tie groups
            labels = rng.random(size=n) < rng.uniform(0.2, 0.8)
            if labels.all() or not labels.any():
                continue
            assert abs(auroc(scores, labels) - oracles.mann_whitney_auc(scores, labels)) < 1e-9

        # two-sample sup-distance equals the brute-force scan exactly
        for _ in range(50):
            a = rng.normal(size=int(rng.integers(3, 60)))
            b = rng.normal(size=int(rng.integers(3, 60)))
            if rng.random() < 0.5:
                b[: min(len(a), len(b))] = a[: min(len(a), len(b))]  # shared values
            pooled = np.unique(np.concatenate([a, b]))
            brute = max(
                abs(np.mean(a <= t) - np.mean(b <= t)) for t in pooled
            )
            assert ks_statistic(a, b) == brute

        # no-information baselines at scale: 100k scores, 23.2% positives
        n = 100_000
        scores = rng.random(n)
        labels = np.zeros(n, dtype=bool)
        labels[: int(0.232 * n)] = True
        rng.shuffle(labels)
        assert abs(auroc(scores, labels) - 0.5) < 0.01
        assert abs(aupr(scores, labels) - 0.232) < 0.01


def test_criterion_07_benchmark_separation(criterion):
    with criterion(7, "synthetic benchmark: XC >= 0.85, random <= 0.55, points between"):
        from xckit.metrics import evaluate_feature

        t0 = time.monotonic()
        spec = SceneSpec(rng_seed=12345)
        frames, manifest = generate_benchmark(spec, 200)
        triples = [(fr.preds, frame_attributions(fr), fr.gts) for fr in frames]
        rows = build_feature_dataset(
            triples, spec.grid, xc_cfg=XcConfig(a_thresh=manifest["a_thresh"])
        )
        xc_aurocs = [
            evaluate_feature(rows, f).auroc
            for f in ("xc_s_plus", "xc_c_plus", "xc_s_minus", "xc_c_minus")
        ]
        random_auroc = evaluate_feature(rows, "random", rng_seed=0).auroc
        points_auroc = evaluate_feature(rows, "n_points").auroc
        assert all(a >= 0.85 for a in xc_aurocs), xc_aurocs
        assert random_auroc <= 0.55, random_auroc
        assert random_auroc < points_auroc < min(xc_aurocs)
        assert 0.55 < points_auroc < 0.85
        assert time.monotonic() - t0 < 120.0


def test_criterion_08_outlier_sensitivity(criterion):
    with criterion(8, "one huge outside pixel crushes the summing score, steps the count"):
        grid = GridMeta(height=8, width=8, origin_x=0.0, origin_y=0.0, pixel_size=1.0)
        box = Box3D(cx=2.0, cy=2.0, cz=0.0, dx=3.0, dy=3.0, dz=1.0, yaw=0.0)
        base = np.zeros((8, 8, 1))
        base[1, 1, 0] = 0.6
        base[1, 2, 0] = 0.5
        base[2, 1, 0] = 0.4
        cfg = XcConfig(a_thresh=0.1, margin_m=0.2)
        before = xc_scores(_amap(base), box, grid, cfg)
        assert before.xc_s_plus == 1.0 and before.xc_c_plus == 1.0
        for v, eps in ((1e3, 1e-2), (1e6, 1e-4), (1e12, 1e-8)):
            spiked = base.copy()
            spiked[7, 7, 0] = v
            after = xc_scores(_amap(spiked), box, grid, cfg)
            assert after.xc_s_plus < eps
            assert after.c_plus == before.c_plus
            assert after.C_plus == before.C_plus + 1
            assert after.xc_c_plus == before.c_plus / (before.C_plus + 1)


def test_criterion_09_meta_synergy(criterion):
    with criterion(9, "five-feature meta-classifier beats every single feature"):
        t0 = time.monotonic()
        rows = noisy_and_feature_rows(1500, rng_seed=2024)
        single_auprs = [
            cross_validate(rows, feature_subset=[f], rng_seed=0).aupr
            for f in DEFAULT_FEATURES
        ]
        combined = cross_validate(rows, feature_subset=list(DEFAULT_FEATURES), rng_seed=0)
        assert combined.aupr >= max(single_auprs) + 0.02, (combined.aupr, single_auprs)
        assert time.monotonic() - t0 < 180.0


def test_criterion_10_matching_properties(criterion):
    with criterion(10, "matching is deterministic, monotone, and trace-exact"):
        rng = np.random.default_rng(4242)
        cfg = MatchConfig()
        stricter_score = MatchConfig(score_thresh=0.35)
        stricter_iou = MatchConfig(
            iou_thresh={k: v + 0.2 for k, v in cfg.iou_thresh.items()}
        )
        for _ in range(1000):
            preds, gts = gen.random_frame(rng)
            out1 = categorize(preds, gts, cfg)
            out2 = categorize(preds, gts, cfg)
            assert out1.tags == out2.tags and out1.matched_gt == out2.matched_gt
            # raising the score bar only moves tags to Ignore
            harder = categorize(preds, gts, stricter_score)
            for t1, t2 in zip(out1.tags, harder.tags):
                if t2 != t1:
                    assert t2 == IGNORE
            # raising IoU bars only demotes TPs
            harder_iou = categorize(preds, gts, stricter_iou)
            for t1, t2 in zip(out1.tags, harder_iou.tags):
                if t1 == TP:
                    assert t2 in (TP, FP)
                else:
                    assert t2 == t1

        # trace: a score exactly at the bar is kept, not ignored
        box = Box3D(cx=0, cy=0, cz=0, dx=4, dy=2, dz=1.5, yaw=0.0)
        pred = Detection(box=box, label="car", scores={"car": 0.1})
        out = categorize([pred], [GroundTruth(box=box, label="car")], cfg)
        assert out.tags == [TP]
        # trace: equal-IoU tie resolves to the lower ground-truth index, so
        # putting the wrong-label twin first forces an FP; swapping fixes it
        gts = [GroundTruth(box=box, label="pedestrian"), GroundTruth(box=box, label="car")]
        pred = Detection(box=box, label="car", scores={"car": 0.9})
        out = categorize([pred], gts, cfg)
        assert out.tags == [FP] and out.matched_gt == [None]
        out = categorize([pred], gts[::-1], cfg)
        assert out.tags == [TP] and out.matched_gt == [0]
        # trace: class-specific bars differ
        shifted = Box3D(cx=1.4, cy=0, cz=0, dx=4, dy=2, dz=1.5, yaw=0.0)
        ped_box = Box3D(cx=0, cy=0, cz=0, dx=0.8, dy=0.8, dz=1.7, yaw=0.0)
        ped_shift = Box3D(cx=0.3, cy=0, cz=0, dx=0.8, dy=0.8, dz=1.7, yaw=0.0)
        car = Detection(box=shifted, label="car", scores={"car": 0.9})
        ped = Detection(box=ped_shift, label="pedestrian", scores={"pedestrian": 0.9})
        out = categorize(
            [car, ped],
            [GroundTruth(box=box, label="car"), GroundTruth(box=ped_box, label="pedestrian")],
            cfg,
        )
        from xckit.geometry import iou_3d

        assert 0.25 <= iou_3d(shifted, box) < 0.5
        assert 0.25 <= iou_3d(ped_shift, ped_box) < 0.5
        assert out.tags == [FP, TP]


def test_criterion_11_format_round_trips(criterion, tmp_path):
    with criterion(11, "formats round-trip bit-exactly and reject corruption by position"):
        rng = np.random.default_rng(9)
        # attribution map container
        vals = rng.standard_normal((16, 16, 4)).astype(np.float32).astype(np.float64)
        m = AttributionMap(values=vals, method="integrated-gradients", steps=32)
        p = tmp_path / "m.xcam"
        write_xcam(p, m)
        back = read_xcam(p)
        assert back.values.tobytes() == m.values.tobytes()
        raw = bytearray(p.read_bytes())
        raw[:4] = b"XCAN"
        (tmp_path / "bad.xcam").write_bytes(bytes(raw))
        with pytest.raises(BadMagic):
            read_xcam(tmp_path / "bad.xcam")
        (tmp_path / "short.xcam").write_bytes(p.read_bytes()[:30])
        with pytest.raises(TruncatedPayload):
            read_xcam(tmp_path / "short.xcam")
        raw[:6] = b"XCAM" + struct.pack("<H", 1)  # a version-1 file is refused at its version
        (tmp_path / "v1.xcam").write_bytes(bytes(raw))
        with pytest.raises(VersionUnsupported, match="v1.xcam: byte offset 4: version 1"):
            read_xcam(tmp_path / "v1.xcam")

        # the same container with several named arrays, and a model's parameters in one
        arrays = {"w": rng.standard_normal((5, 3)).astype(np.float32),
                  "b": np.array([-0.0, np.finfo(np.float32).max], np.float32)}
        write_arrays(tmp_path / "a.xcam", arrays, {"w": {"note": "kept"}})
        back_arrays, meta = read_arrays(tmp_path / "a.xcam")
        assert {k: v.tobytes() for k, v in back_arrays.items()} == {
            k: v.tobytes() for k, v in arrays.items()}
        assert meta == {"w": {"note": "kept"}, "b": {}}
        model = build_model({"input_shape": [4, 4, 2], "seed": 3, "layers": [
            {"kind": "conv2d", "in_channels": 2, "out_channels": 3, "kernel": [3, 3]},
            {"kind": "relu"}, {"kind": "dense", "in_features": 48, "out_features": 2}]})
        save_model(tmp_path / "model.json", model)
        loaded = load_model(tmp_path / "model.json")
        for a, b in zip(model.layers, loaded.layers):
            for key in ("weight", "bias") if hasattr(a, "weight") else ():
                assert getattr(a, key).tobytes() == getattr(b, key).tobytes()

        # detection stream
        recs = []
        for i in range(200):
            recs.append((
                f"f{i}",
                Detection(
                    box=gen.random_box(rng), label=str(rng.choice(gen.CLASSES)),
                    scores=gen.scores_with_top(rng, "car"),
                    n_points=int(rng.integers(0, 400)),
                    distance=float(rng.uniform(0, 60)),
                ),
            ))
        dp = tmp_path / "d.jsonl"
        write_detections(dp, recs)
        back_recs = list(read_detections(dp))
        assert all(
            fa == fb and a.box == b.box and a.scores == b.scores
            for (fa, a), (fb, b) in zip(recs, back_recs)
        )
        lines = dp.read_text().splitlines()
        import json as _json

        row = _json.loads(lines[4])
        row["box"] = row["box"][:6]
        lines[4] = _json.dumps(row)
        dp.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            list(read_detections(dp))
        assert exc.value.line_no == 5

        # feature csv
        rows = noisy_and_feature_rows(100, rng_seed=3)
        cp = tmp_path / "f.csv"
        write_feature_csv(cp, rows)
        assert read_feature_csv(cp) == rows
        lines = cp.read_text().splitlines()
        lines[7] = lines[7].rsplit(",", 1)[0]  # file line 8: header is line 1
        cp.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            read_feature_csv(cp)
        assert exc.value.line_no == 8


def test_criterion_12_suite_runtime(criterion):
    with criterion(12, "acceptance module stays inside the suite's wall-time budget"):
        elapsed = time.monotonic() - _MODULE_T0
        assert elapsed < 480.0, f"acceptance module took {elapsed:.0f}s"
