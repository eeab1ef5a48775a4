import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from xckit.attribution import aggregate_signed
from xckit.autodiff import forward_array, model_to_spec
from xckit.errors import PlacementFailure, XckitError
from xckit.geometry import enlarge, iou_3d, membership_mask, project_to_bev
from xckit.matching import DEFAULT_IOU_THRESH, MatchConfig, TP, FP, categorize
from xckit.meta import XC_RATIOS, build_feature_dataset
from xckit.metrics import evaluate_feature
from xckit.synth import (
    BENCHMARK_A_THRESH,
    BLOCK_PX,
    CLASSES,
    ConcentrationProfile,
    SceneSpec,
    SyntheticFrame,
    _points_sigma,
    build_toy_model,
    frame_attributions,
    generate_benchmark,
    generate_frame,
    n_anchors,
    output_index,
)
from xckit.xc import XcConfig, xc_scores

from gen import noisy_and_feature_rows


def planted_kinds(frame):
    """(label, is_fp) per prediction, from the generator's IoU guarantees."""
    kinds = []
    for pred in frame.preds:
        thresh = DEFAULT_IOU_THRESH[pred.label]
        is_tp = any(
            g.label == pred.label and iou_3d(pred.box, g.box) >= thresh
            for g in frame.gts
        )
        kinds.append((pred.label, not is_tp))
    return kinds


class TestSceneSpecValidation:
    def test_bad_fp_rate(self):
        with pytest.raises(XckitError):
            SceneSpec(fp_rate=1.5)

    def test_negative_count(self):
        with pytest.raises(XckitError):
            SceneSpec(n_objects={"car": -1})

    def test_bad_profile_fraction(self):
        with pytest.raises(XckitError):
            ConcentrationProfile(tp_inside=1.2)

    def test_grid_not_block_aligned(self):
        from xckit.geometry import GridMeta

        with pytest.raises(XckitError):
            SceneSpec(grid=GridMeta(height=35, width=40, origin_x=0, origin_y=0, pixel_size=0.4))


class TestGenerateFrame:
    def test_empty_spec_empty_frame(self):
        spec = SceneSpec(n_objects={}, fp_rate=0.0, rng_seed=3)
        frame = generate_frame(spec)
        assert frame.preds == [] and frame.gts == []
        assert not frame.pseudo_image.any()

    def test_same_seed_bit_identical(self):
        a = generate_frame(SceneSpec(rng_seed=11))
        b = generate_frame(SceneSpec(rng_seed=11))
        assert np.array_equal(a.pseudo_image, b.pseudo_image)
        assert [p.box for p in a.preds] == [p.box for p in b.preds]
        assert [p.scores for p in a.preds] == [p.scores for p in b.preds]
        assert [p.n_points for p in a.preds] == [p.n_points for p in b.preds]
        assert [g.box for g in a.gts] == [g.box for g in b.gts]

    def test_different_seed_differs(self):
        a = generate_frame(SceneSpec(rng_seed=11))
        b = generate_frame(SceneSpec(rng_seed=12))
        assert not np.array_equal(a.pseudo_image, b.pseudo_image)

    def test_scores_reproduce_under_forward(self):
        for seed in (0, 5, 9):
            frame = generate_frame(SceneSpec(rng_seed=seed))
            out = forward_array(frame.model, frame.pseudo_image)
            for pred in frame.preds:
                for cls, stored in pred.scores.items():
                    idx = output_index(pred.anchor_index, cls)
                    assert abs(stored - float(out[idx])) < 1e-6

    def test_planted_iou_guarantees(self):
        # every pred is either a TP (>= thresh vs a same-label gt) or clears
        # every gt below its class threshold; nothing in between
        for seed in range(8):
            frame = generate_frame(SceneSpec(rng_seed=seed))
            for pred, (_, is_fp) in zip(frame.preds, planted_kinds(frame)):
                thresh = DEFAULT_IOU_THRESH[pred.label]
                if is_fp:
                    assert all(iou_3d(pred.box, g.box) < thresh for g in frame.gts)
                else:
                    assert any(
                        g.label == pred.label and iou_3d(pred.box, g.box) >= thresh
                        for g in frame.gts
                    )

    def test_matcher_agrees_with_planting(self):
        # the categorizer must tag every planted pred, none ignored
        for seed in range(6):
            frame = generate_frame(SceneSpec(rng_seed=seed))
            outcome = categorize(frame.preds, frame.gts, MatchConfig())
            for tag, (_, is_fp) in zip(outcome.tags, planted_kinds(frame)):
                assert tag == (FP if is_fp else TP)

    def test_distinct_anchor_blocks(self):
        for seed in range(6):
            frame = generate_frame(SceneSpec(rng_seed=seed))
            anchors = [p.anchor_index for p in frame.preds]
            assert len(set(anchors)) == len(anchors)
            assert all(0 <= a < n_anchors(SceneSpec().grid) for a in anchors)

    def test_scores_clear_ignore_threshold(self):
        for seed in range(6):
            frame = generate_frame(SceneSpec(rng_seed=seed))
            for pred in frame.preds:
                assert pred.scores[pred.label] >= 0.3

    def test_signal_respects_box_footprints(self):
        # planted pixels either sit inside some prediction's box or outside
        # every box's margin-enlarged footprint; never in the gray zone
        spec = SceneSpec(rng_seed=4)
        frame = generate_frame(spec)
        inside_any = np.zeros(frame.pseudo_image.shape[:2], dtype=bool)
        near_any = np.zeros_like(inside_any)
        boxes = [p.box for p in frame.preds] + [g.box for g in frame.gts]
        for box in boxes:
            inside_any |= membership_mask(project_to_bev(box), spec.grid)
            near_any |= membership_mask(project_to_bev(enlarge(box, 0.2)), spec.grid)
        planted = frame.pseudo_image[:, :, :3].sum(axis=2) > 0
        gray = planted & near_any & ~inside_any
        assert not gray.any()

    def test_too_many_objects_fails(self):
        # rejected by the spec itself, before anything is drawn or allocated
        with pytest.raises(PlacementFailure, match="n_objects"):
            SceneSpec(n_objects={"car": n_anchors(SceneSpec().grid) + 1}, fp_rate=0.0)

    # sha256 per frame over the pseudo image bytes and the repr of every
    # prediction's and ground truth's fields, seeds 0-9: any change to the
    # generator must keep every RNG draw, and its order, to keep stores stable
    GOLDEN_FRAME_SHA256 = {
        "default": [
            "1374058c93f2e8ad24d9b140c21024b543f7c3feeb53f579eff486cdf1bc7aff",
            "b33a5faaafd41b4b12e65d4451a4aa1e1b9ac000864f35638d12dadfaea07c01",
            "6bfc810b4f6a0164b92554704227f51af8410e34deddf2da24e759e578261e6f",
            "94113449c113e2f448057e9f6e0127511b08334348ce1ad49982722c82f59db1",
            "11e23a8bb3cc3ec2ad0e729ff90981dfe6f03e72ef298d1154a3097b70bf97c6",
            "3f83cd7ce063ceb8349416deb87fed83c4269cb9a95786f1a2e3144cc5b1ee37",
            "f56f62454c54a2444a5eaae73737b00ffc7221017a5bebd9468d2948b8abf3fd",
            "83134212d512123c07f2c64adb7ee3a1eaf1e99355697dbcdd44a74aa98bf250",
            "b8da25244e9beba9f6c35e8c3878559c7193606e3020260b8ddecf73253e8573",
            "49f1941b9b0d18ee8fcb83e133e1588bf4035c009110e23c6e7584dfcc65cf56",
        ],
        "hard": [
            "bdb6103c2950574ce9fe089322aa26bdea306600cae7b8d2b52463bdb33a4cf7",
            "9e8e4e94842d2cf440f5bb99c209fc5849de163936882fcae84b8106c7921d08",
            "722223afcd971c65b6d712512e7b17f95dfa79f59225342b80dff87d42c8e88d",
            "fda267015c49492abaf93f7a8398382b3f07881c8620009e7781c9bbdcb8e3f2",
            "606cc79e64d159735ce4d9d928a8a32107ca3591173f078aa968f7278e39b5a3",
            "9274c05ada86dee72048086f5210a9a036733990d59dac8a187c0d6e0303d844",
            "d0996ddb34763edf0f61f98169284e355a426da6eb157a213eb5b81ffb7b797e",
            "98b42884fd22c5cdf120c757dda0ba94167b98d28b97ee3c4d4b60fd28eff128",
            "247b74225cdccb2a28d1d50028f371b5553df1faa5924cc9770dbf8e976ce868",
            "0d0e29a93666d29d4bfb7d3b861c90f7995526a8c0b0da6f8550c278f732282c",
        ],
    }
    PROFILES = {"default": {}, "hard": dict(
        concentration_profile=ConcentrationProfile(0.6, 0.45), fp_rate=0.4)}

    def test_frame_bytes_pinned(self):
        for profile, kwargs in self.PROFILES.items():
            got = []
            for seed in range(10):
                frame = generate_frame(SceneSpec(rng_seed=seed, **kwargs))
                h = hashlib.sha256(frame.pseudo_image.tobytes())
                for p in frame.preds:
                    h.update(repr((p.box, p.label, p.scores, p.n_points, p.anchor_index)).encode())
                for g in frame.gts:
                    h.update(repr((g.box, g.label)).encode())
                got.append(h.hexdigest())
            assert got == self.GOLDEN_FRAME_SHA256[profile], profile
        with pytest.raises(PlacementFailure) as e:
            generate_benchmark(SceneSpec(rng_seed=11), 60)
        assert str(e.value) == "anchor block too crowded: 34 scatter pixels needed, 29 free"

    def test_inhibition_channel_planted_with_signal(self):
        frame = generate_frame(SceneSpec(rng_seed=2))
        planted = frame.pseudo_image[:, :, :3].sum(axis=2) > 0
        assert (frame.pseudo_image[:, :, 3][planted] > 0).all()
        assert not frame.pseudo_image[:, :, 3][~planted].any()


class TestToyModel:
    def test_deterministic_build(self):
        grid = SceneSpec().grid
        a, b = build_toy_model(grid), build_toy_model(grid)
        assert model_to_spec(a) == model_to_spec(b)

    def test_output_count(self):
        grid = SceneSpec().grid
        model = build_toy_model(grid)
        y = forward_array(model, np.zeros((grid.height, grid.width, 4), np.float32))
        assert y.shape == (n_anchors(grid) * len(CLASSES),)

    def test_blank_image_low_scores(self):
        grid = SceneSpec().grid
        model = build_toy_model(grid)
        y = forward_array(model, np.zeros((grid.height, grid.width, 4), np.float32))
        assert (y < 0.5).all()

    # sha256 of json.dumps(model_to_spec(build_toy_model(grid))), model.json's bytes,
    # recorded from the per-anchor, per-class loop that built the head before
    @pytest.mark.parametrize("height, width, digest", [
        (40, 40, "f2452450798ebab3cb578dc8900394cd2cfcf63978b0374a0d9bd29300b4afbc"),
        (80, 60, "bf5f9ce4656f67587a3c6041a992ce3b9a400245fb177783464c02c39148f1c2"),
    ], ids=["40x40", "80x60"])
    def test_model_bytes_pinned(self, height, width, digest):
        grid = replace(SceneSpec().grid, height=height, width=width)
        spec = json.dumps(model_to_spec(build_toy_model(grid)))
        assert hashlib.sha256(spec.encode()).hexdigest() == digest


class TestAttributionConcentration:
    def test_attribution_methods_and_shapes(self):
        frame = generate_frame(SceneSpec(rng_seed=1))
        for method in ("backprop", "ig", "ig-nomult"):
            maps = frame_attributions(frame, method=method, steps=8)
            assert len(maps) == len(frame.preds)
            for m, p in zip(maps, frame.preds):
                assert m.values.shape == frame.pseudo_image.shape
                assert m.values.dtype == np.float64
                assert m.target.class_index == CLASSES.index(p.label)

    def test_unknown_method(self):
        frame = generate_frame(SceneSpec(rng_seed=1))
        with pytest.raises(XckitError):
            frame_attributions(frame, method="occlusion")

    def test_gradients_vanish_off_signal(self):
        # the relu gate closes wherever nothing was planted, so attributions
        # there come only from sub-gate conv bleed: all below the threshold
        spec = SceneSpec(rng_seed=6)
        frame = generate_frame(spec)
        planted = frame.pseudo_image.sum(axis=2) > 0
        for m in frame_attributions(frame):
            pos, neg = aggregate_signed(m)
            assert pos[~planted].max() < BENCHMARK_A_THRESH
            assert neg[~planted].max() < BENCHMARK_A_THRESH

    def test_concentration_gap_over_50_frames(self):
        # TP-like preds plant 90% of their budget inside the box, FP-like 30%;
        # the counting score gap must come out well past 0.2
        spec = SceneSpec(rng_seed=7)
        frames, _ = generate_benchmark(spec, 50)
        cfg = XcConfig(a_thresh=BENCHMARK_A_THRESH, margin_m=0.2)
        tp_vals, fp_vals = [], []
        for frame in frames:
            maps = frame_attributions(frame)
            for m, p, (_, is_fp) in zip(maps, frame.preds, planted_kinds(frame)):
                sc = xc_scores(m, p.box, spec.grid, cfg)
                assert sc.xc_c_plus is not None
                (fp_vals if is_fp else tp_vals).append(sc.xc_c_plus)
        assert tp_vals and fp_vals
        gap = np.mean(tp_vals) - np.mean(fp_vals)
        assert gap >= 0.2
        # calibrated margin, frozen after measuring ~0.61 at this seed
        assert gap > 0.5

    # Each XC ratio's AUROC (TP as positive, matcher tags) over 100 backprop
    # frames at seed 0. Bands span scene seeds 0-9, whose AUROCs of all four
    # ratios ran 0.966-0.985 at 0.6/0.45 (n_points 0.683-0.834, top_score
    # 0.640-0.697) and 0.705-0.800 at 0.55/0.5. A weaker planted gap fails the
    # lower bound and an inflated one the upper; the default 0.9/0.3 scores 1.000.
    @pytest.mark.parametrize("tp_inside, fp_inside, lo, hi, beats_baselines", [
        (0.6, 0.45, 0.95, 0.995, True),
        (0.55, 0.5, 0.68, 0.83, False),
    ], ids=["hard", "near-chance"])
    def test_xc_auroc_tracks_planted_gap(self, tp_inside, fp_inside, lo, hi, beats_baselines):
        spec = SceneSpec(concentration_profile=ConcentrationProfile(tp_inside, fp_inside))
        frames, _ = generate_benchmark(spec, 100)
        rows = build_feature_dataset([(f.preds, frame_attributions(f), f.gts) for f in frames],
                                     spec.grid, XcConfig(a_thresh=BENCHMARK_A_THRESH))
        xc = [evaluate_feature(rows, f).auroc for f in XC_RATIOS]
        assert lo <= min(xc) and max(xc) <= hi, xc
        if beats_baselines:
            baselines = [evaluate_feature(rows, f).auroc for f in ("n_points", "top_score")]
            assert min(xc) > max(baselines), (xc, baselines)
            # The paper's ">100% over random", read as AUPR_op (FPs as positives), whose
            # random baseline is the FP share. Over seeds 0-9 the lowest ratio's AUPR_op was
            # 3.09-4.01x the FP share and 1.38-1.96x n_points' here, and 1.97-2.34x and
            # 0.82-1.22x at 0.55/0.5: so over n_points the gain is +38-96%, not >100%.
            worst = min(evaluate_feature(rows, f).aupr_op for f in XC_RATIOS)
            fp_share = sum(not r.is_tp for r in rows) / len(rows)
            assert worst > 2.7 * fp_share, (worst, fp_share)
            assert worst > 1.3 * evaluate_feature(rows, "n_points").aupr_op


class TestGenerateBenchmark:
    def test_single_frame_manifest_matches_contents(self):
        spec = SceneSpec(rng_seed=21)
        frames, manifest = generate_benchmark(spec, 1)
        assert manifest["n_frames"] == 1
        kinds = planted_kinds(frames[0])
        for cls in CLASSES:
            assert manifest["tp_counts"][cls] == sum(
                1 for (lab, fp) in kinds if lab == cls and not fp
            )
            assert manifest["fp_counts"][cls] == sum(
                1 for (lab, fp) in kinds if lab == cls and fp
            )

    def test_manifest_counts_equal_matcher_tags(self):
        # the manifest counts by placement order; the matcher must tag the same
        frames, manifest = generate_benchmark(SceneSpec(rng_seed=31), 30)
        counts = {TP: dict.fromkeys(CLASSES, 0), FP: dict.fromkeys(CLASSES, 0)}
        for f in frames:
            for pred, tag in zip(f.preds, categorize(f.preds, f.gts, MatchConfig()).tags):
                counts[tag][pred.label] += 1
        assert manifest["tp_counts"] == counts[TP]
        assert manifest["fp_counts"] == counts[FP]

    @pytest.mark.parametrize("n_frames", [0, 2**40])
    def test_frame_count_checked_before_any_seed(self, n_frames):
        # 2**40 frame seeds would need 8 TiB; the count is checked before they are drawn
        with pytest.raises(XckitError, match=rf"must be in \[1, 65536\], got {n_frames}$"):
            generate_benchmark(SceneSpec(), n_frames)

    def test_fp_fraction_near_rate(self):
        spec = SceneSpec(rng_seed=99, fp_rate=0.25)
        frames, manifest = generate_benchmark(spec, 100)
        assert abs(manifest["fp_fraction"] - 0.25) <= 0.05

    def test_class_totals_sum_over_frames(self):
        spec = SceneSpec(rng_seed=5)
        frames, manifest = generate_benchmark(spec, 20)
        per_frame = [planted_kinds(f) for f in frames]
        for cls in CLASSES:
            tp = sum(1 for kinds in per_frame for (lab, fp) in kinds if lab == cls and not fp)
            fp = sum(1 for kinds in per_frame for (lab, fp) in kinds if lab == cls and fp)
            assert manifest["tp_counts"][cls] == tp
            assert manifest["fp_counts"][cls] == fp
        total = sum(len(f.preds) for f in frames)
        assert sum(manifest["tp_counts"].values()) + sum(manifest["fp_counts"].values()) == total

    def test_benchmark_deterministic_and_shares_model(self):
        a, _ = generate_benchmark(SceneSpec(rng_seed=8), 5)
        b, _ = generate_benchmark(SceneSpec(rng_seed=8), 5)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.pseudo_image, fb.pseudo_image)
        assert all(f.model is a[0].model for f in a)

    def test_bad_frame_count(self):
        with pytest.raises(XckitError):
            generate_benchmark(SceneSpec(), 0)


class TestPointsPlanting:
    def test_sigma_solves_point_biserial_identity(self):
        spec = SceneSpec(fp_rate=0.25, points_correlation=0.4, points_delta=100)
        sigma = _points_sigma(spec)
        p, q, d = 0.75, 0.25, 100.0
        rho = d * np.sqrt(p * q) / np.sqrt(d * d * p * q + sigma * sigma)
        assert abs(rho - 0.4) < 1e-12

    def test_empirical_correlation_near_target(self):
        frames, _ = generate_benchmark(SceneSpec(rng_seed=12345), 150)
        pts, lab = [], []
        for f in frames:
            for p, (_, is_fp) in zip(f.preds, planted_kinds(f)):
                pts.append(p.n_points)
                lab.append(0.0 if is_fp else 1.0)
        r = np.corrcoef(np.asarray(pts, float), np.asarray(lab))[0, 1]
        assert 0.25 < r < 0.55

    def test_points_positive(self):
        frame = generate_frame(SceneSpec(rng_seed=13))
        assert all(p.n_points >= 1 for p in frame.preds)


class TestNoisyAndDataset:
    def test_shape_and_determinism(self):
        a = noisy_and_feature_rows(200, rng_seed=1)
        b = noisy_and_feature_rows(200, rng_seed=1)
        assert len(a) == 200
        assert all(
            x.top_score == y.top_score and x.is_tp == y.is_tp for x, y in zip(a, b)
        )

    def test_feature_ranges(self):
        rows = noisy_and_feature_rows(500, rng_seed=2)
        for r in rows:
            for v in (r.top_score, r.xc_s_plus, r.xc_c_plus, r.xc_s_minus, r.xc_c_minus):
                assert 0.0 <= v <= 1.0
            assert r.pred_label in CLASSES

    def test_label_balance_reasonable(self):
        rows = noisy_and_feature_rows(2000, rng_seed=3)
        rate = np.mean([r.is_tp for r in rows])
        # AND of two ~55% events with 8% flips: around 0.3
        assert 0.2 < rate < 0.45

    def test_no_single_factor_separates(self):
        # top_score tracks one latent factor, concentration the other; each
        # alone must leave real class overlap while together they separate
        rows = noisy_and_feature_rows(2000, rng_seed=4)
        tp = [r for r in rows if r.is_tp]
        fp = [r for r in rows if not r.is_tp]
        for feat in ("top_score", "xc_c_plus"):
            lo = np.percentile([getattr(r, feat) for r in tp], 10)
            hi = np.percentile([getattr(r, feat) for r in fp], 90)
            assert hi > lo  # heavy overlap for every single column
        both_tp = np.mean([min(r.top_score, r.xc_c_plus) for r in tp])
        both_fp = np.mean([min(r.top_score, r.xc_c_plus) for r in fp])
        assert both_tp - both_fp > 0.25
