"""Attribution method tests: completeness, exactness on linear models, identities."""

import hashlib
import math

import numpy as np
import pytest

from xckit import attribution, autodiff
from xckit.attribution import (
    AttributionTarget,
    aggregate_signed,
    backprop_saliency,
    integrated_gradients,
    modified_integrated_gradients,
)
from xckit.autodiff import build_model, forward_array, input_gradient_array
from xckit.errors import ShapeMismatch, ZeroSteps
from xckit.synth import SceneSpec, frame_attributions, generate_benchmark, output_index

import oracles


def convnet(seed, h=8, w=8, c=2):
    return build_model(
        {
            "input_shape": [h, w, c],
            "seed": seed,
            "layers": [
                {"kind": "conv2d", "in_channels": c, "out_channels": 4, "kernel": [3, 3]},
                {"kind": "relu"},
                {"kind": "conv2d", "in_channels": 4, "out_channels": 2, "kernel": [3, 3]},
                {"kind": "relu"},
                {"kind": "dense", "in_features": h * w * 2, "out_features": 3},
                {"kind": "sigmoid"},
            ],
        }
    )


def linear_model():
    return build_model(
        {
            "input_shape": [3],
            "layers": [
                {"kind": "dense", "in_features": 3, "out_features": 1,
                 "weight": [[1.5], [-2.0], [0.25]], "bias": [0.75]}
            ],
        }
    )


def smooth_convnet(seed, h=8, w=8, c=2):
    # sigmoid activations keep the path integrand smooth, so the midpoint
    # rule error decays like 1/steps^2 instead of fluctuating with kinks
    return build_model(
        {
            "input_shape": [h, w, c],
            "seed": seed,
            "layers": [
                {"kind": "conv2d", "in_channels": c, "out_channels": 4, "kernel": [3, 3]},
                {"kind": "sigmoid"},
                {"kind": "conv2d", "in_channels": 4, "out_channels": 2, "kernel": [3, 3]},
                {"kind": "sigmoid"},
                {"kind": "dense", "in_features": h * w * 2, "out_features": 3},
            ],
        }
    )


class TestIntegratedGradients:
    def test_completeness_on_relu_nets(self):
        # sum of attributions approaches f(x) - f(0)
        for seed in range(3):
            m = convnet(seed)
            rng = np.random.default_rng(200 + seed)
            x = rng.normal(size=(8, 8, 2)).astype(np.float64)
            fx = float(forward_array(m, x)[1])
            f0 = float(forward_array(m, np.zeros_like(x))[1])
            ig = integrated_gradients(m, x, 1, steps=128)
            assert abs(float(ig.values.sum()) - (fx - f0)) < 1e-3

    def test_completeness_error_strictly_shrinks(self):
        for seed in range(3):
            m = smooth_convnet(seed)
            x = np.random.default_rng(300 + seed).normal(size=(8, 8, 2)) * 2.0
            fx = float(forward_array(m, x)[1])
            f0 = float(forward_array(m, np.zeros_like(x))[1])
            errs = []
            for steps in (8, 32, 128):
                ig = integrated_gradients(m, x, 1, steps=steps)
                errs.append(abs(float(ig.values.sum()) - (fx - f0)))
            assert errs[0] > errs[1] > errs[2]

    def test_linear_model_exact_at_any_steps(self):
        m = linear_model()
        x = np.array([2.0, -1.0, 4.0])
        fx = float(forward_array(m, x)[0])
        f0 = float(forward_array(m, np.zeros(3))[0])
        for steps in (1, 3, 32):
            ig = integrated_gradients(m, x, 0, steps=steps)
            assert abs(float(ig.values.sum()) - (fx - f0)) < 1e-6

    def test_piecewise_linear_exact_between_kinks(self):
        # f(x) = relu(x - 0.5); midpoints 0.25 and 0.75 straddle the kink,
        # averaging the two linear pieces to the exact integral
        m = build_model(
            {
                "input_shape": [1],
                "layers": [
                    {"kind": "dense", "in_features": 1, "out_features": 1,
                     "weight": [[1.0]], "bias": [-0.5]},
                    {"kind": "relu"},
                ],
            }
        )
        ig = integrated_gradients(m, np.array([1.0]), 0, steps=2)
        assert float(ig.values[0]) == pytest.approx(0.5, abs=1e-12)

    def test_custom_baseline_completeness(self):
        m = convnet(4)
        rng = np.random.default_rng(77)
        x = rng.normal(size=(8, 8, 2))
        b = rng.normal(size=(8, 8, 2)) * 0.1
        ig = integrated_gradients(m, x, 0, steps=256, baseline=b)
        fx = float(forward_array(m, x)[0])
        fb = float(forward_array(m, b)[0])
        assert abs(float(ig.values.sum()) - (fx - fb)) < 1e-3

    def test_zero_signal_cell_gets_zero(self):
        # element equal to the baseline contributes (x - b) = 0
        m = convnet(5)
        x = np.random.default_rng(3).normal(size=(8, 8, 2))
        x[4, 4, 0] = 0.0
        ig = integrated_gradients(m, x, 1, steps=16)
        assert ig.values[4, 4, 0] == 0.0

    def test_zero_steps_rejected(self):
        m = linear_model()
        for steps in (0, -2):
            with pytest.raises(ZeroSteps):
                integrated_gradients(m, np.ones(3), 0, steps=steps)

    def test_baseline_shape_mismatch(self):
        with pytest.raises(ShapeMismatch, match=r"baseline shape \(4,\) != input shape \(3,\)"):
            integrated_gradients(linear_model(), np.ones(3), 0, baseline=np.ones(4))

    def test_deterministic(self):
        m = convnet(6)
        x = np.random.default_rng(9).normal(size=(8, 8, 2))
        a = integrated_gradients(m, x, 2, steps=32).values
        b = integrated_gradients(m, x, 2, steps=32).values
        assert np.array_equal(a, b)

    def test_metadata_carried(self):
        t = AttributionTarget(box_index=3, class_index=1)
        ig = integrated_gradients(linear_model(), np.ones(3), 0, steps=8, target=t)
        assert ig.method == "integrated-gradients"
        assert ig.steps == 8
        assert ig.target.box_index == 3


class TestModifiedIG:
    def test_elementwise_identity_with_plain_ig(self):
        # modified * (x - baseline) reproduces plain IG bit for bit
        m = convnet(7)
        x = np.random.default_rng(11).normal(size=(8, 8, 2))
        ig = integrated_gradients(m, x, 0, steps=32)
        mig = modified_integrated_gradients(m, x, 0, steps=32)
        recon = mig.values * x  # zero baseline
        assert np.max(np.abs(recon - ig.values)) <= 1e-9

    def test_identity_with_nonzero_baseline(self):
        m = convnet(8)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(8, 8, 2))
        b = rng.normal(size=(8, 8, 2)) * 0.2
        ig = integrated_gradients(m, x, 1, steps=16, baseline=b)
        mig = modified_integrated_gradients(m, x, 1, steps=16, baseline=b)
        assert np.max(np.abs(mig.values * (x - b) - ig.values)) <= 1e-9

    def test_nonzero_where_input_is_zero(self):
        # the whole point of the variant: sensitivity without signal
        m = convnet(9)
        x = np.random.default_rng(15).normal(size=(8, 8, 2))
        x[2, 2, 1] = 0.0
        mig = modified_integrated_gradients(m, x, 0, steps=16)
        assert mig.values[2, 2, 1] != 0.0

    def test_single_endpoint_step_equals_saliency(self):
        # degenerate quadrature: one sample placed at the input itself
        m = convnet(10)
        x = np.random.default_rng(17).normal(size=(8, 8, 2))
        avg = attribution._path_maps(m, x, 0, None, "modified-integrated-gradients",
                                     1, None, 1.0).values
        assert np.array_equal(avg, input_gradient_array(m, x, 0))
        assert np.array_equal(avg, backprop_saliency(m, x, 0).values)


def test_no_output_indices_give_no_maps():
    m = convnet(12)
    x = np.random.default_rng(19).normal(size=(8, 8, 2))
    assert backprop_saliency(m, x, []) == []
    assert integrated_gradients(m, x, [], steps=7) == []
    assert modified_integrated_gradients(m, x, [], steps=7, target=[]) == []


class TestSaliency:
    def test_matches_engine_gradient(self):
        m = convnet(12)
        x = np.random.default_rng(19).normal(size=(8, 8, 2))
        sal = backprop_saliency(m, x, 2)
        assert np.array_equal(sal.values, input_gradient_array(m, x, 2))
        assert sal.method == "saliency"

    def test_accepts_list_input(self):
        m = linear_model()
        sal = backprop_saliency(m, [1.0, 2.0, 3.0], 0)
        assert sal.values.dtype == np.float64


def max_rel_error(values, ref):
    return float(np.max(np.abs(values - ref)) / max(np.max(np.abs(ref)), 1e-300))


class TestBatchedPath:
    """The chunked path engine, sharing forwards across targets, against one point per call."""

    @pytest.fixture(scope="class")
    def frames(self):
        # criterion 07's benchmark frames
        return generate_benchmark(SceneSpec(rng_seed=12345), 200)[0]

    @staticmethod
    def indices(frame):
        return [output_index(p.anchor_index, p.label) for p in frame.preds]

    def test_backprop_bitwise_on_all_benchmark_frames(self, frames):
        for fr in frames:
            x = fr.pseudo_image.astype(np.float64)
            for idx, m in zip(self.indices(fr), frame_attributions(fr)):
                assert m.values.tobytes() == input_gradient_array(fr.model, x, idx).tobytes()

    @pytest.mark.parametrize("steps", [32, 13])
    def test_ig_and_nomult_match_per_step_loop(self, frames, steps):
        # neither is a multiple of the 5 points a 40x40x4 chunk holds
        for fr in frames[:20]:
            x = fr.pseudo_image.astype(np.float64)
            idx = self.indices(fr)
            ig = integrated_gradients(fr.model, fr.pseudo_image, idx, steps=steps)
            mig = modified_integrated_gradients(fr.model, fr.pseudo_image, idx, steps=steps)
            for i, a, b in zip(idx, ig, mig):
                avg = oracles.per_step_path_gradient(fr.model, x, None, i, steps)
                assert max_rel_error(a.values, avg * x) <= 1e-12
                assert max_rel_error(b.values, avg) <= 1e-12

    @pytest.mark.parametrize("chunk_bytes", [1, autodiff.CHUNK_BYTES],
                             ids=["one-point-chunks", "default-chunks"])
    def test_path_equals_per_step_loop(self, frames, monkeypatch, chunk_bytes):
        # The engine sums the whole path's gradient, in step order, before the
        # leading conv2d/dense layers. A relu-first model has none, so its sum is
        # the per-step loop's bit for bit however the points are chunked; the
        # detector's leading conv runs once on the sum, not once per point.
        # The relu-first model ends in dense, whose backward reads no forward
        # value: the dense forward rounds differently at batch 5 than at
        # batch 1 (gemm against gemv).
        monkeypatch.setattr(autodiff, "CHUNK_BYTES", chunk_bytes)
        fr = frames[0]
        relu_first = build_model({"input_shape": [40, 40, 4], "seed": 3, "layers": [
            {"kind": "relu"},
            {"kind": "conv2d", "in_channels": 4, "out_channels": 3, "kernel": [3, 3]},
            {"kind": "relu"},
            {"kind": "dense", "in_features": 40 * 40 * 3, "out_features": 4}]})
        signed = np.random.default_rng(7).normal(size=(40, 40, 4))
        for model, x, lead in ((relu_first, signed, 0),
                               (fr.model, fr.pseudo_image.astype(np.float64), 1)):
            assert model.n_leading_affine == lead
            idx = self.indices(fr) if lead else [0, 1, 2, 3]
            for i, m in zip(idx, modified_integrated_gradients(model, x, idx, steps=13)):
                want = oracles.per_step_path_gradient(model, x, None, i, 13)
                if lead == 0:
                    assert m.values.tobytes() == want.tobytes()
                else:
                    assert max_rel_error(m.values, want) <= 1e-12

    def test_leading_conv_backward_runs_once_per_map(self, frames, monkeypatch):
        fr = frames[0]
        conv = fr.model.layers[0]
        assert conv.kind == "conv2d" and fr.model.n_leading_affine == 1
        calls = []

        def counted(g, in_shape, backward=conv.backward):
            calls.append(len(g))
            return backward(g, in_shape)

        monkeypatch.setattr(conv, "backward", counted)
        counts = {}
        for steps in (8, 32):
            calls.clear()
            frame_attributions(fr, "ig", steps)
            counts[steps] = len(calls)
            assert set(calls) == {1}
        assert 0 < counts[8] == counts[32] <= len(fr.preds)

    def test_tail_backward_runs_once_per_target_at_batch_one(self, frames, monkeypatch):
        # the toy's 1x1 conv and dense head map each target's unit seed once per
        # map, however many path points and chunks the map takes
        fr = frames[0]
        assert fr.model.affine_tail == (2, 4)
        calls = {}
        for layer in fr.model.layers[2:4]:
            def counted(g, in_shape, backward=layer.backward, kind=layer.kind):
                calls[kind].append(len(g))
                return backward(g, in_shape)
            monkeypatch.setattr(layer, "backward", counted)
        for steps in (8, 32):
            calls.update(conv2d=[], dense=[])
            frame_attributions(fr, "ig", steps)
            assert calls == {"conv2d": [1] * len(fr.preds), "dense": [1] * len(fr.preds)}

    # sha256 of the "<f4" bytes of each frame's maps, concatenated in prediction
    # order, for criterion 07's first 10 frames
    GOLDEN_F4_SHA256 = {
        "backprop": [
            "3c73d1246b1b5c1398df43a43507579fcc6842719275bcdeaa72fedf682c96df",
            "2aaf0123d19cb09f12968cfb32db56bd837bdcb4c9071255dbbbb2cef06a0ccf",
            "ce499be8bbbc047ca822debb28d966e68e6eb615f0423a8e5f49f34375cafcc5",
            "cff4e97a7edfe53ab65959d3cb922d105334f8dc69e52ba49e09af13434aea08",
            "5c36d69c13ac811df9980be917206d31c592a72be7938baadfefd6c57bfeb7c8",
            "4f624a8b1305a0996e27ede271741155fcce454856960c6dd8ab85fd9e929eba",
            "247f2088f808a96cf349f9e2237f87289ecaf827cf77266f377d8036d6af1dbc",
            "1790d64aa88a73f5c1be1a681d6b17ff9efae1ab90dc87fdbaa52c1977702cc0",
            "20210834dc84d8373dd2fbb63d5005aed25687c4f09187ecc1d15024ef3d1d5e",
            "587ecabf3b56fc0ad0ac7ea49d99d684929be1ce2f0b0986c67456e9ef17c60d",
        ],
        "ig": [
            "a24ccf347e87f172687e30ef57a7040714d0181c197a60001a50d278b4674323",
            "05f8d2d01029cc565018135803a76bef9eaa0345a2d69130b0ee9196269803a0",
            "2c9d51b20df2039df3e1c372101e1edb510d1f069dd886b2de13d04bd7350da1",
            "3b946c7ec8eb2dbbe9a4d08be90f4f31e0af289aceb0dcc856de8880b2e35b24",
            "ed204df2197a8a10717fe9c1e2616a227efdf6b3437a9e7827d5b787003276e0",
            "9da0120625d07e209ffd260d7b8cec7142271313c1361bc4cfe2991b415bb4a4",
            "1286430a5ba4414440d5a7d76e7b5ea548ddab9301559892df35831189e538a5",
            "712a1b5b8782cda2af9ca8392cab4a0d4d4fcda8b8cf4f3d70312df3101c5364",
            "7732eabe30166892fbc4513cf13ebc6e90583e29438bd0a47982c39df4dfd9a0",
            "46206b80cc89cc6a221d94d63566f9b4624f01b725e62db3300ba5b1a3839bc2",
        ],
    }

    @pytest.mark.parametrize("method", sorted(GOLDEN_F4_SHA256))
    def test_written_map_bytes_pinned(self, frames, method):
        # the float32 bytes that attribute writes must not move
        got = []
        for fr in frames[:10]:
            h = hashlib.sha256()
            for m in frame_attributions(fr, method, 32):
                h.update(m.values.astype("<f4").tobytes())
            got.append(h.hexdigest())
        assert got == self.GOLDEN_F4_SHA256[method]

    def test_targets_together_equal_one_at_a_time(self, frames):
        for fr in frames[:3]:
            idx = self.indices(fr)
            for method, kw in ((backprop_saliency, {}), (integrated_gradients, {"steps": 13}),
                               (modified_integrated_gradients, {"steps": 13})):
                together = method(fr.model, fr.pseudo_image, idx, **kw)
                assert len(together) == len(idx)
                for i, m in zip(idx, together):
                    alone = method(fr.model, fr.pseudo_image, i, **kw)
                    assert np.array_equal(m.values, alone.values)

    def test_targets_carried_per_index(self):
        m = convnet(14)
        x = np.random.default_rng(21).normal(size=(8, 8, 2))
        ts = [AttributionTarget(box_index=k) for k in range(3)]
        maps = integrated_gradients(m, x, [2, 0, 1], steps=4, target=ts)
        assert [mp.target for mp in maps] == ts
        with pytest.raises(ShapeMismatch):
            integrated_gradients(m, x, [2, 0], steps=4, target=ts)


class TestExactIG:
    """Midpoint-rule IG against ``oracles.exact_ig``, the path integral with no step count."""

    # n * (max-normalized error of IG-n), over the first 8 frames of criterion 07's
    # scene (32 maps, n = 8, 32 and 128): min 0.035, median 0.52, max 0.73. The
    # relu kinks make the midpoint rule first order, so n * error does not shrink.
    C = 0.75

    @pytest.fixture(scope="class")
    def frames(self):
        return generate_benchmark(SceneSpec(rng_seed=12345), 3)[0]

    def test_completeness_residual(self, frames):
        for fr in frames:
            x = fr.pseudo_image.astype(np.float64)
            fx, f0 = forward_array(fr.model, x), forward_array(fr.model, np.zeros_like(x))
            for p in fr.preds:
                i = output_index(p.anchor_index, p.label)
                gap = fx[i] - f0[i]
                assert abs(oracles.exact_ig(fr.model, x, None, i).sum() - gap) <= 1e-12 * abs(gap)

    def test_midpoint_ig_within_c_over_n(self, frames):
        for fr in frames:
            idx = [output_index(p.anchor_index, p.label) for p in fr.preds]
            x = fr.pseudo_image.astype(np.float64)
            exact = [oracles.exact_ig(fr.model, x, None, i) for i in idx]
            errors = []
            for n in (8, 32, 128):
                maps = integrated_gradients(fr.model, fr.pseudo_image, idx, steps=n)
                errors.append([max_rel_error(m.values, e) for m, e in zip(maps, exact)])
                assert max(errors[-1]) <= self.C / n
            for e8, e32, e128 in zip(*errors):
                assert e8 > e32 > e128


class TestAggregateSigned:
    def test_hand_case(self):
        v = np.zeros((2, 2, 3))
        v[0, 0] = [1.0, -2.0, 0.5]   # pos 1.5, neg 2.0
        v[1, 1] = [-0.25, 0.0, 0.0]  # pos 0, neg 0.25
        pos, neg = aggregate_signed(attribution.AttributionMap(v, method="saliency"))
        assert pos[0, 0] == pytest.approx(1.5)
        assert neg[0, 0] == pytest.approx(2.0)
        assert pos[1, 1] == 0.0
        assert neg[1, 1] == pytest.approx(0.25)
        assert pos[0, 1] == neg[0, 1] == 0.0

    def test_difference_recovers_channel_sum(self):
        rng = np.random.default_rng(23)
        v = rng.normal(size=(6, 5, 4))
        pos, neg = aggregate_signed(attribution.AttributionMap(v, method="saliency"))
        assert np.allclose(pos - neg, v.sum(axis=2))
        assert np.all(pos >= 0) and np.all(neg >= 0)

    def test_two_dim_rejected(self):
        v = np.array([[1.0, -1.0]])
        with pytest.raises(ShapeMismatch, match=r"expected \(H, W, C\) values, got shape \(1, 2\)"):
            aggregate_signed(attribution.AttributionMap(v, method="saliency"))

    def test_bad_rank_rejected(self):
        with pytest.raises(ShapeMismatch):
            aggregate_signed(attribution.AttributionMap(np.zeros(5), method="saliency"))

    @staticmethod
    def fsum_reference(v):
        v = np.asarray(v, dtype=np.float64)
        return tuple(
            np.array([[math.fsum(px) for px in row] for row in np.maximum(s * v, 0.0).tolist()])
            for s in (1.0, -1.0)
        )

    @pytest.mark.parametrize("values", [
        # float32 values: every pixel's float64 sum is exact, no fsum fallback
        np.random.default_rng(5).normal(size=(9, 8, 4)).astype(np.float32),
        # float64 values over a wide range of magnitudes: many pixels fall back
        np.random.default_rng(6).normal(size=(9, 8, 5)) * 10.0 ** np.random.default_rng(7)
        .integers(-20, 20, size=(9, 8, 5)),
        # 1e16 + 1 + 1 + 1 rounds at each step but not in fsum; zeros and subnormals
        np.array([[[1e16, 1, 1, 1], [1, 1e16, -1, 1], [0.0, -0.0, 0.0, -0.0],
                   [5e-324, 5e-324, -5e-324, 1e-310]]]),
        # one and two channels take the same path as four
        np.random.default_rng(8).normal(size=(5, 6, 1)) * 1e300,
        np.array([[[1e16, 1.0], [np.inf, -np.inf], [5e-324, -0.0], [-3.5, 2.25]]]),
    ], ids=["float32-exact", "float64-fallback", "hand-cases", "one-channel", "two-channel"])
    def test_bitwise_equal_to_per_pixel_fsum(self, values):
        got = aggregate_signed(attribution.AttributionMap(values, method="saliency"))
        for g, want in zip(got, self.fsum_reference(values)):
            assert g.tobytes() == want.tobytes()

    def test_inexact_pixel_gets_fsum(self):
        v = np.array([[[1e16, 1.0, 1.0, 1.0]]])
        pos, _ = aggregate_signed(attribution.AttributionMap(v, method="saliency"))
        assert pos[0, 0] == math.fsum(v.ravel()) != ((1e16 + 1.0) + 1.0) + 1.0

    def test_nan_and_inf_follow_fsum(self):
        v = np.array([[[np.nan, 1.0, 2.0], [np.inf, 1.0, 2.0], [1.0, -np.inf, 2.0]]])
        pos, neg = aggregate_signed(attribution.AttributionMap(v, method="saliency"))
        ref_pos, ref_neg = self.fsum_reference(v)
        assert np.isnan(pos[0, 0]) and np.isnan(neg[0, 0])
        assert np.array_equal(pos, ref_pos, equal_nan=True)
        assert np.array_equal(neg, ref_neg, equal_nan=True)
        assert pos[0, 1] == neg[0, 2] == np.inf

    def test_overflow_raises_like_fsum(self):
        for channels in (2, 3):
            values = np.full((1, 1, channels), 1e308)
            with pytest.raises(OverflowError):
                aggregate_signed(attribution.AttributionMap(values, "saliency"))
