"""Engine tests: forward shapes and values, exact input gradients, spec round-trips."""

import base64
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from xckit import autodiff
from xckit.autodiff import build_model, forward_array, input_gradient_array, model_to_spec
from xckit.errors import ShapeMismatch, TargetOutOfRange, UnknownLayerKind, XckitError
from xckit.synth import SceneSpec, frame_attributions, generate_benchmark

import oracles


def f32(values):
    return np.asarray(values, np.float32)


def tiny_linear():
    # f(x) = 2*x0 + 3*x1
    return build_model(
        {
            "input_shape": [2],
            "layers": [
                {"kind": "dense", "in_features": 2, "out_features": 1,
                 "weight": [[2.0], [3.0]], "bias": [0.0]}
            ],
        }
    )


def unit_sigmoid():
    # f(x) = sigmoid(x)
    return build_model(
        {
            "input_shape": [1],
            "layers": [
                {"kind": "dense", "in_features": 1, "out_features": 1,
                 "weight": [[1.0]], "bias": [0.0]},
                {"kind": "sigmoid"},
            ],
        }
    )


def seeded_convnet(seed, h=8, w=8, c=2):
    return build_model(
        {
            "input_shape": [h, w, c],
            "seed": seed,
            "layers": [
                {"kind": "conv2d", "in_channels": c, "out_channels": 3, "kernel": [3, 3]},
                {"kind": "relu"},
                {"kind": "conv2d", "in_channels": 3, "out_channels": 2, "kernel": [3, 3]},
                {"kind": "relu"},
                {"kind": "dense", "in_features": h * w * 2, "out_features": 4},
            ],
        }
    )


class TestForward:
    def test_dense_identity_weights(self):
        m = build_model(
            {
                "input_shape": [2],
                "layers": [
                    {"kind": "dense", "in_features": 2, "out_features": 1,
                     "weight": [[2.0], [1.0]], "bias": [0.0]}
                ],
            }
        )
        y = forward_array(m, f32([1.0, 1.0]))
        assert y.shape == (1,)
        assert y[0] == pytest.approx(3.0)

    def test_tiny_linear_value(self):
        y = forward_array(tiny_linear(), f32([1.0, 1.0]))
        assert float(y[0]) == 5.0

    def test_relu_clamps_negative(self):
        m = build_model({"input_shape": [2], "layers": [{"kind": "relu"}]})
        y = forward_array(m, f32([-1.0, 2.0]))
        assert np.array_equal(y, np.array([0.0, 2.0], np.float32))

    def test_sigmoid_at_zero(self):
        m = build_model({"input_shape": [1], "layers": [{"kind": "sigmoid"}]})
        y = forward_array(m, f32([0.0]))
        assert float(y[0]) == 0.5

    def test_conv_then_dense_composes(self):
        # conv output feeds a dense head without an explicit flatten
        m = build_model(
            {
                "input_shape": [16, 16, 4],
                "seed": 7,
                "layers": [
                    {"kind": "conv2d", "in_channels": 4, "out_channels": 8, "kernel": [3, 3]},
                    {"kind": "relu"},
                    {"kind": "dense", "in_features": 16 * 16 * 8, "out_features": 1},
                ],
            }
        )
        assert m.output_shape == (1,)
        y = forward_array(m, np.zeros((16, 16, 4), np.float32))
        assert y.shape == (1,)

    def test_conv_same_padding_shape(self):
        m = seeded_convnet(0)
        assert m.output_shape == (4,)
        x = np.random.default_rng(1).normal(size=(8, 8, 2)).astype(np.float32)
        assert forward_array(m, x).shape == (4,)

    def test_conv_matches_direct_correlation(self):
        # one output pixel, computed by hand from the padded window
        rng = np.random.default_rng(3)
        w = rng.normal(size=(3, 3, 2, 1)).astype(np.float32)
        b = np.array([0.25], np.float32)
        m = build_model(
            {
                "input_shape": [5, 5, 2],
                "layers": [
                    {"kind": "conv2d", "in_channels": 2, "out_channels": 1,
                     "kernel": [3, 3], "weight": w.tolist(), "bias": b.tolist()}
                ],
            }
        )
        x = rng.normal(size=(5, 5, 2)).astype(np.float32)
        y = forward_array(m, x)
        xp = np.pad(x.astype(np.float64), ((1, 1), (1, 1), (0, 0)))
        for (yy, xx) in [(0, 0), (2, 3), (4, 4)]:
            window = xp[yy : yy + 3, xx : xx + 3, :]
            want = float(np.sum(window * w[..., 0].astype(np.float64))) + 0.25
            assert y[yy, xx, 0] == pytest.approx(want, abs=1e-5)

    def test_forward_is_pure(self):
        m = seeded_convnet(5)
        x = np.random.default_rng(0).normal(size=(8, 8, 2)).astype(np.float32)
        before = model_to_spec(m)
        y1 = forward_array(m, x).copy()
        y2 = forward_array(m, x)
        assert np.array_equal(y1, y2)
        assert model_to_spec(m) == before


class TestValidation:
    def test_mismatched_dense_chain_raises(self):
        with pytest.raises(ShapeMismatch):
            build_model(
                {
                    "input_shape": [2],
                    "seed": 0,
                    "layers": [
                        {"kind": "dense", "in_features": 2, "out_features": 3},
                        {"kind": "dense", "in_features": 4, "out_features": 1},
                    ],
                }
            )

    def test_unknown_kind_raises(self):
        with pytest.raises(UnknownLayerKind):
            build_model({"input_shape": [2], "layers": [{"kind": "gelu"}]})

    def test_wrong_input_shape_raises(self):
        with pytest.raises(ShapeMismatch):
            forward_array(tiny_linear(), f32([1.0, 2.0, 3.0]))

    def test_target_out_of_range(self):
        with pytest.raises(TargetOutOfRange):
            input_gradient_array(tiny_linear(), f32([0.0, 0.0]), 1)

    def test_non_finite_input_rejected(self):
        with pytest.raises(XckitError):
            forward_array(tiny_linear(), f32([np.nan, 0.0]))

    @pytest.mark.parametrize("weight, bias", [([["3.5"], [1.0]], [0.0]), ([[0.0], [1.0]], [True])],
                             ids=["string-weight", "boolean-bias"])
    def test_parameters_must_be_json_numbers(self, weight, bias):
        with pytest.raises(XckitError, match="parameters must be nested lists of numbers"):
            build_model({"input_shape": [2], "layers": [
                {"kind": "dense", "in_features": 2, "out_features": 1, "weight": weight,
                 "bias": bias}]})

    def test_missing_params_without_seed(self):
        with pytest.raises(XckitError):
            build_model(
                {
                    "input_shape": [2],
                    "layers": [{"kind": "dense", "in_features": 2, "out_features": 1}],
                }
            )

    @pytest.mark.parametrize("shape", [[2, True], [2.0, 1]], ids=["boolean", "float"])
    def test_encoded_shape_takes_json_integers_only(self, shape):
        # true and 2.0 compare equal to 1 and 2, yet neither is a size
        weight = {"shape": shape, "f32le": base64.b64encode(bytes(8)).decode()}
        with pytest.raises(ShapeMismatch, match=re.escape(
                f"layers.0 (dense) weight: expected shape [2, 1], got {shape!r}")):
            build_model({"input_shape": [2], "layers": [
                {"kind": "dense", "in_features": 2, "out_features": 1, "weight": weight,
                 "bias": [0.0]}]})

    @pytest.mark.parametrize("kind", [["relu"], {"relu": 1}, None, 5], ids=repr)
    def test_kind_of_any_json_type_is_unknown(self, kind):
        with pytest.raises(UnknownLayerKind, match="layers.0: unknown kind"):
            build_model({"input_shape": [2], "layers": [{"kind": kind}]})


def count_arrays(monkeypatch):
    """The names of the array builders build_model calls, in call order."""
    calls = []
    for name in ("_init_array", "_as_f32"):
        real = getattr(autodiff, name)
        monkeypatch.setattr(autodiff, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    return calls


class TestSpecCheckedWhole:
    """build_model checks every entry's fields, the chain and the parameter budget
    before it decodes or draws a single array."""

    def test_chain_fault_before_any_draw(self, monkeypatch):
        calls = count_arrays(monkeypatch)
        inline = dict(dense(2, 3), weight=np.ones((2, 3)).tolist(), bias=[0.0] * 3)
        with pytest.raises(ShapeMismatch, match=r"dense expects 4 input features, got \(3,\)"):
            build_model({"input_shape": [2], "seed": 0, "layers": [inline, dense(4, 1)]})
        assert calls == []

    def test_budget_is_per_model(self, monkeypatch):
        calls = count_arrays(monkeypatch)
        monkeypatch.setattr(autodiff, "MAX_PARAM_ELEMENTS", 100)
        # the arrays hold 48, 8, 40 and 5 elements, each under the bound; the
        # last one brings the model to 101
        with pytest.raises(XckitError, match=r"^layers\.2 \(dense\) bias: 101 elements exceed 100$"):
            build_model({"input_shape": [6], "seed": 0,
                         "layers": [dense(6, 8), RELU, dense(8, 5)]})
        assert calls == []
        m = build_model({"input_shape": [6], "seed": 0, "layers": [dense(6, 8), RELU, dense(8, 4)]})
        assert calls == ["_init_array"] * 4 and m.shapes == [(6,), (8,), (8,), (4,)]


class TestInputGradient:
    def test_linear_gradient_is_input_independent(self):
        m = tiny_linear()
        for x in ([0.0, 0.0], [5.0, -3.0], [100.0, 7.0]):
            g = input_gradient_array(m, f32(x), 0)
            assert np.allclose(g, [2.0, 3.0])

    def test_sigmoid_prime_quarter(self):
        g = input_gradient_array(unit_sigmoid(), f32([0.0]), 0)
        assert float(g[0]) == pytest.approx(0.25, abs=1e-7)

    def test_saturated_sigmoid_does_not_warn(self):
        # exp(800) overflows, yet sigmoid(-800) is 0.0 and so is its slope
        m = unit_sigmoid()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = forward_array(m, f32([-800.0]))
            g = input_gradient_array(m, f32([-800.0]), 0)
        assert y[0] == 0.0 and g[0] == 0.0

    def test_relu_subgradient_zero_at_kink(self):
        m = build_model({"input_shape": [3], "layers": [{"kind": "relu"}]})
        g = input_gradient_array(m, f32([0.0, -1.0, 2.0]), 0)
        assert float(g[0]) == 0.0

    def test_convnet_matches_finite_differences(self):
        # 50 random coordinates of a 3-layer conv net, float64 probe path
        m = seeded_convnet(11)
        rng = np.random.default_rng(42)
        x = rng.normal(size=(8, 8, 2)).astype(np.float32).astype(np.float64)
        target = 2
        exact = input_gradient_array(m, x, target).reshape(-1)
        coords = rng.choice(x.size, size=50, replace=False)
        checked = 0
        for i in coords:
            if oracles.near_relu_kink(m, x, int(i)):
                continue
            fd = oracles.fd_gradient_at(m, x, target, [int(i)])[0]
            denom = max(abs(fd), abs(exact[i]), 1e-8)
            assert abs(fd - exact[i]) / denom < 1e-4, f"coord {i}: {fd} vs {exact[i]}"
            checked += 1
        assert checked >= 30

    def test_seeded_nets_match_fd_loop(self):
        for seed in range(4):
            m = seeded_convnet(seed, h=6, w=6, c=1)
            rng = np.random.default_rng(100 + seed)
            x = rng.normal(size=(6, 6, 1)).astype(np.float32).astype(np.float64)
            exact = input_gradient_array(m, x, 0).reshape(-1)
            for i in rng.choice(x.size, size=8, replace=False):
                if oracles.near_relu_kink(m, x, int(i)):
                    continue
                fd = oracles.fd_gradient_at(m, x, 0, [int(i)])[0]
                denom = max(abs(fd), abs(exact[i]), 1e-8)
                assert abs(fd - exact[i]) / denom < 1e-4

    def test_empty_path_rejected(self):
        m = seeded_convnet(9)
        for target in (0, [0, 1], []):
            with pytest.raises(ShapeMismatch, match="the path has no points"):
                input_gradient_array(m, np.ones((8, 8, 2)), target, alphas=[])

    def test_batch_is_not_an_input(self):
        with pytest.raises(ShapeMismatch, match=r"input shape \(2, 8, 8, 2\)"):
            input_gradient_array(seeded_convnet(9), np.ones((2, 8, 8, 2)), 0)

    def test_empty_target_sequence_gives_empty_result(self):
        m = seeded_convnet(9)
        x = np.ones((8, 8, 2))
        for alphas in ((1.0,), (0.25, 0.5, 1.0)):
            got = input_gradient_array(m, x, [], alphas=alphas)
            assert got.shape == (0, 8, 8, 2) and got.dtype == np.float64

    def test_sum_does_not_depend_on_chunking(self, monkeypatch):
        # one sum over every point in alphas order, however the points are chunked
        default = autodiff.CHUNK_BYTES
        m = seeded_convnet(9)
        rng = np.random.default_rng(5)
        x, b = rng.normal(size=(2, 8, 8, 2))
        alphas = rng.uniform(-1, 2, size=7)  # past both ends of the path
        sums = []
        for chunk_bytes in (1, 3 * x.nbytes, default):
            monkeypatch.setattr(autodiff, "CHUNK_BYTES", chunk_bytes)
            sums.append(input_gradient_array(m, x, [0, 2], b, alphas).tobytes())
        assert sums[0] == sums[1] == sums[2]
        # the toy contracts its points, one dot product per chunk, so the grouping moves
        # its float64 rounding, but by under 1e-12 of the map and by no float32 bit
        frames, _ = generate_benchmark(SceneSpec(rng_seed=5), 3)
        per_chunking = []
        for chunk_bytes in (1, 3 * 8 * frames[0].pseudo_image.size, default, 2**40):
            monkeypatch.setattr(autodiff, "CHUNK_BYTES", chunk_bytes)
            per_chunking.append([m.values for f in frames for m in frame_attributions(f, "ig", 16)])
        for maps in per_chunking[1:]:
            for a, b in zip(maps, per_chunking[0]):
                assert max_norm_error(a, b) < 1e-12
                assert a.astype(np.float32).tobytes() == b.astype(np.float32).tobytes()

    def test_forward_sees_at_most_one_chunk(self, monkeypatch):
        m = seeded_convnet(9)
        x = np.ones((8, 8, 2))
        seen = []

        def counted(model, batch, forward=autodiff._forward):
            seen.append(len(batch))
            return forward(model, batch)

        monkeypatch.setattr(autodiff, "_forward", counted)
        for chunk_bytes in (1, 3 * x.nbytes + 5, autodiff.CHUNK_BYTES):
            monkeypatch.setattr(autodiff, "CHUNK_BYTES", chunk_bytes)
            per_chunk = max(1, chunk_bytes // x.nbytes)
            seen.clear()
            input_gradient_array(m, x, [0, 1], alphas=np.linspace(0, 1, 2 * per_chunk + 1))
            assert max(seen) == per_chunk and sum(seen) == 2 * per_chunk + 1

    def test_gradient_is_deterministic(self):
        m = seeded_convnet(9)
        x = np.random.default_rng(2).normal(size=(8, 8, 2)).astype(np.float32)
        g1 = input_gradient_array(m, x, 1)
        g2 = input_gradient_array(m, x, 1)
        assert np.array_equal(g1, g2)


def max_norm_error(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


H, W, C = 6, 6, 2
POINT_SUM_MODELS = {
    # no leading affine layer: the points are summed at the input. The dense
    # forward rounds differently at batch 5 than at batch 1 (gemm against
    # gemv), so this model ends in dense, whose backward reads no forward value
    "relu-first": (0, [
        {"kind": "relu"},
        {"kind": "conv2d", "in_channels": C, "out_channels": 3, "kernel": [3, 3]},
        {"kind": "relu"},
        {"kind": "dense", "in_features": H * W * 3, "out_features": 4},
    ]),
    "conv-first": (1, [
        {"kind": "conv2d", "in_channels": C, "out_channels": 3, "kernel": [3, 3]},
        {"kind": "relu"},
        {"kind": "conv2d", "in_channels": 3, "out_channels": 2, "kernel": [1, 1]},
        {"kind": "dense", "in_features": H * W * 2, "out_features": 4},
        {"kind": "sigmoid"},
    ]),
    "dense-first": (1, [
        {"kind": "dense", "in_features": H * W * C, "out_features": 5},
        {"kind": "relu"},
        {"kind": "dense", "in_features": 5, "out_features": 4},
        {"kind": "sigmoid"},
    ]),
    # a dense layer between the relus: each target's seed goes back through them
    "dense-first-deep": (1, [
        {"kind": "dense", "in_features": H * W * C, "out_features": 5},
        {"kind": "relu"},
        {"kind": "dense", "in_features": 5, "out_features": 6},
        {"kind": "relu"},
        {"kind": "dense", "in_features": 6, "out_features": 4},
        {"kind": "sigmoid"},
    ]),
}


def seeded_model(layers):
    return build_model({"input_shape": [H, W, C], "seed": 5, "layers": layers})


class TestPointSummedBatch:
    """A path returns each target's gradient summed over its points."""

    @pytest.mark.parametrize("kind", sorted(POINT_SUM_MODELS))
    def test_batch_equals_point_order_sum_of_single_points(self, kind):
        lead, layers = POINT_SUM_MODELS[kind]
        m = seeded_model(layers)
        assert m.n_leading_affine == lead
        rng = np.random.default_rng(3)
        x, b = rng.normal(size=(2, H, W, C))
        alphas = rng.uniform(-1, 2, size=5)
        points = [b + a * (x - b) for a in alphas]  # as the engine forms them
        targets = [2, 0, 3]
        got = input_gradient_array(m, x, targets, b, alphas)
        assert got.shape == (len(targets), H, W, C)
        for k, t in enumerate(targets):
            want = input_gradient_array(m, points[0], t)
            for point in points[1:]:
                want = want + input_gradient_array(m, point, t)
            if lead == 0:
                assert np.array_equal(got[k], want)
            else:
                assert max_norm_error(got[k], want) <= 1e-12

    @pytest.mark.parametrize("kind", sorted(POINT_SUM_MODELS))
    def test_batch_of_one_equals_single_input_bitwise(self, kind):
        # a one-point path at alpha is the single input at that point
        m = seeded_model(POINT_SUM_MODELS[kind][1])
        x, b = np.random.default_rng(4).normal(size=(2, H, W, C))
        alpha = 0.375
        point = b + alpha * (x - b)
        for t in (0, 1, 2, 3, [1, 3]):
            assert (input_gradient_array(m, x, t, b, [alpha]).tobytes()
                    == input_gradient_array(m, point, t).tobytes())


def conv(cin, cout, k=3):
    return {"kind": "conv2d", "in_channels": cin, "out_channels": cout, "kernel": [k, k]}


def dense(n_in, n_out):
    return {"kind": "dense", "in_features": n_in, "out_features": n_out}


RELU, SIGMOID = {"kind": "relu"}, {"kind": "sigmoid"}
IDENTITY_1X1 = {**conv(3, 3, 1), "weight": np.eye(3, dtype=np.float32).reshape(1, 1, 3, 3),
                "bias": np.zeros(3, np.float32)}
RANK_ONE_MODELS = {
    # name: (layers, affine tail as (run, top), exact): exact when the tail's
    # affine run is one layer or an identity, so each point's gradient is the
    # full materialized backward's bit for bit
    "conv-tail": ([conv(C, 3), RELU, conv(3, 2), dense(H * W * 2, 4), SIGMOID], (2, 4), False),
    "relu-above-affine": ([conv(C, 3), RELU, dense(H * W * 3, 5), RELU, dense(5, 4), SIGMOID],
                          (4, 5), True),
    "dense-end": ([conv(C, 3), RELU, dense(H * W * 3, 4)], (2, 3), True),
    "identity-1x1": ([conv(C, 3), RELU, IDENTITY_1X1, dense(H * W * 3, 4), SIGMOID], (2, 4), True),
}
RANK_ONE_CASES = [(name, first) for name in sorted(RANK_ONE_MODELS)
                  for first in ("conv-first", "relu-first")]


def rank_one_model(name, first):
    # relu-first puts a relu at the input: no leading affine layer, so the points
    # are summed at the input, as the oracle sums them
    layers, (run, top), _ = RANK_ONE_MODELS[name]
    shift = first == "relu-first"
    m = seeded_model([RELU] * shift + layers)
    assert m.affine_tail == (run + shift, top + shift)
    assert m.n_leading_affine == 1 - shift
    return m


class TestRankOneTail:
    """The tail's affine run runs once per target on a unit seed, scaled per point."""

    TARGETS = [2, 0, 2, 3]  # a duplicate target gets the same gradient twice

    @pytest.mark.parametrize("name, first", RANK_ONE_CASES)
    def test_single_point_equals_layerwise_oracle(self, name, first):
        m = rank_one_model(name, first)
        x = np.random.default_rng(6).normal(size=(H, W, C))
        got = input_gradient_array(m, x, self.TARGETS)
        assert got[0].tobytes() == got[2].tobytes()
        for g, t in zip(got, self.TARGETS):
            want = oracles.layerwise_input_gradient(m, x, t)
            if RANK_ONE_MODELS[name][2]:
                assert g.tobytes() == want.tobytes()
            else:
                assert max_norm_error(g, want) <= 1e-12

    @pytest.mark.parametrize("name, first", RANK_ONE_CASES)
    def test_points_equal_point_order_sum_of_oracle(self, name, first, monkeypatch):
        # one point per chunk, so every forward runs at batch 1 as the oracle's does;
        # a leading affine run sums the points before its backward, the oracle after
        monkeypatch.setattr(autodiff, "CHUNK_BYTES", 1)
        m = rank_one_model(name, first)
        rng = np.random.default_rng(7)
        x, b = rng.normal(size=(2, H, W, C))
        alphas = rng.uniform(-1, 2, size=6)
        got = input_gradient_array(m, x, self.TARGETS, b, alphas)
        for g, t in zip(got, self.TARGETS):
            want = np.zeros((H, W, C))
            for a in alphas:
                want += oracles.layerwise_input_gradient(m, b + a * (x - b), t)
            if RANK_ONE_MODELS[name][2] and first == "relu-first":
                assert g.tobytes() == want.tobytes()
            else:
                assert max_norm_error(g, want) <= 1e-12

    def test_zero_sigmoid_derivative_gives_positive_zeros(self, monkeypatch):
        # at the larger scales the target's sigmoid is exactly 1.0, so its derivative
        # is 0 and the rank-one point gradient 0 * u holds -0.0 wherever u < 0
        monkeypatch.setattr(autodiff, "CHUNK_BYTES", 1)
        m = rank_one_model("relu-above-affine", "relu-first")
        x = np.abs(np.random.default_rng(8).normal(size=(H, W, C)))
        t = int(np.argmax(forward_array(m, 1e3 * x)))
        scales = (0.01, 1e3, 0.1, 2e3)
        pts = np.stack([s * x for s in scales])  # the zero baseline's path points, bitwise
        probs = np.array([forward_array(m, p)[t] for p in pts])
        assert list(probs == 1.0) == [False, True, False, True]
        u = m.layers[-2].backward(np.eye(4)[t][None], (1, 5))[0]
        assert np.any(u < 0)
        for p, saturated in zip(pts, probs == 1.0):
            g = input_gradient_array(m, p, [t, 0])
            assert g[0].tobytes() == oracles.layerwise_input_gradient(m, p, t).tobytes()
            if saturated:
                assert g[0].tobytes() == np.zeros((H, W, C)).tobytes()
        want = sum(oracles.layerwise_input_gradient(m, p, t) for p in pts)
        assert input_gradient_array(m, x, t, alphas=scales).tobytes() == want.tobytes()


@st.composite
def dense_backward_cases(draw):
    n_in, n_out, b = draw(st.integers(1, 12)), draw(st.integers(1, 8)), draw(st.integers(1, 5))
    finite_f32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
    weight = draw(arrays(np.float32, (n_in, n_out),
                         elements=st.one_of(finite_f32, st.sampled_from([0.0, -0.0, -1.5]))))
    logits = draw(arrays(np.float64, (b, n_out), elements=st.floats(-30, 30)))
    target = draw(st.integers(0, n_out - 1))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return weight, logits, target, dtype


class TestDenseColumnBackward:
    """Dense backward multiplies only g's non-zero columns, with the full product's bits."""

    @staticmethod
    def dense(weight):
        n_in, n_out = weight.shape
        m = build_model({"input_shape": [n_in], "layers": [
            {"kind": "dense", "in_features": n_in, "out_features": n_out,
             "weight": weight, "bias": np.zeros(n_out, np.float32)}]})
        return m.layers[0]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(dense_backward_cases())
    @example((np.array([[2.0, -0.0], [0.0, -3.0]], np.float32),  # a -0.0 product: BLAS sums +0.0
              np.array([[0.5, -1.0], [2.0, 0.0]]), 1, np.float64))
    def test_one_hot_seed_through_sigmoid_equals_full_product(self, case):
        weight, logits, target, dtype = case
        layer = self.dense(weight)
        y = 1.0 / (1.0 + np.exp(-logits.astype(dtype)))
        seed = np.zeros_like(y)
        seed[:, target] = 1.0
        g = seed * y * (1.0 - y)  # the sigmoid layer's backward
        in_shape = (len(g), weight.shape[0])
        full = g @ weight.astype(dtype).T
        got, rest = layer.backward(g, in_shape)
        assert rest == ()
        assert got.dtype == full.dtype and got.shape == in_shape
        assert got.tobytes() == full.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_all_zero_gradient_gives_zeros(self, dtype):
        weight = np.random.default_rng(8).normal(size=(12, 3)).astype(np.float32)
        got, _ = self.dense(weight).backward(np.zeros((2, 3), dtype), (2, 3, 4))
        assert got.shape == (2, 3, 4) and got.dtype == dtype
        assert got.tobytes() == np.zeros((2, 3, 4), dtype).tobytes()


class TestSpecRoundTrip:
    def test_model_to_spec_rebuilds_identically(self):
        m = seeded_convnet(17)
        m2 = build_model(model_to_spec(m))
        x = np.random.default_rng(6).normal(size=(8, 8, 2)).astype(np.float32)
        assert np.array_equal(forward_array(m, x), forward_array(m2, x))

    def test_seeded_init_reproducible(self):
        assert model_to_spec(seeded_convnet(23)) == model_to_spec(seeded_convnet(23))

    def test_init_bound_respected(self):
        m = build_model(
            {
                "input_shape": [16],
                "seed": 2,
                "layers": [{"kind": "dense", "in_features": 16, "out_features": 8}],
            }
        )
        w = m.layers[0].weight
        assert np.all(np.abs(w) <= 0.25 + 1e-7)
        assert w.std() > 0.05


def test_threads_that_make_the_float64_copies_together_get_sequential_bits():
    # each array's float64 copy is made by the first float64 call that reads it, so
    # --jobs threads on a fresh model race to make it; switching often, every thread's
    # gradients (a lone point through the dense forward, and a path) keep the bits
    x = np.random.default_rng(4).normal(size=(8, 8, 2))

    def gradients(model):
        return [input_gradient_array(model, x, [0, 3], alphas=alphas).tobytes()
                for alphas in ((1.0,), (0.25, 0.75))]

    expected = gradients(seeded_convnet(5))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            model = seeded_convnet(5)
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda _: gradients(model), range(4), timeout=60))
            assert got == [expected] * 4
    finally:
        sys.setswitchinterval(interval)
