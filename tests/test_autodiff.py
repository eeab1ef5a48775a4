"""Engine tests: forward shapes and values, exact input gradients, spec round-trips."""

import numpy as np
import pytest

from xckit.autodiff import build_model, forward_array, input_gradient_array, model_to_spec
from xckit.errors import ShapeMismatch, TargetOutOfRange, UnknownLayerKind, XckitError

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

    def test_missing_params_without_seed(self):
        with pytest.raises(XckitError):
            build_model(
                {
                    "input_shape": [2],
                    "layers": [{"kind": "dense", "in_features": 2, "out_features": 1}],
                }
            )


class TestInputGradient:
    def test_linear_gradient_is_input_independent(self):
        m = tiny_linear()
        for x in ([0.0, 0.0], [5.0, -3.0], [100.0, 7.0]):
            g = input_gradient_array(m, f32(x), 0)
            assert np.allclose(g, [2.0, 3.0])

    def test_sigmoid_prime_quarter(self):
        m = build_model(
            {
                "input_shape": [1],
                "layers": [
                    {"kind": "dense", "in_features": 1, "out_features": 1,
                     "weight": [[1.0]], "bias": [0.0]},
                    {"kind": "sigmoid"},
                ],
            }
        )
        g = input_gradient_array(m, f32([0.0]), 0)
        assert float(g[0]) == pytest.approx(0.25, abs=1e-7)

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

    def test_gradient_is_deterministic(self):
        m = seeded_convnet(9)
        x = np.random.default_rng(2).normal(size=(8, 8, 2)).astype(np.float32)
        g1 = input_gradient_array(m, x, 1)
        g2 = input_gradient_array(m, x, 1)
        assert np.array_equal(g1, g2)


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
