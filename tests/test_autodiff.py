"""Engine tests: forward shapes and values, exact input gradients, spec round-trips."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
}


def seeded_model(layers):
    return build_model({"input_shape": [H, W, C], "seed": 5, "layers": layers})


class TestPointSummedBatch:
    """A batch returns each target's gradient summed over its points."""

    @pytest.mark.parametrize("kind", sorted(POINT_SUM_MODELS))
    def test_batch_equals_point_order_sum_of_single_points(self, kind):
        lead, layers = POINT_SUM_MODELS[kind]
        m = seeded_model(layers)
        assert m.n_leading_affine == lead
        batch = np.random.default_rng(3).normal(size=(5, H, W, C))
        targets = [2, 0, 3]
        got = input_gradient_array(m, batch, targets)
        assert got.shape == (len(targets), H, W, C)
        for k, t in enumerate(targets):
            want = input_gradient_array(m, batch[0], t)
            for point in batch[1:]:
                want = want + input_gradient_array(m, point, t)
            if lead == 0:
                assert np.array_equal(got[k], want)
            else:
                assert max_norm_error(got[k], want) <= 1e-12

    @pytest.mark.parametrize("kind", sorted(POINT_SUM_MODELS))
    def test_batch_of_one_equals_single_input_bitwise(self, kind):
        m = seeded_model(POINT_SUM_MODELS[kind][1])
        x = np.random.default_rng(4).normal(size=(H, W, C))
        for t in range(4):
            assert (input_gradient_array(m, x[None], t).tobytes()
                    == input_gradient_array(m, x, t).tobytes())
        assert (input_gradient_array(m, x[None], [1, 3]).tobytes()
                == input_gradient_array(m, x, [1, 3]).tobytes())


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
