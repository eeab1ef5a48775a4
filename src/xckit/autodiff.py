"""Forward pass and input gradient for small feed-forward grid models.

Attribution needs one thing from a detector: the gradient of one output with
respect to its input grid, summed along a straight path from a baseline. This
engine computes exactly that, for the layer set of the toy detectors: conv2d
(stride 1, zero padding), relu, sigmoid and dense (which flattens its input).
It skips work that cannot change the answer: parameter gradients, a path's
forwards through the affine runs at both ends of the model (see
``input_gradient_array``), and the zero columns of a dense layer's output
gradient.
Parameters are stored as float32. A float64 input runs on float64 copies made
once when the layer is built, so no call casts and ``--jobs`` threads share
them read-only; any other input runs on the float32 arrays.
"""

from __future__ import annotations

import base64
import math

import numpy as np

from .errors import ShapeMismatch, TargetOutOfRange, UnknownLayerKind, XckitError


def _as_f32(values, shape, what):
    """A float32 parameter array from nested lists or a ``{"shape", "f32le"}`` object."""
    shape = tuple(shape)
    if isinstance(values, dict):
        arr = _decode_f32(values, shape, what)
    else:
        try:  # numbers only: a string or a boolean is no parameter
            if isinstance(values, np.ndarray):  # built in-process: its dtype says what it holds
                arr, bad = values, {values.dtype.name} if values.dtype.kind not in "iuf" else ()
            else:  # nested lists: one pass over the elements, which numpy would promote
                arr = np.asarray(values, object)
                bad = {type(v).__name__ for v in arr.flat} - {"int", "float"}
            if bad:
                raise TypeError(f"got {', '.join(sorted(bad))} values")
            arr = arr.astype(np.float32, copy=False)
        except (TypeError, ValueError) as e:
            raise XckitError(f"{what}: parameters must be nested lists of numbers: {e}")
    if arr.shape != shape:
        raise ShapeMismatch(f"{what}: expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise XckitError(f"{what}: non-finite parameter values")
    return arr


def _encode_f32(arr) -> dict:
    """``arr`` as its shape and the base64 of its C-order little-endian float32 bytes."""
    raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
    return {"shape": list(arr.shape), "f32le": base64.b64encode(raw).decode("ascii")}


def _decode_f32(obj, shape, what):
    if obj.get("shape") != list(shape):
        raise ShapeMismatch(f"{what}: expected shape {list(shape)}, got {obj.get('shape')!r}")
    data = obj.get("f32le")
    if not isinstance(data, str):
        raise XckitError(f"{what}: 'f32le' must be a base64 string, got {type(data).__name__}")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as e:  # binascii.Error, or a non-ASCII character
        raise XckitError(f"{what}: 'f32le' is not valid base64: {e}")
    n = 4 * math.prod(shape)
    if len(raw) != n:
        raise XckitError(f"{what}: 'f32le' holds {len(raw)} bytes, shape {list(shape)} needs {n}")
    return np.frombuffer(raw, dtype="<f4").reshape(shape)


class _Affine:
    """Weight and bias of a dense or conv2d layer, plus float64 copies made once."""

    def __init__(self, weight, bias, *derived):
        self.weight = weight  # dense (in, out); conv2d (kh, kw, in, out)
        self.bias = bias  # (out,)
        arrays = (weight, bias, *derived)
        self._arrays = {np.dtype(np.float32): arrays,
                        np.dtype(np.float64): tuple(a.astype(np.float64) for a in arrays)}

    def _params(self, dtype):
        return self._arrays.get(dtype, self._arrays[np.dtype(np.float32)])


# backward returns (dx, ()): perfbench/child.py's layer timings unpack two values
class _Dense(_Affine):
    kind = "dense"

    def out_shape(self, in_shape):
        n_in = int(np.prod(in_shape))
        if n_in != self.weight.shape[0]:
            raise ShapeMismatch(
                f"dense expects {self.weight.shape[0]} input features, got {in_shape}"
            )
        return (self.weight.shape[1],)

    def forward(self, x, with_bias=True):
        # x: (B, ...) flattened to (B, n_in), so a dense head can follow a conv
        w, bias = self._params(x.dtype)
        y = x.reshape(len(x), -1) @ w
        if with_bias:
            y += bias
        return y, x.shape

    def backward(self, g, in_shape):
        # zero columns of g add exact zeros, so only the others are multiplied
        w, _ = self._params(g.dtype)
        cols = np.flatnonzero(g.any(axis=0))
        return (g[:, cols] @ w[:, cols].T).reshape(in_shape), ()


class _Conv2d(_Affine):
    """3x3-style convolution, stride 1, zero ("same") padding, NHWC layout."""

    kind = "conv2d"

    def __init__(self, weight, bias):
        # contiguous W[i, j].T for backward, whose matmuls are faster on it
        super().__init__(weight, bias, np.ascontiguousarray(weight.transpose(0, 1, 3, 2)))

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[2] != self.weight.shape[2]:
            raise ShapeMismatch(
                f"conv2d expects (H, W, {self.weight.shape[2]}) input, got {in_shape}"
            )
        return (in_shape[0], in_shape[1], self.weight.shape[3])

    def forward(self, x, with_bias=True):
        b, h, w_, cin = x.shape
        kh, kw, _, cout = self.weight.shape
        ph, pw = kh // 2, kw // 2
        wk, bias, _ = self._params(x.dtype)
        xp = x
        if ph or pw:  # zero padding by slice assignment, cheaper per call than np.pad
            xp = np.zeros((b, h + 2 * ph, w_ + 2 * pw, cin), dtype=x.dtype)
            xp[:, ph : ph + h, pw : pw + w_] = x
        y = np.zeros((b, h, w_, cout), dtype=x.dtype)
        for i in range(kh):
            for j in range(kw):
                y += xp[:, i : i + h, j : j + w_, :] @ wk[i, j]
        if with_bias:
            y += bias
        return y, x.shape

    def backward(self, g, in_shape):
        b, h, w_, cin = in_shape
        kh, kw = self.weight.shape[:2]
        ph, pw = kh // 2, kw // 2
        _, _, wt = self._params(g.dtype)
        dxp = np.zeros((b, h + 2 * ph, w_ + 2 * pw, cin), dtype=g.dtype)
        for i in range(kh):
            for j in range(kw):
                dxp[:, i : i + h, j : j + w_, :] += g @ wt[i, j]
        dx = dxp[:, ph : ph + h, pw : pw + w_, :] if (ph or pw) else dxp
        return dx, ()


class _ReLU:
    kind = "relu"

    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x):
        # the cache is the mask; subgradient 0 at the kink
        return np.maximum(x, 0), x > 0

    def backward(self, g, mask):
        return g * mask, ()


class _Sigmoid:
    kind = "sigmoid"

    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x):
        with np.errstate(over="ignore"):  # exp(-x) = inf gives the right y, 0.0
            y = 1.0 / (1.0 + np.exp(-x))
        return y, y

    def backward(self, g, cache):
        return g * cache * (1.0 - cache), ()


class ModelGraph:
    """An immutable feed-forward layer chain."""

    def __init__(self, input_shape, layers):
        self.input_shape = tuple(int(d) for d in input_shape)
        self.layers = list(layers)
        self.shapes = [self.input_shape]  # shapes[i] is layers[i]'s input, shapes[-1] the output
        for layer in self.layers:
            self.shapes.append(tuple(layer.out_shape(self.shapes[-1])))
        self.output_shape = self.shapes[-1]
        # the conv2d/dense run at the input, and the last affine run, layers[run:top],
        # under the elementwise output layers (empty when it is the leading run)
        affine = [isinstance(layer, _Affine) for layer in self.layers] + [False]
        self.n_leading_affine = affine.index(False)
        run = top = max((i + 1 for i, a in enumerate(affine) if a), default=0)
        while run > self.n_leading_affine and affine[run - 1]:
            run -= 1
        self.affine_tail = (run, top)

    @property
    def n_outputs(self):
        return int(np.prod(self.output_shape))


def _init_array(rng, shape, fan_in):
    bound = 1.0 / math.sqrt(fan_in) if fan_in > 0 else 0.0
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


MAX_PARAM_ELEMENTS = 2**28  # per parameter array: 3 GiB with the float64 draw it is cast from
_LAYER_FIELDS = {
    "dense": ("in_features", "out_features"),
    "conv2d": ("in_channels", "out_channels", "kernel"),
}


def build_model(spec: dict) -> ModelGraph:
    """Build a validated ModelGraph from a structured layer description.

    ``spec`` maps ``input_shape`` to a list of ``layers`` entries. Each
    dense or conv2d entry either carries its ``weight``/``bias`` arrays or is
    initialized from ``spec["seed"]`` with uniform(-1/sqrt(fan_in),
    +1/sqrt(fan_in)) draws in layer order. An array is given as nested lists
    or as ``{"shape": [...], "f32le": "<base64>"}``, the encoding
    ``model_to_spec`` writes.
    """
    if not (isinstance(spec, dict)
            and all(isinstance(spec.get(k), (list, tuple)) for k in ("input_shape", "layers"))):
        raise XckitError("model spec needs 'input_shape' and 'layers' lists")
    seed = spec.get("seed")
    if seed is not None and (type(seed) is not int or seed < 0):
        raise XckitError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed) if seed is not None else None

    def param(entry, key, shape, fan_in, tag):
        if math.prod(shape) > MAX_PARAM_ELEMENTS:
            raise XckitError(f"{tag} {key}: {math.prod(shape)} elements exceed {MAX_PARAM_ELEMENTS}")
        if key in entry:
            return _as_f32(entry[key], shape, f"{tag} {key}")
        if rng is None:
            raise XckitError(f"{tag}: no inline parameters and no init seed given")
        return _init_array(rng, shape, fan_in)

    def size(value, what):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise XckitError(f"{what} must be a positive integer, got {value!r}")
        return int(value)

    layers = []
    for idx, entry in enumerate(spec["layers"]):
        if not isinstance(entry, dict):
            raise XckitError(f"layers.{idx}: entry must be an object, got {entry!r}")
        kind = entry.get("kind")
        tag = f"layers.{idx} ({kind})"
        missing = [k for k in _LAYER_FIELDS.get(kind, ()) if k not in entry]
        if missing:
            raise XckitError(f"{tag}: missing field {missing[0]!r}")
        if kind == "dense":
            n_in = size(entry["in_features"], f"{tag}: in_features")
            n_out = size(entry["out_features"], f"{tag}: out_features")
            layers.append(_Dense(param(entry, "weight", (n_in, n_out), n_in, tag),
                                 param(entry, "bias", (n_out,), n_in, tag)))
        elif kind == "conv2d":
            cin = size(entry["in_channels"], f"{tag}: in_channels")
            cout = size(entry["out_channels"], f"{tag}: out_channels")
            kernel = entry["kernel"]
            if not isinstance(kernel, (list, tuple)) or len(kernel) != 2:
                raise XckitError(f"{tag}: kernel must be a [height, width] list, got {kernel!r}")
            kh, kw = (size(k, f"{tag}: kernel") for k in kernel)
            fan_in = kh * kw * cin
            layers.append(_Conv2d(param(entry, "weight", (kh, kw, cin, cout), fan_in, tag),
                                  param(entry, "bias", (cout,), fan_in, tag)))
        elif kind == "relu":
            layers.append(_ReLU())
        elif kind == "sigmoid":
            layers.append(_Sigmoid())
        else:
            raise UnknownLayerKind(f"layers.{idx}: unknown kind {kind!r}")

    return ModelGraph([size(d, "input_shape entry") for d in spec["input_shape"]], layers)


def model_to_spec(model: ModelGraph) -> dict:
    """Inverse of build_model: every weight and bias as a ``{"shape", "f32le"}`` object.

    ``f32le`` is the base64 of the array's C-order little-endian float32
    bytes, so parameters round-trip bit for bit.
    """
    layers = []
    for layer in model.layers:
        entry = {"kind": layer.kind}
        if layer.kind == "dense":
            entry["in_features"], entry["out_features"] = (int(d) for d in layer.weight.shape)
        elif layer.kind == "conv2d":
            kh, kw, cin, cout = (int(d) for d in layer.weight.shape)
            entry.update(in_channels=cin, out_channels=cout, kernel=[kh, kw])
        if layer.kind in ("dense", "conv2d"):
            entry.update(weight=_encode_f32(layer.weight), bias=_encode_f32(layer.bias))
        layers.append(entry)
    return {"input_shape": list(model.input_shape), "layers": layers}


def _check_input(model, batch):
    if tuple(batch.shape[1:]) != model.input_shape:
        raise ShapeMismatch(
            f"input shape {tuple(batch.shape[1:])} != model input {model.input_shape}"
        )
    if not np.all(np.isfinite(batch)):
        raise XckitError("input contains non-finite values")


def _forward(layers, x):
    """Run a (B, ...) array through ``layers``, tracking caches."""
    caches = []
    for layer in layers:
        x, cache = layer.forward(x)
        caches.append(cache)
    return x, caches


def forward_array(model: ModelGraph, arr: np.ndarray) -> np.ndarray:
    """Evaluate the model on a raw array, preserving its dtype.

    Useful for finite-difference probing at float64.
    """
    x = np.asarray(arr)[None]
    _check_input(model, x)
    y, _ = _forward(model.layers, x)
    return y[0]


def _tail_map(model, t, dtype, offset):
    """Target t's unit map under the affine tail (one backward at batch 1) and, if
    ``offset``, c: the tail's biases summed along it, so t's logit is h . u + c."""
    (run, top), layers, shapes = model.affine_tail, model.layers, model.shapes
    u, c = np.zeros((1, *shapes[top]), dtype=dtype), 0
    u.reshape(-1)[t] = 1.0
    for layer, in_shape in zip(reversed(layers[run:top]), reversed(shapes[run:top])):
        if offset:
            c += np.dot(u.reshape(-1, u.shape[-1]), layer._params(dtype)[1]).sum()
        u, _ = layer.backward(u, (1, *in_shape))
    return u, c


# Path points per chunk: as many inputs as fit in this many bytes (5 float64
# inputs at 40x40x4), so memory stays flat however many points a path has.
CHUNK_BYTES = 256 * 1024


def input_gradient_array(model: ModelGraph, x, target, baseline=None, alphas=(1.0,)):
    """Exact reverse-mode gradient of output[target], summed along a straight path.

    The points are b + alpha * (x - b) for each of ``alphas``, with b the
    ``baseline`` (zeros when None): by default, x alone. ``target`` is one
    output index or a sequence of them (possibly empty). A target's result is
    its gradient summed over the points, shaped like x, with a leading target
    axis when ``target`` is a sequence.

    The leading affine run gives A + alpha * Q: A at b with its biases (at an
    all-zero b, just the biases), Q on x - b without them; a one-point path is
    taken at its point. Target t's logit is h . u_t + c_t, u_t the affine
    tail's unit map (one backward at batch 1) and c_t the tail at zero: one
    product per target, so no target's bits depend on the others. A lone point
    runs on through the tail instead, so a backprop map has the plain forward's
    bits. When only elementwise layers sit between the two runs (the toy's
    relu), a path's points contract per target, sum_p S[p, t] D_p, before u_t
    multiplies in; otherwise, and for one point, each target's seed goes back
    through them point by point. The leading run's backward runs once per
    target.
    """
    x = np.asarray(x)
    b = np.zeros_like(x) if baseline is None else np.asarray(baseline).astype(x.dtype)
    if b.shape != x.shape:
        raise ShapeMismatch(f"baseline shape {b.shape} != input shape {x.shape}")
    alphas = np.asarray(alphas, dtype=x.dtype).reshape(-1)
    if len(alphas) == 0:
        raise ShapeMismatch("the path has no points")
    targets = [int(t) for t in np.atleast_1d(target)]
    for t in targets:
        if not 0 <= t < model.n_outputs:
            raise TargetOutOfRange(f"target {t} outside [0, {model.n_outputs})")
    layers, shapes = model.layers, model.shapes
    lead, (run, top) = model.n_leading_affine, model.affine_tail
    dx = x - b
    if len(alphas) == 1:
        b, dx, alphas = np.zeros_like(x), b + alphas[0] * dx, np.ones_like(alphas)
    _check_input(model, dx[None])  # x - b is finite only if both x and b are
    A, Q = b[None], dx[None]
    for layer in layers[:lead]:  # at an all-zero input, the bias, as the forward gives it
        A = layer.forward(A)[0] if A.any() else np.broadcast_to(
            layer._params(Q.dtype)[1], (1, *layer.out_shape(A.shape[1:])))
        Q, _ = layer.forward(Q, with_bias=False)
    # only elementwise layers between the two affine runs, and points to contract
    contract = len(alphas) > 1 and not any(isinstance(la, _Affine) for la in layers[lead:run])
    per_chunk = max(1, CHUNK_BYTES // max(1, x.nbytes))
    sums = [0.0] * len(targets)  # from +0.0, so a lone -0.0 comes out +0.0
    for s in range(0, len(alphas), per_chunk):
        points = A + np.multiply.outer(alphas[s : s + per_chunk], Q[0])
        # one point goes on through the tail, so its logits are the model's own bits;
        # more take one product per target, so no target's bits depend on the others
        y, caches = _forward(layers[lead : top if len(points) == 1 else run], points)
        mid, flat = list(zip(layers[lead:run], caches)), y.reshape(len(y), -1)  # no tail caches
        if s == 0:  # after the first forward, which for a lone point has read the head
            tail = [_tail_map(model, t, y.dtype, len(alphas) > 1) for t in targets]
        logits = flat[:, targets].T if len(y) == 1 else np.array(  # (targets, points)
            [flat @ u.reshape(-1) + c for u, c in tail]).reshape(len(targets), len(y))
        scales = np.ones_like(logits)
        for layer in layers[top:]:  # elementwise, so forward mode gives each point's scale
            logits, cache = layer.forward(logits)
            scales, _ = layer.backward(scales, cache)
        if contract:  # each point's D_p once, then one product per target
            d = np.ones((len(y), *shapes[run]), dtype=y.dtype)
            for layer, cache in reversed(mid):
                d, _ = layer.backward(d, cache)
            for k in range(len(targets)):
                sums[k] += np.dot(scales[k], d.reshape(len(y), -1))
            continue
        for k, (u, _) in enumerate(tail):
            g = scales[k].reshape((-1,) + (1,) * (u.ndim - 1)) * u
            for layer, cache in reversed(mid):
                g, _ = layer.backward(g, cache)
            for point in g:
                sums[k] += point
    out = np.empty((len(targets),) + model.input_shape, dtype=Q.dtype)
    for k, (u, _) in enumerate(tail):
        g = sums[k].reshape(u.shape) * u + 0.0 if contract else sums[k][None]
        for layer, in_shape in zip(reversed(layers[:lead]), reversed(shapes[:lead])):
            g, _ = layer.backward(g, (1, *in_shape))
        out[k] = g[0]
    return out if np.ndim(target) else out[0]
