"""Gradient-based feature attributions for one scalar output of a model.

Three methods are provided:

* ``backprop_saliency``: the raw input gradient.
* ``integrated_gradients``: midpoint-rule path integral of the gradient from
  a baseline to the input, multiplied elementwise by (input - baseline).
* ``modified_integrated_gradients``: the same averaged path gradient without
  the final (input - baseline) multiplication, so a zero-signal cell can
  still receive attribution from the model's sensitivity to it.

All three share one path engine: the maps of every target on an input come
from the same chunked forward passes over the path points, made lazily in
one engine call. Each map costs one batch-1 backward of the model's leading
conv2d/dense layers, on the gradient summed over the whole path, and one of
the affine run under its output's elementwise layers, on a unit seed; only
the layers between run once per chunk. Values are kept, and the path average
accumulates, in float64 regardless of parameter storage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import ModelGraph, input_gradient_array
from .errors import ShapeMismatch, ZeroSteps


@dataclass(frozen=True)
class AttributionTarget:
    """What a map explains: a predicted box and/or a class output."""

    box_index: Optional[int] = None
    class_index: Optional[int] = None


@dataclass
class AttributionMap:
    """Per-input-element attribution values plus provenance of the method."""

    values: np.ndarray  # float64, same shape as the model input
    method: str
    target: Optional[AttributionTarget] = None
    steps: Optional[int] = None


def _resolve_baseline(x, baseline):
    if baseline is None:
        return np.zeros_like(x)
    b = np.asarray(baseline).astype(np.float64)
    if b.shape != x.shape:
        raise ShapeMismatch(f"baseline shape {b.shape} != input shape {x.shape}")
    return b


# Path points per chunk: as many float64 inputs as fit in this many bytes
# (5 at 40x40x4), so memory stays flat however many steps a map takes.
CHUNK_BYTES = 256 * 1024


def _path_maps(model, input, output_index, target, method, steps, baseline, offset):
    """Maps for one target or a sequence of them, from one shared path.

    The path points are b + (k - 1 + offset)/steps * (x - b) for k = 1..steps
    (offset 0.5 is the midpoint rule; steps 1, offset 1 is the input itself).
    The chunks of points go to one engine call as a generator, so at most
    one chunk is held at a time. Each chunk gets one forward pass, shared by
    every target, and the engine returns each target's gradient summed over
    all points in step order. The mean gradient is multiplied by (x - b) for
    integrated gradients only.
    """
    if steps < 1:
        raise ZeroSteps(f"steps must be >= 1, got {steps}")
    single = np.ndim(output_index) == 0
    indices = [output_index] if single else list(output_index)
    targets = [target] * len(indices) if single or target is None else list(target)
    if len(targets) != len(indices):
        raise ShapeMismatch(f"{len(targets)} targets for {len(indices)} output indices")
    x = np.asarray(input).astype(np.float64)
    b = _resolve_baseline(x, baseline)
    dx = x - b
    alphas = ((np.arange(steps) + offset) / steps).reshape((steps,) + (1,) * x.ndim)
    per_chunk = max(1, CHUNK_BYTES // x.nbytes)
    chunks = (b + alphas[s : s + per_chunk] * dx for s in range(0, steps, per_chunk))
    avg = input_gradient_array(model, chunks, indices) / steps
    maps = [
        AttributionMap(
            values=a * dx if method == "integrated-gradients" else a,
            method=method,
            target=t,
            steps=None if method == "saliency" else steps,
        )
        for a, t in zip(avg, targets)
    ]
    return maps[0] if single else maps


def backprop_saliency(model: ModelGraph, input, output_index, target=None):
    """Raw gradient of output[output_index] with respect to the input.

    ``output_index`` may be a sequence; then ``target`` is None or one
    target per index, and one map per index is returned.
    """
    return _path_maps(model, input, output_index, target, "saliency", 1, None, 1.0)


def integrated_gradients(
    model: ModelGraph, input, output_index, steps: int = 32, baseline=None, target=None
):
    """Midpoint-rule integrated gradients against a zero (or given) baseline.

    The attribution for element i is
    (x_i - b_i) * (1/steps) * sum_k dF/dx_i evaluated at
    b + (k - 0.5)/steps * (x - b). Summing over all elements approximates
    F(x) - F(b), and the approximation tightens as steps grows.
    ``output_index`` and ``target`` take sequences as in backprop_saliency.
    """
    return _path_maps(model, input, output_index, target, "integrated-gradients",
                      steps, baseline, 0.5)


def modified_integrated_gradients(
    model: ModelGraph, input, output_index, steps: int = 32, baseline=None, target=None
):
    """Averaged path gradient without the (input - baseline) multiplication."""
    return _path_maps(model, input, output_index, target, "modified-integrated-gradients",
                      steps, baseline, 0.5)


def aggregate_signed(map: AttributionMap):
    """Split a (H, W, C) attribution map into per-pixel positive and negative mass.

    Returns (pos, neg), both (H, W) float64 and non-negative:
    pos[y, x] = sum_c max(v, 0) and neg[y, x] = sum_c max(-v, 0), so
    pos - neg recovers the per-pixel channel sum. Channel sums equal
    ``math.fsum``'s bitwise: channels are added in float64 with Knuth TwoSum
    error terms, a finite sum whose error terms are all zero is exact, and only
    the other pixels call fsum, which keeps its NaN results and OverflowError.
    """
    v = np.asarray(map.values, dtype=np.float64)
    if v.ndim == 2:
        v = v[:, :, None]
    if v.ndim != 3:
        raise ShapeMismatch(f"expected (H, W, C) or (H, W) values, got shape {v.shape}")
    clipped = np.stack([np.maximum(v, 0.0), np.maximum(-v, 0.0)])
    s = clipped[..., 0]
    exact = np.ones(s.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # such pixels go to fsum
        for c in range(1, v.shape[2]):
            b = clipped[..., c]
            total = s + b
            b_part = total - s
            exact &= (s - (total - b_part)) + (b - b_part) == 0
            s = total
    inexact = ~(exact & np.isfinite(s))
    s[inexact] = [math.fsum(px) for px in clipped[inexact].tolist()]
    return s[0], s[1]
