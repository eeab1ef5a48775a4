"""Gradient-based feature attributions for one scalar output of a model.

Three methods are provided:

* ``backprop_saliency``: the raw input gradient.
* ``integrated_gradients``: midpoint-rule path integral of the gradient from
  a baseline to the input, multiplied elementwise by (input - baseline).
* ``modified_integrated_gradients``: the same averaged path gradient without
  the final (input - baseline) multiplication, so a zero-signal cell can
  still receive attribution from the model's sensitivity to it.

All three are one engine call: ``input_gradient_array`` takes the input, the
baseline and the path's alphas, and returns every target's gradient summed
over the straight path, from forward passes over chunks of its points that
all targets share. This module picks the alphas (the midpoints, or the one
point at the input) and divides by the step count, and integrated gradients
multiplies by (x - b). Values are kept, and the path average accumulates, in
float64 regardless of parameter storage.
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


def _path_maps(model, input, output_index, target, method, steps, baseline, offset):
    """Maps for one target or a sequence of them, from one shared path.

    The path points are b + alpha_k * (x - b) with alpha_k = (k - 1 + offset)/steps
    for k = 1..steps (offset 0.5 is the midpoint rule; steps 1, offset 1 is
    the input itself). One engine call sums every target's gradient over them;
    the mean gradient is multiplied by (x - b) for integrated gradients only.
    """
    if steps < 1:
        raise ZeroSteps(f"steps must be >= 1, got {steps}")
    single = np.ndim(output_index) == 0
    indices = [output_index] if single else list(output_index)
    targets = [target] * len(indices) if single or target is None else list(target)
    if len(targets) != len(indices):
        raise ShapeMismatch(f"{len(targets)} targets for {len(indices)} output indices")
    x = np.asarray(input).astype(np.float64)
    alphas = (np.arange(steps) + offset) / steps
    avg = input_gradient_array(model, x, indices, baseline, alphas) / steps
    dx = x if baseline is None else x - np.asarray(baseline, dtype=np.float64)
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
    if v.ndim != 3:
        raise ShapeMismatch(f"expected (H, W, C) values, got shape {v.shape}")
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
