"""Gradient-based feature attributions for one scalar output of a model.

Three methods are provided:

* ``backprop_saliency``: the raw input gradient.
* ``integrated_gradients``: midpoint-rule path integral of the gradient from
  a baseline to the input, multiplied elementwise by (input - baseline).
* ``modified_integrated_gradients``: the same averaged path gradient without
  the final (input - baseline) multiplication, so a zero-signal cell can
  still receive attribution from the model's sensitivity to it.

All attribution values are kept at float64; the path average accumulates in
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


def backprop_saliency(
    model: ModelGraph, input, output_index: int, target: Optional[AttributionTarget] = None
) -> AttributionMap:
    """Raw gradient of output[output_index] with respect to the input."""
    x = np.asarray(input).astype(np.float64)
    grad = input_gradient_array(model, x, output_index)
    return AttributionMap(values=grad, method="saliency", target=target)


def _resolve_baseline(x, baseline):
    if baseline is None:
        return np.zeros_like(x)
    b = np.asarray(baseline).astype(np.float64)
    if b.shape != x.shape:
        raise ShapeMismatch(f"baseline shape {b.shape} != input shape {x.shape}")
    return b


def _average_path_gradient(model, x, baseline, output_index, steps, offset=0.5):
    """Mean gradient along the straight path baseline -> x.

    Evaluation points are baseline + (k - 1 + offset)/steps * (x - baseline)
    for k = 1..steps; offset 0.5 is the midpoint rule. float64 throughout.
    """
    if steps < 1:
        raise ZeroSteps(f"steps must be >= 1, got {steps}")
    dx = x - baseline
    acc = np.zeros_like(x)
    for k in range(1, steps + 1):
        alpha = (k - 1 + offset) / steps
        point = baseline + alpha * dx
        acc += input_gradient_array(model, point, output_index)
    return acc / steps


def integrated_gradients(
    model: ModelGraph,
    input,
    output_index: int,
    steps: int = 32,
    baseline=None,
    target: Optional[AttributionTarget] = None,
) -> AttributionMap:
    """Midpoint-rule integrated gradients against a zero (or given) baseline.

    The attribution for element i is
    (x_i - b_i) * (1/steps) * sum_k dF/dx_i evaluated at
    b + (k - 0.5)/steps * (x - b). Summing over all elements approximates
    F(x) - F(b), and the approximation tightens as steps grows.
    """
    x = np.asarray(input).astype(np.float64)
    b = _resolve_baseline(x, baseline)
    avg = _average_path_gradient(model, x, b, output_index, steps)
    return AttributionMap(
        values=avg * (x - b),
        method="integrated-gradients",
        target=target,
        steps=steps,
    )


def modified_integrated_gradients(
    model: ModelGraph,
    input,
    output_index: int,
    steps: int = 32,
    baseline=None,
    target: Optional[AttributionTarget] = None,
) -> AttributionMap:
    """Averaged path gradient without the (input - baseline) multiplication."""
    x = np.asarray(input).astype(np.float64)
    b = _resolve_baseline(x, baseline)
    avg = _average_path_gradient(model, x, b, output_index, steps)
    return AttributionMap(
        values=avg,
        method="modified-integrated-gradients",
        target=target,
        steps=steps,
    )


def aggregate_signed(map: AttributionMap):
    """Split a (H, W, C) attribution map into per-pixel positive and negative mass.

    Returns (pos, neg), both (H, W) float64 and non-negative:
    pos[y, x] = sum_c max(v, 0) and neg[y, x] = sum_c max(-v, 0), so
    pos - neg recovers the per-pixel channel sum. Channel sums are exactly
    rounded (order-independent), so reference implementations agree bitwise.
    """
    v = np.asarray(map.values, dtype=np.float64)
    if v.ndim == 2:
        v = v[:, :, None]
    if v.ndim != 3:
        raise ShapeMismatch(f"expected (H, W, C) or (H, W) values, got shape {v.shape}")
    clipped_pos = np.maximum(v, 0.0)
    clipped_neg = np.maximum(-v, 0.0)
    if v.shape[2] <= 2:
        # a sum of at most two floats rounds once; already exact
        return clipped_pos.sum(axis=2), clipped_neg.sum(axis=2)
    pos = np.array([[math.fsum(px) for px in row] for row in clipped_pos.tolist()])
    neg = np.array([[math.fsum(px) for px in row] for row in clipped_neg.tolist()])
    return pos, neg
