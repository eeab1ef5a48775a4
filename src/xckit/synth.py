"""Synthetic BEV frames with an analytic toy detector.

A frame is a 4-channel pseudo image (channels 0-2 carry per-class signal,
channel 3 carries an inhibition signal that produces negative attributions)
plus planted ground truths and predictions. The detector is fixed-form:

* conv1 (3x3, per-channel, tiny off-center weights) with a negative bias, so
  the relu behind it opens only at pixels where signal was actually planted;
  gradients vanish everywhere else.
* conv2 (1x1 identity gain) to complete the two-conv trunk.
* a dense per-anchor head: each 10x10-pixel block owns one anchor with one
  logit per class, weighting its own block strongly and the rest of the
  image weakly, minus an inhibition-channel term; sigmoid on top.

``generate_frame`` makes a frame in one pass over its objects, each in its
own anchor block: one loop places every box (TPs first, so each FP can be
drawn to clear every ground truth), then one array write per prediction
plants its pixels. Placement follows the concentration profile: a TP-like
prediction gets most of its pixel budget inside its (predicted) box, an
FP-like one scatters most of it around the box inside the same anchor block,
outside every box's enlarged footprint. Attribution maps of the toy model
therefore concentrate inside boxes exactly when the planted signal does.

All magnitudes below are calibrated together; BENCHMARK_A_THRESH sits
between the largest spurious attribution (weak context weights, conv bleed)
and the smallest legitimate one (inhibition path at the lowest sigmoid
slope). The toy scale differs from a real detector's, so the significance
threshold here is intentionally much smaller than the library default.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .attribution import (
    AttributionMap,
    AttributionTarget,
    backprop_saliency,
    integrated_gradients,
    modified_integrated_gradients,
)
from .autodiff import ModelGraph, build_model, forward_array
from .errors import ParseError, PlacementFailure, UnknownLabel, XckitError
from .geometry import Box3D, GridMeta, enlarge, iou_3d, membership_mask, project_to_bev, wrap_angle
from .io_formats import atomic_write, json_typed, load_json
from .matching import DEFAULT_IOU_THRESH, Detection, GroundTruth

CLASSES = ("car", "pedestrian", "cyclist")

BLOCK_PX = 10          # anchor block edge, in pixels
SIGNAL = 1.0           # planted per-pixel class-channel value (jittered +/-10%)
# small objects plant few pixels; extra amplitude keeps their logits above
# the context leak from large objects (gradients are amplitude-independent
# wherever the relu gate is open, so this does not move attribution scales)
SIGNAL_AMP = {"car": 1.0, "pedestrian": 3.5, "cyclist": 2.2}
INHIB_FRACTION = 0.5   # channel-3 value relative to the class signal
FP_AMPLITUDE = 0.8     # FP clutter is slightly dimmer than object signal
CONV_OFFCENTER = 0.002
GATE_BIAS = 0.3        # conv1 bias (class channels); relu opens only on signal
GATE_BIAS_INHIB = 0.15
W_IN = 0.034           # head weight inside the anchor's own block
W_CTX = W_IN / 20.0    # weak full-image context coupling
W_INHIB_IN = 0.017
W_INHIB_CTX = W_INHIB_IN / 20.0
HEAD_BIAS = -0.4

# significance threshold matched to the toy attribution scale (see module doc)
BENCHMARK_A_THRESH = 0.0015

DEFAULT_SIZE_RANGES = {
    "car": ((3.9, 4.7), (1.6, 2.0), (1.4, 1.6)),
    "pedestrian": ((0.5, 0.8), (0.5, 0.8), (1.6, 1.8)),
    "cyclist": ((1.6, 2.0), (0.5, 0.7), (1.6, 1.8)),
}


@dataclass(frozen=True)
class ConcentrationProfile:
    """Fraction of each prediction's pixel budget planted inside its box."""

    tp_inside: float = 0.9
    fp_inside: float = 0.3

    def __post_init__(self):
        for f in (self.tp_inside, self.fp_inside):
            if not 0.0 <= f <= 1.0:
                raise XckitError(f"concentration fractions must be in [0,1], got {f}")


def default_grid() -> GridMeta:
    return GridMeta(height=40, width=40, origin_x=-8.0, origin_y=-8.0, pixel_size=0.4)


@dataclass(frozen=True)
class SceneSpec:
    grid: GridMeta = field(default_factory=default_grid)
    n_objects: Dict[str, int] = field(
        default_factory=lambda: {"car": 2, "pedestrian": 1, "cyclist": 1}
    )
    size_ranges: Dict[str, tuple] = field(default_factory=lambda: dict(DEFAULT_SIZE_RANGES))
    fp_rate: float = 0.25
    concentration_profile: ConcentrationProfile = field(default_factory=ConcentrationProfile)
    points_base: int = 300
    points_delta: int = 100
    points_correlation: float = 0.4
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.fp_rate <= 1.0:
            raise XckitError(f"fp_rate must be in [0,1], got {self.fp_rate}")
        if not 0.0 < self.points_correlation < 1.0:
            raise XckitError("points_correlation must be in (0,1)")
        if self.points_delta < 0:
            raise XckitError(f"points_delta must be >= 0, got {self.points_delta}")
        if self.grid.height % BLOCK_PX or self.grid.width % BLOCK_PX:
            raise XckitError(f"grid dimensions must be multiples of {BLOCK_PX}")
        if self.rng_seed < 0:
            raise XckitError(f"rng_seed must be a non-negative integer, got {self.rng_seed}")
        for name in ("n_objects", "size_ranges"):
            extra = sorted(set(getattr(self, name)) - set(CLASSES))
            if extra:
                raise XckitError(f"{name}: unknown class {extra[0]!r}, not one of {CLASSES}")
        n = 0
        for c in CLASSES:  # one pass, as it runs again for every frame's seed
            count, ranges = self.n_objects.get(c, 0), self.size_ranges.get(c, ())
            if count < 0:
                raise XckitError("object counts must be >= 0")
            if (count or ranges) and not (len(ranges) == 3 and all(
                    len(r) == 2 and 0 < r[0] <= r[1] < math.inf for r in ranges)):
                raise XckitError(f"size_ranges: {c!r} needs three (lo, hi) ranges with "
                                 f"0 < lo <= hi, got {ranges!r}")
            n += count
        if n > n_anchors(self.grid):
            raise PlacementFailure(
                f"n_objects: {n} objects cannot fit {n_anchors(self.grid)} anchor blocks")


_SCENE_FIELDS = {
    "grid": lambda v: GridMeta(**{k: x if k in ("height", "width") else json_typed(x)
                                  for k, x in v.items()}),  # GridMeta checks the integers
    "n_objects": lambda v: {str(k): json_typed(n, int) for k, n in v.items()},
    "size_ranges": lambda v: {
        k: tuple(tuple(json_typed(x) for x in r) for r in ranges) for k, ranges in v.items()
    },
    "concentration_profile": lambda v: ConcentrationProfile(
        **{k: json_typed(x) for k, x in v.items()}),
    "fp_rate": json_typed,
    "points_correlation": json_typed,
    "points_base": lambda v: json_typed(v, int),
    "points_delta": lambda v: json_typed(v, int),
    "rng_seed": lambda v: json_typed(v, int),
}


def scene_spec_from_dict(d: dict) -> SceneSpec:
    """SceneSpec from its dict form (``asdict``'s); absent fields keep their defaults.

    An unknown field, or a field value of the wrong type or shape, raises
    XckitError naming the field.
    """
    unknown = sorted(set(d) - set(_SCENE_FIELDS))
    if unknown:
        raise XckitError(f"unknown scene spec field {unknown[0]!r}")
    kwargs = {}
    for key, convert in _SCENE_FIELDS.items():
        if key in d:
            try:
                kwargs[key] = convert(d[key])
            except (AttributeError, TypeError, ValueError, KeyError) as e:
                raise XckitError(f"bad scene spec field {key!r}: {e}")
    return SceneSpec(**kwargs)


def save_scene_spec(path, spec: SceneSpec) -> None:
    with atomic_write(path) as f:
        json.dump(asdict(spec), f, indent=2)


def load_scene_spec(path) -> SceneSpec:
    d = load_json(path)
    if not isinstance(d, dict):
        raise ParseError(None, "scene spec must be a JSON object", path)
    try:
        return scene_spec_from_dict(d)
    except XckitError as e:
        raise ParseError(None, str(e), path)


@dataclass
class SyntheticFrame:
    pseudo_image: np.ndarray  # (H, W, 4) float32
    gts: List[GroundTruth]
    preds: List[Detection]
    model: ModelGraph


def n_anchors(grid: GridMeta) -> int:
    return (grid.height // BLOCK_PX) * (grid.width // BLOCK_PX)


def _block(grid: GridMeta, anchor: int) -> Tuple[int, int]:
    """First pixel row and column of the anchor's block."""
    by, bx = divmod(anchor, grid.width // BLOCK_PX)
    return by * BLOCK_PX, bx * BLOCK_PX


def output_index(anchor_index: int, class_name: str) -> int:
    if class_name not in CLASSES:
        raise UnknownLabel(f"the toy detector has no output for class {class_name!r}")
    return anchor_index * len(CLASSES) + CLASSES.index(class_name)


def build_toy_model(grid: GridMeta) -> ModelGraph:
    """Deterministic analytic detector for the given grid (no RNG involved)."""
    h, w = grid.height, grid.width
    n_out = n_anchors(grid) * len(CLASSES)

    conv1_w = np.broadcast_to(np.eye(4) * CONV_OFFCENTER, (3, 3, 4, 4)).astype(np.float32)
    conv1_w[1, 1] = np.eye(4)
    conv1_b = np.array([-GATE_BIAS] * 3 + [-GATE_BIAS_INHIB], dtype=np.float32)
    conv2_w = np.eye(4, dtype=np.float32).reshape(1, 1, 4, 4)
    conv2_b = np.zeros(4, dtype=np.float32)

    # (pixel, channel, anchor, class): class k reads its own channel k and the
    # inhibition channel 3, with the in-block weight inside anchor a's block
    ys, xs = np.divmod(np.arange(h * w), w)
    block_of_pixel = (ys // BLOCK_PX) * (w // BLOCK_PX) + (xs // BLOCK_PX)  # (h*w,)
    in_block = block_of_pixel[:, None] == np.arange(n_anchors(grid))  # (h*w, anchors)
    head = np.zeros((h * w, 4, n_anchors(grid), len(CLASSES)), dtype=np.float32)
    k = np.arange(len(CLASSES))
    head[:, k, :, k] = np.where(in_block, W_IN, W_CTX)
    head[:, 3] = np.where(in_block, -W_INHIB_IN, -W_INHIB_CTX)[..., None]
    head = head.reshape(h * w * 4, n_out)
    head_b = np.full(n_out, HEAD_BIAS, dtype=np.float32)

    return build_model(
        {
            "input_shape": [h, w, 4],
            "layers": [
                {"kind": "conv2d", "in_channels": 4, "out_channels": 4, "kernel": [3, 3],
                 "weight": conv1_w, "bias": conv1_b},
                {"kind": "relu"},
                {"kind": "conv2d", "in_channels": 4, "out_channels": 4, "kernel": [1, 1],
                 "weight": conv2_w, "bias": conv2_b},
                {"kind": "dense", "in_features": h * w * 4, "out_features": n_out,
                 "weight": head, "bias": head_b},
                {"kind": "sigmoid"},
            ],
        }
    )


def _points_sigma(spec: SceneSpec) -> float:
    """Noise scale making corr(n_points, is_tp) hit the configured target.

    Solved from the point-biserial identity with the expected TP share
    p = 1 - fp_rate: rho = delta*sqrt(pq) / sqrt(delta^2*pq + sigma^2).
    """
    p = 1.0 - spec.fp_rate
    q = spec.fp_rate
    if p <= 0 or q <= 0:
        return float(spec.points_delta)  # correlation undefined; any scale works
    rho = spec.points_correlation
    return float(spec.points_delta * math.sqrt(p * q * (1.0 / rho**2 - 1.0)))


_MAX_ATTEMPTS = 1000


def _sample_box(rng, spec, anchor, label) -> Box3D:
    (dxr, dyr, dzr) = spec.size_ranges[label]
    grid = spec.grid
    row, col = _block(grid, anchor)
    x0, y0 = grid.origin_x + col * grid.pixel_size, grid.origin_y + row * grid.pixel_size
    side = BLOCK_PX * grid.pixel_size
    jitter = side / 2.0 - 0.8 * grid.pixel_size
    return Box3D(
        cx=x0 + side / 2.0 + float(rng.uniform(-jitter, jitter)) * 0.5,
        cy=y0 + side / 2.0 + float(rng.uniform(-jitter, jitter)) * 0.5,
        cz=0.0,
        dx=float(rng.uniform(*dxr)),
        dy=float(rng.uniform(*dyr)),
        dz=float(rng.uniform(*dzr)),
        yaw=wrap_angle(float(rng.uniform(-math.pi, math.pi))),
    )


def _jitter_box(rng, box: Box3D) -> Box3D:
    return Box3D(
        cx=box.cx + float(rng.normal(0, 0.12)),
        cy=box.cy + float(rng.normal(0, 0.12)),
        cz=box.cz,
        dx=box.dx * float(rng.uniform(0.92, 1.08)),
        dy=box.dy * float(rng.uniform(0.92, 1.08)),
        dz=box.dz,
        yaw=wrap_angle(box.yaw + float(rng.normal(0, 0.04))),
    )


def generate_frame(spec: SceneSpec, model: Optional[ModelGraph] = None) -> SyntheticFrame:
    """Build one deterministic frame: boxes, planted signal, scored predictions.

    ``model`` lets callers share one toy detector across frames; it must have
    been built for the same grid. When omitted, a fresh (identical) one is
    built here.
    """
    grid = spec.grid
    rng = np.random.default_rng(spec.rng_seed)
    if model is None:
        model = build_toy_model(grid)
    slots = [(label, bool(rng.random() < spec.fp_rate))
             for label in CLASSES for _ in range(int(spec.n_objects.get(label, 0)))]
    anchors = rng.permutation(n_anchors(grid))[: len(slots)].tolist()

    # phase 1: place every box, TPs first so FP overlap checks see every gt
    gts: List[GroundTruth] = []
    placed = []  # (label, is_fp, anchor, pred_box)
    for (label, is_fp), anchor in sorted(zip(slots, anchors), key=lambda slot: slot[0][1]):
        thresh = DEFAULT_IOU_THRESH[label]
        for _ in range(_MAX_ATTEMPTS):
            box = _sample_box(rng, spec, anchor, label)
            pred_box = box if is_fp else _jitter_box(rng, box)
            if (all(iou_3d(box, g.box) < thresh for g in gts) if is_fp
                    else iou_3d(pred_box, box) >= thresh):
                break
        else:
            raise PlacementFailure(
                f"no FP placement cleared every gt in {_MAX_ATTEMPTS} tries" if is_fp
                else f"no TP jitter met IoU >= {thresh} in {_MAX_ATTEMPTS} tries")
        if not is_fp:
            gts.append(GroundTruth(box=box, label=label))
        placed.append((label, is_fp, anchor, pred_box))

    # phase 2: plant signal; scatter must dodge every enlarged box footprint
    img = np.zeros((grid.height, grid.width, 4), dtype=np.float64)
    forbidden = np.zeros((grid.height, grid.width), dtype=bool)
    for box in [p[3] for p in placed] + [g.box for g in gts]:
        forbidden |= membership_mask(project_to_bev(enlarge(box, 0.2)), grid)

    profile = spec.concentration_profile
    for label, is_fp, anchor, box in placed:
        row, col = _block(grid, anchor)
        block = np.s_[row : row + BLOCK_PX, col : col + BLOCK_PX]
        in_pool = np.argwhere(membership_mask(project_to_bev(box), grid)[block]) + (row, col)
        if len(in_pool) == 0:
            raise PlacementFailure("box footprint left no pixels inside its anchor block")
        n_in = int(round((profile.fp_inside if is_fp else profile.tp_inside) * len(in_pool)))
        n_out = len(in_pool) - n_in
        out_pool = np.argwhere(~forbidden[block]) + (row, col)
        if len(out_pool) < n_out:
            raise PlacementFailure(
                f"anchor block too crowded: {n_out} scatter pixels needed, "
                f"{len(out_pool)} free"
            )
        chosen_in = in_pool[rng.choice(len(in_pool), size=n_in, replace=False)]
        chosen_out = out_pool[rng.choice(len(out_pool), size=n_out, replace=False)]
        # the two pools are disjoint and drawn without replacement: one term per pixel
        ys, xs = np.concatenate([chosen_in, chosen_out]).T
        u = rng.uniform(0.9, 1.1, size=len(ys))
        s = SIGNAL_AMP[label] * (FP_AMPLITUDE if is_fp else 1.0) * SIGNAL * u
        img[ys, xs, CLASSES.index(label)] += s
        img[ys, xs, 3] += INHIB_FRACTION * s

    # phase 3: score the frame with the model and assemble detections
    pseudo = img.astype(np.float32)
    outputs = forward_array(model, pseudo)
    sigma_pts = _points_sigma(spec)
    preds: List[Detection] = []
    for label, is_fp, anchor, box in placed:
        scores = {c: float(outputs[output_index(anchor, c)]) for c in CLASSES}
        points = spec.points_base + (0 if is_fp else spec.points_delta) + rng.normal(0.0, sigma_pts)
        preds.append(Detection(box=box, label=label, scores=scores,
                               n_points=max(1, int(round(points))), anchor_index=anchor))
    return SyntheticFrame(pseudo_image=pseudo, gts=gts, preds=preds, model=model)


def frame_attributions(
    frame: SyntheticFrame, method: str = "backprop", steps: int = 32
) -> List[AttributionMap]:
    """One attribution map per prediction, targeting its own class output.

    The method runs once for the whole frame, so all maps share its forward passes.
    """
    indices = [output_index(p.anchor_index, p.label) for p in frame.preds]
    targets = [AttributionTarget(box_index=i, class_index=CLASSES.index(p.label))
               for i, p in enumerate(frame.preds)]
    if method == "backprop":
        return backprop_saliency(frame.model, frame.pseudo_image, indices, target=targets)
    if method == "ig":
        return integrated_gradients(frame.model, frame.pseudo_image, indices,
                                    steps=steps, target=targets)
    if method == "ig-nomult":
        return modified_integrated_gradients(frame.model, frame.pseudo_image, indices,
                                             steps=steps, target=targets)
    raise XckitError(f"unknown attribution method {method!r}")


def generate_benchmark(spec: SceneSpec, n_frames: int):
    """Frames from per-frame child seeds plus an accounting manifest."""
    if n_frames < 1:
        raise XckitError("n_frames must be >= 1")
    frame_seeds = np.random.SeedSequence(spec.rng_seed).generate_state(n_frames, np.uint64)
    model = build_toy_model(spec.grid)
    frames = []
    tp_counts = {c: 0 for c in CLASSES}
    fp_counts = {c: 0 for c in CLASSES}
    for seed in frame_seeds:
        frame = generate_frame(replace(spec, rng_seed=int(seed)), model=model)
        frames.append(frame)
        # generate_frame places TPs first, one ground truth each, then FPs
        for i, pred in enumerate(frame.preds):
            (tp_counts if i < len(frame.gts) else fp_counts)[pred.label] += 1
    n_tp = sum(tp_counts.values())
    n_fp = sum(fp_counts.values())
    manifest = {
        "n_frames": n_frames,
        "tp_counts": tp_counts,
        "fp_counts": fp_counts,
        "fp_fraction": n_fp / max(n_tp + n_fp, 1),
        "a_thresh": BENCHMARK_A_THRESH,
        "points_correlation": spec.points_correlation,
    }
    return frames, manifest
