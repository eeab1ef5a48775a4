"""Trust checks: XC scores the concentration the benchmark plants, and nothing else.

Under the null profile, TP and FP predictions plant the same share of their
signal inside their boxes, so no XC ratio can tell them apart and each
ratio's AUROC must land near chance. Under cascading randomization, the
toy detector's affine layers are redrawn from the top, so the attributions
stop reading the planted signal and each ratio's AUROC falls to chance.
"""

from dataclasses import replace

import pytest

from xckit.autodiff import build_model, model_to_spec
from xckit.meta import XC_RATIOS, build_feature_dataset
from xckit.metrics import evaluate_feature
from xckit.synth import (
    BENCHMARK_A_THRESH,
    ConcentrationProfile,
    SceneSpec,
    frame_attributions,
    generate_benchmark,
)
from xckit.xc import XcConfig


def xc_aurocs(frames, grid, model):
    """Each XC ratio's AUROC over ``frames``, attributed by backprop through ``model``."""
    rows = build_feature_dataset(
        [(f.preds, frame_attributions(replace(f, model=model)), f.gts) for f in frames],
        grid, XcConfig(a_thresh=BENCHMARK_A_THRESH))
    return [evaluate_feature(rows, f).auroc for f in XC_RATIOS]


# Each XC ratio's AUROC (TP as positive, matcher tags) over 60 backprop frames
# at 0.5/0.5. Scene seeds 0-9 ran 0.388-0.616 over the four ratios, with no
# PlacementFailure; planting the TP signal at 0.6 instead (0.6/0.5) ran
# 0.826-0.911, outside the band.
NULL_BAND = (0.35, 0.65)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_null_profile_scores_near_chance(seed):
    spec = SceneSpec(rng_seed=seed, concentration_profile=ConcentrationProfile(0.5, 0.5))
    frames, _ = generate_benchmark(spec, 60)
    xc = xc_aurocs(frames, spec.grid, frames[0].model)
    lo, hi = NULL_BAND
    assert lo <= min(xc) and max(xc) <= hi, xc


# Each XC ratio's AUROC over 40 frames after the head, conv2 and conv1 are redrawn
# in turn, each step keeping the earlier draws. Scene and init seeds 0-9 ran 1.000
# trained, 0.599-0.744 with the head redrawn, 0.581-0.771 with conv2 too, and
# 0.369-0.553 with all three. Redrawing conv2, a 1x1 channel mix, leaves conv1's
# relu gate on the planted signal, so that step moves no ratio reliably: it rose
# on some ratio at 7 of the 10 seeds.
CASCADE_BAND = (0.3, 0.7)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cascading_randomization_falls_to_chance(seed):
    spec = SceneSpec(rng_seed=seed)
    frames, _ = generate_benchmark(spec, 40)
    model = frames[0].model
    aurocs = [xc_aurocs(frames, spec.grid, model)]
    for top in (1, 2, 3):  # the head, then conv2, then conv1
        layer_list, params = model_to_spec(model)
        affine = [i for i, layer in enumerate(model.layers) if hasattr(layer, "weight")]
        del params[f"layers.{affine[-top]}.weight"], params[f"layers.{affine[-top]}.bias"]
        model = build_model({**layer_list, "seed": seed}, params)  # draws only the deleted arrays
        aurocs.append(xc_aurocs(frames, spec.grid, model))
    lo, hi = CASCADE_BAND
    for name, (trained, head, conv2, last) in zip(XC_RATIOS, zip(*aurocs)):
        assert max(head, conv2) < trained and last < min(head, conv2), (name, aurocs)
        assert lo <= last <= hi, (name, aurocs)
