"""Trust checks: XC scores the concentration the benchmark plants, and nothing else.

Under the null profile, TP and FP predictions plant the same share of their
signal inside their boxes, so no XC ratio can tell them apart and each
ratio's AUROC must land near chance.
"""

import pytest

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

# Each XC ratio's AUROC (TP as positive, matcher tags) over 60 backprop frames
# at 0.5/0.5. Scene seeds 0-9 ran 0.388-0.616 over the four ratios, with no
# PlacementFailure; planting the TP signal at 0.6 instead (0.6/0.5) ran
# 0.826-0.911, outside the band.
NULL_BAND = (0.35, 0.65)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_null_profile_scores_near_chance(seed):
    spec = SceneSpec(rng_seed=seed, concentration_profile=ConcentrationProfile(0.5, 0.5))
    frames, _ = generate_benchmark(spec, 60)
    rows = build_feature_dataset([(f.preds, frame_attributions(f), f.gts) for f in frames],
                                 spec.grid, XcConfig(a_thresh=BENCHMARK_A_THRESH))
    xc = [evaluate_feature(rows, f).auroc for f in XC_RATIOS]
    lo, hi = NULL_BAND
    assert lo <= min(xc) and max(xc) <= hi, xc
