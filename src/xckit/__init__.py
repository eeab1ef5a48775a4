"""xckit: explanation-concentration scoring for grid-input detection models.

The package answers one question: how much of a detection's attribution
mass, and how many of its significant attribution pixels, fall inside the
predicted box? Concentrated explanations correlate with true positives,
scattered ones with false positives, and the resulting scores feed both
threshold-free ranking metrics and a small meta-classifier.
"""

from .attribution import (
    AttributionMap,
    AttributionTarget,
    backprop_saliency,
    integrated_gradients,
    modified_integrated_gradients,
)
from .autodiff import build_model, forward_array, model_to_spec
from .errors import ParseError, PlacementFailure, XckitError
from .geometry import Box3D, GridMeta, enlarge, iou_3d, membership_mask, project_to_bev
from .matching import (
    FP,
    IGNORE,
    TP,
    Detection,
    GroundTruth,
    MatchConfig,
    MatchOutcome,
    categorize,
)
from .meta import (
    DEFAULT_FEATURES,
    FeatureRow,
    build_feature_dataset,
    cross_validate,
    train_mlp,
)
from .metrics import (
    MetricReport,
    auroc,
    aupr,
    evaluate_feature,
    ks_statistic,
    render_table,
)
from .synth import (
    ConcentrationProfile,
    SceneSpec,
    SyntheticFrame,
    frame_attributions,
    generate_benchmark,
    generate_frame,
)
from .io_formats import (
    read_detections,
    read_feature_csv,
    read_xcam,
    write_detections,
    write_feature_csv,
    write_xcam,
)
from .xc import XcConfig, XcScores, xc_scores

__version__ = "0.1.0"
