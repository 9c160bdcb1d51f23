"""Uncertainty-aware 3D detection post-processing and tracking toolkit."""

from .boxes import (
    Anchor,
    Box3D,
    BoxVariance,
    DetectionColumns,
    DetectionRecord,
    EncodedLogVar,
    EncodedTarget,
    FrameDetections,
    TrackColumns,
    TrackFrames,
    anchor_grid,
    decode_box,
    decode_variance,
    encode_box,
    encode_variance,
    self_anchor,
    wrap_angle,
)
from .geometry import RotatedRect, iou_3d, iou_bev, rotated_intersection_area
from .losses import (
    GaussianNllConfig,
    LossValueGrad,
    LossWeights,
    VonMisesNllConfig,
    assemble_loss,
    gaussian_nll,
    sine_error_loss,
    smooth_l1,
    von_mises_nll,
)
from .metrics import EvalConfig, TrackingReport, clear_mot, clear_mot_rows, detection_pr, match_frame
from .scoring import (
    AggregateMode,
    IouKind,
    NmsConfig,
    ScoreMapConfig,
    ScoreStrategy,
    aggregate_logvar,
    combined_score,
    map_uncertainty_to_logscore,
    nms,
    score_detection,
)
from .sim import Scenario, ScenarioConfig, generate_scenario
from .special import bessel_i0, bessel_ratio_i1_i0, elu, log_bessel_i0
from .tracker import (
    Track,
    Tracker,
    TrackerConfig,
    associate,
    size_update,
    track_frames,
    ukf_predict_batch,
    ukf_update_batch,
)
from .assignment import hungarian_assign

__version__ = "0.1.0"
