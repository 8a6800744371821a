"""boxlab: bounding-box regression losses, proposal geometry, and detection metrics."""

from .errors import (
    BoxlabError,
    DanglingIdError,
    DegenerateAspectError,
    DuplicateIdError,
    EmptyEvaluationError,
    InvalidBoxError,
    ParseError,
    UndefinedOverlapError,
    UnknownBaselineError,
    ValidationError,
)
from .geometry import Box, area, intersection_area, iou
from .losses import (
    LossKind,
    LossResult,
    loss,
    loss_ciou,
    loss_diou,
    loss_giou,
    loss_iou,
    loss_l1,
)
from .proposals import (
    Anchor,
    AnchorConfig,
    BoxDelta,
    ProposalAssignment,
    ScoredBox,
    assign_proposals,
    decode_delta,
    encode_delta,
    generate_anchors,
    nms,
)
from .evaluation import (
    DEFAULT_IOU_THRESHOLDS,
    Detection,
    EvalConfig,
    EvalReport,
    GroundTruthAnnotation,
    PerClassResult,
    aggregate,
    average_precision,
    evaluate,
    f1,
    match_detections,
    max_achieved_recall,
)
from .augment import (
    AugmentParams,
    AugmentPlan,
    ImageAugment,
    apply_image_augment,
    flip_box_h,
    plan_to_lines,
    sample_plan,
    shift_scale_rotate_box,
)
from .descent import (
    ConvergenceStudy,
    DescentConfig,
    KindSummary,
    PairSampler,
    Trajectory,
    TrajectoryPoint,
    TrialRecord,
    convergence_study,
    run_descent,
    trial_csv_rows,
)
from .coco_io import (
    Category,
    DatasetManifest,
    DatasetSplit,
    ImageInfo,
    SplitSpec,
    load_manifest,
    load_predictions,
    split_dataset,
    split_ids,
)
from .reports import (
    DerivedModelStats,
    ModelReportRow,
    class_percent_changes,
    derive_report_stats,
    percent_change,
)

__version__ = "0.1.0"
