"""detfuse: detection fusion and evaluation for dual-stream dental detectors.

The package covers the post-network stages of a two-branch tooth pathology
detector: threshold-based ensembling of two diagnosis streams, attachment
of tooth positions to disease boxes by closest-center matching, merging of
complementary crop-classifier verdicts, class rebalancing plans, COCO-style
AP/AR evaluation along several category axes, and a seeded synthetic
detector simulator for end-to-end testing without model weights.
"""

from .complementary import (
    DEFAULT_BOOST,
    BalancePlan,
    CropAssignment,
    CropClassification,
    CropSet,
    MergeConfig,
    assign_crops,
    audit_balance,
    classifications_to_detections,
    merge_complementary,
    oversample_plan,
    parse_crop_classifications,
    read_crop_manifest,
    write_crop_classifications,
    write_crop_manifest,
)
from .detections import Columns, DetectionSet
from .ensemble import EnsembleConfig, threshold_ensemble
from .errors import (
    AxisUnavailable,
    ConfigError,
    CountMismatch,
    DanglingCrop,
    DanglingReference,
    DetfuseError,
    InvalidCategory,
    InvalidScore,
    MalformedFile,
    MissingImage,
    UniverseMismatch,
)
from .geometry import (
    CROP_LABELS,
    DISEASES,
    SOURCES,
    BoundingBox,
    CategoryTriple,
    Detection,
)
from .integrate import (
    DROP,
    KEEP_WITHOUT_ENUMERATION,
    UNMATCHED_POLICIES,
    IntegrationConfig,
    as_detection_set,
    filter_enumeration,
    integrate,
    write_integrated,
)
from .io import (
    AnnotatedDataset,
    AnnotatedImage,
    GroundTruthAnnotation,
    SplitSpec,
    parse_ground_truth,
    read_id_list,
    split_dataset,
    split_ids,
    subset_dataset,
    write_ground_truth,
    write_id_list,
)
from .metrics import (
    AXES,
    EvalConfig,
    EvaluationReport,
    evaluate,
    write_pr_csv,
)
from .pipeline import (
    PipelineConfig,
    PipelineResult,
    PipelineStageError,
    load_pipeline_config,
    pipeline_config_from_dict,
    run_pipeline,
)
from .reference import naive_oracle_evaluate
from .results import parse_detections, write_detections
from .synth import (
    BUILTIN_PROFILES,
    DetectorProfile,
    ScenePlan,
    generate_scene,
    load_profile,
    simulate_detector,
)

__version__ = "0.1.0"

__all__ = [
    "AXES",
    "BUILTIN_PROFILES",
    "CROP_LABELS",
    "DEFAULT_BOOST",
    "DISEASES",
    "DROP",
    "KEEP_WITHOUT_ENUMERATION",
    "SOURCES",
    "UNMATCHED_POLICIES",
    "AnnotatedDataset",
    "AnnotatedImage",
    "AxisUnavailable",
    "BalancePlan",
    "BoundingBox",
    "CategoryTriple",
    "Columns",
    "ConfigError",
    "CountMismatch",
    "CropAssignment",
    "CropClassification",
    "CropSet",
    "DanglingCrop",
    "DanglingReference",
    "Detection",
    "DetectionSet",
    "DetectorProfile",
    "DetfuseError",
    "EnsembleConfig",
    "EvalConfig",
    "EvaluationReport",
    "GroundTruthAnnotation",
    "IntegrationConfig",
    "InvalidCategory",
    "InvalidScore",
    "MalformedFile",
    "MergeConfig",
    "MissingImage",
    "PipelineConfig",
    "PipelineResult",
    "PipelineStageError",
    "ScenePlan",
    "SplitSpec",
    "UniverseMismatch",
    "as_detection_set",
    "assign_crops",
    "audit_balance",
    "classifications_to_detections",
    "evaluate",
    "filter_enumeration",
    "generate_scene",
    "integrate",
    "load_pipeline_config",
    "load_profile",
    "merge_complementary",
    "naive_oracle_evaluate",
    "oversample_plan",
    "parse_crop_classifications",
    "parse_detections",
    "parse_ground_truth",
    "pipeline_config_from_dict",
    "read_crop_manifest",
    "run_pipeline",
    "simulate_detector",
    "split_dataset",
    "split_ids",
    "subset_dataset",
    "threshold_ensemble",
    "write_crop_classifications",
    "write_crop_manifest",
    "write_detections",
    "write_ground_truth",
    "read_id_list",
    "write_id_list",
    "write_integrated",
    "write_pr_csv",
]
