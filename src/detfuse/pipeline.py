"""End-to-end orchestration: fuse, integrate, complement, evaluate.

A pipeline run is driven by a JSON config. The config is validated in
full before any stage executes, every stage writes its artifact to the
output directory as soon as it completes (partial outputs survive a
later failure), and failures are re-raised tagged with the stage name.

Stage artifacts, in order:

* ``01_fused.json`` threshold-ensembled diagnosis detections
* ``02_integrated.json`` enumeration-matched disease detections
* ``03_complementary.json`` after the crop-classifier merge (optional)
* ``04_final.json`` the final detection set
* ``metrics_<axis>.json`` one evaluation report per configured axis
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
from dataclasses import MISSING, dataclass, field, fields
from typing import Iterator, Optional

from .complementary import (
    MergeConfig,
    _pad_problems,
    assign_crops,
    classifications_to_detections,
    merge_complementary,
    parse_crop_classifications,
    write_crop_manifest,
)
from .detections import DetectionSet
from .ensemble import EnsembleConfig, threshold_ensemble
from .errors import ConfigError, DetfuseError, choice_problems, raise_problems, shorten
from .integrate import (
    KEEP_WITHOUT_ENUMERATION,
    IntegrationConfig,
    as_detection_set,
    filter_enumeration,
    integrate,
    write_integrated,
)
from .io import PathLike, _dump_json, parse_ground_truth
from .metrics import AXES, EvalConfig, EvaluationReport, evaluate
from .results import parse_detections, write_detections

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1


class PipelineStageError(DetfuseError):
    """A stage failed; earlier artifacts are already on disk."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """Input paths plus the settings of every stage.

    Each stage config is built once, here, from the flat settings that
    share its field names, and checks them itself. Every problem, theirs
    and the checks below, is reported in one :class:`ConfigError` before
    any stage runs.
    """

    ground_truth: str
    enumeration: str
    diagnosis_a: str
    out_dir: str
    diagnosis_b: Optional[str] = None
    crop_classifications: Optional[str] = None
    tau: float = 0.05
    enum_score_gate: float = 0.7
    max_match_distance: Optional[float] = None
    unmatched_policy: str = KEEP_WITHOUT_ENUMERATION
    pad_fraction: float = 0.1
    min_confidence: float = 0.5
    overlap_iou: float = 0.5
    max_dets: int = 100
    axes: tuple[str, ...] = ("disease",)
    ensemble: EnsembleConfig = field(init=False, repr=False, compare=False)
    integration: IntegrationConfig = field(init=False, repr=False, compare=False)
    merge: MergeConfig = field(init=False, repr=False, compare=False)
    evaluation: EvalConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        problems = []
        flat = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        for name, make in (
            ("ensemble", EnsembleConfig),
            ("integration", IntegrationConfig),
            ("merge", MergeConfig),
            ("evaluation", EvalConfig),
        ):
            settings = {f.name: flat[f.name] for f in fields(make) if f.name in flat}
            try:
                object.__setattr__(self, name, make(**settings))
            except ConfigError as exc:
                problems.append(str(exc))
        problems += _pad_problems(self.pad_fraction)
        if not isinstance(self.axes, (list, tuple)):
            problems.append(f"axes must be a list of axis names, got {shorten(self.axes)}")
        elif not self.axes:
            problems.append("axes must not be empty")
        else:
            object.__setattr__(self, "axes", tuple(self.axes))
            for axis in self.axes:
                problems += choice_problems("axis", axis, AXES)
        for key in _PATH_KEYS:
            path = getattr(self, key)
            if path is not None and not isinstance(path, str):
                problems.append(f"{key} must be a path string, got {shorten(path)}")
            elif key in _REQUIRED_KEYS and not path:
                problems.append(f"{key} path is required")
            elif path and key in _INPUT_KEYS and not os.path.isfile(path):
                problems.append(f"{key} file not found: {path}")
        raise_problems(problems)


_INIT_FIELDS = [f for f in fields(PipelineConfig) if f.init]
_CONFIG_KEYS = {"schema_version"} | {f.name for f in _INIT_FIELDS}
_REQUIRED_KEYS = [
    f.name for f in _INIT_FIELDS if f.default is MISSING and f.default_factory is MISSING
]

#: The input files; with ``out_dir``, the paths that resolve relative to a config file.
_INPUT_KEYS = ("ground_truth", "enumeration", "diagnosis_a", "diagnosis_b", "crop_classifications")
_PATH_KEYS = (*_INPUT_KEYS, "out_dir")


def pipeline_config_from_dict(payload: dict, base_dir: str = ".") -> PipelineConfig:
    if not isinstance(payload, dict):
        raise ConfigError("pipeline config must be a JSON object")
    unknown = set(payload) - _CONFIG_KEYS - {"threads"}
    if unknown:
        raise ConfigError(f"unknown pipeline config keys: {shorten(sorted(unknown))}")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {shorten(version)}; expected {SCHEMA_VERSION}")
    if "threads" in payload:
        # Older schema-v1 files still set it; evaluation runs in one thread.
        logger.warning("pipeline config key 'threads' is deprecated and ignored")
    kwargs = {k: v for k, v in payload.items() if k not in ("schema_version", "threads")}
    missing = [k for k in _REQUIRED_KEYS if k not in kwargs]
    if missing:
        raise ConfigError(f"pipeline config is missing required keys: {missing}")
    for key in _PATH_KEYS:
        value = kwargs.get(key)
        if value and isinstance(value, str):
            kwargs[key] = os.path.normpath(os.path.join(base_dir, value))
    return PipelineConfig(**kwargs)


def load_pipeline_config(path: PathLike) -> PipelineConfig:
    """Read and validate a pipeline config; paths resolve relative to it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"pipeline config is not valid JSON: {exc}") from exc
    return pipeline_config_from_dict(payload, os.path.dirname(os.path.abspath(path)))


@dataclass
class PipelineResult:
    config: PipelineConfig
    fused: DetectionSet
    integrated: DetectionSet
    final: DetectionSet
    reports: dict[str, EvaluationReport] = field(default_factory=dict)
    artifacts: list[str] = field(default_factory=list)


def _drop_diseaseless(dets: DetectionSet) -> DetectionSet:
    labelled = dets.columns.disease >= 0
    dropped = len(dets) - int(labelled.sum())
    if dropped:
        logger.warning("%s: dropped %d detections without a disease label", dets.source, dropped)
        return dets.take(labelled)
    return dets


@contextlib.contextmanager
def _stage(name: str) -> Iterator[None]:
    """Re-raise any failure of the ``with`` block as the :class:`PipelineStageError` of ``name``."""
    try:
        yield
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Execute every configured stage and return the collected outputs."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    artifacts: list[str] = []

    def _out(name: str) -> str:
        path = os.path.join(cfg.out_dir, name)
        artifacts.append(path)
        return path

    with _stage("load"):
        dataset = parse_ground_truth(cfg.ground_truth)
        universe = dataset.image_ids()
        enums = parse_detections(cfg.enumeration, "enumeration-model", universe)
        diag_a, diag_b = (
            None if path is None else _drop_diseaseless(parse_detections(path, source, universe))
            for path, source in ((cfg.diagnosis_a, "diagnosis-A"), (cfg.diagnosis_b, "diagnosis-B"))
        )

    with _stage("ensemble"):
        if diag_b is None:
            logger.warning("no diagnosis-B stream configured; passing diagnosis-A through")
            fused = DetectionSet.from_columns(diag_a.columns, "fused")
        else:
            fused = threshold_ensemble(diag_a, diag_b, cfg.ensemble)
        write_detections(fused, _out("01_fused.json"))

    with _stage("integrate"):
        integrated = integrate(enums, fused, cfg.integration)
        write_integrated(integrated, _out("02_integrated.json"))

    merged = integrated
    if cfg.crop_classifications is not None:
        with _stage("complementary"):
            gated = filter_enumeration(enums, cfg.enum_score_gate)
            crops = assign_crops(gated, dataset.images, cfg.pad_fraction)
            write_crop_manifest(crops, _out("crops_manifest.json"))
            classifications = parse_crop_classifications(cfg.crop_classifications)
            comp = classifications_to_detections(crops, classifications, cfg.merge.min_confidence)
            merged = merge_complementary(integrated, comp, cfg.merge)
            write_integrated(merged, _out("03_complementary.json"))
    else:
        logger.warning("no crop classifications configured; skipping the complementary stage")

    with _stage("finalize"):
        final = as_detection_set(merged, "fused", universe)
        write_detections(final, _out("04_final.json"))

    reports: dict[str, EvaluationReport] = {}
    with _stage("evaluate"):
        for axis in cfg.axes:
            report = evaluate(dataset, final, axis, cfg.evaluation)
            reports[axis] = report
            _dump_json(report.as_dict(), _out(f"metrics_{axis}.json"))

    return PipelineResult(cfg, fused, merged, final, reports, artifacts)
