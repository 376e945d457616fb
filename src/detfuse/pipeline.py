"""End-to-end orchestration: fuse, integrate, complement, evaluate.

A pipeline run is driven by a JSON config. The config is validated in
full before any stage executes, and every input file is read and checked
in the ``load`` stage, before the first artifact is written; so is the
ground truth's labelling of every configured evaluation axis. Every stage
writes its artifact to the output directory as soon as it completes
(partial outputs survive a later failure), and failures are re-raised
tagged with the stage name.

Stage artifacts, in order:

* ``01_fused.json`` threshold-ensembled diagnosis detections
* ``02_integrated.json`` enumeration-matched disease detections
* ``03_complementary.json`` after the crop-classifier merge (optional)
* ``04_final.json`` the final detection set
* ``metrics_<axis>.json`` one evaluation report per configured axis
"""

from __future__ import annotations

import contextlib
import logging
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterator, Optional

from .complementary import (
    _PAD_FRACTION,
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
from .errors import ConfigError, DetfuseError, choice_problems, raise_problems, settings_from, shorten
from .integrate import IntegrationConfig, as_detection_set, filter_enumeration, integrate, write_integrated
from .io import PathLike, _dump_json, _load_config, parse_ground_truth
from .metrics import AXES, EvalConfig, EvaluationReport, _axis_classes, evaluate
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
    share its field names, and checks them itself; their defaults are its.
    Every problem, theirs and the checks below, is reported in one
    :class:`ConfigError` before any stage runs. Empty ``axes`` evaluate nothing.
    A path that is set is a non-empty string; an input path names an existing file. A
    required path defaults to ``None``, refused as ``ground_truth path is required``.
    """

    ground_truth: Optional[str] = None
    enumeration: Optional[str] = None
    diagnosis_a: Optional[str] = None
    out_dir: Optional[str] = None
    diagnosis_b: Optional[str] = None
    crop_classifications: Optional[str] = None
    tau: float = EnsembleConfig().tau
    enum_score_gate: float = IntegrationConfig().enum_score_gate
    max_match_distance: Optional[float] = IntegrationConfig().max_match_distance
    unmatched_policy: str = IntegrationConfig().unmatched_policy
    pad_fraction: float = _PAD_FRACTION
    min_confidence: float = MergeConfig().min_confidence
    overlap_iou: float = MergeConfig().overlap_iou
    max_dets: int = EvalConfig().max_dets
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
        else:
            object.__setattr__(self, "axes", tuple(self.axes))
            for axis in self.axes:
                problems += choice_problems("axis", axis, AXES)
            if any(self.axes.count(axis) > 1 for axis in AXES):
                problems.append(f"axes must not repeat an axis, got {shorten(self.axes)}")
        for key in _PATH_KEYS:
            path = getattr(self, key)
            if path is None:
                problems += [f"{key} path is required"] if key in _REQUIRED_KEYS else []
            elif not (isinstance(path, str) and path):
                problems.append(f"{key} must be a path string, got {shorten(path)}")
            elif key in _INPUT_KEYS and not os.path.isfile(path):
                problems.append(f"{key} file not found: {shorten(path)}")
        raise_problems(problems)


#: The input files; with ``out_dir``, the paths that resolve relative to a config file.
_INPUT_KEYS = ("ground_truth", "enumeration", "diagnosis_a", "diagnosis_b", "crop_classifications")
_PATH_KEYS = (*_INPUT_KEYS, "out_dir")
_REQUIRED_KEYS = ("ground_truth", "enumeration", "diagnosis_a", "out_dir")


def pipeline_config_from_dict(payload: dict, base_dir: str = ".") -> PipelineConfig:
    """The pipeline config of the JSON object ``payload``: ``schema_version``, an ignored
    ``threads`` and the config's fields, its paths joined to ``base_dir``. A wrong version is
    one more problem in the :class:`ConfigError` of :func:`~detfuse.errors.settings_from`."""
    problems, settings = [], payload
    if isinstance(payload, dict):
        if (version := payload.get("schema_version")) != SCHEMA_VERSION:
            problems.append(f"unsupported schema_version {shorten(version)}, expected {SCHEMA_VERSION}")
        if "threads" in payload:
            # Older schema-v1 files still set it; evaluation runs in one thread.
            logger.warning("pipeline config key 'threads' is deprecated and ignored")
        settings = {k: v for k, v in payload.items() if k not in ("schema_version", "threads")}
        for key in _PATH_KEYS:
            value = settings.get(key)
            if value and isinstance(value, str):
                settings[key] = os.path.normpath(os.path.join(base_dir, value))
    return settings_from(PipelineConfig, settings, "pipeline config", problems)


def load_pipeline_config(path: PathLike) -> PipelineConfig:
    """Read and validate a pipeline config; paths resolve relative to it."""
    payload = _load_config(Path(path), "pipeline config")
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
    artifacts: list[str] = []

    def _out(name: str) -> str:
        path = os.path.join(cfg.out_dir, name)
        artifacts.append(path)
        return path

    with _stage("load"):
        dataset = parse_ground_truth(cfg.ground_truth)
        for axis in cfg.axes:
            _axis_classes(dataset, axis, cfg.evaluation.enumeration_product)
        universe = dataset.image_ids()
        enums = parse_detections(cfg.enumeration, "enumeration-model", universe)
        diag_a, diag_b = (
            None if path is None else _drop_diseaseless(parse_detections(path, source, universe))
            for path, source in ((cfg.diagnosis_a, "diagnosis-A"), (cfg.diagnosis_b, "diagnosis-B"))
        )
        verdicts = cfg.crop_classifications
        classifications = None if verdicts is None else parse_crop_classifications(verdicts)

    os.makedirs(cfg.out_dir, exist_ok=True)  # only once every input has passed
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
