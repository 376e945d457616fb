"""COCO-style AP/AR evaluation over a chosen category axis.

The protocol is COCO's, pinned so that results are reproducible and
independently checkable (see :mod:`detfuse.reference` for the naive
re-implementation); only ``max_dets`` and the enumeration classes are set:

* IoU thresholds 0.50:0.95 in steps of 0.05; AP50/AP75 are AP at the
  0.50 and 0.75 thresholds of that list.
* 101 recall sample points ``i / 100``; precision is the running-maximum
  envelope sampled at the first rank whose recall reaches each point.
* Detections are stable-sorted by descending score (ties keep input
  order) and capped at ``max_dets`` per image and class before matching.
* Matching is greedy in score order, per image and class: each detection
  takes the unmatched ground-truth box with the highest IoU at or above
  the threshold; IoU ties go to the earlier ground-truth entry. Every
  threshold is matched in the same pass over the detections.
* Classes absent from the ground truth are skipped, not zero-counted.
* AR is the matched fraction at ``max_dets``, averaged over the IoU
  thresholds and then over classes.

Axes: ``quadrant`` (4 classes), ``enumeration`` (the 32-class
quadrant x tooth product by default, or 8 tooth classes), ``disease``
(4 classes) and ``agnostic`` (a single class).
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Sequence

import numpy as np

from .errors import AxisUnavailable, ConfigError, DanglingReference
from .geometry import CategoryTriple
from .io import AnnotatedDataset, DetectionSet, PathLike, _atomic_open

AXES = ("quadrant", "enumeration", "disease", "agnostic")

#: The COCO protocol's IoU thresholds, 0.50:0.05:0.95.
IOU_THRESHOLDS = tuple((50 + 5 * i) / 100.0 for i in range(10))
#: The COCO protocol's recall sample points, ``i / 100`` for i in 0..100.
RECALL_POINTS = 101

_RECALL_GRID = np.arange(RECALL_POINTS) / (RECALL_POINTS - 1)
_AP50 = IOU_THRESHOLDS.index(0.5)
_AP75 = IOU_THRESHOLDS.index(0.75)


@dataclass(frozen=True, slots=True)
class EvalConfig:
    """Evaluation settings; the IoU thresholds and recall points are fixed."""

    iou_thresholds: ClassVar[tuple[float, ...]] = IOU_THRESHOLDS
    recall_points: ClassVar[int] = RECALL_POINTS
    max_dets: int = 100
    enumeration_product: bool = True
    keep_pr_curves: bool = False

    def __post_init__(self) -> None:
        value = self.max_dets
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise ConfigError(f"max_dets must be an integer >= 1, got {value!r}")


@dataclass
class EvaluationReport:
    axis: str
    mean_ap: float
    ap50: float
    ap75: float
    ar: float
    per_class: dict[str, tuple[float, float]] = field(default_factory=dict)
    pr_points: Optional[list[tuple[float, float, float]]] = None

    def __post_init__(self) -> None:
        for name in ("mean_ap", "ap50", "ap75", "ar"):
            v = getattr(self, name)
            if not -1e-9 <= v <= 1 + 1e-9:
                raise ValueError(f"{name} out of [0, 1]: {v!r}")
        if self.mean_ap > self.ap50 + 1e-9:
            raise ValueError(f"mean_ap {self.mean_ap!r} exceeds ap50 {self.ap50!r}")

    def as_dict(self) -> dict:
        out = {
            "axis": self.axis,
            "mAP": self.mean_ap,
            "AP50": self.ap50,
            "AP75": self.ap75,
            "AR": self.ar,
            "per_class": {k: {"AP": ap, "AR": ar} for k, (ap, ar) in self.per_class.items()},
        }
        if self.pr_points is not None:
            out["pr_points"] = [
                {"iou_threshold": t, "recall": r, "precision": p} for t, r, p in self.pr_points
            ]
        return out


def class_key(category: CategoryTriple, axis: str, enumeration_product: bool = True):
    """Project a category onto one axis; ``None`` when the axis is absent."""
    if axis == "agnostic":
        return "all"
    if axis == "quadrant":
        return category.quadrant
    if axis == "disease":
        return category.disease
    if axis == "enumeration":
        if enumeration_product:
            if category.quadrant is None or category.enumeration is None:
                return None
            return (category.quadrant, category.enumeration)
        return category.enumeration
    raise ValueError(f"unknown axis {axis!r}")


def class_label(key, axis: str) -> str:
    if axis == "enumeration" and isinstance(key, tuple):
        return f"{key[0]}{key[1]}"  # FDI two-digit number
    return str(key)


def _iou_matrix(det_boxes: Sequence, gt_boxes: Sequence) -> np.ndarray:
    """Pairwise IoU, rows = detections, columns = ground truth."""
    if not det_boxes or not gt_boxes:
        return np.zeros((len(det_boxes), len(gt_boxes)))
    a = np.array([[b.x, b.y, b.w, b.h] for b in det_boxes])
    g = np.array([[b.x, b.y, b.w, b.h] for b in gt_boxes])
    iw = np.minimum((a[:, 0] + a[:, 2])[:, None], (g[:, 0] + g[:, 2])[None, :]) - np.maximum(
        a[:, 0][:, None], g[:, 0][None, :]
    )
    ih = np.minimum((a[:, 1] + a[:, 3])[:, None], (g[:, 1] + g[:, 3])[None, :]) - np.maximum(
        a[:, 1][:, None], g[:, 1][None, :]
    )
    inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
    union = (a[:, 2] * a[:, 3])[:, None] + (g[:, 2] * g[:, 3])[None, :] - inter
    return np.where(inter > 0, inter / union, 0.0)


def _match(ious: np.ndarray, thresholds: Sequence[float]) -> np.ndarray:
    """Greedy matching of score-ordered detections at every threshold at once.

    Row ``i`` of ``ious`` is the ``i``-th detection in score order. Returns
    a ``(thresholds, detections)`` array holding the matched ground-truth
    column, or -1 where the detection matched nothing at that threshold.
    """
    t = np.asarray(thresholds)
    out = np.full((len(t), ious.shape[0]), -1)
    if ious.shape[1] == 0:
        return out
    free = np.ones((len(t), ious.shape[1]), dtype=bool)
    rows = np.arange(len(t))
    # A detection below the lowest threshold against every box matches nothing.
    for i in np.flatnonzero(ious.max(axis=1) >= t.min()):
        masked = np.where(free, ious[i], -1.0)
        j = masked.argmax(axis=1)  # ties go to the earlier ground-truth box
        hit = masked[rows, j] >= t
        out[hit, i] = j[hit]
        free[rows[hit], j[hit]] = False
    return out


def _interpolated_precision(flags: np.ndarray, npig: int) -> np.ndarray:
    """Enveloped precision at each recall point, one row per threshold.

    ``flags`` holds the true-positive flags of the pooled, score-ordered
    detections of one class, one row per threshold.
    """
    n = flags.shape[1]
    tp = np.cumsum(flags, axis=1)
    rc = tp / npig
    env = np.maximum.accumulate((tp / np.arange(1, n + 1))[:, ::-1], axis=1)[:, ::-1]
    q = np.zeros((len(flags), RECALL_POINTS))
    for ti in range(len(flags)):
        idx = np.searchsorted(rc[ti], _RECALL_GRID, side="left")
        valid = idx < n
        q[ti, valid] = env[ti, idx[valid]]
    return q


def evaluate(
    ds: AnnotatedDataset,
    dets: DetectionSet,
    axis: str = "disease",
    cfg: EvalConfig = EvalConfig(),
) -> EvaluationReport:
    """Evaluate detections against ground truth along one category axis.

    Raises:
        AxisUnavailable: the ground truth (or a non-empty detection set)
            carries no label along ``axis``.
        DanglingReference: a detection references an image id absent from
            the dataset.
    """
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}; expected one of {AXES}")
    known = set(ds.image_ids())
    for d in dets:
        if d.image_id not in known:
            raise DanglingReference(f"detection references unknown image {d.image_id!r}")

    # class -> image -> (gt boxes, detections as (input position, score, box))
    groups: dict = {}
    for ann in ds.annotations:
        key = class_key(ann.category, axis, cfg.enumeration_product)
        if key is not None:
            groups.setdefault(key, {}).setdefault(ann.image_id, ([], []))[0].append(ann.box)
    if not groups:
        raise AxisUnavailable(f"ground truth carries no {axis!r} labels")

    participating = 0
    for pos, d in enumerate(dets):
        key = class_key(d.category, axis, cfg.enumeration_product)
        if key is None:
            continue
        participating += 1
        by_image = groups.get(key)
        if by_image is not None:  # a class absent from gt is skipped, not zero-counted
            by_image.setdefault(d.image_id, ([], []))[1].append((pos, d.score, d.box))
    if len(dets) > 0 and participating == 0:
        raise AxisUnavailable(f"detections carry no {axis!r} labels")

    # Per class, in class order: AP per threshold, AR and the PR samples.
    # The means below stay Python sums in threshold, then class order: a
    # numpy reduction would change the last bit of mAP and AR.
    n_t = len(IOU_THRESHOLDS)
    classes = sorted(groups)
    ap: list = []
    ar: list = []
    curves: list = []
    for cls in classes:
        npig = 0
        scores: list = []
        positions: list = []
        flags: list = []
        for gt_boxes, group in groups[cls].values():
            npig += len(gt_boxes)
            kept = sorted(group, key=lambda e: -e[1])[: cfg.max_dets]  # stable: ties keep input order
            flags.append(_match(_iou_matrix([e[2] for e in kept], gt_boxes), IOU_THRESHOLDS) >= 0)
            positions.extend(e[0] for e in kept)
            scores.extend(e[1] for e in kept)
        pooled = np.concatenate(flags, axis=1)[:, np.lexsort((positions, np.negative(scores)))]
        q = _interpolated_precision(pooled, npig)
        ap.append([float(q[ti].sum() / RECALL_POINTS) for ti in range(n_t)])
        ar.append(sum(int(m) / npig for m in pooled.sum(axis=1)) / n_t)
        curves.append(q)

    n = len(classes)
    ap_mean = [sum(row) / n_t for row in ap]
    per_class = {class_label(cls, axis): (m, r) for cls, m, r in zip(classes, ap_mean, ar)}
    mean_ap = sum(ap_mean) / n
    ap50 = sum(row[_AP50] for row in ap) / n
    ap75 = sum(row[_AP75] for row in ap) / n
    ar_all = sum(ar) / n

    pr_points = None
    if cfg.keep_pr_curves:
        pr_points = [
            (t, float(r), float(sum(q[ti, ri] for q in curves) / n))
            for ti, t in enumerate(IOU_THRESHOLDS)
            for ri, r in enumerate(_RECALL_GRID)
        ]

    return EvaluationReport(axis, mean_ap, ap50, ap75, ar_all, per_class, pr_points)


def write_pr_csv(report: EvaluationReport, path: PathLike) -> None:
    """Export PR curve samples as ``recall,precision,iou_threshold`` rows."""
    if report.pr_points is None:
        raise ValueError("report carries no PR points; evaluate with keep_pr_curves=True")
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["recall", "precision", "iou_threshold"])
        for t, r, p in report.pr_points:
            writer.writerow([f"{r:.2f}", repr(p), repr(t)])
