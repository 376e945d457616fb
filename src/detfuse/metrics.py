"""COCO-style AP/AR evaluation over a chosen category axis.

The protocol is pinned so that results are reproducible and independently
checkable (see :mod:`detfuse.reference` for the naive re-implementation):

* IoU thresholds 0.50:0.95 in steps of 0.05 by default; AP50/AP75 are
  always reported at the literal 0.50 and 0.75 thresholds.
* 101 recall sample points ``i / 100``; precision is the running-maximum
  envelope sampled at the first rank whose recall reaches each point.
* Detections are stable-sorted by descending score (ties keep input
  order) and capped at ``max_dets`` per image and class before matching.
* Matching is greedy in score order: each detection takes the unmatched
  ground-truth box with the highest IoU at or above the threshold; IoU
  ties go to the earlier ground-truth entry.
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
from typing import Optional, Sequence

import numpy as np

from .errors import AxisUnavailable, DanglingReference, is_number, raise_problems
from .geometry import CategoryTriple
from .io import AnnotatedDataset, DetectionSet, PathLike

AXES = ("quadrant", "enumeration", "disease", "agnostic")


def _default_iou_thresholds() -> tuple[float, ...]:
    return tuple((50 + 5 * i) / 100.0 for i in range(10))


@dataclass(frozen=True, slots=True)
class EvalConfig:
    """Evaluation protocol knobs (defaults follow the COCO convention)."""

    iou_thresholds: tuple[float, ...] = field(default_factory=_default_iou_thresholds)
    max_dets: int = 100
    recall_points: int = 101
    enumeration_product: bool = True
    keep_pr_curves: bool = False

    def __post_init__(self) -> None:
        ts = tuple(self.iou_thresholds)
        object.__setattr__(self, "iou_thresholds", ts)
        problems = []
        if not ts or not all(is_number(t) and 0.0 < t <= 1.0 for t in ts):
            problems.append(f"iou_thresholds must be numbers in (0, 1], got {ts!r}")
        elif any(b <= a for a, b in zip(ts, ts[1:])):
            problems.append(f"iou_thresholds must be strictly increasing, got {ts!r}")
        for name, least in (("max_dets", 1), ("recall_points", 2)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                problems.append(f"{name} must be an integer >= {least}, got {value!r}")
        raise_problems(problems)


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


def _greedy_assign(matrix: np.ndarray, iou_t: float) -> list[Optional[int]]:
    """Greedy row-order assignment; returns the matched column per row."""
    n_det, n_gt = matrix.shape
    out: list[Optional[int]] = [None] * n_det
    if n_gt == 0:
        return out
    unmatched = np.ones(n_gt, dtype=bool)
    for i in range(n_det):
        row = np.where(unmatched, matrix[i], -1.0)
        j = int(np.argmax(row))
        if unmatched[j] and row[j] >= iou_t:
            out[i] = j
            unmatched[j] = False
    return out


# ---------------------------------------------------------------------------
# evaluation core


class _Group:
    """All detections and ground truth of one (image, class) pair."""

    __slots__ = ("gt_boxes", "dets")

    def __init__(self) -> None:
        self.gt_boxes: list = []
        self.dets: list = []  # (input position, score, box)


def _prepare_group(
    group: _Group, thresholds: Sequence[float], max_dets: int
) -> tuple[list, np.ndarray]:
    """Cap, sort and match one group at every threshold.

    Returns the kept detections as ``(position, score)`` pairs in score
    order plus a ``(n_thresholds, n_kept)`` true-positive flag matrix.
    """
    order = sorted(range(len(group.dets)), key=lambda k: (-group.dets[k][1], group.dets[k][0]))
    kept = order[:max_dets]
    det_boxes = [group.dets[k][2] for k in kept]
    matrix = _iou_matrix(det_boxes, group.gt_boxes)
    flags = np.zeros((len(thresholds), len(kept)), dtype=np.int64)
    for ti, t in enumerate(thresholds):
        for i, j in enumerate(_greedy_assign(matrix, t)):
            if j is not None:
                flags[ti, i] = 1
    pairs = [(group.dets[k][0], group.dets[k][1]) for k in kept]
    return pairs, flags


def _ap_from_flags(
    flags: np.ndarray, npig: int, recall_thresholds: np.ndarray
) -> tuple[float, np.ndarray]:
    """101-point interpolated AP from pooled, score-ordered TP flags."""
    n = len(flags)
    q = np.zeros(len(recall_thresholds))
    if n == 0:
        return 0.0, q
    tp = np.cumsum(flags)
    rc = tp / npig
    pr = tp / np.arange(1, n + 1)
    env = np.maximum.accumulate(pr[::-1])[::-1]
    idx = np.searchsorted(rc, recall_thresholds, side="left")
    valid = idx < n
    q[valid] = env[idx[valid]]
    return float(q.sum() / len(q)), q


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

    groups: dict[tuple, _Group] = {}
    gt_count: dict = {}
    for ann in ds.annotations:
        key = class_key(ann.category, axis, cfg.enumeration_product)
        if key is None:
            continue
        groups.setdefault((ann.image_id, key), _Group()).gt_boxes.append(ann.box)
        gt_count[key] = gt_count.get(key, 0) + 1
    if not gt_count:
        raise AxisUnavailable(f"ground truth carries no {axis!r} labels")

    participating = 0
    for pos, d in enumerate(dets):
        key = class_key(d.category, axis, cfg.enumeration_product)
        if key is None:
            continue
        participating += 1
        if key not in gt_count:
            continue  # class never appears in gt: skipped, not zero-counted
        groups.setdefault((d.image_id, key), _Group()).dets.append((pos, d.score, d.box))
    if len(dets) > 0 and participating == 0:
        raise AxisUnavailable(f"detections carry no {axis!r} labels")

    # AP is additionally reported at the literal 0.50/0.75 thresholds even
    # when a custom threshold list omits them.
    thresholds = sorted(set(cfg.iou_thresholds) | {0.5, 0.75})
    recall_thresholds = np.arange(cfg.recall_points) / (cfg.recall_points - 1)

    prepared = {k: _prepare_group(g, thresholds, cfg.max_dets) for k, g in groups.items()}

    classes = sorted(gt_count)
    ap: dict = {}
    ar: dict = {}
    curves: dict = {}
    for cls in classes:
        npig = gt_count[cls]
        pooled: list[tuple[float, int, np.ndarray]] = []  # (score, position, per-threshold flags)
        for (image_id, key), (pairs, flags) in prepared.items():
            if key != cls:
                continue
            for col, (pos, score) in enumerate(pairs):
                pooled.append((score, pos, flags[:, col]))
        pooled.sort(key=lambda r: (-r[0], r[1]))
        flag_matrix = (
            np.stack([r[2] for r in pooled], axis=1)
            if pooled
            else np.zeros((len(thresholds), 0), dtype=np.int64)
        )
        ap[cls] = {}
        recalls = []
        for ti, t in enumerate(thresholds):
            ap_t, q = _ap_from_flags(flag_matrix[ti], npig, recall_thresholds)
            ap[cls][t] = ap_t
            if cfg.keep_pr_curves and t in cfg.iou_thresholds:
                curves.setdefault(t, []).append(q)
            if t in cfg.iou_thresholds:
                recalls.append(int(flag_matrix[ti].sum()) / npig)
        ar[cls] = sum(recalls) / len(recalls)

    n = len(classes)
    ap_mean = {cls: sum(ap[cls][t] for t in cfg.iou_thresholds) / len(cfg.iou_thresholds) for cls in classes}
    mean_ap = sum(ap_mean[cls] for cls in classes) / n
    ap50 = sum(ap[cls][0.5] for cls in classes) / n
    ap75 = sum(ap[cls][0.75] for cls in classes) / n
    ar_all = sum(ar[cls] for cls in classes) / n
    per_class = {class_label(cls, axis): (ap_mean[cls], ar[cls]) for cls in classes}

    pr_points = None
    if cfg.keep_pr_curves:
        pr_points = []
        for t in cfg.iou_thresholds:
            stacked = curves[t]
            for ri, r in enumerate(recall_thresholds):
                precision = sum(q[ri] for q in stacked) / n
                pr_points.append((t, float(r), float(precision)))

    return EvaluationReport(axis, mean_ap, ap50, ap75, ar_all, per_class, pr_points)


def write_pr_csv(report: EvaluationReport, path: PathLike) -> None:
    """Export PR curve samples as ``recall,precision,iou_threshold`` rows."""
    if report.pr_points is None:
        raise ValueError("report carries no PR points; evaluate with keep_pr_curves=True")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["recall", "precision", "iou_threshold"])
        for t, r, p in report.pr_points:
            writer.writerow([f"{r:.2f}", repr(p), repr(t)])
