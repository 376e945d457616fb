"""Naive reference evaluator used to cross-check :func:`detfuse.metrics.evaluate`.

Everything here is deliberately written with plain Python loops and no
numpy so that it shares no evaluation logic with the vectorised engine;
the two are developed against the same written protocol and must agree
to within 1e-12 on any input. Keep it slow and obvious.
"""

from __future__ import annotations

from typing import Optional

from .detections import DetectionSet
from .errors import AxisUnavailable, DanglingReference, choice_problems, raise_problems, shorten
from .io import AnnotatedDataset
from .metrics import AXES, EvalConfig, EvaluationReport


def _axis_key(category, axis: str, product: bool):
    if axis == "agnostic":
        return "all"
    if axis == "quadrant":
        return category.quadrant
    if axis == "disease":
        return category.disease
    if axis == "enumeration":
        if product:
            if category.quadrant is None or category.enumeration is None:
                return None
            return (category.quadrant, category.enumeration)
        return category.enumeration
    raise ValueError(f"unknown axis {axis!r}")


def _box_iou(a, b) -> float:
    iw = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    if iw <= 0:
        return 0.0
    ih = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.w * a.h + b.w * b.h - inter)


def _match_flags(det_boxes: list, gt_boxes: list, iou_t: float) -> list[int]:
    """Greedy matching over score-ordered detections; 1 marks a true positive."""
    taken = [False] * len(gt_boxes)
    flags = []
    for db in det_boxes:
        best_j: Optional[int] = None
        best_v = -1.0
        for j, gb in enumerate(gt_boxes):
            if taken[j]:
                continue
            v = _box_iou(db, gb)
            if v > best_v:
                best_v = v
                best_j = j
        if best_j is not None and best_v >= iou_t:
            taken[best_j] = True
            flags.append(1)
        else:
            flags.append(0)
    return flags


def _interpolated_ap(flags: list[int], npig: int, recall_points: int) -> float:
    n = len(flags)
    if n == 0:
        return 0.0
    recall = []
    precision = []
    tp = 0
    for i, f in enumerate(flags):
        tp += f
        recall.append(tp / npig)
        precision.append(tp / (i + 1))
    for i in range(n - 1, 0, -1):
        if precision[i - 1] < precision[i]:
            precision[i - 1] = precision[i]
    total = 0.0
    idx = 0
    for i in range(recall_points):
        r = i / (recall_points - 1)
        while idx < n and recall[idx] < r:
            idx += 1
        if idx < n:
            total += precision[idx]
    return total / recall_points


def naive_oracle_evaluate(
    ds: AnnotatedDataset,
    dets: DetectionSet,
    axis: str = "disease",
    cfg: EvalConfig = EvalConfig(),
) -> EvaluationReport:
    """Slow, loop-based twin of :func:`detfuse.metrics.evaluate`."""
    raise_problems(choice_problems("axis", axis, AXES))
    known = set(ds.image_ids())
    for d in dets:
        if d.image_id not in known:
            raise DanglingReference(f"detection references unknown image {shorten(d.image_id)}")

    gt_groups: dict = {}
    gt_count: dict = {}
    for ann in ds.annotations:
        key = _axis_key(ann.category, axis, cfg.enumeration_product)
        if key is None:
            continue
        gt_groups.setdefault((ann.image_id, key), []).append(ann.box)
        gt_count[key] = gt_count.get(key, 0) + 1
    if not gt_count:
        raise AxisUnavailable(f"ground truth carries no {axis!r} labels")

    det_groups: dict = {}
    participating = 0
    for pos, d in enumerate(dets):
        key = _axis_key(d.category, axis, cfg.enumeration_product)
        if key is None:
            continue
        participating += 1
        if key in gt_count:
            det_groups.setdefault((d.image_id, key), []).append((pos, d))
    if len(dets) > 0 and participating == 0:
        raise AxisUnavailable(f"detections carry no {axis!r} labels")

    thresholds = sorted(set(cfg.iou_thresholds) | {0.5, 0.75})
    classes = sorted(gt_count)

    ap: dict = {}
    ar: dict = {}
    for cls in classes:
        npig = gt_count[cls]
        ap[cls] = {}
        per_image: dict = {}
        for image_id in ds.image_ids():
            entries = sorted(
                det_groups.get((image_id, cls), []), key=lambda e: (-e[1].score, e[0])
            )[: cfg.max_dets]
            per_image[image_id] = (
                [e[1].box for e in entries],
                [(e[1].score, e[0]) for e in entries],
                gt_groups.get((image_id, cls), []),
            )
        recall_sum = 0.0
        for t in thresholds:
            pooled: list = []  # (score, input position, flag)
            matched = 0
            for image_id in ds.image_ids():
                det_boxes, keys, gt_boxes = per_image[image_id]
                flags = _match_flags(det_boxes, gt_boxes, t)
                matched += sum(flags)
                for (score, pos), f in zip(keys, flags):
                    pooled.append((score, pos, f))
            pooled.sort(key=lambda e: (-e[0], e[1]))
            ap[cls][t] = _interpolated_ap([f for _, _, f in pooled], npig, cfg.recall_points)
            if t in cfg.iou_thresholds:
                recall_sum += matched / npig
        ar[cls] = recall_sum / len(cfg.iou_thresholds)

    n = len(classes)
    nt = len(cfg.iou_thresholds)
    mean_ap = sum(sum(ap[cls][t] for t in cfg.iou_thresholds) / nt for cls in classes) / n
    ap50 = sum(ap[cls][0.5] for cls in classes) / n
    ap75 = sum(ap[cls][0.75] for cls in classes) / n
    ar_all = sum(ar[cls] for cls in classes) / n

    per_class = {}
    for cls in classes:
        label = f"{cls[0]}{cls[1]}" if axis == "enumeration" and isinstance(cls, tuple) else str(cls)
        per_class[label] = (sum(ap[cls][t] for t in cfg.iou_thresholds) / nt, ar[cls])
    return EvaluationReport(axis, mean_ap, ap50, ap75, ar_all, per_class)
