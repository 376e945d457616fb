"""COCO-style AP/AR evaluation over a chosen category axis.

The protocol is COCO's, pinned so that results are reproducible and
independently checkable (see :mod:`detfuse.reference` for the naive
re-implementation); only ``max_dets`` and the enumeration classes are set:

* IoU thresholds 0.50:0.95 in steps of 0.05; AP50/AP75 are AP at the
  0.50 and 0.75 thresholds of that list.
* 101 recall sample points ``i / 100``; precision is the running-maximum
  envelope sampled at the first rank whose recall reaches each point.
  That rank is a class's ``ceil(i * npig / 100)``-th true positive, an
  exact integer test, and the envelope there is the greatest precision at
  it or a later true positive, since precision rises nowhere else. Every
  class and threshold is sampled in one pass over the true positives.
* Detections are stable-sorted by descending score (ties keep input
  order) and capped at ``max_dets`` per image and class before matching.
* Matching is greedy in score order, per image and class: each detection
  takes the unmatched ground-truth box with the highest IoU at or above
  the threshold; IoU ties go to the earlier ground-truth entry. Every
  threshold is matched in the same settling round, and the detections
  that round leaves contested in the same rank-ordered steps.
* Classes absent from the ground truth are skipped, not zero-counted.
* AR is the matched fraction at ``max_dets``, averaged over the IoU
  thresholds and then over classes.

Axes: ``quadrant`` (4 classes), ``enumeration`` (the 32-class
quadrant x tooth product by default, or 8 tooth classes), ``disease``
(4 classes) and ``agnostic`` (a single class).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from .detections import _TRIPLES, CATEGORY_KEYS, DetectionSet, _refuse
from .errors import (
    AxisUnavailable,
    ConfigError,
    DanglingReference,
    choice_problems,
    raise_problems,
    setting_problems,
)
from .io import AnnotatedDataset, PathLike, _atomic_open

AXES = ("quadrant", "enumeration", "disease", "agnostic")

#: The COCO protocol's IoU thresholds, 0.50:0.05:0.95.
IOU_THRESHOLDS = tuple((50 + 5 * i) / 100.0 for i in range(10))
#: The COCO protocol's recall sample points, ``i / 100`` for i in 0..100.
RECALL_POINTS = 101

_AP50 = IOU_THRESHOLDS.index(0.5)
_AP75 = IOU_THRESHOLDS.index(0.75)


@dataclass(frozen=True, slots=True)
class EvalConfig:
    """Evaluation settings; the IoU thresholds and recall points are fixed."""

    iou_thresholds: ClassVar[tuple[float, ...]] = IOU_THRESHOLDS
    recall_points: ClassVar[int] = RECALL_POINTS
    max_dets: int = 100
    enumeration_product: bool = True

    def __post_init__(self) -> None:
        raise_problems(
            setting_problems("max_dets", self.max_dets, "[1, inf)", integer=True)
            + choice_problems("enumeration_product", self.enumeration_product, bool)
        )


@dataclass
class EvaluationReport:
    axis: str
    mean_ap: float
    ap50: float
    ap75: float
    ar: float
    per_class: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: The class-mean interpolated precision, a row per IoU threshold and a column per
    #: recall point; :func:`evaluate` always sets it. Reports compare by their numbers alone.
    pr_curve: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("mean_ap", "ap50", "ap75", "ar"):
            v = getattr(self, name)
            if not -1e-9 <= v <= 1 + 1e-9:
                raise ValueError(f"{name} out of [0, 1]: {v!r}")
        if self.mean_ap > self.ap50 + 1e-9:
            raise ValueError(f"mean_ap {self.mean_ap!r} exceeds ap50 {self.ap50!r}")

    def as_dict(self) -> dict:
        return {
            "axis": self.axis,
            "mAP": self.mean_ap,
            "AP50": self.ap50,
            "AP75": self.ap75,
            "AR": self.ar,
            "per_class": {k: {"AP": ap, "AR": ar} for k, (ap, ar) in self.per_class.items()},
        }


def axis_projection(axis: str, enumeration_product: bool = True) -> Callable:
    """The projection of a category onto one axis; it gives ``None`` when the axis is absent.

    A class is labelled ``str`` of its value; the 32 enumeration classes are
    the two-digit FDI numbers, which sort as (quadrant, tooth) pairs do.
    """
    raise_problems(choice_problems("axis", axis, AXES))
    if axis == "agnostic":
        return lambda category: "all"
    if axis == "enumeration":
        return attrgetter("fdi" if enumeration_product else "enumeration")
    return attrgetter(axis)


#: The class of each category key on each axis, by ``(axis, enumeration_product)``:
#: :func:`axis_projection` of the key's category, or ``None`` for no label on the
#: axis. Key 0 carries no axis at all.
_KEY_CLASSES = {
    (axis, product): [None, *map(axis_projection(axis, product), _TRIPLES[1:])]
    for axis in AXES
    for product in (True, False)
}

#: Cells of one padded ``(groups, detections, ground truth)`` IoU block. Groups
#: are matched in blocks of at most this many cells (a single group may
#: exceed it), so padded memory does not grow with the image count. A cell
#: costs about 48 bytes of IoU temporaries; in the matcher it costs about
#: 34: the IoU, its packed copy, the highest earlier IoU and a reach flag
#: per threshold. That keeps a block under 1 MiB.
_BLOCK_CELLS = 1 << 14


def _ranks(sorted_keys: np.ndarray) -> np.ndarray:
    """Each entry's index within its run of equal entries of a sorted array."""
    start = np.ones(len(sorted_keys), dtype=bool)
    start[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return np.arange(len(sorted_keys)) - np.flatnonzero(start)[np.cumsum(start) - 1]


def _iou_block(det_xywh: np.ndarray, gt_xywh: np.ndarray) -> np.ndarray:
    """IoU of every detection against every ground-truth box of the same group.

    ``det_xywh`` is ``(..., detections, 4)`` and ``gt_xywh`` is
    ``(..., ground truth, 4)``; the result is ``(..., detections, ground truth)``.
    Each value is computed elementwise, so it does not depend on the block
    it was computed in. A zero box at the origin has IoU 0 with every box,
    which makes it the padding of a block.
    """
    a = det_xywh[..., :, None, :]
    g = gt_xywh[..., None, :, :]
    iw = np.minimum(a[..., 0] + a[..., 2], g[..., 0] + g[..., 2]) - np.maximum(a[..., 0], g[..., 0])
    ih = np.minimum(a[..., 1] + a[..., 3], g[..., 1] + g[..., 3]) - np.maximum(a[..., 1], g[..., 1])
    inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
    union = a[..., 2] * a[..., 3] + g[..., 2] * g[..., 3] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=inter > 0)


def _match_block(ious: np.ndarray, thresholds: Sequence[float]) -> np.ndarray:
    """Greedy matching of many groups at every threshold at once.

    ``ious`` is ``(groups, detections, ground truth)``; row ``i`` of a group
    is its ``i``-th detection in score order. Padding rows and columns must
    hold an IoU below every threshold, so that they never match. Returns a
    ``(groups, thresholds, detections)`` array holding the matched
    ground-truth column, or -1 where the detection matched nothing at that
    threshold.

    One vectorized settling round matches every detection that is the
    first, in rank order, to reach its own best box: no earlier detection
    can take that box, so greedy matching gives it the same one. Only the
    detections still reaching a box left free are then stepped over in
    rank order, one (group, threshold) pair per row.
    """
    t = np.asarray(thresholds)
    n_groups, n_dets, n_gts = ious.shape
    out = np.full((n_groups, len(t), n_dets), -1, dtype=np.int32)
    # A detection below the lowest threshold against every box matches and
    # takes nothing, so only the others are matched, packed to the front
    # of their group in rank order.
    g, d = np.nonzero(ious.max(axis=2, initial=-1.0) >= t.min())
    if len(g) == 0:
        return out
    step = _ranks(g)
    packed = np.full((n_groups, step.max() + 1, n_gts), -1.0)
    packed[g, step] = ious[g, d]

    # The settling round. A detection reaches its best box (the highest
    # IoU, ties to the earlier box) at every threshold at which it reaches
    # any box. It is that box's first claimer where every earlier IoU with
    # the box lies below the threshold.
    best = packed.argmax(axis=2)
    top = packed.max(axis=2)
    earlier = np.full_like(packed, -1.0)  # the highest earlier IoU with each box
    np.maximum.accumulate(packed[:, :-1], axis=1, out=earlier[:, 1:])
    prior = np.take_along_axis(earlier, best[..., None], axis=2)[..., 0]
    # (groups, thresholds, dets)
    settled = (prior[:, None] < t[:, None]) & (top[:, None] >= t[:, None])
    cols = np.where(settled, best[:, None], -1).astype(np.int32)
    sg, st, si = np.nonzero(settled)
    taken = np.zeros((n_groups, len(t), n_gts), dtype=bool)
    taken[sg, st, best[sg, si]] = True

    # The contested remainder: the detections that still reach a free box,
    # stepped over in rank order, one (group, threshold) pair per row, with
    # the settled boxes taken. A detection that reaches only taken boxes
    # found them taken by an earlier one, so it matches nothing.
    reach = packed[:, None] >= t[:, None, None]  # (groups, thresholds, dets, gts)
    reach &= ~taken[:, :, None]
    rg, rt, ri = np.nonzero(~settled & reach.any(axis=3))
    if len(rg):
        rank = _ranks(rg * len(t) + rt)
        head = rank == 0
        row = np.cumsum(head) - 1
        which = np.full((row[-1] + 1, rank.max() + 1), -1)  # each row's detections
        which[row, rank] = ri
        grp, bar, free = rg[head], t[rt[head]], ~taken[rg[head], rt[head]]
        rows = np.arange(len(grp))
        picked = np.full(which.shape, -1, dtype=np.int32)
        for i in range(which.shape[1]):
            masked = np.where(free, packed[grp, which[:, i]], -1.0)
            j = masked.argmax(axis=1)  # ties go to the earlier ground-truth box
            hit = (masked[rows, j] >= bar) & (which[:, i] >= 0)
            picked[hit, i] = j[hit]
            free[rows[hit], j[hit]] = False
        cols[rg, rt, ri] = picked[row, rank]
    out[g, :, d] = cols[g, :, step]
    return out


def _true_positives(
    det_group: np.ndarray,
    det_rank: np.ndarray,
    det_xywh: np.ndarray,
    gt_group: np.ndarray,
    gt_xywh: np.ndarray,
) -> np.ndarray:
    """True-positive flags, ``(thresholds, detections)``, of capped detections.

    Detections are sorted by group, then by score rank; ground truth is
    sorted by group, in annotation order within a group. The groups that
    have ground truth are the rows of zero-padded blocks of at most
    :data:`_BLOCK_CELLS` cells, matched a block at a time. A detection
    whose group has no ground truth matches nothing.
    """
    flags = np.zeros((len(IOU_THRESHOLDS), len(det_group)), dtype=bool)
    groups, gt_count = np.unique(gt_group, return_counts=True)
    gt_row = np.repeat(np.arange(len(groups)), gt_count)
    gt_rank = _ranks(gt_group)
    slot = np.minimum(np.searchsorted(groups, det_group), len(groups) - 1)
    matched = np.flatnonzero(groups[slot] == det_group)
    det_row = slot[matched]
    cells = (det_rank.max(initial=0) + 1) * gt_count.max()
    per_block = max(1, _BLOCK_CELLS // int(cells))
    for r0 in range(0, len(groups), per_block):
        r1 = min(r0 + per_block, len(groups))
        lo, hi = np.searchsorted(det_row, (r0, r1))
        if lo == hi:
            continue
        d, d_row, d_rank = matched[lo:hi], det_row[lo:hi] - r0, det_rank[matched[lo:hi]]
        g = slice(*np.searchsorted(gt_row, (r0, r1)))
        dets = np.zeros((r1 - r0, d_rank.max() + 1, 4))
        dets[d_row, d_rank] = det_xywh[d]
        gts = np.zeros((r1 - r0, gt_count[r0:r1].max(), 4))
        gts[gt_row[g] - r0, gt_rank[g]] = gt_xywh[g]
        cols = _match_block(_iou_block(dets, gts), IOU_THRESHOLDS)
        flags[:, d] = (cols >= 0)[d_row, :, d_rank].T
    return flags


def evaluate(
    ds: AnnotatedDataset,
    dets: DetectionSet,
    axis: str = "disease",
    cfg: EvalConfig = EvalConfig(),
) -> EvaluationReport:
    """Evaluate detections against ground truth along one category axis.

    Raises:
        ConfigError: ``axis`` is not one of :data:`AXES`.
        DanglingReference: a detection references an image id absent from
            the dataset.
        AxisUnavailable: the ground truth (or a non-empty detection set)
            carries no label along ``axis``.
    """
    raise_problems(choice_problems("axis", axis, AXES))
    key_class = _KEY_CLASSES[axis, cfg.enumeration_product]
    cols = dets.columns
    det_image = cols.image_index(tuple(ds.image_ids()))
    _refuse(det_image < 0, cols.image_id, DanglingReference, "detection references unknown image {}")
    present = np.flatnonzero(np.bincount(ds.key, minlength=CATEGORY_KEYS)).tolist()
    classes = sorted({key_class[k] for k in present} - {None})
    if not classes:
        raise AxisUnavailable(f"ground truth carries no {axis!r} labels")
    # The class index of each box: -1 for a class absent from the ground
    # truth, -2 for no label on this axis.
    n_cls = len(classes)
    class_index = {key: c for c, key in enumerate(classes)}
    table = np.array([-2 if v is None else class_index.get(v, -1) for v in key_class], np.intp)
    det_class = table[cols.key]
    if len(det_class) > 0 and (det_class == -2).all():
        raise AxisUnavailable(f"detections carry no {axis!r} labels")

    # The (class, image) group of a box is numbered image * n_cls + class.
    gt_class = table[ds.key]
    gt_rows = np.flatnonzero(gt_class >= 0)
    gt_group = ds.image[gt_rows] * np.intp(n_cls) + gt_class[gt_rows]
    gt_order = np.argsort(gt_group, kind="stable")  # annotation order within a group
    gt_group = gt_group[gt_order]
    gt_xywh = ds.xywh[gt_rows[gt_order]]
    npig = np.bincount(gt_group % n_cls, minlength=n_cls).tolist()

    det_group = det_image * n_cls + det_class
    # Sort by score (ties keep input order), then by group, and cap each
    # group. A class absent from the ground truth is skipped, not
    # zero-counted. ``score_rank`` is each row's index in score order.
    pos = np.flatnonzero(det_class >= 0)
    pos = pos[np.argsort(-cols.score[pos], kind="stable")]
    score_rank = np.argsort(det_group[pos], kind="stable")
    group = det_group[pos[score_rank]]
    rank = _ranks(group)
    keep = rank < cfg.max_dets
    xywh = cols.xywh[pos[score_rank[keep]]]
    group, rank, score_rank = group[keep], rank[keep], score_rank[keep]
    # Matching sets the memory peak, so free the detection arrays it does not read.
    del det_image, det_class, det_group, pos, keep
    flags = _true_positives(group, rank, xywh, gt_group, gt_xywh)

    # Pool each class's detections in score order, ties in input order, and
    # number each one's place in its class's pool. The keys are unique; the
    # default sort's scratch memory raised the peak by 0.2 MiB, a stable one's not.
    pool = np.argsort(group % n_cls * len(cols.score) + score_rank, kind="stable")
    pool_class = group[pool] % n_cls
    place = _ranks(pool_class)
    # Each (threshold, class) pair has a curve, numbered t * n_cls + class.
    # At its k-th true positive, at place p (both from 0), precision is
    # (k + 1) / (p + 1), and the envelope is its suffix maximum.
    n_t = len(IOU_THRESHOLDS)
    t, j = np.nonzero(flags[:, pool])
    curve = t * n_cls + pool_class[j]
    k = _ranks(curve)
    found = np.bincount(curve, minlength=n_t * n_cls)
    env = np.zeros((n_t * n_cls, found.max(initial=0) + 1))
    env[curve, k] = (k + 1) / (place[j] + 1)
    env = np.maximum.accumulate(env[:, ::-1], axis=1)[:, ::-1]
    # Point r is first reached at the m-th true positive, m = ceil(r * npig
    # / 100); past a curve's last true positive the envelope reads 0.
    need = -(-np.arange(RECALL_POINTS) * np.array(npig)[:, None] // (RECALL_POINTS - 1))
    col = np.clip(need - 1, 0, env.shape[1] - 1)[None]
    q = np.take_along_axis(env.reshape(n_t, n_cls, -1), col, axis=2)  # (thresholds, classes, points)

    # The means below stay Python sums in threshold, then class order: a
    # numpy reduction would change the last bit of mAP and AR.
    ap = (q.sum(axis=2) / RECALL_POINTS).T.tolist()
    ar = [sum(m / npig[c] for m in found[c::n_cls].tolist()) / n_t for c in range(n_cls)]

    ap_mean = [sum(row) / n_t for row in ap]
    per_class = {str(cls): (m, r) for cls, m, r in zip(classes, ap_mean, ar)}
    mean_ap = sum(ap_mean) / n_cls
    ap50 = sum(row[_AP50] for row in ap) / n_cls
    ap75 = sum(row[_AP75] for row in ap) / n_cls
    ar_all = sum(ar) / n_cls
    pr_curve = sum(q.swapaxes(0, 1)) / n_cls
    return EvaluationReport(axis, mean_ap, ap50, ap75, ar_all, per_class, pr_curve)


def write_pr_csv(report: EvaluationReport, path: PathLike) -> None:
    """Export the report's PR curve as ``recall,precision,iou_threshold`` rows, by threshold."""
    if report.pr_curve is None:
        raise ConfigError(f"the {report.axis} report carries no PR curve; evaluate builds one")
    recalls = [i / (RECALL_POINTS - 1) for i in range(RECALL_POINTS)]
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["recall", "precision", "iou_threshold"])
        for t, row in zip(IOU_THRESHOLDS, report.pr_curve.tolist()):
            writer.writerows([f"{r:.2f}", repr(p), repr(t)] for r, p in zip(recalls, row))
