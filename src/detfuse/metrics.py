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
  it or a later true positive, since precision rises nowhere else. Only
  the true positives, as (threshold, detection) pairs, are pooled: one
  sort of the unique pool keys places each in its class's score order,
  and every class and threshold is sampled with one gather.
* Detections are sorted by descending score (ties keep input
  order) and capped at ``max_dets`` per image and class before matching.
* Matching is greedy in score order, per image and class: each detection
  takes the unmatched ground-truth box with the highest IoU at or above
  the threshold; IoU ties go to the earlier ground-truth entry. Only the
  (detection, box) pairs at or above the lowest threshold are read. A
  pair's level is the number of thresholds it reaches; a detection's
  prior is the highest level of an earlier detection on its best box. One
  settling round gives each detection its best box on the thresholds
  ``[prior, top)``, below its best pair's level, for every threshold at
  once; the few detections it leaves contested are stepped in rank order.
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
        raise_problems([
            problem
            for name in ("mean_ap", "ap50", "ap75", "ar")
            for problem in setting_problems(name, getattr(self, name), "[0, 1]")
        ])
        if self.mean_ap > self.ap50 + 1e-9:
            raise ConfigError(f"mean_ap {self.mean_ap!r} exceeds ap50 {self.ap50!r}")

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
#: costs about 35 bytes while its IoU is computed: two overlap extents, the
#: IoU, a flag and a temporary. The matcher reads only the (detection, box)
#: pairs that reach the lowest threshold; where every cell of a block
#: reaches it, its worst case, it costs about 85 bytes a cell, 1.4 MiB a
#: block, and up to about 120 where each group has one ground-truth box,
#: since its output holds a column per threshold and detection.
_BLOCK_CELLS = 1 << 14


def _ranks(sorted_keys: np.ndarray) -> np.ndarray:
    """Each entry's index within its run of equal entries of a sorted array."""
    start = np.ones(len(sorted_keys), dtype=bool)
    start[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return np.arange(len(sorted_keys)) - np.flatnonzero(start)[np.cumsum(start) - 1]


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of non-negative integer keys, by one sort of unique keys.

    Key ``i`` becomes ``keys[i] * n + i``: ties break by index, so the
    default sort, which is not stable, gives the stable order.
    """
    n = len(keys)
    unique = keys.astype(np.intp)
    unique *= n
    unique += np.arange(n)
    unique.sort()
    unique %= n
    return unique


def _iou_block(det_xywh: np.ndarray, gt_xywh: np.ndarray) -> np.ndarray:
    """IoU of every detection against every ground-truth box of the same group.

    ``det_xywh`` is ``(..., detections, 4)`` and ``gt_xywh`` is
    ``(..., ground truth, 4)``; the result is ``(..., detections, ground truth)``.
    Each value is computed elementwise, so it does not depend on the block
    it was computed in. A zero box at the origin has IoU 0 with every box,
    which makes it the padding of a block.
    """
    # A contiguous row per coordinate, so that each box's far edges and area are formed once.
    dx, dy, dw, dh = np.moveaxis(det_xywh, -1, 0).copy()[..., :, None]
    gx, gy, gw, gh = np.moveaxis(gt_xywh, -1, 0).copy()[..., None, :]
    iw = np.minimum(dx + dw, gx + gw)
    iw -= np.maximum(dx, gx)
    np.maximum(iw, 0.0, out=iw)
    ih = np.minimum(dy + dh, gy + gh)
    ih -= np.maximum(dy, gy)
    np.maximum(ih, 0.0, out=ih)
    inter = np.multiply(iw, ih, out=iw)
    union = np.add(dw * dh, gw * gh, out=ih)
    union -= inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=inter > 0)


def _match_block(ious: np.ndarray, thresholds: Sequence[float]) -> np.ndarray:
    """Greedy matching of many groups at every threshold at once.

    ``ious`` is ``(groups, detections, ground truth)``; row ``i`` of a group
    is its ``i``-th detection in score order. Padding rows and columns must
    hold an IoU below every threshold, so that they never match. The
    thresholds must be ascending. Returns a ``(groups, thresholds,
    detections)`` array holding the matched ground-truth column, or -1 where
    the detection matched nothing at that threshold.

    Only the (detection, box) pairs that reach the lowest threshold are
    read. A pair's level is the number of thresholds it reaches. A
    detection's best pair is its first box at its top IoU; its top is that
    pair's level, and its prior is the highest level of an earlier
    detection on that box. On the thresholds ``[prior, top)`` the detection
    is the first to reach its own best box, so greedy matching gives it
    that box: this settles most of the block in one vectorized round. A
    pair is contested only below both its level and its detection's prior,
    on a box that round left free there. The detections with a contested
    pair are stepped over in rank order, one (group, threshold) pair per row.
    """
    t = np.asarray(thresholds)
    n_groups, n_dets, n_gts = ious.shape
    n_t = len(t)
    out = np.full((n_groups, n_t, n_dets), -1, dtype=np.int32)
    # Pair-length arrays set the memory peak, so each is freed once it is read.
    pair = np.flatnonzero(ious >= t[0])  # in (group, detection, box) order
    if len(pair) == 0:
        return out
    iou = ious.ravel()[pair]
    det, b = np.divmod(pair, n_gts)
    del pair
    g, i = np.divmod(det, n_dets)
    level = (iou >= t[:, None]).sum(axis=0)  # the pair reaches t[:level]

    # Each detection's pairs are a run. Its best pair is the first at the
    # run's top IoU: the highest IoU, ties to the earlier box.
    first = np.ones(len(iou), dtype=bool)
    first[1:] = det[1:] != det[:-1]
    del det
    run = np.cumsum(first) - 1
    start = np.flatnonzero(first)
    del first
    top = np.maximum.reduceat(iou, start)
    at_top = np.arange(len(iou))
    at_top[iou != top[run]] = len(iou)
    del iou, top
    best = np.minimum.reduceat(at_top, start)
    del at_top, start
    # The prior level on each pair's box: the running maximum of the levels
    # of the earlier detections' pairs with the box. Pairs are ordered by
    # (group, box, detection) on unique keys, and each (group, box) run is
    # raised above the one before it, so one accumulate restarts per box.
    box = g * n_gts + b
    order = np.argsort(box * n_dets + i)
    lift = box[order]
    del box
    lift *= n_t + 1
    reached = level[order]
    reached += lift
    np.maximum.accumulate(reached, out=reached)
    on_box = np.zeros(len(order), dtype=np.intp)
    reached = reached[:-1]
    reached -= lift[1:]
    del lift
    on_box[order[1:]] = np.maximum(reached, 0, out=reached)
    del order, reached
    prior = on_box[best]
    del on_box

    # The settling round: each detection takes its best box on [prior, top).
    span = level[best] - prior
    d = np.flatnonzero(span > 0)
    d = np.repeat(d, span[d])
    k = prior[d] + _ranks(d)
    s = best[d]
    out[g[s], k, i[s]] = b[s]
    # The settled boxes by (group, box, threshold); the last column stays free.
    taken = np.zeros((n_groups, n_gts, n_t + 1), dtype=bool)
    taken[g[s], b[s], k] = True
    del span, d, k, s

    # The contested remainder. A pair is contested below its cap, the lower
    # of its level and its detection's prior, where its box is free; only
    # the pairs whose box is free somewhere below the cap are expanded.
    cap = np.minimum(level, prior[run])
    del level
    lowest_free = taken.argmin(axis=2)  # n_t where a box is taken at every threshold
    p = np.flatnonzero(lowest_free[g, b] < cap)
    if len(p) == 0:
        return out
    live = ~taken[g[p], b[p], :n_t]
    live &= np.arange(n_t) < cap[p, None]
    del b, cap
    lead = np.flatnonzero(np.diff(run[p], prepend=-1))
    del run
    c, k = np.nonzero(np.logical_or.reduceat(live, lead, axis=0))
    del live
    c = p[lead[c]]
    # Each contested (group, threshold, detection) in rank order, and a row
    # per (group, threshold) pair, with the settled boxes taken.
    key = np.sort((g[c] * n_t + k) * n_dets + i[c])
    del g, i, p, c, k
    rgt, ri = np.divmod(key, n_dets)
    del key
    rg, rt = np.divmod(rgt, n_t)
    rank = _ranks(rgt)
    head = rank == 0
    row = np.cumsum(head) - 1
    which = np.full((row[-1] + 1, rank.max() + 1), -1)  # each row's detections
    which[row, rank] = ri
    grp, bar, free = rg[head], t[rt[head]], ~taken[rg[head], :, rt[head]]
    rows = np.arange(len(grp))
    picked = np.full(which.shape, -1, dtype=np.int32)
    for col in range(which.shape[1]):
        masked = np.where(free, ious[grp, which[:, col]], -1.0)
        j = masked.argmax(axis=1)  # ties go to the earlier ground-truth box
        hit = (masked[rows, j] >= bar) & (which[:, col] >= 0)
        picked[hit, col] = j[hit]
        free[rows[hit], j[hit]] = False
    out[rg, rt, ri] = picked[row, rank]
    return out


def _true_positives(
    det_group: np.ndarray,
    det_rank: np.ndarray,
    det_xywh: np.ndarray,
    gt_group: np.ndarray,
    gt_xywh: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The true positives of capped detections, as (threshold, detection) index pairs.

    Detections are sorted by group, then by score rank; ground truth is
    sorted by group, in annotation order within a group. The groups that
    have ground truth are the rows of zero-padded blocks of at most
    :data:`_BLOCK_CELLS` cells, matched a block at a time. A detection
    whose group has no ground truth matches nothing. One index per cell,
    ``row * width + rank``, names the box that fills it, and so the
    detection of each match read back from it.
    """
    pairs = [(np.zeros(0, np.intp), np.zeros(0, np.intp))]
    # The last row of each box array is a zero box, the padding of every block.
    det_xywh = np.concatenate([det_xywh, np.zeros((1, 4))])
    gt_xywh = np.concatenate([gt_xywh, np.zeros((1, 4))])
    start = np.flatnonzero(np.diff(gt_group, prepend=-1))
    groups, gt_count = gt_group[start], np.diff(start, append=len(gt_group))
    gt_row = np.repeat(np.arange(len(groups)), gt_count)
    gt_rank = np.arange(len(gt_group)) - start[gt_row]
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
        d = matched[lo:hi]
        d_rank = det_rank[d]
        width = d_rank.max() + 1
        at = np.full((r1 - r0) * width, len(det_xywh) - 1)
        at[(det_row[lo:hi] - r0) * width + d_rank] = d
        g = slice(*np.searchsorted(gt_row, (r0, r1)))
        gt_width = gt_count[r0:r1].max()
        gt_at = np.full((r1 - r0) * gt_width, len(gt_xywh) - 1)
        gt_at[(gt_row[g] - r0) * gt_width + gt_rank[g]] = np.arange(g.start, g.stop)
        ious = _iou_block(
            det_xywh.take(at, axis=0).reshape(r1 - r0, width, 4),
            gt_xywh.take(gt_at, axis=0).reshape(r1 - r0, gt_width, 4),
        )
        row_t, rank = np.divmod(np.flatnonzero(_match_block(ious, IOU_THRESHOLDS) >= 0), width)
        row, t = np.divmod(row_t, len(IOU_THRESHOLDS))
        pairs.append((t, at[row * width + rank]))
    t, d = zip(*pairs)
    return np.concatenate(t), np.concatenate(d)


def _axis_classes(ds: AnnotatedDataset, axis: str, enumeration_product: bool) -> list:
    """The classes of ``axis`` that the ground truth labels, sorted.

    Raises:
        AxisUnavailable: the ground truth carries no label along ``axis``.
    """
    key_class = _KEY_CLASSES[axis, enumeration_product]
    present = np.flatnonzero(np.bincount(ds.key, minlength=CATEGORY_KEYS)).tolist()
    classes = sorted({key_class[k] for k in present} - {None})
    if not classes:
        raise AxisUnavailable(f"ground truth carries no {axis!r} labels")
    return classes


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
    classes = _axis_classes(ds, axis, cfg.enumeration_product)
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
    gt_order = _stable_order(gt_group)  # annotation order within a group
    gt_group = gt_group[gt_order]
    gt_xywh = ds.xywh.take(gt_rows[gt_order], axis=0)
    npig = np.bincount(gt_group % n_cls, minlength=n_cls).tolist()

    det_group = det_image * n_cls + det_class
    # Take the set's score order (ties keep input order) of the rows with a
    # class, sort by group, and cap each group. A class absent from the ground
    # truth is skipped, not zero-counted. ``score_rank`` is each row's index in
    # score order.
    order = dets._score_order
    pos = order[det_class[order] >= 0]
    score_rank = _stable_order(det_group[pos])
    group = det_group[pos[score_rank]]
    rank = _ranks(group)
    keep = rank < cfg.max_dets
    xywh = cols.xywh.take(pos[score_rank[keep]], axis=0)  # faster than indexing rows with [ ]
    group, rank, score_rank = group[keep], rank[keep], score_rank[keep]
    # Matching sets the memory peak, so free the detection arrays it does not read.
    del det_image, det_class, det_group, pos, keep
    t, d = _true_positives(group, rank, xywh, gt_group, gt_xywh)

    # Pool each class's detections in score order, ties in input order. The
    # pool keys are unique, so a sort orders them, and a true positive's
    # place in its class's pool is its key's position less the class's start.
    n = len(cols.score)
    key = group % n_cls
    key *= n
    key += score_rank
    pooled = np.sort(key)
    key = key[d]
    tp_class = key // n
    place = np.searchsorted(pooled, key)
    place -= np.searchsorted(pooled, np.arange(n_cls) * n)[tp_class]
    # Each (threshold, class) pair has a curve, numbered t * n_cls + class,
    # and its true positives are sorted by place. At its k-th true positive,
    # at place p (both from 0), precision is (k + 1) / (p + 1), and the
    # envelope is its suffix maximum: a running maximum from the last column,
    # since the k-th true positive is stored in column width - 1 - k.
    n_t = len(IOU_THRESHOLDS)
    curve, place = np.divmod(np.sort((t * n_cls + tp_class) * len(pooled) + place), len(pooled))
    k = _ranks(curve)
    found = np.bincount(curve, minlength=n_t * n_cls)
    width = found.max(initial=0) + 1
    env = np.zeros((n_t * n_cls, width))
    env[curve, width - 1 - k] = (k + 1) / (place + 1)
    np.maximum.accumulate(env, axis=1, out=env)
    # Point r is first reached at the m-th true positive, m = ceil(r * npig
    # / 100); past a curve's last true positive the envelope reads 0.
    need = -(-np.arange(RECALL_POINTS) * np.array(npig)[:, None] // (RECALL_POINTS - 1))
    # The flat index in env of each (threshold, class, point) sample.
    at = (np.arange(1, n_cls + 1) * width - 1)[:, None] - np.clip(need - 1, 0, width - 1)
    at = at + (np.arange(n_t) * (n_cls * width))[:, None, None]
    q = env.take(at)  # (thresholds, classes, points)

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
