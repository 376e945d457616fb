"""Dual-stage integration of enumeration and diagnosis streams.

Each disease detection is attached to the same-image tooth detection whose
box center is nearest (many diseases may share one tooth), inheriting its
quadrant/enumeration label; the combined confidence is the product of the
two scores.  Matching direction is diagnosis -> enumeration so that no
disease finding is ever lost for lack of a tooth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import CategoryTriple, Detection, ImageId
from .io import DetectionSet, PathLike, _dump_json, detections_to_records
from .errors import AxisUnavailable, fraction_problem, is_number, raise_problems

KEEP_WITHOUT_ENUMERATION = "keep-without-enumeration"
DROP = "drop"
UNMATCHED_POLICIES = (KEEP_WITHOUT_ENUMERATION, DROP)


@dataclass(frozen=True, slots=True)
class IntegrationConfig:
    enum_score_gate: float = 0.7
    max_match_distance: Optional[float] = None
    unmatched_policy: str = KEEP_WITHOUT_ENUMERATION

    def __post_init__(self) -> None:
        problems = fraction_problem("enum_score_gate", self.enum_score_gate)
        distance = self.max_match_distance
        if distance is not None and not (is_number(distance) and distance > 0):
            problems.append(
                f"max_match_distance must be a positive number when set, got {distance!r}"
            )
        if self.unmatched_policy not in UNMATCHED_POLICIES:
            problems.append(
                f"unmatched_policy must be one of {UNMATCHED_POLICIES}, got {self.unmatched_policy!r}"
            )
        raise_problems(problems)


def filter_enumeration(enums: DetectionSet, gate: float) -> DetectionSet:
    """Keep enumeration detections scoring strictly above ``gate``, order-stable."""
    kept = tuple(d for d in enums if d.score > gate)
    return DetectionSet(kept, enums.source, enums.image_universe)


def match_closest_center(
    enums: DetectionSet,
    diags: DetectionSet,
    cfg: IntegrationConfig = IntegrationConfig(),
) -> list[tuple[int, Optional[int]]]:
    """Pair every diagnosis detection with its nearest same-image tooth box.

    Returns one ``(diag_index, enum_index)`` pair per diagnosis detection,
    in input order; ``enum_index`` is ``None`` when the image has no
    enumeration boxes or the nearest one lies beyond
    ``cfg.max_match_distance``.  Ties on distance go to the higher-scoring
    enumeration detection, then to the lower index.  Many-to-one matches
    are allowed.
    """
    enums_by_image: dict[ImageId, list[int]] = {}
    for j, det in enumerate(enums.detections):
        enums_by_image.setdefault(det.image_id, []).append(j)

    # Precompute per-image center arrays once; distance comparisons are done
    # on squared distances, which are exact for integer-valued coordinates.
    centers: dict[ImageId, tuple[np.ndarray, np.ndarray, list[int]]] = {}
    for image_id, idxs in enums_by_image.items():
        ex = np.array([enums.detections[j].box.x + enums.detections[j].box.w / 2.0 for j in idxs])
        ey = np.array([enums.detections[j].box.y + enums.detections[j].box.h / 2.0 for j in idxs])
        centers[image_id] = (ex, ey, idxs)

    out: list[tuple[int, Optional[int]]] = []
    for i, diag in enumerate(diags.detections):
        entry = centers.get(diag.image_id)
        if entry is None:
            out.append((i, None))
            continue
        ex, ey, idxs = entry
        dx = (diag.box.x + diag.box.w / 2.0) - ex
        dy = (diag.box.y + diag.box.h / 2.0) - ey
        d2 = dx * dx + dy * dy
        best = float(d2.min())
        if cfg.max_match_distance is not None and math.sqrt(best) > cfg.max_match_distance:
            out.append((i, None))
            continue
        tied = np.nonzero(d2 == best)[0]
        if len(tied) == 1:
            local = int(tied[0])
        else:
            local = min(tied, key=lambda k: (-enums.detections[idxs[k]].score, idxs[k]))
        out.append((i, idxs[int(local)]))
    return out


def integrate(
    enums: DetectionSet,
    diags: DetectionSet,
    cfg: IntegrationConfig = IntegrationConfig(),
) -> list[Detection]:
    """Gate the enumeration stream, match, and fuse labels and scores.

    Every diagnosis detection must carry a disease label.  Outputs are
    tagged ``fused``.  Matched outputs take the diagnosis box, the
    enumeration detection's quadrant and tooth number, the product of both
    scores, and the tooth's index in ``enums`` as ``matched_enum_id``;
    unmatched ones follow ``cfg.unmatched_policy``.
    """
    gated_pairs = [(j, d) for j, d in enumerate(enums.detections) if d.score > cfg.enum_score_gate]
    gated = DetectionSet(tuple(d for _, d in gated_pairs), enums.source, enums.image_universe)

    for d in diags:
        if d.category.disease is None:
            raise AxisUnavailable(
                f"diagnosis detection on image {d.image_id!r} has no disease label"
            )

    out: list[Detection] = []
    for diag_idx, enum_idx in match_closest_center(gated, diags, cfg):
        diag = diags.detections[diag_idx]
        if enum_idx is None:
            if cfg.unmatched_policy == DROP:
                continue
            out.append(
                Detection(
                    diag.image_id,
                    diag.box,
                    diag.score,
                    CategoryTriple(disease=diag.category.disease),
                    "fused",
                )
            )
            continue
        orig_idx, enum_det = gated_pairs[enum_idx]
        out.append(
            Detection(
                diag.image_id,
                diag.box,
                enum_det.score * diag.score,
                CategoryTriple(
                    quadrant=enum_det.category.quadrant,
                    enumeration=enum_det.category.enumeration,
                    disease=diag.category.disease,
                ),
                "fused",
                orig_idx,
            )
        )
    return out


def as_detection_set(
    integrated: Sequence[Detection],
    source: str = "fused",
    image_universe=None,
) -> DetectionSet:
    """Re-tag integrated detections as one :class:`DetectionSet`, without their links."""
    dets = tuple(Detection(it.image_id, it.box, it.score, it.category, source) for it in integrated)
    return DetectionSet(dets, source, image_universe)


def write_integrated(items: Sequence[Detection], path: PathLike) -> None:
    """Write detections as COCO results records, keeping ``matched_enum_id`` where set."""
    records = detections_to_records(items)
    for rec, it in zip(records, items):
        if it.matched_enum_id is not None:
            rec["matched_enum_id"] = it.matched_enum_id
    _dump_json(records, path)
