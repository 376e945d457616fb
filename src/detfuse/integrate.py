"""Dual-stage integration of enumeration and diagnosis streams.

Each disease detection is attached to the same-image tooth detection whose
box center is nearest (many diseases may share one tooth), inheriting its
quadrant/enumeration label; the combined confidence is the product of the
two scores.  Matching direction is diagnosis -> enumeration so that no
disease finding is ever lost for lack of a tooth.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .detections import Columns, DetectionSet, _category_key, _refuse, _resolve_universe, same_image_blocks
from .errors import AxisUnavailable, choice_problems, raise_problems, setting_problems
from .geometry import source_code
from .io import PathLike
from .results import _write_records

KEEP_WITHOUT_ENUMERATION = "keep-without-enumeration"
DROP = "drop"
UNMATCHED_POLICIES = (KEEP_WITHOUT_ENUMERATION, DROP)


@dataclass(frozen=True, slots=True)
class IntegrationConfig:
    enum_score_gate: float = 0.7
    max_match_distance: Optional[float] = None
    unmatched_policy: str = KEEP_WITHOUT_ENUMERATION

    def __post_init__(self) -> None:
        problems = setting_problems("enum_score_gate", self.enum_score_gate, "[0, 1]")
        problems += setting_problems(
            "max_match_distance", self.max_match_distance, "(0, inf)", optional=True
        )
        problems += choice_problems("unmatched_policy", self.unmatched_policy, UNMATCHED_POLICIES)
        raise_problems(problems)


def _gate(enums: DetectionSet, gate: float) -> np.ndarray:
    """The mask of enumeration detections scoring strictly above ``gate``."""
    return enums.columns.score > gate


def filter_enumeration(enums: DetectionSet, gate: float) -> DetectionSet:
    """Keep enumeration detections scoring strictly above ``gate``, order-stable."""
    raise_problems(setting_problems("gate", gate, "[0, 1]"))
    return enums.take(_gate(enums, gate))


def _closest(enums: Columns, diags: Columns, max_distance: Optional[float]) -> np.ndarray:
    """Per diagnosis row, the enumeration row with the nearest center on its image, or -1.

    Each image's enumeration rows are ordered by descending score, then by
    row, so that the first minimum of the squared center distance is the
    tie rule's pick. Squared distances are exact for integer-valued
    coordinates.
    """
    match = np.full(len(diags.score), -1, np.intp)
    ex = enums.xywh[:, 0] + enums.xywh[:, 2] / 2.0
    ey = enums.xywh[:, 1] + enums.xywh[:, 3] / 2.0
    dx = diags.xywh[:, 0] + diags.xywh[:, 2] / 2.0
    dy = diags.xywh[:, 1] + diags.xywh[:, 3] / 2.0
    blocks = same_image_blocks(enums.image_index(diags.ids), diags.image, -enums.score)
    for e, d in blocks:
        ddx = dx[d, None] - ex[e]
        ddy = dy[d, None] - ey[e]
        d2 = ddx * ddx + ddy * ddy
        best = d2.argmin(axis=1)
        pick = e[best]
        if max_distance is not None:
            pick[np.sqrt(d2[np.arange(len(d)), best]) > max_distance] = -1
        match[d] = pick
    return match


def integrate(
    enums: DetectionSet,
    diags: DetectionSet,
    cfg: IntegrationConfig = IntegrationConfig(),
) -> DetectionSet:
    """Gate the enumeration stream, match, and fuse labels and scores.

    Each diagnosis detection is matched to the gated same-image tooth whose
    box center is nearest, unless that lies beyond
    ``cfg.max_match_distance``; distance ties go to the higher-scoring
    tooth, then to the lower index. Many diagnoses may share one tooth.
    Every diagnosis detection must carry a disease label.  Outputs are
    tagged ``fused`` and follow the diagnosis order over its universe.
    Matched outputs take the diagnosis box, the enumeration detection's
    quadrant and tooth number, the product of both scores, and the
    tooth's index in ``enums`` as ``matched_enum_id``; unmatched ones
    keep the diagnosis score and disease only, and follow
    ``cfg.unmatched_policy``.
    """
    gated = np.flatnonzero(_gate(enums, cfg.enum_score_gate))
    teeth, found = enums.columns, diags.columns
    _refuse(
        found.disease < 0, found.image_id, AxisUnavailable,
        "diagnosis detection on image {} has no disease label",
    )

    match = _closest(teeth.take(gated), found, cfg.max_match_distance)
    matched = match >= 0
    tooth_row = gated[match[matched]]
    score = found.score.copy()
    score[matched] = teeth.score[tooth_row] * found.score[matched]
    quadrant, tooth = np.full((2, len(found.score)), -1)
    quadrant[matched], tooth[matched] = teeth.quadrant[tooth_row], teeth.tooth[tooth_row]
    link = np.full_like(found.link, -1)
    link[matched] = tooth_row
    fused = dataclasses.replace(
        found,
        score=score,
        key=_category_key(quadrant, tooth, found.disease),
        origin=np.full_like(found.origin, source_code("fused")),
        link=link,
    )
    # A row keeps its diagnosis image and box, so their text; a matched row's score is new.
    out = DetectionSet.from_columns(fused, "fused")._share_text(diags, "box")
    return out.take(matched) if cfg.unmatched_policy == DROP else out


def as_detection_set(
    integrated: DetectionSet, source: str = "fused", image_universe=None
) -> DetectionSet:
    """Re-tag integrated detections as one :class:`DetectionSet`, without their links.

    With no ``image_universe`` the set covers the images its detections
    are on; a given one must hold them all. The rows keep the text
    ``integrated`` holds for them.
    """
    cols = integrated.columns
    ids, image = _resolve_universe([cols.ids[k] for k in cols.image.tolist()], image_universe)
    retagged = dataclasses.replace(
        cols,
        ids=ids,
        image=image,
        origin=np.full_like(cols.origin, source_code(source)),
        link=np.full_like(cols.link, -1),
    )
    return DetectionSet.from_columns(retagged, source)._share_text(integrated, "box", "score")


def write_integrated(items: DetectionSet, path: PathLike) -> None:
    """Write detections as COCO results records, keeping ``matched_enum_id`` where set."""
    _write_records(items, path, links=True)
