"""Core value types: boxes, category triples and detections.

Boxes follow the COCO ``[x, y, w, h]`` convention everywhere: ``(x, y)`` is
the top-left corner in image pixel coordinates and ``w``/``h`` must be
strictly positive.  All types in this module are immutable, so they are
safe to share across threads.  Box IoU is :func:`detfuse.metrics._iou_block`
and clipping to an image is :func:`detfuse.io._clip`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Union

from .errors import ConfigError, raise_problems, setting_problems, shorten

ImageId = Union[int, str]

#: Disease class names, in canonical index order (index 0..3 in data files).
DISEASES = ("caries", "deep-caries", "impacted", "periapical-lesion")

#: Crop classifier label set: the four diseases plus "normal".
CROP_LABELS = ("normal",) + DISEASES

#: Closed set of detection provenance tags.
SOURCES = ("enumeration-model", "diagnosis-A", "diagnosis-B", "complementary", "fused")

_SOURCE_CODE = {name: code for code, name in enumerate(SOURCES)}

#: A number field passes at once if its exact type is in ``_FAST`` and it is finite and in range.
_FAST = frozenset((int, float))
_LOWEST, _FLOAT_MAX = -sys.float_info.max, sys.float_info.max


def source_code(source: str) -> int:
    """The index of a source tag in :data:`SOURCES`; :class:`ConfigError` for an unknown tag."""
    code = _SOURCE_CODE.get(source) if isinstance(source, str) else None
    if code is None:
        raise ConfigError(f"unknown source tag {shorten(source)}; expected one of {SOURCES}")
    return code


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned rectangle, COCO xywh convention, sub-pixel allowed."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        x, y, w, h = self.x, self.y, self.w, self.h
        if not (
            type(x) in _FAST and type(y) in _FAST and type(w) in _FAST and type(h) in _FAST
            and _LOWEST <= x <= _FLOAT_MAX and _LOWEST <= y <= _FLOAT_MAX
            and 0 < w <= _FLOAT_MAX and 0 < h <= _FLOAT_MAX
        ):
            raise_problems(
                setting_problems("box x", x, "(-inf, inf)") + setting_problems("box y", y, "(-inf, inf)")
                + setting_problems("box w", w, "(0, inf)") + setting_problems("box h", h, "(0, inf)")
            )

    def as_xywh(self) -> list[float]:
        return [self.x, self.y, self.w, self.h]


@dataclass(frozen=True, slots=True)
class CategoryTriple:
    """Label along up to three axes: quadrant, tooth enumeration, disease.

    Each axis is independently optional, but at least one must be present.
    Quadrant and enumeration are 1-based (FDI notation digits), the disease
    axis is one of :data:`DISEASES`.
    """

    quadrant: Optional[int] = None
    enumeration: Optional[int] = None
    disease: Optional[str] = None

    def __post_init__(self) -> None:
        quadrant, enumeration, disease = self.quadrant, self.enumeration, self.disease
        if quadrant is None and enumeration is None and disease is None:
            raise ConfigError("category must carry at least one axis")
        known = disease is None or disease in DISEASES
        if not (
            (quadrant is None or type(quadrant) is int and 1 <= quadrant <= 4)
            and (enumeration is None or type(enumeration) is int and 1 <= enumeration <= 8)
            and known
        ):
            raise_problems(
                setting_problems("quadrant", quadrant, "[1, 4]", integer=True, optional=True)
                + setting_problems("enumeration", enumeration, "[1, 8]", integer=True, optional=True)
                + ([] if known else [f"unknown disease {shorten(disease)}"])
            )

    @property
    def fdi(self) -> Optional[int]:
        """Two-digit FDI tooth number, when both position axes are present."""
        if self.quadrant is None or self.enumeration is None:
            return None
        return 10 * self.quadrant + self.enumeration


@dataclass(frozen=True, slots=True)
class Detection:
    """A single detector output: box, confidence and category, with provenance.

    ``matched_enum_id`` is set only on integrated detections: the index of
    the matched tooth in the original enumeration stream.
    """

    image_id: ImageId
    box: BoundingBox
    score: float
    category: CategoryTriple
    source: str
    matched_enum_id: Optional[int] = None

    def __post_init__(self) -> None:
        score, source = self.score, self.source
        if not (type(score) in _FAST and 0.0 <= score <= 1.0):
            raise_problems(setting_problems("score", score, "[0, 1]"))
        if type(source) is not str or source not in _SOURCE_CODE:
            source_code(source)
