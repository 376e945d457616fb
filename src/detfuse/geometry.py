"""Core value types: boxes, category triples and detections.

Boxes follow the COCO ``[x, y, w, h]`` convention everywhere: ``(x, y)`` is
the top-left corner in image pixel coordinates and ``w``/``h`` must be
strictly positive.  All types in this module are immutable, so they are
safe to share across threads.  Box IoU is :func:`detfuse.metrics._iou_block`
and clipping to an image is :func:`detfuse.io._clip`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from .errors import ConfigError, shorten

ImageId = Union[int, str]

#: Disease class names, in canonical index order (index 0..3 in data files).
DISEASES = ("caries", "deep-caries", "impacted", "periapical-lesion")

#: Crop classifier label set: the four diseases plus "normal".
CROP_LABELS = ("normal",) + DISEASES

#: Closed set of detection provenance tags.
SOURCES = ("enumeration-model", "diagnosis-A", "diagnosis-B", "complementary", "fused")


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned rectangle, COCO xywh convention, sub-pixel allowed."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "w", "h"):
            v = getattr(self, name)
            try:
                finite = math.isfinite(v)
            except (TypeError, OverflowError):  # no number, or an int too large for a float
                finite = False
            if not finite:
                raise ConfigError(f"box field {name!r} must be finite, got {shorten(v)}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box must have positive extent, got w={self.w}, h={self.h}")

    @property
    def area(self) -> float:
        return self.w * self.h

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
        if self.quadrant is None and self.enumeration is None and self.disease is None:
            raise ValueError("category must carry at least one axis")
        if self.quadrant is not None and self.quadrant not in (1, 2, 3, 4):
            raise ValueError(f"quadrant must be in 1..4, got {self.quadrant!r}")
        if self.enumeration is not None and self.enumeration not in range(1, 9):
            raise ValueError(f"enumeration must be in 1..8, got {self.enumeration!r}")
        if self.disease is not None and self.disease not in DISEASES:
            raise ValueError(f"unknown disease {self.disease!r}")

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
        try:
            valid = 0.0 <= self.score <= 1.0
        except TypeError:
            valid = False
        if not valid:
            raise ConfigError(f"score must be in [0, 1], got {shorten(self.score)}")
        if self.source not in SOURCES:
            raise ValueError(f"unknown source tag {self.source!r}")
