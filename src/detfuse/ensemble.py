"""Score-threshold ensembling of two detector streams.

The rule is a pure partition of the score axis: the primary stream keeps
every detection scoring at or above the threshold, the secondary stream
contributes only detections scoring strictly below it.  Nothing is
rescaled, deduplicated or re-boxed; overlap resolution is deferred to the
evaluator's matching.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

from .errors import UniverseMismatch, fraction_problem, raise_problems
from .io import DetectionSet

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class EnsembleConfig:
    """Threshold and expected provenance for the two streams.

    ``primary_source``/``secondary_source``, when set, assert which tag
    each input set must carry; ``None`` skips the check.
    """

    tau: float = 0.05
    primary_source: Optional[str] = None
    secondary_source: Optional[str] = None

    def __post_init__(self) -> None:
        raise_problems(fraction_problem("tau", self.tau))


def threshold_ensemble(
    primary: DetectionSet,
    secondary: DetectionSet,
    cfg: EnsembleConfig = EnsembleConfig(),
    *,
    allow_union: bool = False,
) -> DetectionSet:
    """Combine two streams by score threshold.

    Output detections are exactly ``{d in primary : score >= tau}`` followed
    by ``{d in secondary : score < tau}``, unchanged; the resulting set is
    tagged ``fused``.

    Raises:
        UniverseMismatch: the streams cover different image id sets and
            ``allow_union`` is not set.
    """
    if cfg.primary_source is not None and primary.source != cfg.primary_source:
        raise ValueError(
            f"primary stream is tagged {primary.source!r}, expected {cfg.primary_source!r}"
        )
    if cfg.secondary_source is not None and secondary.source != cfg.secondary_source:
        raise ValueError(
            f"secondary stream is tagged {secondary.source!r}, expected {cfg.secondary_source!r}"
        )

    if primary.image_universe != secondary.image_universe:
        if not allow_union:
            raise UniverseMismatch(
                "primary and secondary streams cover different image sets "
                f"({len(primary.image_universe)} vs {len(secondary.image_universe)} ids)"
            )
        logger.warning(
            "image universes differ (%d vs %d ids); proceeding with their union",
            len(primary.image_universe),
            len(secondary.image_universe),
        )
    universe = primary.image_universe | secondary.image_universe

    kept = [d for d in primary if d.score >= cfg.tau]
    kept.extend(d for d in secondary if d.score < cfg.tau)
    return DetectionSet(tuple(kept), "fused", universe)
