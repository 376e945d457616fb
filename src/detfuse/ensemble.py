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

import numpy as np

from .detections import DetectionSet
from .errors import UniverseMismatch, choice_problems, raise_problems, setting_problems

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class EnsembleConfig:
    """The score threshold splitting the two streams."""

    tau: float = 0.05

    def __post_init__(self) -> None:
        raise_problems(setting_problems("tau", self.tau, "[0, 1]"))


def threshold_ensemble(
    primary: DetectionSet,
    secondary: DetectionSet,
    cfg: EnsembleConfig = EnsembleConfig(),
    *,
    allow_union: bool = False,
) -> DetectionSet:
    """Combine two streams by score threshold.

    Output detections are exactly ``{d in primary : score >= tau}`` followed
    by ``{d in secondary : score < tau}``, unchanged, over the union of the
    two universes; the resulting set is tagged ``fused`` and each row keeps
    its stream as its source.

    Raises:
        UniverseMismatch: the streams cover different image id sets and
            ``allow_union`` is not set.
    """
    raise_problems(choice_problems("allow_union", allow_union, bool))
    if primary.image_universe != secondary.image_universe:
        if not allow_union:
            raise UniverseMismatch(
                "primary and secondary streams cover different image sets "
                f"({len(primary.image_universe)} vs {len(secondary.image_universe)} ids); "
                "allow the union (--allow-union) to fuse them anyway"
            )
        logger.warning(
            "image universes differ (%d vs %d ids); proceeding with their union",
            len(primary.image_universe),
            len(secondary.image_universe),
        )
    # Every column set pays the column rule, so the streams are joined once and taken from once.
    rows = np.concatenate([primary.columns.score >= cfg.tau, secondary.columns.score < cfg.tau])
    return DetectionSet.concat([primary, secondary], "fused").take(rows)
