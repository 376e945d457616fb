"""Threshold-ensemble rule: partition semantics and provenance."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from detfuse import (
    BoundingBox,
    CategoryTriple,
    Detection,
    DetectionSet,
    EnsembleConfig,
    UniverseMismatch,
    threshold_ensemble,
)

BOX = BoundingBox(10, 10, 20, 20)
CAT = CategoryTriple(disease="caries")


def det(score: float, source: str, image_id: int = 1) -> Detection:
    return Detection(image_id, BOX, score, CAT, source)


def stream(scores, source, universe=frozenset({1})) -> DetectionSet:
    return DetectionSet([det(s, source) for s in scores], source, universe)


class TestPartition:
    def test_threshold_is_inclusive_for_primary(self):
        primary = stream([0.05, 0.049, 0.9], "diagnosis-A")
        secondary = stream([0.05, 0.049, 0.9], "diagnosis-B")
        fused = threshold_ensemble(primary, secondary, EnsembleConfig(tau=0.05))
        scores = [(d.score, d.source) for d in fused]
        # primary keeps >= tau (boundary included), secondary contributes < tau
        assert scores == [(0.05, "diagnosis-A"), (0.9, "diagnosis-A"), (0.049, "diagnosis-B")]

    def test_original_objects_pass_through_unchanged(self):
        primary = stream([0.5], "diagnosis-A")
        secondary = stream([0.01], "diagnosis-B")
        fused = threshold_ensemble(primary, secondary)
        assert fused.detections[0] is primary.detections[0]
        assert fused.detections[1] is secondary.detections[0]
        assert fused.detections[0].source == "diagnosis-A"  # provenance kept per det

    def test_output_tagged_fused(self):
        fused = threshold_ensemble(stream([0.5], "diagnosis-A"), stream([0.01], "diagnosis-B"))
        assert fused.source == "fused"

    def test_no_deduplication(self):
        # identical box+category in both streams on either side of tau: both kept
        primary = stream([0.9], "diagnosis-A")
        secondary = stream([0.01], "diagnosis-B")
        fused = threshold_ensemble(primary, secondary)
        assert len(fused) == 2
        assert fused.detections[0].box == fused.detections[1].box

    def test_tau_zero_and_one(self):
        primary = stream([0.0, 1.0], "diagnosis-A")
        secondary = stream([0.0, 0.999], "diagnosis-B")
        all_primary = threshold_ensemble(primary, secondary, EnsembleConfig(tau=0.0))
        assert [d.source for d in all_primary] == ["diagnosis-A", "diagnosis-A"]
        at_one = threshold_ensemble(primary, secondary, EnsembleConfig(tau=1.0))
        assert [(d.score, d.source) for d in at_one] == [
            (1.0, "diagnosis-A"),
            (0.0, "diagnosis-B"),
            (0.999, "diagnosis-B"),
        ]

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            EnsembleConfig(tau=1.5)
        with pytest.raises(ValueError):
            EnsembleConfig(tau=-0.2)


class TestUniverses:
    def test_mismatch_raises(self):
        primary = stream([0.5], "diagnosis-A", frozenset({1, 2}))
        secondary = stream([0.01], "diagnosis-B", frozenset({1, 3}))
        with pytest.raises(UniverseMismatch):
            threshold_ensemble(primary, secondary)

    def test_allow_union(self, caplog):
        primary = stream([0.5], "diagnosis-A", frozenset({1, 2}))
        secondary = stream([0.01], "diagnosis-B", frozenset({1, 3}))
        with caplog.at_level("WARNING"):
            fused = threshold_ensemble(primary, secondary, allow_union=True)
        assert fused.image_universe == frozenset({1, 2, 3})
        assert any("union" in r.message for r in caplog.records)


scores_strategy = st.lists(
    st.integers(min_value=0, max_value=100).map(lambda v: v / 100), max_size=30
)


class TestPartitionProperties:
    @given(scores_strategy, scores_strategy, st.integers(0, 20))
    def test_exact_partition(self, primary_scores, secondary_scores, tau_step):
        tau = tau_step / 20
        primary = stream(primary_scores, "diagnosis-A")
        secondary = stream(secondary_scores, "diagnosis-B")
        fused = threshold_ensemble(primary, secondary, EnsembleConfig(tau=tau))
        from_primary = [d for d in fused if d.source == "diagnosis-A"]
        from_secondary = [d for d in fused if d.source == "diagnosis-B"]
        assert [d.score for d in from_primary] == [s for s in primary_scores if s >= tau]
        assert [d.score for d in from_secondary] == [s for s in secondary_scores if s < tau]
        assert len(fused) == len(from_primary) + len(from_secondary)
        assert all(d.score >= tau for d in from_primary)
        assert all(d.score < tau for d in from_secondary)

    @given(scores_strategy, scores_strategy)
    def test_monotone_in_tau(self, primary_scores, secondary_scores):
        """Over a 21-point sweep the primary share shrinks, secondary grows."""
        primary = stream(primary_scores, "diagnosis-A")
        secondary = stream(secondary_scores, "diagnosis-B")
        n_primary, n_secondary = [], []
        for step in range(21):
            fused = threshold_ensemble(primary, secondary, EnsembleConfig(tau=step / 20))
            n_primary.append(sum(1 for d in fused if d.source == "diagnosis-A"))
            n_secondary.append(sum(1 for d in fused if d.source == "diagnosis-B"))
        assert all(a >= b for a, b in zip(n_primary, n_primary[1:]))
        assert all(a <= b for a, b in zip(n_secondary, n_secondary[1:]))
        # the sweep endpoints are the whole primary and whole secondary stream
        assert n_primary[0] == len(primary_scores) and n_secondary[0] == 0
