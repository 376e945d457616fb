"""Evaluator behaviour: worked examples, oracle agreement, invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detfuse import (
    AnnotatedDataset,
    AnnotatedImage,
    AxisUnavailable,
    BoundingBox,
    CategoryTriple,
    ConfigError,
    DanglingReference,
    Detection,
    DetectionSet,
    EvalConfig,
    EvaluationReport,
    GroundTruthAnnotation,
    evaluate,
    naive_oracle_evaluate,
    write_pr_csv,
)
import detfuse.metrics
from detfuse.detections import CATEGORY_KEYS, category_of
from detfuse.metrics import (
    _KEY_CLASSES,
    AXES,
    IOU_THRESHOLDS,
    RECALL_POINTS,
    _iou_block,
    _match_block,
    axis_projection,
)
from detfuse.reference import _match_flags

from conftest import perfect_detections, random_eval_instance

B = BoundingBox
CARIES = CategoryTriple(disease="caries")


def xywh(boxes) -> np.ndarray:
    """The ``(boxes, 4)`` array that ``_iou_block`` reads."""
    return np.array([b.as_xywh() for b in boxes], float).reshape(-1, 4)


def one_image_ds(gt_boxes, disease="caries") -> AnnotatedDataset:
    images = [AnnotatedImage(1, 1000, 1000)]
    annotations = [
        GroundTruthAnnotation(1, box, CategoryTriple(disease=disease)) for box in gt_boxes
    ]
    return AnnotatedDataset(images, annotations)


def det_set(entries, source="fused") -> DetectionSet:
    dets = [
        Detection(1, box, score, CARIES if cat is None else cat, source)
        for box, score, cat in entries
    ]
    return DetectionSet(dets, source, frozenset({1}))


class TestWorkedExamples:
    def test_perfect_single_detection(self):
        ds = one_image_ds([B(10, 10, 50, 50)])
        dets = det_set([(B(10, 10, 50, 50), 0.9, None)])
        report = evaluate(ds, dets, "disease")
        assert report.mean_ap == 1.0
        assert report.ap50 == 1.0
        assert report.ap75 == 1.0
        assert report.ar == 1.0

    def test_high_scoring_fp_halves_ap(self):
        """A false positive outranking the only true positive gives AP 0.5."""
        ds = one_image_ds([B(10, 10, 50, 50)])
        dets = det_set(
            [
                (B(500, 500, 50, 50), 0.9, None),  # FP, ranked first
                (B(10, 10, 50, 50), 0.8, None),  # TP, ranked second
            ]
        )
        report = evaluate(ds, dets, "disease")
        # precision after rank 2 is 1/2 at every recall point
        assert report.ap50 == 0.5
        assert report.mean_ap == 0.5
        assert report.ar == 1.0

    def test_low_scoring_fp_changes_nothing(self):
        ds = one_image_ds([B(10, 10, 50, 50)])
        clean = det_set([(B(10, 10, 50, 50), 0.8, None)])
        noisy = det_set(
            [(B(10, 10, 50, 50), 0.8, None), (B(500, 500, 50, 50), 0.1, None)]
        )
        assert evaluate(ds, clean, "disease") == evaluate(ds, noisy, "disease")

    def test_iou_two_thirds_passes_four_thresholds(self):
        ds = one_image_ds([B(0, 0, 10, 10)])
        dets = det_set([(B(0, 0, 10, 15), 0.9, None)])
        # inter = 100, union = 100 + 150 - 100 = 150: passes 0.50..0.65
        assert _iou_block(xywh([B(0, 0, 10, 10)]), xywh([B(0, 0, 10, 15)]))[0, 0] == pytest.approx(2 / 3)
        report = evaluate(ds, dets, "disease")
        assert report.ar == pytest.approx(4 / 10)

    def test_ar_three_tenths(self):
        ds = one_image_ds([B(0, 0, 10, 10)])
        # 6x10 box inside a 10x10 gt: iou exactly 0.6, passes 0.50/0.55/0.60
        dets = det_set([(B(0, 0, 6, 10), 0.9, None)])
        assert _iou_block(xywh([B(0, 0, 10, 10)]), xywh([B(0, 0, 6, 10)]))[0, 0] == 0.6
        report = evaluate(ds, dets, "disease")
        assert report.ar == pytest.approx(3 / 10)
        assert report.ap50 == 1.0
        assert report.ap75 == 0.0

    def test_missed_gt_caps_recall(self):
        ds = one_image_ds([B(0, 0, 10, 10), B(100, 100, 10, 10)])
        dets = det_set([(B(0, 0, 10, 10), 0.9, None)])
        report = evaluate(ds, dets, "disease")
        assert report.ar == 0.5
        # precision is 1 up to recall 0.5, zero beyond: 51 of 101 points
        assert report.ap50 == pytest.approx(51 / 101)

    def test_classes_absent_from_gt_are_skipped(self):
        ds = one_image_ds([B(0, 0, 10, 10)], disease="caries")
        dets = det_set(
            [
                (B(0, 0, 10, 10), 0.9, None),
                (B(50, 50, 10, 10), 0.8, CategoryTriple(disease="impacted")),
            ]
        )
        report = evaluate(ds, dets, "disease")
        # the impacted detection is not zero-counted as its own class
        assert list(report.per_class) == ["caries"]
        assert report.mean_ap == 1.0

    def test_max_dets_cap(self):
        ds = one_image_ds([B(0, 0, 10, 10), B(100, 0, 10, 10), B(200, 0, 10, 10)])
        dets = det_set(
            [
                (B(0, 0, 10, 10), 0.9, None),
                (B(100, 0, 10, 10), 0.8, None),
                (B(200, 0, 10, 10), 0.7, None),
            ]
        )
        capped = evaluate(ds, dets, "disease", EvalConfig(max_dets=2))
        assert capped.ar == pytest.approx(2 / 3)
        uncapped = evaluate(ds, dets, "disease")
        assert uncapped.ar == 1.0

    def test_equal_scores_keep_input_order(self):
        """Within a group, equal scores rank in input order, before the cap too."""
        ds = one_image_ds([B(10, 10, 50, 50)])
        fp_first = det_set([(B(500, 500, 50, 50), 0.8, None), (B(10, 10, 50, 50), 0.8, None)])
        tp_first = det_set([(B(10, 10, 50, 50), 0.8, None), (B(500, 500, 50, 50), 0.8, None)])
        assert evaluate(ds, fp_first, "disease").ap50 == 0.5
        assert evaluate(ds, tp_first, "disease").ap50 == 1.0
        assert evaluate(ds, fp_first, "disease", EvalConfig(max_dets=1)).ar == 0.0
        assert evaluate(ds, tp_first, "disease", EvalConfig(max_dets=1)).ar == 1.0
        for dets in (fp_first, tp_first):
            for m in (1, 2):
                assert_agrees_with_oracle(ds, dets, "disease", EvalConfig(max_dets=m))

    def test_recall_landing_on_a_recall_point(self):
        """With 4 boxes, one true positive at rank 2 reaches recall 0.25 exactly: point 25
        reads its precision 0.5, and the points past it read 0 (``100 * m >= r * npig``)."""
        ds = one_image_ds([B(100 * i, 0, 10, 10) for i in range(4)])
        dets = det_set([(B(500, 500, 10, 10), 0.9, None), (B(0, 0, 10, 10), 0.8, None)])
        report = evaluate(ds, dets, "disease")
        assert (report.pr_curve[:, :26] == 0.5).all()
        assert (report.pr_curve[:, 26:] == 0.0).all()
        assert report.ap50 == 26 * 0.5 / RECALL_POINTS
        assert report.mean_ap == pytest.approx(report.ap50)
        assert report.ar == 0.25

    def test_duplicate_detections_of_one_gt(self):
        ds = one_image_ds([B(0, 0, 10, 10)])
        dets = det_set([(B(0, 0, 10, 10), 0.9, None), (B(0, 0, 10, 10), 0.8, None)])
        report = evaluate(ds, dets, "disease")
        # second copy cannot re-match the consumed gt box
        assert report.ar == 1.0
        assert report.ap50 == 1.0  # envelope: TP at rank 1 already reaches full recall

    def test_enumeration_axis_product_classes(self, tiny_scene):
        report = evaluate(tiny_scene, perfect_detections(tiny_scene), "enumeration")
        assert report.mean_ap == 1.0
        assert set(report.per_class) == {"13", "15", "42"}

    def test_enumeration_axis_tooth_only(self, tiny_scene):
        cfg = EvalConfig(enumeration_product=False)
        report = evaluate(tiny_scene, perfect_detections(tiny_scene), "enumeration", cfg)
        assert set(report.per_class) == {"2", "3", "5"}

    def test_quadrant_and_agnostic_axes(self, tiny_scene):
        dets = perfect_detections(tiny_scene)
        assert evaluate(tiny_scene, dets, "quadrant").mean_ap == 1.0
        agnostic = evaluate(tiny_scene, dets, "agnostic")
        assert agnostic.mean_ap == 1.0
        assert list(agnostic.per_class) == ["all"]


def match_columns(gt_boxes, det_boxes, iou_t):
    """The evaluator's per-group matching at one threshold; ``None`` for no match."""
    row = _match_block(_iou_block(xywh(det_boxes), xywh(gt_boxes))[None], [iou_t])[0][0]
    return [None if j < 0 else int(j) for j in row]


#: Boxes on a coarse integer grid, so that equal IoUs and duplicate boxes are common.
grid_boxes = st.lists(
    st.builds(
        BoundingBox,
        st.integers(0, 6).map(lambda v: 5 * v),
        st.integers(0, 6).map(lambda v: 5 * v),
        st.integers(1, 5).map(lambda v: 5 * v),
        st.integers(1, 5).map(lambda v: 5 * v),
    ),
    max_size=8,
)


#: Up to 30 detections on 1-3 boxes of a 3 x 3 grid of near-equal boxes:
#: most detections reach the same boxes, so contested chains are deep.
_crowded_box = st.builds(
    BoundingBox,
    st.sampled_from([0, 2, 4]),
    st.sampled_from([0, 2, 4]),
    st.sampled_from([10, 12]),
    st.just(10),
)
crowded_dets = st.lists(_crowded_box, min_size=10, max_size=30)
crowded_gts = st.lists(_crowded_box, min_size=1, max_size=3)


class TestGreedyMatch:
    def test_best_iou_wins(self):
        gts = [B(0, 0, 10, 10), B(2, 0, 10, 10)]
        # iou 1.0 against gt1, 2/3 against gt0
        assert match_columns(gts, [B(2, 0, 10, 10)], 0.5) == [1]

    def test_exact_tie_prefers_earlier_gt(self):
        gts = [B(0, 0, 10, 10), B(2, 0, 10, 10)]
        # the detection overlaps each gt by 9 columns: both ious are 9/11
        assert match_columns(gts, [B(1, 0, 10, 10)], 0.5) == [0]

    def test_consumed_gt_not_rematched(self):
        gts = [B(0, 0, 10, 10)]
        assert match_columns(gts, [B(0, 0, 10, 10), B(0, 0, 10, 10)], 0.5) == [0, None]

    def test_below_threshold_no_match(self):
        gts = [B(0, 0, 10, 10)]
        assert match_columns(gts, [B(5, 0, 10, 10)], 0.5) == [None]  # iou = 1/3

    @given(dets=grid_boxes, gts=grid_boxes)
    def test_all_thresholds_agree_with_the_oracle(self, dets, gts):
        matched = _match_block(_iou_block(xywh(dets), xywh(gts))[None], IOU_THRESHOLDS)[0] >= 0
        assert matched.shape == (len(IOU_THRESHOLDS), len(dets))
        for row, t in zip(matched, IOU_THRESHOLDS):
            assert row.astype(int).tolist() == _match_flags(dets, gts, t)

    @given(groups=st.lists(st.tuples(grid_boxes, grid_boxes), min_size=1, max_size=4))
    def test_padded_groups_agree_with_the_oracle(self, groups):
        """Groups of unequal sizes matched in one zero-padded block."""
        assert_block_agrees_with_oracle(groups)

    @given(groups=st.lists(st.tuples(crowded_dets, crowded_gts), min_size=1, max_size=3))
    def test_crowded_groups_agree_with_the_oracle(self, groups):
        """Many detections on a few boxes, so most are contested after the settling round."""
        assert_block_agrees_with_oracle(groups)

    def test_identical_boxes_agree_with_the_oracle(self):
        """100 detections on 32 copies of their own box. Box 0 is every detection's
        best box, so detections 1-31 take theirs in the stepped remainder."""
        dets, gts = [B(0, 0, 10, 10)] * 100, [B(0, 0, 10, 10)] * 32
        cols = assert_block_agrees_with_oracle([(dets, gts)])
        assert (cols[0, :, :32] == np.arange(32)).all()
        assert (cols[0, :, 32:] == -1).all()

    def test_staircase_agrees_with_the_oracle(self):
        """20 groups of 100 detections that all rank 32 boxes the same way."""
        gts = [B(k, 0, 100, 100) for k in range(32)]  # IoU (100 - k) / (100 + k)
        cols = assert_block_agrees_with_oracle([([B(0, 0, 100, 100)] * 100, gts)] * 20)
        # Box 0 is every detection's best box; detection k > 0 takes box k in
        # the stepped remainder, at the thresholds that box reaches.
        assert (cols[:, :, 1:32].max(axis=1) == np.arange(1, 32)).all()


def padded(box_lists) -> np.ndarray:
    """The ``(groups, boxes, 4)`` block of ``box_lists``, zero-padded."""
    block = np.zeros((len(box_lists), max(map(len, box_lists)), 4))
    for k, boxes in enumerate(box_lists):
        block[k, : len(boxes)] = np.reshape([b.as_xywh() for b in boxes], (-1, 4))
    return block


def assert_block_agrees_with_oracle(groups) -> np.ndarray:
    """Match ``(detections, ground truth)`` box-list groups in one block, check
    every group at every threshold against the oracle, and return the block's columns."""
    dets, gts = ([group[side] for group in groups] for side in (0, 1))
    cols = _match_block(_iou_block(padded(dets), padded(gts)), IOU_THRESHOLDS)
    oracle = {}
    for k, (d, g) in enumerate(groups):
        assert (cols[k, :, len(d) :] == -1).all()  # padded rows never match
        assert (cols[k] < len(g)).all()  # nor do padded columns
        if (id(d), id(g)) not in oracle:  # groups that share their box lists share one run
            oracle[id(d), id(g)] = [_match_flags(d, g, t) for t in IOU_THRESHOLDS]
        flags = (cols[k, :, : len(d)] >= 0).astype(int).tolist()
        assert flags == oracle[id(d), id(g)]
    return cols


class TestErrors:
    def test_unknown_axis(self, tiny_scene):
        with pytest.raises(ValueError):
            evaluate(tiny_scene, perfect_detections(tiny_scene), "color")
        with pytest.raises(ConfigError, match="color"):
            evaluate(tiny_scene, perfect_detections(tiny_scene), "color")

    def test_dangling_detection_image(self, tiny_scene):
        det = Detection(99, B(0, 0, 5, 5), 0.5, CARIES, "fused")
        with pytest.raises(DanglingReference):
            evaluate(tiny_scene, DetectionSet([det], "fused"), "disease")

    def test_axis_unavailable_in_gt(self):
        images = [AnnotatedImage(1, 100, 100)]
        from detfuse import GroundTruthAnnotation

        anns = [GroundTruthAnnotation(1, B(0, 0, 10, 10), CategoryTriple(quadrant=1))]
        ds = AnnotatedDataset(images, anns)
        dets = det_set([(B(0, 0, 10, 10), 0.9, None)])
        with pytest.raises(AxisUnavailable):
            evaluate(ds, dets, "disease")

    def test_axis_unavailable_in_detections(self, tiny_scene):
        det = Detection(1, B(0, 0, 5, 5), 0.5, CategoryTriple(quadrant=1), "fused")
        with pytest.raises(AxisUnavailable):
            evaluate(tiny_scene, DetectionSet([det], "fused"), "disease")

    def test_empty_detections_allowed(self, tiny_scene):
        report = evaluate(tiny_scene, DetectionSet([], "fused", frozenset({1, 2})), "disease")
        assert report.mean_ap == 0.0
        assert report.ar == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(max_dets=0)

    def test_protocol_is_pinned(self):
        assert EvalConfig().iou_thresholds == IOU_THRESHOLDS == (
            0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95
        )
        assert EvalConfig().recall_points == RECALL_POINTS == 101
        with pytest.raises(TypeError):
            EvalConfig(iou_thresholds=(0.3,))
        with pytest.raises(TypeError):
            EvalConfig(recall_points=11)

    @pytest.mark.parametrize("max_dets", [1.5, True, "100", 0, pytest.param("9" * 5000, id="long-string")])
    def test_max_dets_must_be_a_positive_integer(self, max_dets):
        with pytest.raises(ConfigError, match="max_dets") as exc_info:
            EvalConfig(max_dets=max_dets)
        assert len(str(exc_info.value)) <= 200  # a long value is echoed in short

    def test_report_invariant(self):
        with pytest.raises(ValueError):
            EvaluationReport("disease", mean_ap=0.9, ap50=0.5, ap75=0.5, ar=0.5)
        with pytest.raises(ValueError):
            EvaluationReport("disease", mean_ap=1.2, ap50=1.3, ap75=0.5, ar=0.5)


class TestOracleAgreement:
    @pytest.mark.parametrize("axis", ["quadrant", "enumeration", "disease", "agnostic"])
    def test_oracle_matches_on_fuzzed_instances(self, axis):
        rng = np.random.default_rng(hash(axis) % 2**32)
        for _ in range(25):
            ds, dets = random_eval_instance(rng, max_images=4, max_boxes=14)
            fast = evaluate(ds, dets, axis)
            slow = naive_oracle_evaluate(ds, dets, axis)
            assert abs(fast.mean_ap - slow.mean_ap) < 1e-12
            assert abs(fast.ap50 - slow.ap50) < 1e-12
            assert abs(fast.ap75 - slow.ap75) < 1e-12
            assert abs(fast.ar - slow.ar) < 1e-12
            assert fast.per_class.keys() == slow.per_class.keys()
            for cls in fast.per_class:
                assert abs(fast.per_class[cls][0] - slow.per_class[cls][0]) < 1e-12
                assert abs(fast.per_class[cls][1] - slow.per_class[cls][1]) < 1e-12

    def test_oracle_matches_with_small_max_dets(self):
        """Every axis under the cap, compared class by class."""
        configs = [(axis, EvalConfig(max_dets=m)) for axis in AXES for m in (1, 3)]
        configs += [
            ("enumeration", EvalConfig(max_dets=m, enumeration_product=False)) for m in (1, 3)
        ]
        rng = np.random.default_rng(99)
        for _ in range(20):
            ds, dets = random_eval_instance(rng, max_images=3, max_boxes=12)
            for axis, cfg in configs:
                assert_agrees_with_oracle(ds, dets, axis, cfg)

    def test_oracle_matches_with_string_ids_and_unlabelled_images(self):
        """Image ids are strings; some groups have detections but no ground truth."""
        images = [AnnotatedImage(name, 200, 200) for name in ("b", "a", "c")]
        anns = [
            GroundTruthAnnotation("a", B(0, 0, 20, 20), CategoryTriple(1, 1, "caries")),
            GroundTruthAnnotation("a", B(50, 0, 20, 20), CategoryTriple(1, 2, "impacted")),
            GroundTruthAnnotation("b", B(0, 0, 20, 20), CategoryTriple(2, 1, "caries")),
        ]
        ds = AnnotatedDataset(images, anns)
        entries = [
            ("a", B(0, 0, 20, 20), 0.6, CategoryTriple(1, 1, "caries")),
            ("a", B(50, 0, 20, 22), 0.9, CategoryTriple(1, 2, "impacted")),
            ("b", B(50, 0, 20, 20), 0.95, CategoryTriple(2, 2, "impacted")),  # no gt class on b
            ("b", B(1, 0, 20, 20), 0.7, CategoryTriple(2, 1, "caries")),
            ("c", B(0, 0, 20, 20), 0.8, CategoryTriple(3, 1, "caries")),  # no gt on c
        ]
        dets = DetectionSet(
            [Detection(i, box, score, cat, "fused") for i, box, score, cat in entries], "fused"
        )
        for axis in AXES:
            for m in (1, 3):
                assert_agrees_with_oracle(ds, dets, axis, EvalConfig(max_dets=m))
        # The unmatched impacted detection on "b" outranks the true positive on
        # "a" (IoU 10/11, so it misses the 0.95 threshold only): AP 0.5 at nine
        # thresholds, 0 at the last.
        report = evaluate(ds, dets, "disease")
        assert report.per_class["impacted"] == pytest.approx((0.45, 0.9))


    @pytest.mark.parametrize(
        "image_id,axis,error",
        [(1, "color", ConfigError), ("x" * 5000, "disease", DanglingReference)],
        ids=["unknown-axis", "unknown-long-image"],
    )
    def test_oracle_refuses_as_evaluate_does(self, image_id, axis, error):
        """The same error and message, the image id echoed in short."""
        ds = AnnotatedDataset(
            [AnnotatedImage(1, 50, 50)], [GroundTruthAnnotation(1, B(0, 0, 5, 5), CARIES)]
        )
        dets = DetectionSet([Detection(image_id, B(0, 0, 5, 5), 0.5, CARIES, "fused")], "fused")
        messages = []
        for evaluator in (evaluate, naive_oracle_evaluate):
            with pytest.raises(error) as raised:
                evaluator(ds, dets, axis)
            assert type(raised.value) is error
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        assert len(messages[0]) <= 300


def assert_agrees_with_oracle(ds, dets, axis, cfg):
    fast = evaluate(ds, dets, axis, cfg)
    slow = naive_oracle_evaluate(ds, dets, axis, cfg)
    where = f"{axis}, {cfg}"
    for name in ("mean_ap", "ap50", "ap75", "ar"):
        assert abs(getattr(fast, name) - getattr(slow, name)) < 1e-12, (where, name)
    assert fast.per_class.keys() == slow.per_class.keys(), where
    for cls, (ap, ar) in fast.per_class.items():
        assert abs(ap - slow.per_class[cls][0]) < 1e-12, (where, cls)
        assert abs(ar - slow.per_class[cls][1]) < 1e-12, (where, cls)


class TestInvariants:
    def test_input_order_irrelevant_for_distinct_scores(self):
        rng = np.random.default_rng(17)
        ds, dets = random_eval_instance(rng, max_images=3, max_boxes=10)
        # force strictly distinct scores, keeping order-independent ranking
        spaced = [
            Detection(d.image_id, d.box, (i + 1) / (len(dets) + 1), d.category, d.source)
            for i, d in enumerate(dets)
        ]
        forward = DetectionSet(spaced, "fused", dets.image_universe)
        backward = DetectionSet(list(reversed(spaced)), "fused", dets.image_universe)
        assert evaluate(ds, forward, "disease") == evaluate(ds, backward, "disease")

    def test_score_scaling_invariance(self):
        rng = np.random.default_rng(23)
        ds, dets = random_eval_instance(rng, max_images=3, max_boxes=12)
        halved = DetectionSet(
            [
                Detection(d.image_id, d.box, d.score / 2, d.category, d.source)
                for d in dets
            ],
            "fused",
            dets.image_universe,
        )
        assert evaluate(ds, dets, "disease") == evaluate(ds, halved, "disease")

    def test_map_bounded_by_ap50(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            ds, dets = random_eval_instance(rng, max_images=3, max_boxes=12)
            report = evaluate(ds, dets, "disease")
            assert report.mean_ap <= report.ap50 + 1e-9
            assert report.ap75 <= report.ap50 + 1e-9
            assert 0.0 <= report.mean_ap <= 1.0
            assert 0.0 <= report.ar <= 1.0

    @pytest.mark.parametrize("cells", [1, 40])
    def test_block_size_changes_nothing(self, monkeypatch, cells):
        """Splitting the groups into more, smaller padded blocks gives the same reports."""
        rng = np.random.default_rng(53)
        cases = [random_eval_instance(rng, max_images=4, max_boxes=14) for _ in range(10)]
        whole = [evaluate(ds, dets, axis) for ds, dets in cases for axis in AXES]
        monkeypatch.setattr(detfuse.metrics, "_BLOCK_CELLS", cells)
        assert [evaluate(ds, dets, axis) for ds, dets in cases for axis in AXES] == whole

    def test_appending_weakest_fps_changes_nothing(self):
        rng = np.random.default_rng(41)
        ds, dets = random_eval_instance(rng, max_images=3, max_boxes=10)
        lowest = min((d.score for d in dets), default=1.0)
        extra = [
            Detection(1, B(900, 900, 10, 10), lowest * 0.25, CARIES, "fused")
            for _ in range(4)
        ]
        widened = DetectionSet(list(dets) + extra, "fused", dets.image_universe)
        base = evaluate(ds, dets, "disease")
        noisy = evaluate(ds, widened, "disease")
        assert base.mean_ap == noisy.mean_ap
        assert base.ar == noisy.ar


#: Widths of a detection on a 10x10 ground-truth box, and the IoU each gives: 1, 0.909,
#: 0.769, 0.667, 0.556 and 0.333, each clear of every threshold.
WIDTHS = (10, 11, 13, 15, 18, 30)
#: The 32 enumeration classes as (quadrant, tooth) pairs.
FDI = [(q, t) for q in range(1, 5) for t in range(1, 9)]


@st.composite
def enumeration_scenes(draw):
    """A scene on the 32-class enumeration axis whose matching is known without an IoU search.

    Ground-truth boxes are 10x10 and 40 apart, so a detection widened on one box overlaps
    that box alone; false positives lie below every box. Each class with ground truth gets
    no detections, false positives only or a mix; one class may have detections alone.
    Returns the dataset, the detections and, per detection, its image, class, score, target
    box index within its class (or None) and IoU.
    """
    n_images = draw(st.integers(1, 3))
    classes = draw(st.lists(st.sampled_from(FDI), min_size=1, max_size=4, unique=True))
    npig = {c: draw(st.sampled_from([3, 4, 7, 25])) for c in classes}
    gt = {c: [draw(st.integers(0, n_images - 1)) for _ in range(npig[c])] for c in classes}
    images = [AnnotatedImage(i + 1, 2000, 2000) for i in range(n_images)]
    slot = [0] * n_images  # the next free grid slot of each image
    boxes = {c: [] for c in classes}
    annotations = []
    for c in classes:
        for image in gt[c]:
            k, slot[image] = slot[image], slot[image] + 1
            boxes[c].append(B(40 * (k % 40), 40 * (k // 40), 10, 10))
            annotations.append(
                GroundTruthAnnotation(image + 1, boxes[c][-1], CategoryTriple(*c, "caries"))
            )
    ds = AnnotatedDataset(images, annotations)

    modes = {c: draw(st.sampled_from(["none", "fp-only", "mixed"])) for c in classes}
    det_classes = [c for c in classes if modes[c] != "none"]
    extra = draw(st.sampled_from([c for c in FDI if c not in classes]))
    if draw(st.booleans()):
        det_classes.append(extra)  # detections on a class with no ground truth
    rows = []
    for c in det_classes:
        for _ in range(draw(st.integers(1, 12))):
            score = draw(st.integers(0, 10)) / 10  # a coarse grid, so that scores tie
            if modes.get(c) == "mixed" and draw(st.booleans()):
                target = draw(st.integers(0, npig[c] - 1))
                width = draw(st.sampled_from(WIDTHS))
                box = boxes[c][target]
                rows.append((gt[c][target], c, score, target, 10 / width,
                             B(box.x, box.y, width, 10)))
            else:
                image = draw(st.integers(0, n_images - 1))
                x = draw(st.integers(0, 190)) * 10
                rows.append((image, c, score, None, 0.0, B(x, 1900, 10, 10)))
    rows = draw(st.permutations(rows))
    dets = DetectionSet(
        [Detection(image + 1, box, score, CategoryTriple(*c, "caries"), "fused")
         for image, c, score, _, _, box in rows],
        "fused",
        frozenset(ds.image_ids()),
    )
    return ds, dets, npig, rows


def naive_pr_curve(npig, rows, max_dets):
    """The class mean of each class's enveloped precision, found rank by rank."""
    curves = []
    for c in sorted(npig):
        ranked = sorted(
            (i for i, row in enumerate(rows) if row[1] == c), key=lambda i: -rows[i][2]
        )
        kept = [i for n, i in enumerate(ranked)
                if sum(rows[k][0] == rows[i][0] for k in ranked[:n]) < max_dets]
        curve = []
        for t in IOU_THRESHOLDS:
            taken, flags = set(), []
            for i in kept:
                image, _, _, target, iou, _ = rows[i]
                hit = target is not None and iou >= t and (image, target) not in taken
                taken |= {(image, target)} if hit else set()
                flags.append(hit)
            tp = np.cumsum(flags)
            precision = [tp[n] / (n + 1) for n in range(len(kept))]
            points = []
            for r in range(RECALL_POINTS):
                first = next((n for n in range(len(kept)) if tp[n] / npig[c] >= r / 100), None)
                points.append(0.0 if first is None else max(precision[first:]))
            curve.append(points)
        curves.append(curve)
    return np.mean(curves, axis=0)


class TestPrCurve:
    @settings(max_examples=150, deadline=None)
    @given(scene=enumeration_scenes(), max_dets=st.integers(1, 3))
    def test_matches_a_naive_envelope(self, scene, max_dets):
        ds, dets, npig, rows = scene
        report = evaluate(ds, dets, "enumeration", EvalConfig(max_dets=max_dets))
        assert list(report.per_class) == [f"{q}{t}" for q, t in sorted(npig)]
        np.testing.assert_allclose(report.pr_curve, naive_pr_curve(npig, rows, max_dets),
                                   rtol=0, atol=1e-12)


class TestHelpers:
    def test_key_classes_are_the_axis_projection(self):
        for axis in AXES:
            for product in (True, False):
                table = _KEY_CLASSES[axis, product]
                project = axis_projection(axis, product)
                assert len(table) == CATEGORY_KEYS
                assert table[0] is None  # key 0 carries no axis
                for k in range(1, CATEGORY_KEYS):
                    assert table[k] == project(category_of(k)), (axis, product, k)


    def test_pr_csv(self, tmp_path, tiny_scene):
        report = evaluate(tiny_scene, perfect_detections(tiny_scene), "disease")
        assert report.pr_curve.shape == (len(IOU_THRESHOLDS), RECALL_POINTS)
        path = tmp_path / "pr.csv"
        write_pr_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "recall,precision,iou_threshold"
        assert len(lines) == 1 + 10 * 101
        first = lines[1].split(",")
        assert first[0] == "0.00"
        assert float(first[1]) == 1.0
        assert float(first[2]) == 0.5

    def test_pr_csv_failed_write_keeps_previous_file(self, tmp_path, tiny_scene):
        report = evaluate(tiny_scene, perfect_detections(tiny_scene), "disease")
        path = tmp_path / "pr.csv"
        write_pr_csv(report, path)
        before = path.read_bytes()

        class Unprintable:
            def __repr__(self):
                raise ValueError("cannot print")

        # a precision that cannot be written makes the write fail after five rows
        report.pr_curve = report.pr_curve.astype(object)
        report.pr_curve[0, 5] = Unprintable()
        with pytest.raises(ValueError, match="cannot print"):
            write_pr_csv(report, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["pr.csv"]

    def test_pr_csv_requires_curves(self, tiny_scene):
        """Only evaluate builds a curve: the oracle's report, like one built by hand, has none."""
        report = naive_oracle_evaluate(tiny_scene, perfect_detections(tiny_scene), "disease")
        with pytest.raises(ConfigError, match="the disease report carries no PR curve"):
            write_pr_csv(report, "/tmp/nope.csv")

    def test_reports_compare_by_their_numbers(self, tiny_scene):
        """The curve is left out of equality, repr and the JSON form."""
        dets = perfect_detections(tiny_scene)
        report = evaluate(tiny_scene, dets, "disease")
        oracle = naive_oracle_evaluate(tiny_scene, dets, "disease")
        assert report == oracle and repr(report) == repr(oracle)
        assert report.as_dict() == oracle.as_dict()

    def test_report_as_dict(self, tiny_scene):
        report = evaluate(tiny_scene, perfect_detections(tiny_scene), "disease")
        payload = report.as_dict()
        assert payload["axis"] == "disease"
        assert payload["mAP"] == 1.0
        assert payload["per_class"]["caries"]["AP"] == 1.0
