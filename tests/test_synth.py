"""Scene generator and detector simulator behaviour."""

from __future__ import annotations

import dataclasses
import json

import pytest

from detfuse import (
    BUILTIN_PROFILES,
    DISEASES,
    ConfigError,
    DetectorProfile,
    ScenePlan,
    evaluate,
    generate_scene,
    load_profile,
    simulate_detector,
    subset_dataset,
)

ALL_DISEASED = {d: 0.25 for d in DISEASES}


class TestGenerateScene:
    def test_layout_full_dentition(self):
        ds = generate_scene(ScenePlan(num_images=3, seed=7))
        assert [img.image_id for img in ds.images] == [1, 2, 3]
        assert ds.images[0].file_name == "synthetic_0001.png"
        assert len(ds.annotations) == 3 * 32
        per_image = {img.image_id: set() for img in ds.images}
        for ann in ds.annotations:
            per_image[ann.image_id].add((ann.category.quadrant, ann.category.enumeration))
            assert ann.category.disease is None  # no prior configured
        full = {(q, t) for q in (1, 2, 3, 4) for t in range(1, 9)}
        assert all(teeth == full for teeth in per_image.values())

    def test_boxes_stay_inside_image(self):
        ds = generate_scene(ScenePlan(num_images=5, seed=3))
        extent = {img.image_id: (img.width, img.height) for img in ds.images}
        for ann in ds.annotations:
            b = ann.box
            width, height = extent[ann.image_id]
            assert b.x >= 0 and b.y >= 0
            assert b.x + b.w <= width
            assert b.y + b.h <= height

    def test_missing_rate_removes_teeth(self):
        full = generate_scene(ScenePlan(num_images=20, seed=1))
        sparse = generate_scene(ScenePlan(num_images=20, missing_rate=0.5, seed=1))
        assert len(sparse.annotations) < len(full.annotations)
        assert len(sparse.annotations) > 0

    def test_disease_prior_marks_teeth(self):
        ds = generate_scene(ScenePlan(num_images=4, disease_prior={"caries": 1.0}, seed=2))
        assert all(ann.category.disease == "caries" for ann in ds.annotations)

    def test_prior_mapping_is_normalised(self):
        plan = ScenePlan(disease_prior={"impacted": 0.2, "caries": 0.1})
        assert list(plan.disease_prior.items()) == [("caries", 0.1), ("impacted", 0.2)]
        with pytest.raises(TypeError):
            plan.disease_prior["caries"] = 0.5

    def test_replaced_plan_equals_the_plan_built_directly(self):
        """Replacing a field raised ConfigError while the prior was held as pairs."""
        prior = {"impacted": 0.2, "caries": 0.1}
        replaced = dataclasses.replace(ScenePlan(disease_prior=prior), seed=2)
        direct = ScenePlan(disease_prior=prior, seed=2)
        assert replaced == direct and hash(replaced) == hash(direct)
        assert list(replaced.disease_prior.items()) == list(direct.disease_prior.items())
        assert generate_scene(dataclasses.replace(direct, num_images=2)) == generate_scene(
            ScenePlan(num_images=2, disease_prior=prior, seed=2)
        )

    def test_mixed_prior_leaves_healthy_teeth(self):
        ds = generate_scene(ScenePlan(num_images=10, disease_prior={"caries": 0.3}, seed=5))
        diseases = {ann.category.disease for ann in ds.annotations}
        assert diseases == {None, "caries"}

    def test_deterministic(self):
        plan = ScenePlan(num_images=6, missing_rate=0.2, disease_prior=ALL_DISEASED, seed=11)
        assert generate_scene(plan) == generate_scene(plan)

    def test_seed_changes_layout(self):
        a = generate_scene(ScenePlan(num_images=2, seed=0))
        b = generate_scene(ScenePlan(num_images=2, seed=1))
        assert a != b

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_images": 0},
            {"num_images": True},
            {"seed": "3"},
            {"missing_rate": 1.0},
            {"missing_rate": -0.1},
            {"missing_rate": float("inf")},
            {"disease_prior": {"caries": -0.1}},
            {"disease_prior": {"caries": 0.6, "impacted": 0.6}},
            {"disease_prior": (("gingivitis", 0.1),)},
            {"disease_prior": {"gum": 0.1}},
            {"num_images": 2.5},
            {"seed": -1},
            {"disease_prior": {"caries": float("nan")}},
            {"missing_rate": "0.1"},
            {"num_images": None},
            {"missing_rate": False},
            {"num_images": 0, "seed": -1},
        ],
    )
    def test_plan_validation(self, kwargs):
        with pytest.raises(ConfigError) as exc_info:
            ScenePlan(**kwargs)
        for key in kwargs:  # one error names every bad field
            assert key in str(exc_info.value)


class TestSimulateDetector:
    def setup_method(self):
        self.ds = generate_scene(
            ScenePlan(num_images=6, disease_prior={"caries": 0.3, "impacted": 0.2}, seed=9)
        )

    def test_same_seed_is_bitwise_deterministic(self):
        profile = load_profile("diffusiondet-like")
        a = simulate_detector(self.ds, profile, "diagnosis-A", seed=4)
        b = simulate_detector(self.ds, profile, "diagnosis-A", seed=4)
        assert a == b

    def test_per_image_streams_ignore_batch_composition(self):
        """Simulating a prefix of the dataset reproduces the full run's prefix."""
        profile = load_profile("dino-like")
        prefix_ids = [1, 2, 3]
        full = simulate_detector(self.ds, profile, "diagnosis-A", seed=4)
        part = simulate_detector(subset_dataset(self.ds, prefix_ids), profile, "diagnosis-A", 4)
        kept = [d for d in full if d.image_id in set(prefix_ids)]
        assert kept == list(part.detections)

    def test_sources_draw_decorrelated_streams(self):
        profile = load_profile("diffusiondet-like")
        a = simulate_detector(self.ds, profile, "diagnosis-A", seed=4)
        b = simulate_detector(self.ds, profile, "diagnosis-B", seed=4)
        assert list(a.detections) != list(b.detections)

    def test_profile_name_salts_the_stream(self):
        base = dict(recall=0.8, fp_per_image=2.0, localization_noise=0.05)
        one = simulate_detector(self.ds, DetectorProfile("one", **base), "diagnosis-A", 4)
        two = simulate_detector(self.ds, DetectorProfile("two", **base), "diagnosis-A", 4)
        assert list(one.detections) != list(two.detections)

    def test_noiseless_profile_reproduces_ground_truth(self):
        ds = generate_scene(ScenePlan(num_images=3, disease_prior=ALL_DISEASED, seed=1))
        dets = simulate_detector(ds, load_profile("perfect"), "diagnosis-A", seed=0)
        assert len(dets) == len(ds.annotations)
        for det, ann in zip(dets, ds.annotations):
            assert det.box == ann.box
            assert det.score == 1.0
            assert det.category.disease == ann.category.disease
            assert det.category.quadrant is None
        assert evaluate(ds, dets, "disease").mean_ap == 1.0

    def test_enumeration_task_sees_every_tooth(self):
        dets = simulate_detector(self.ds, load_profile("perfect"), "enumeration-model")
        assert len(dets) == len(self.ds.annotations)
        assert all(d.category.disease is None for d in dets)
        assert all(d.category.quadrant is not None for d in dets)

    def test_diagnosis_task_sees_only_diseased_teeth(self):
        dets = simulate_detector(self.ds, load_profile("perfect"), "diagnosis-B")
        diseased = [a for a in self.ds.annotations if a.category.disease is not None]
        assert len(dets) == len(diseased)
        assert all(d.category.quadrant is None for d in dets)

    def test_false_positives_without_eligible_teeth(self):
        healthy = generate_scene(ScenePlan(num_images=4, seed=3))
        profile = DetectorProfile("fp-only", recall=1.0, fp_per_image=5.0)
        dets = simulate_detector(healthy, profile, "diagnosis-A", seed=1)
        assert len(dets) > 0  # Poisson false positives still fire
        assert all(d.category.disease in DISEASES for d in dets)
        for d in dets:
            img = next(i for i in healthy.images if i.image_id == d.image_id)
            assert d.box.x >= 0 and d.box.x + d.box.w <= img.width
            assert d.box.y >= 0 and d.box.y + d.box.h <= img.height

    def test_zero_recall_zero_fp_is_empty(self):
        profile = DetectorProfile("mute", recall=0.0, fp_per_image=0.0)
        dets = simulate_detector(self.ds, profile, "diagnosis-A")
        assert len(dets) == 0
        assert dets.image_universe == frozenset(self.ds.image_ids())

    def test_det_cap_keeps_top_scores_in_input_order(self):
        base = dict(
            recall=0.9,
            fp_per_image=12.0,
            localization_noise=0.02,
            tp_score_mean=0.7,
            tp_score_std=0.2,
            fp_score_mean=0.4,
            fp_score_std=0.2,
        )
        free = simulate_detector(self.ds, DetectorProfile("cap", **base), "diagnosis-A", 8)
        capped = simulate_detector(
            self.ds, DetectorProfile("cap", **base, det_cap=5), "diagnosis-A", 8
        )
        for img in self.ds.images:
            all_dets = [d for d in free if d.image_id == img.image_id]
            kept = [d for d in capped if d.image_id == img.image_id]
            assert len(kept) <= 5
            order = sorted(range(len(all_dets)), key=lambda k: (-all_dets[k].score, k))
            expected = [all_dets[k] for k in sorted(order[:5])]
            assert kept == expected

    def test_unknown_source_rejected(self):
        with pytest.raises(ConfigError):
            simulate_detector(self.ds, load_profile("perfect"), "fused")


class TestProfiles:
    def test_builtin_names(self):
        assert BUILTIN_PROFILES == ("diffusiondet-like", "dino-like", "perfect")

    def test_perfect_profile_values(self):
        p = load_profile("perfect")
        assert p.recall == 1.0
        assert p.fp_per_image == 0.0
        assert p.localization_noise == 0.0
        assert p.tp_score_mean == 1.0 and p.tp_score_std == 0.0

    def test_shipped_profiles_have_contrasting_tradeoffs(self):
        precise = load_profile("diffusiondet-like")
        sensitive = load_profile("dino-like")
        assert sensitive.recall > precise.recall
        assert sensitive.fp_per_image > precise.fp_per_image
        assert precise.tp_score_mean > sensitive.tp_score_mean

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(json.dumps({"name": "custom", "recall": 0.5, "det_cap": 10}))
        p = load_profile(path)
        assert p.name == "custom"
        assert p.recall == 0.5
        assert p.det_cap == 10

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "percision": 0.5}))
        with pytest.raises(ConfigError, match="unknown profile fields"):
            load_profile(path)

    def test_missing_name_rejected(self, tmp_path):
        path = tmp_path / "anon.json"
        path.write_text(json.dumps({"recall": 0.5}))
        with pytest.raises(ConfigError, match="name"):
            load_profile(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_profile(path)

    def test_non_object_json_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_profile(path)

    @pytest.mark.parametrize("name_or_path", [["x"], 1.5])
    def test_profile_must_be_a_name_or_a_path(self, name_or_path):
        with pytest.raises(ConfigError, match="profile must be a name or a path, got"):
            load_profile(name_or_path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_profile(tmp_path / "nope.json")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"recall": 1.5},
            {"recall": -0.1},
            {"fp_per_image": -1.0},
            {"localization_noise": 0.6},
            {"tp_score_mean": 1.5},
            {"fp_score_std": -0.5},
            {"det_cap": 0},
            {"recall": "high"},
            {"recall": True},
            {"det_cap": 1.5},
            {"fp_per_image": float("nan")},
            {"tp_score_std": float("inf")},
            {"recall": 2, "det_cap": 0},
        ],
    )
    def test_profile_validation(self, kwargs):
        with pytest.raises(ConfigError) as exc_info:
            DetectorProfile("p", **kwargs)
        for key in kwargs:  # one error names every bad field
            assert key in str(exc_info.value)
