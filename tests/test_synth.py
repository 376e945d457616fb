"""Scene generator and detector simulator behaviour."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import zlib

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from detfuse import (
    BUILTIN_PROFILES,
    DISEASES,
    AnnotatedDataset,
    AnnotatedImage,
    BoundingBox,
    CategoryTriple,
    ConfigError,
    Detection,
    DetectionSet,
    DetectorProfile,
    GroundTruthAnnotation,
    ScenePlan,
    evaluate,
    generate_scene,
    load_profile,
    parse_ground_truth,
    simulate_detector,
    subset_dataset,
    write_detections,
    write_ground_truth,
)
from detfuse.cli import main
from detfuse.synth import _HEIGHT, _LAYOUT_JITTER, _LOWER, _UPPER, _WIDTH, SIMULATOR_SOURCES

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
        path.write_text(json.dumps({"name": "custom", "recall": 0.5}))
        p = load_profile(path)
        assert p.name == "custom"
        assert p.recall == 0.5
        path.write_text(json.dumps({"name": "custom", "recall": 0.5, "det_cap": 10}))
        with pytest.raises(ConfigError, match=r"unknown profile keys: \['det_cap'\]"):
            load_profile(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "percision": 0.5}))
        with pytest.raises(ConfigError, match="unknown profile keys"):
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

    def test_profile_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "\xff"}')
        with pytest.raises(ConfigError, match=r"^profile is not UTF-8: .* byte 0xff in position 10"):
            load_profile(path)

    def test_profile_nested_too_deeply_rejected(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_bytes(b'{"name": ' + b"[" * 1100 + b"]" * 1100 + b"}")
        with pytest.raises(ConfigError, match=r"^profile is nested too deeply to read: "):
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
        with pytest.raises(ConfigError, match="^cannot read profile: "):
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
            {"fp_score_mean": -0.5},
            {"recall": "high"},
            {"recall": True},
            {"localization_noise": "0.1"},
            {"fp_per_image": float("nan")},
            {"tp_score_std": float("inf")},
            {"recall": 2, "fp_per_image": -1},
        ],
    )
    def test_profile_validation(self, kwargs):
        with pytest.raises(ConfigError) as exc_info:
            DetectorProfile("p", **kwargs)
        for key in kwargs:  # one error names every bad field
            assert key in str(exc_info.value)


# ---------------------------------------------------------------------------
# The per-object generator and simulator that built a validated object for
# every row, kept as the oracle of the columns that synth now builds.


def object_scene(plan: ScenePlan) -> AnnotatedDataset:
    rng = np.random.default_rng(plan.seed)
    margin = 0.05 * _WIDTH
    slot_w = (_WIDTH - 2 * margin) / 16
    tooth_w = 0.72 * slot_w
    tooth_h = 0.22 * _HEIGHT
    rows = ((_UPPER, 0.20 * _HEIGHT), (_LOWER, 0.55 * _HEIGHT))

    prior = tuple(plan.disease_prior.items())
    images = []
    annotations = []
    for i in range(plan.num_images):
        image_id = i + 1
        images.append(AnnotatedImage(image_id, _WIDTH, _HEIGHT, f"synthetic_{image_id:04d}.png"))
        for teeth, base_y in rows:
            for slot, (quadrant, tooth) in enumerate(teeth):
                if rng.random() < plan.missing_rate:
                    continue
                jx = rng.uniform(-1.0, 1.0) * _LAYOUT_JITTER * slot_w
                jy = rng.uniform(-1.0, 1.0) * _LAYOUT_JITTER * tooth_h
                jw = 1.0 + rng.uniform(-1.0, 1.0) * _LAYOUT_JITTER
                jh = 1.0 + rng.uniform(-1.0, 1.0) * _LAYOUT_JITTER
                w = tooth_w * jw
                h = tooth_h * jh
                x = margin + slot * slot_w + (slot_w - w) / 2 + jx
                y = base_y + jy
                x = min(max(x, 0.0), _WIDTH - w)
                y = min(max(y, 0.0), _HEIGHT - h)
                disease = None
                u = rng.random()
                acc = 0.0
                for name, p in prior:
                    acc += p
                    if u < acc:
                        disease = name
                        break
                annotations.append(
                    GroundTruthAnnotation(
                        image_id,
                        BoundingBox(x, y, w, h),
                        CategoryTriple(quadrant=quadrant, enumeration=tooth, disease=disease),
                    )
                )
    return AnnotatedDataset(images, annotations)


def object_clamped_normal(rng, mean, std):
    return min(max(float(rng.normal(mean, std)), 0.0), 1.0)


def object_jitter_box(rng, box, noise, width, height):
    dx = float(rng.normal(0.0, 1.0)) * noise * box.w
    dy = float(rng.normal(0.0, 1.0)) * noise * box.h
    sw = 1.0 + float(rng.normal(0.0, 1.0)) * noise
    sh = 1.0 + float(rng.normal(0.0, 1.0)) * noise
    w = max(box.w * sw, 1.0)
    h = max(box.h * sh, 1.0)
    w = min(w, float(width))
    h = min(h, float(height))
    x = min(max(box.x + dx, 0.0), width - w)
    y = min(max(box.y + dy, 0.0), height - h)
    return BoundingBox(x, y, w, h)


def object_detections(ds, profile, source="diagnosis-A", seed=0) -> DetectionSet:
    enumeration_task = source == "enumeration-model"
    salt = zlib.crc32(f"{profile.name}|{source}".encode("utf-8"))

    by_image: dict = {img.image_id: [] for img in ds.images}
    for ann in ds.annotations:
        by_image[ann.image_id].append(ann)

    detections = []
    for index, img in enumerate(ds.images):
        rng = np.random.default_rng([seed, salt, index])
        for ann in by_image[img.image_id]:
            cat = ann.category
            if enumeration_task:
                if cat.quadrant is None or cat.enumeration is None:
                    continue
                out_cat = CategoryTriple(quadrant=cat.quadrant, enumeration=cat.enumeration)
            else:
                if cat.disease is None:
                    continue
                out_cat = CategoryTriple(disease=cat.disease)
            if rng.random() >= profile.recall:
                continue
            box = object_jitter_box(rng, ann.box, profile.localization_noise, img.width, img.height)
            score = object_clamped_normal(rng, profile.tp_score_mean, profile.tp_score_std)
            detections.append(Detection(img.image_id, box, score, out_cat, source))
        n_fp = int(rng.poisson(profile.fp_per_image))
        for _ in range(n_fp):
            w = float(rng.uniform(0.04, 0.09)) * img.width
            h = float(rng.uniform(0.15, 0.30)) * img.height
            x = float(rng.uniform(0.0, img.width - w))
            y = float(rng.uniform(0.0, img.height - h))
            if enumeration_task:
                cat = CategoryTriple(
                    quadrant=int(rng.integers(1, 5)), enumeration=int(rng.integers(1, 9))
                )
            else:
                cat = CategoryTriple(disease=DISEASES[int(rng.integers(0, len(DISEASES)))])
            score = object_clamped_normal(rng, profile.fp_score_mean, profile.fp_score_std)
            detections.append(Detection(img.image_id, BoundingBox(x, y, w, h), score, cat, source))
    return DetectionSet(detections, source, ds.image_ids())


def assert_same_rows(got, want, *names):
    """The arrays ``names`` of ``got`` and ``want`` hold the same dtype, shape and bits."""
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert (name, a.dtype, a.shape) == (name, b.dtype, b.shape)
        assert a.tobytes() == b.tobytes(), name


def assert_same_scene(got: AnnotatedDataset, want: AnnotatedDataset) -> None:
    assert got.images == want.images
    assert got.segmentation == want.segmentation
    assert_same_rows(got, want, "image", "xywh", "key")


def assert_same_stream(got: DetectionSet, want: DetectionSet) -> None:
    assert (got.source, got.image_universe) == (want.source, want.image_universe)
    assert got.columns.ids == want.columns.ids
    assert_same_rows(got.columns, want.columns, "image", "key", "xywh", "score", "origin", "link")


def same_outcome(simulate, oracle):
    """``simulate()`` gives the columns ``oracle()`` gives, or raises the class it raises."""
    try:
        want = oracle()
    except Exception as exc:  # the class is compared below
        with pytest.raises(type(exc)) as raised:
            simulate()
        assert type(raised.value) is type(exc)
    else:
        assert_same_stream(simulate(), want)


#: A plan's prior: none, some diseases with any mass up to 1, every tooth diseased, or one
#: disease on every tooth.
priors = st.one_of(
    st.dictionaries(st.sampled_from(DISEASES), st.floats(0.0, 0.25) | st.sampled_from([0, 0.25])),
    st.just({d: 0.25 for d in DISEASES}),
    st.sampled_from(DISEASES).map(lambda d: {d: 1.0}),
)
plans = st.builds(
    ScenePlan,
    num_images=st.integers(1, 4),
    missing_rate=st.floats(0.0, 0.9, exclude_max=True),
    disease_prior=priors,
    seed=st.integers(0, 2**32 - 1),
)
scores = st.floats(0.0, 1.0)
spreads = st.sampled_from([0.0, 0.05, 0.5]) | st.floats(0.0, 2.0)
profiles = st.sampled_from(BUILTIN_PROFILES).map(load_profile) | st.builds(
    DetectorProfile,
    st.text(max_size=6),
    recall=st.sampled_from([0.0, 0.5, 1.0]),
    fp_per_image=st.floats(0.0, 5.0),
    localization_noise=st.floats(0.0, 0.5),
    tp_score_mean=scores,
    tp_score_std=spreads,
    fp_score_mean=scores,
    fp_score_std=spreads,
)
sources = st.sampled_from(SIMULATOR_SOURCES)
seeds = st.integers(0, 2**32 - 1)

#: Image extents down to half a pixel.
extents = st.sampled_from([0.5, 1, 2900]) | st.floats(0.5, 5000.0)
#: The three category codes of an annotation, each present or not.
triples = st.tuples(
    st.none() | st.integers(0, 3), st.none() | st.integers(0, 7), st.none() | st.integers(0, 3)
)


@st.composite
def ground_truth_files(draw):
    """A ground-truth payload: int and string image ids, some images without annotations,
    annotations in any image order, and boxes that reach past their image."""
    image_ids = st.integers(0, 99) | st.text(max_size=4)
    ids = draw(st.lists(image_ids, min_size=1, max_size=4, unique=True))
    images = [{"id": i, "width": draw(extents), "height": draw(extents)} for i in ids]
    annotations = []
    for _ in range(draw(st.integers(0, 12))):
        image = draw(st.sampled_from(images))
        width, height = image["width"], image["height"]
        fx, fy = draw(st.floats(0.0, 0.9)), draw(st.floats(0.0, 0.9))
        fw, fh = draw(st.floats(0.01, 1.0)), draw(st.floats(0.01, 1.0))
        names = ("category_id_1", "category_id_2", "category_id_3")
        codes = {k: v for k, v in zip(names, draw(triples)) if v is not None}
        annotations.append(
            {
                "image_id": image["id"],
                "bbox": [fx * width, fy * height, fw * width, fh * height],
                **(codes or {"category_id_3": 0}),
            }
        )
    return {"images": images, "annotations": annotations}


class TestColumnsAgreeWithObjects:
    """generate_scene and simulate_detector build the columns that the per-object loops built,
    bit for bit, from the same draws; where those loops raise, they raise the same class."""

    @settings(deadline=None)  # the profile sets the example count
    @given(plan=plans, profile=profiles, source=sources, seed=seeds)
    def test_scenes_and_streams_equal_the_per_object_loops(self, plan, profile, source, seed):
        got, want = generate_scene(plan), object_scene(plan)
        assert_same_scene(got, want)
        expected = object_detections(want, profile, source, seed)
        assert_same_stream(simulate_detector(got, profile, source, seed), expected)
        assert_same_stream(simulate_detector(want, profile, source, seed), expected)

    @settings(deadline=None)
    @given(payload=ground_truth_files(), profile=profiles, source=sources, seed=seeds)
    def test_streams_over_parsed_files_equal_the_per_object_loop(
        self, tmp_path_factory, payload, profile, source, seed
    ):
        path = tmp_path_factory.getbasetemp() / "gt.json"
        path.write_text(json.dumps(payload))
        ds = parse_ground_truth(path)
        same_outcome(
            lambda: simulate_detector(ds, profile, source, seed),
            lambda: object_detections(ds, profile, source, seed),
        )

    @pytest.mark.parametrize("source", SIMULATOR_SOURCES)
    @pytest.mark.parametrize(
        "extent,box",
        [
            # Corners and extents near the float maximum: edges and jitter overflow to inf.
            (sys.float_info.max, (8e307, 8e307, 1.5e308, 1.5e308)),
            (sys.float_info.max, (0.0, 0.0, sys.float_info.max, sys.float_info.max)),
            (1e308, (1e308 / 2, 0.0, 1e308, 1.0)),
            # A subnormal image: false positives' extents round to 0.
            (5e-324, (0.0, 0.0, 5e-324, 5e-324)),
        ],
    )
    def test_extreme_extents_raise_as_the_per_object_loop_does(self, extent, box, source):
        image = AnnotatedImage("x", extent, extent)
        ds = AnnotatedDataset(
            [image], [GroundTruthAnnotation("x", BoundingBox(*box), CategoryTriple(1, 2, "caries"))]
        )
        profile = DetectorProfile("wide", localization_noise=0.5, fp_per_image=3.0)
        for seed in range(4):
            same_outcome(
                lambda: simulate_detector(ds, profile, source, seed),
                lambda: object_detections(ds, profile, source, seed),
            )

    def test_a_bad_box_names_its_row(self):
        box = BoundingBox(0.0, 0.0, 5e-324, 5e-324)
        tooth = GroundTruthAnnotation(1, box, CategoryTriple(1, 2))
        ds = AnnotatedDataset([AnnotatedImage(1, 5e-324, 5e-324)], [tooth])
        profile = DetectorProfile("wide", fp_per_image=3.0)
        with pytest.raises(
            ConfigError,
            match=r"^box w\[1\] must be a number in \(0, inf\), got 0\.0; "
            r"box h\[1\] must be a number in \(0, inf\), got 0\.0$",
        ):
            simulate_detector(ds, profile, "enumeration-model", seed=1)


#: The README quick start's simulated streams: (source, profile).
README_STREAMS = (
    ("enumeration-model", "perfect"), ("diagnosis-A", "diffusiondet-like"), ("diagnosis-B", "dino-like")
)

#: The sha256 of ``detfuse synth --images 20`` with the README's three simulators, recorded
#: when every row was built as an object: (seed, extra options) -> file name -> digest.
PINNED_SYNTH = {
    (42, ()): {
        "gt.json": "fe3c354ab063c9417fecbadcfdba608f74c1a8f523bee2424f9d9b90b82e9db3",
        "enumeration-model.json": "22eecd73fbdfc647991a4f8869ff713df8dad577d62473c11e07380e3f75f0d2",
        "diagnosis-A.json": "118a9c3e76bdb7b92c41624e8b34691542024964a3343b716bcc9371a53a2a6c",
        "diagnosis-B.json": "c20b966146237b13260d3f7a25e4342e5facafe7525406ff0344ba7d98828a7e",
    },
    (20231014, ()): {
        "gt.json": "d58d20df2c5497d74a6833f5d0b2908e2a0b3806103fca2c031180c26430edc1",
        "enumeration-model.json": "a8433ae4d05d1a9892f00e4acd0430dcff21db458a9f083f227c9cb8fc29c723",
        "diagnosis-A.json": "0d523c2d7b80deecf31dd044ab40ae3deea3aca1f2db7d484bc8b6dee4f69ee6",
        "diagnosis-B.json": "a49c532561ae5492c627a607c29ac0af4de087da33ef8db4e0ad1f2ac78e0bc9",
    },
    (42, ("--missing-rate", "0.3", "--disease-prior", "caries=0.2,impacted=0.1")): {
        "gt.json": "0d1fea5a48ef26a34af248bee45f016c21dec3b7042a9357d7a00aaa2aa32b79",
        "enumeration-model.json": "571e73bd9c74e7f567600a0ed0c89992fce7ad1e91cb97238930b4afc8a42dc2",
        "diagnosis-A.json": "4516dfb8c65666c67db68e196ddc41e1d93e78c02f8f4f5faae7532b86ec060e",
        "diagnosis-B.json": "455f15f976ce757a06efbaded3a704121c5b304ae1dc5f94a6393320643d540b",
    },
}


class TestPinnedInputs:
    @pytest.mark.parametrize(
        "seed,options", list(PINNED_SYNTH), ids=["42", "20231014", "42-sparse"]
    )
    def test_synth_files_keep_their_bytes(self, tmp_path, seed, options):
        args = ["synth", "--out-dir", str(tmp_path), "--images", "20", "--seed", str(seed), *options]
        for source, profile in README_STREAMS:
            args += ["--simulate", f"{source}={profile}"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in PINNED_SYNTH[seed, options]
        }
        assert digests == PINNED_SYNTH[seed, options]

    def test_synthesis_builds_no_row_objects(self, tmp_path, monkeypatch):
        """Scenes and streams are built, and written, as columns; views are built when read."""
        classes = (GroundTruthAnnotation, BoundingBox, Detection, CategoryTriple)
        built = {cls: [] for cls in classes}
        for cls, objects in built.items():
            init = cls.__init__

            def counting(self, *args, init=init, objects=objects, **kwargs):
                objects.append(self)
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        ds = generate_scene(ScenePlan(num_images=3, disease_prior=ALL_DISEASED, seed=1))
        write_ground_truth(ds, tmp_path / "gt.json")
        streams = [
            simulate_detector(ds, load_profile(profile), source, seed=1)
            for source, profile in README_STREAMS
        ]
        for dets in streams:
            write_detections(dets, tmp_path / f"{dets.source}.json")
        assert {cls.__name__: len(objects) for cls, objects in built.items()} == {
            "GroundTruthAnnotation": 0, "BoundingBox": 0, "Detection": 0, "CategoryTriple": 0,
        }
        assert ds.annotations[0] in built[GroundTruthAnnotation]
        assert streams[2][0] in built[Detection]
        assert streams[2][0].box in built[BoundingBox]
