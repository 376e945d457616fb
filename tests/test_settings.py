"""The settings rules: every numeric setting against its range, and every flag, name and choice."""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detfuse import (
    AXES,
    DISEASES,
    UNMATCHED_POLICIES,
    AnnotatedDataset,
    AnnotatedImage,
    BalancePlan,
    BoundingBox,
    CategoryTriple,
    ConfigError,
    CropClassification,
    Detection,
    DetectionSet,
    DetectorProfile,
    EnsembleConfig,
    EvalConfig,
    GroundTruthAnnotation,
    IntegrationConfig,
    MergeConfig,
    PipelineConfig,
    ScenePlan,
    SplitSpec,
    assign_crops,
    classifications_to_detections,
    evaluate,
    filter_enumeration,
    generate_scene,
    load_profile,
    oversample_plan,
    simulate_detector,
    subset_dataset,
    threshold_ensemble,
)
from detfuse.geometry import _ID_RANGE
from detfuse.errors import setting_problems
from detfuse.metrics import axis_projection
from detfuse.synth import SIMULATOR_SOURCES

TINY_SCENE = generate_scene(ScenePlan(num_images=1))
PERFECT = load_profile("perfect")
SPLIT = {"train_count": 0, "val_count": 0, "test_count": 0}
NO_TEETH = DetectionSet([], "enumeration-model")
DISEASED_SCENE = generate_scene(ScenePlan(num_images=1, disease_prior={"caries": 1.0}))
NO_FINDINGS = DetectionSet([], "fused")


class Pairs(Mapping):
    """A mapping held as its ``(key, value)`` pairs, so that a key need not be hashable."""

    def __init__(self, *pairs):
        self.pairs = pairs

    def __getitem__(self, key):
        for k, value in self.pairs:
            if k is key or k == key:
                return value
        raise KeyError(key)

    def __iter__(self):
        return (k for k, _ in self.pairs)

    def __len__(self):
        return len(self.pairs)


def pipeline(**setting):
    """A pipeline config whose input files all exist; nothing is written at construction."""
    return PipelineConfig(
        ground_truth=__file__, enumeration=__file__, diagnosis_a=__file__, out_dir="unused",
        **setting,
    )


def field(cls, key, **fixed):
    """Build ``cls`` with the value as its field ``key``."""
    return lambda value: cls(**{**fixed, key: value})


#: (name in the error, build with the value, range, integer, optional)
SETTINGS = [
    ("tau", field(EnsembleConfig, "tau"), "[0, 1]", False, False),
    ("enum_score_gate", field(IntegrationConfig, "enum_score_gate"), "[0, 1]", False, False),
    ("max_match_distance", field(IntegrationConfig, "max_match_distance"), "(0, inf)", False, True),
    ("overlap_iou", field(MergeConfig, "overlap_iou"), "[0, 1]", False, False),
    ("min_confidence", field(MergeConfig, "min_confidence"), "[0, 1]", False, False),
    ("max_dets", field(EvalConfig, "max_dets"), "[1, inf)", True, False),
    ("pad_fraction", lambda v: pipeline(pad_fraction=v), "[0, inf)", False, False),
    (
        "pad_fraction",
        lambda v: assign_crops(NO_TEETH, TINY_SCENE.images, v),
        "[0, inf)", False, False,
    ),
    ("num_images", field(ScenePlan, "num_images"), "[1, inf)", True, False),
    ("tau", lambda v: pipeline(tau=v), "[0, 1]", False, False),
    ("max_dets", lambda v: pipeline(max_dets=v), "[1, inf)", True, False),
    ("missing_rate", field(ScenePlan, "missing_rate"), "[0, 1)", False, False),
    ("max_match_distance", lambda v: pipeline(max_match_distance=v), "(0, inf)", False, True),
    ("seed", field(ScenePlan, "seed"), "[0, inf)", True, False),
    # One probability is the whole prior mass, which may pass 1 by rounding (1e-9) only.
    (
        "disease_prior",
        lambda v: ScenePlan(disease_prior={"caries": v}),
        "[0, 1.000000001]", False, False,
    ),
    ("recall", field(DetectorProfile, "recall", name="p"), "[0, 1]", False, False),
    ("fp_per_image", field(DetectorProfile, "fp_per_image", name="p"), "[0, inf)", False, False),
    (
        "localization_noise",
        field(DetectorProfile, "localization_noise", name="p"),
        "[0, 0.5]", False, False,
    ),
    ("tp_score_mean", field(DetectorProfile, "tp_score_mean", name="p"), "[0, 1]", False, False),
    ("tp_score_std", field(DetectorProfile, "tp_score_std", name="p"), "[0, inf)", False, False),
    ("fp_score_mean", field(DetectorProfile, "fp_score_mean", name="p"), "[0, 1]", False, False),
    ("fp_score_std", field(DetectorProfile, "fp_score_std", name="p"), "[0, inf)", False, False),
    ("det_cap", field(DetectorProfile, "det_cap", name="p"), "[1, inf)", True, True),
    ("train_count", field(SplitSpec, "train_count", **SPLIT), "[0, inf)", True, False),
    ("val_count", field(SplitSpec, "val_count", **SPLIT), "[0, inf)", True, False),
    ("test_count", field(SplitSpec, "test_count", **SPLIT), "[0, inf)", True, False),
    ("seed", field(SplitSpec, "seed", **SPLIT), "[0, inf)", True, False),
    (
        "multipliers['caries']",
        lambda v: BalancePlan(multipliers={"caries": v}),
        "[1, inf)", True, False,
    ),
    (
        "seed",
        lambda v: simulate_detector(TINY_SCENE, PERFECT, "diagnosis-A", seed=v),
        "[0, inf)", True, False,
    ),
    ("gate", lambda v: filter_enumeration(NO_TEETH, v), "[0, 1]", False, False),
    (
        "min_confidence",
        lambda v: classifications_to_detections(assign_crops(NO_TEETH, TINY_SCENE.images, 0.1), [], v),
        "[0, 1]", False, False,
    ),
    ("counts['caries']", lambda v: BalancePlan(counts={"caries": v}), "[0, inf)", True, False),
]


def bounds_of(bounds: str):
    """``(low, high, low_open, high_open)`` of interval notation such as ``"[0, 1)"``."""
    low, high = (float(end) for end in bounds[1:-1].split(","))
    return low, high, bounds[0] == "(", bounds[-1] == ")"


def inside(bounds: str, integer: bool, optional: bool):
    """Values the setting accepts: the integers in range, and for a number its floats and closed ends."""
    low, high, low_open, high_open = bounds_of(bounds)
    values = st.integers(
        min_value=math.floor(low) + 1 if low_open or low % 1 else int(low),
        max_value=None if high == math.inf else math.ceil(high) - 1 if high_open else math.floor(high),
    )
    if not integer:
        ends = [end for end, is_open in ((low, low_open), (high, high_open)) if not is_open]
        values |= st.one_of(*(st.just(end) for end in ends if math.isfinite(end))) | st.floats(
            min_value=low, max_value=high, exclude_min=low_open, exclude_max=high_open,
            allow_nan=False, allow_infinity=False,
        )
    return values | st.none() if optional else values


def outside(bounds: str, integer: bool, optional: bool):
    """Values the setting rejects: no number, no finite number, off-range or not an integer."""
    low, high, low_open, high_open = bounds_of(bounds)
    bad = [True, False, "0.5", [1], math.nan, math.inf, -math.inf]
    if not optional:
        bad.append(None)
    if integer:
        bad += [int(low) - 1, low + 0.5, float(low) + 1]
        off = st.integers(max_value=int(low) - 1)
    else:
        bad += [10**400, -(10**400), low if low_open else math.nextafter(low, -math.inf)]
        off = st.floats(max_value=low, exclude_max=not low_open, allow_infinity=False)
    if high < math.inf:
        bad.append(high if high_open else math.nextafter(high, math.inf))
        off |= st.floats(min_value=high, exclude_min=not high_open, allow_infinity=False)
    return st.sampled_from(bad) | off


@pytest.mark.parametrize(
    "name,build,bounds,integer,optional",
    SETTINGS,
    ids=[f"{row[0]}-{i}" for i, row in enumerate(SETTINGS)],
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_setting_follows_the_number_rule(data, name, build, bounds, integer, optional):
    """Inside its range a value is accepted; anything else is one ConfigError naming the setting."""
    build(data.draw(inside(bounds, integer, optional), label="inside"))
    value = data.draw(outside(bounds, integer, optional), label="outside")
    with pytest.raises(ConfigError, match=re.escape(name)):
        build(value)


#: (name in the error, build with the value, ``bool`` for a flag, ``str`` for a name or the choices)
CHOICES = [
    ("enumeration_product", field(EvalConfig, "enumeration_product"), bool),
    ("axis", lambda v: evaluate(DISEASED_SCENE, NO_FINDINGS, v), AXES),
    ("name", field(DetectorProfile, "name"), str),
    ("unmatched_policy", field(IntegrationConfig, "unmatched_policy"), UNMATCHED_POLICIES),
    ("unmatched_policy", lambda v: pipeline(unmatched_policy=v), UNMATCHED_POLICIES),
    ("axis", lambda v: pipeline(axes=["disease", v]), AXES),
    ("axis", axis_projection, AXES),
    ("disease_prior disease", lambda v: ScenePlan(disease_prior=Pairs((v, 0.1))), DISEASES),
    ("source", lambda v: simulate_detector(TINY_SCENE, PERFECT, v), SIMULATOR_SOURCES),
    (
        "allow_union",
        lambda v: threshold_ensemble(
            DetectionSet([], "diagnosis-A"), DetectionSet([], "diagnosis-B"), allow_union=v
        ),
        bool,
    ),
]

#: Values of every kind but a string, a bool among them.
NOT_STRINGS = (
    st.booleans() | st.integers() | st.floats() | st.none() | st.binary(max_size=3)
    | st.lists(st.text(max_size=3), max_size=2) | st.tuples(st.sampled_from(DISEASES))
)


def accepted(choices):
    if choices is bool:
        return st.booleans()
    return st.text(max_size=8) if choices is str else st.sampled_from(choices)


def rejected(choices):
    if choices is bool:
        return NOT_STRINGS.filter(lambda v: type(v) is not bool) | st.sampled_from(["yes", "no", ""])
    if choices is str:
        return NOT_STRINGS
    near = st.sampled_from([c.upper() for c in choices] + [c + " " for c in choices] + [""])
    return NOT_STRINGS | near | st.text(max_size=8).filter(lambda v: v not in choices)


@pytest.mark.parametrize(
    "name,build,choices", CHOICES, ids=[f"{row[0]}-{i}" for i, row in enumerate(CHOICES)]
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_flag_name_and_choice_follows_the_rule(data, name, build, choices):
    """A flag is a bool, a name a string and a choice one of its strings; else one ConfigError."""
    build(data.draw(accepted(choices), label="accepted"))
    value = data.draw(rejected(choices), label="rejected")
    with pytest.raises(ConfigError, match=re.escape(name)):
        build(value)


priors = st.dictionaries(st.sampled_from(DISEASES), st.floats(0, 0.25))
#: No mapping: a number, a name, one-element and three-element pairs, a list of pairs, a set.
not_mappings = st.sampled_from(
    [5, None, "caries", ("caries",), ("caries", 0.1, 0.2), [("caries", 0.1)], 0.1, {"caries"}]
)


@settings(max_examples=60, deadline=None)
@given(prior=priors, bad=not_mappings | NOT_STRINGS)
def test_disease_prior_shape_follows_the_rule(prior, bad):
    """A prior is a mapping, held in disease order; anything else is one ConfigError."""
    held = [(name, prior[name]) for name in DISEASES if name in prior]
    assert list(ScenePlan(disease_prior=prior).disease_prior.items()) == held
    assert list(ScenePlan(disease_prior=Pairs(*prior.items())).disease_prior.items()) == held
    with pytest.raises(ConfigError, match=re.escape(f"disease_prior must be a mapping, got {bad!r}")):
        ScenePlan(disease_prior=bad)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("narrow", [np.float32, np.float16])
def test_narrow_numpy_floats_are_checked_without_a_warning(narrow):
    """Comparing a float32 or float16 with the largest float warned of an overflow."""
    assert setting_problems("confidence", narrow(0.5), "[0, 1]") == []
    assert CropClassification(3, "caries", narrow(0.5)).confidence == 0.5
    assert setting_problems("tau", narrow("inf"), "[0, 1]") == [
        f"tau must be a number in [0, 1], got {narrow('inf')!r}"
    ]


class TestNonNumericDefects:
    """Each was accepted, or raised a bare TypeError or ValueError, before the rule."""

    def test_eval_flags_must_be_bools(self):
        with pytest.raises(ConfigError, match="enumeration_product must be a bool, got 'no'"):
            EvalConfig(enumeration_product="no")

    def test_profile_file_name_must_be_a_string(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text('{"name": 5}')
        with pytest.raises(ConfigError, match="name must be a string, got 5"):
            load_profile(str(path))

    @pytest.mark.parametrize("prior", [5, (("caries",),)], ids=["number", "one-element-pair"])
    def test_disease_prior_must_be_pairs(self, prior):
        with pytest.raises(ConfigError, match="disease_prior must be a mapping, got"):
            ScenePlan(disease_prior=prior)


#: (name, build with the value, bounds, integer, optional): the number fields of the value types.
VALUE_FIELDS = [
    ("box x", lambda v: BoundingBox(v, 0, 1, 1), "(-inf, inf)", False, False),
    ("box y", lambda v: BoundingBox(0, v, 1, 1), "(-inf, inf)", False, False),
    ("box w", lambda v: BoundingBox(0, 0, v, 1), "(0, inf)", False, False),
    ("box h", lambda v: BoundingBox(0, 0, 1, v), "(0, inf)", False, False),
    (
        "score",
        lambda v: Detection(1, BoundingBox(0, 0, 1, 1), v, CategoryTriple(disease="caries"), "fused"),
        "[0, 1]", False, False,
    ),
    ("image extent", lambda v: AnnotatedImage(1, v, 5), "(0, inf)", False, False),
    ("image extent", lambda v: AnnotatedImage(1, 5, v), "(0, inf)", False, False),
    ("confidence", lambda v: CropClassification(0, "caries", v), "[0, 1]", False, False),
    ("crop_id", lambda v: CropClassification(v, "caries", 0.5), _ID_RANGE, True, False),
    ("quadrant", lambda v: CategoryTriple(quadrant=v, disease="caries"), "[1, 4]", True, True),
    ("enumeration", lambda v: CategoryTriple(enumeration=v, disease="caries"), "[1, 8]", True, True),
    (
        "matched_enum_id",
        lambda v: Detection(1, BoundingBox(0, 0, 1, 1), 0.5, CategoryTriple(1, 2), "fused", v),
        _ID_RANGE, True, True,
    ),
]

#: Values of every kind a number field may be handed, on and around every bound.
ANY_VALUE = (
    st.sampled_from([
        math.nan, math.inf, -math.inf, 10**400, -(10**400), True, False, None, "1", [1],
        0, 1, -0.0, 5e-324, sys.float_info.max, 2**63 - 1, 2**63, 10**20,
        math.nextafter(1.0, 2.0), math.nextafter(0.0, -1.0),
    ])
    | st.floats() | st.integers() | st.integers(-2, 3) | st.integers(min_value=2**62, max_value=2**64)
    | st.floats().map(np.float64) | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.floats(width=32).map(np.float32) | st.floats(width=16).map(np.float16)
    | st.booleans().map(np.bool_) | st.text(max_size=3)
)


@pytest.mark.parametrize(
    "name,build,bounds,integer,optional",
    VALUE_FIELDS,
    ids=[f"{row[0]}-{i}" for i, row in enumerate(VALUE_FIELDS)],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(value=ANY_VALUE)
def test_value_types_follow_the_number_rule(name, build, bounds, integer, optional, value):
    """A value type accepts a number field's value exactly when ``setting_problems`` does,
    without a warning (numpy floats of every width among the values)."""
    refused = setting_problems(name, value, bounds, integer=integer, optional=optional)
    if refused:
        with pytest.raises(ConfigError, match=re.escape(name)):
            build(value)
    else:
        build(value)


def one_image(v) -> tuple[AnnotatedImage]:
    """One image, on ``v`` if it is an image id and else on 0."""
    return (AnnotatedImage(v if type(v) in (int, str) else 0, 5, 5),)


#: Each place an image id enters memory, building with the id.
IMAGE_ID_FIELDS = [
    lambda v: Detection(v, BoundingBox(0, 0, 1, 1), 0.5, CategoryTriple(disease="caries"), "fused"),
    lambda v: AnnotatedImage(v, 5, 5),
    lambda v: AnnotatedDataset(
        one_image(v),
        [GroundTruthAnnotation(v, BoundingBox(0, 0, 1, 1), CategoryTriple(disease="caries"))],
    ),
    lambda v: DetectionSet([], "fused", [v]),
    lambda v: subset_dataset(AnnotatedDataset(one_image(v), []), [v]),
]


@pytest.mark.parametrize(
    "build", IMAGE_ID_FIELDS, ids=["detection", "image", "annotation", "universe", "subset"]
)
@settings(max_examples=150, deadline=None)
@given(value=ANY_VALUE | st.tuples(st.integers()) | st.text())
@example(value=np.int64(1))
@example(value=1.5)
@example(value=(1, 2))
@example(value=True)
@example(value=[1])
def test_value_types_follow_the_image_id_rule(build, value):
    """An image id is accepted exactly when it is an int (not a bool) or a str, as in files;
    anything else is one ConfigError naming its type and value. Before the rule a numpy id
    made the writers raise a bare TypeError, a float, tuple or bool id was written to a file
    that then failed to parse, and a list id raised a bare TypeError."""
    if type(value) in (int, str):
        build(value)
    else:
        named = f"image id must be an int or a str, got {type(value).__name__} {value!r}"
        with pytest.raises(ConfigError, match=re.escape(named)):
            build(value)


class TestBalancePlanCounts:
    """Each count was dropped, accepted, truncated or a bare ValueError before the rule."""

    @pytest.mark.parametrize(
        "counts,named",
        [
            ({"caries": "x"}, "counts['caries'] must be an integer in [0, inf), got 'x'"),
            ({"cavity": 3}, "unknown disease 'cavity' in counts"),
            ({"caries": -3}, "counts['caries'] must be an integer in [0, inf), got -3"),
            ({"caries": 2.7}, "counts['caries'] must be an integer in [0, inf), got 2.7"),
        ],
        ids=["string", "unknown-disease", "negative", "fraction"],
    )
    def test_counts_follow_the_settings_rule(self, counts, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            oversample_plan(counts)

    def test_every_problem_is_one_error(self):
        named = "unknown disease 'cavity' in counts; unknown disease 'gum' in multipliers"
        with pytest.raises(ConfigError, match=re.escape(named)):
            BalancePlan(counts={"cavity": 3}, multipliers={"gum": 2})
