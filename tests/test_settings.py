"""The settings rules: every numeric setting against its range, and every flag, name and choice."""

from __future__ import annotations

import json
import math
import os
import re
import sys
import tempfile
from collections.abc import Mapping
from fractions import Fraction

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
    InvalidCategory,
    InvalidScore,
    MalformedFile,
    MergeConfig,
    PipelineConfig,
    ScenePlan,
    SplitSpec,
    assign_crops,
    classifications_to_detections,
    evaluate,
    filter_enumeration,
    generate_scene,
    load_pipeline_config,
    load_profile,
    oversample_plan,
    parse_crop_classifications,
    parse_detections,
    parse_ground_truth,
    pipeline_config_from_dict,
    read_crop_manifest,
    simulate_detector,
    subset_dataset,
    threshold_ensemble,
)
from detfuse.geometry import _ID_RANGE
from detfuse.errors import _within, column_problems, setting_problems
from detfuse.io import _column
from detfuse.metrics import axis_projection
from detfuse.synth import SIMULATOR_SOURCES

from conftest import examples

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
    ("overlap_iou", lambda v: pipeline(overlap_iou=v), "[0, 1]", False, False),
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
    ("enum_score_gate", lambda v: filter_enumeration(NO_TEETH, v), "[0, 1]", False, False),
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
@settings(max_examples=examples(60), deadline=None)
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
    # The other axes come first, so that an accepted axis is not a repeat, which is refused.
    ("axis", lambda v: pipeline(axes=[*(a for a in AXES if a != v), v]), AXES),
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


#: The bounds the column sets check, each with whether its entries are integers.
COLUMN_BOUNDS = [
    ("(-inf, inf)", False), ("(0, inf)", False), ("[0, 1]", False),
    ("[0, 3)", True), ("[0, 0)", True), ("[1, 224]", True), ("[0, 4]", True), (_ID_RANGE, True),
    (f"[-1, {2.0**63!r})", True),
]
#: Entries of every kind a column array may hold: NaN, infinities, subnormals, both zeros, ends
#: of ``int64``, and bools.
COLUMN_ENTRIES = {
    np.float64: st.floats() | st.sampled_from([5e-324, -0.0, 1.0, 1e308, math.inf, -math.inf]),
    np.float32: st.floats(width=32),
    np.int64: st.integers(-(2**63), 2**63 - 1) | st.sampled_from([-2, -1, 0, 1, 4, 224, 2**63 - 1]),
    np.int8: st.integers(-128, 127),
    np.uint64: st.integers(0, 2**64 - 1),
    np.bool_: st.booleans(),
}


@st.composite
def drawn_column_sets(draw):
    n = draw(st.integers(0, 5))
    columns = []
    for k in range(draw(st.integers(1, 4))):
        bounds, integer = draw(st.sampled_from(COLUMN_BOUNDS))
        dtype = draw(st.sampled_from(list(COLUMN_ENTRIES)))
        values = draw(st.lists(COLUMN_ENTRIES[dtype], min_size=n, max_size=n))
        columns.append((f"c{k}", np.array(values, dtype), bounds, integer))
    return columns


@settings(deadline=None)
@given(columns=drawn_column_sets())
def test_a_column_is_checked_as_each_of_its_entries(columns):
    """The column rule names the first row in which ``setting_problems`` refuses an entry, with
    that row's problems, whatever the arrays hold and however many rows are bad."""
    rows = [
        [p for name, array, bounds, integer in columns
         for p in setting_problems(f"{name}[{i}]", array.tolist()[i], bounds, integer=integer)]
        for i in range(len(columns[0][1]))
    ]
    assert column_problems(columns) == next(filter(None, rows), [])


def test_an_object_column_of_good_entries_has_no_problem():
    """An object column is checked entry by entry; when every entry passes, there is no problem."""
    assert column_problems([("c", np.array([0, 0.5, 1.0], object), "[0, 1]", False)]) == []


#: The ends a drawn range may have: both infinities, and 0, 1/2, 1, 2**53, 2**63 and the
#: largest float with either sign.
ENDS = [
    -math.inf, math.inf,
    *(sign * end for end in (0, 0.5, 1, 2**53, 2**63, sys.float_info.max) for sign in (1, -1)),
]
#: An integer past the largest float, which a float rounds to the largest float.
BIG = int(sys.float_info.max) + 2**969
#: Integers past the largest float.
HUGE_INTEGERS = [2**1024, -(2**1024), 2**1024 + 1, 10**400]
#: The numpy integer types and the least and greatest integer each holds.
INTEGER_KINDS = ((np.int64, -(2**63), 2**63 - 1), (np.uint64, 0, 2**64 - 1))


@st.composite
def drawn_ranges(draw):
    """A range in interval notation, open or closed at each end, and whether its field holds
    integers. Each end is drawn from ``ENDS`` and written as a float or, if whole, an integer."""
    texts = []
    for end in (draw(st.sampled_from(ENDS)), draw(st.sampled_from(ENDS))):
        whole = math.isfinite(end) and end == int(end) and draw(st.booleans())
        texts.append(str(int(end)) if whole else repr(float(end)))
    brackets = draw(st.sampled_from(["[]", "[)", "(]", "()"]))
    return f"{brackets[0]}{texts[0]}, {texts[1]}{brackets[1]}", draw(st.booleans())


def read_exactly(x, bounds: str, integer: bool) -> bool:
    """Whether the number ``x`` lies in ``bounds``, compared as fractions: NaN never does, and in
    a field of numbers (not ``integer``) no infinity and no integer past the largest float does."""
    x = x.item() if isinstance(x, np.generic) else x
    if x != x:
        return False
    value = x if isinstance(x, float) and math.isinf(x) else Fraction(x)
    low, high, low_open, high_open = bounds_of(bounds)
    low, high = (end if math.isinf(end) else Fraction(end) for end in (low, high))
    largest = Fraction(sys.float_info.max)
    return (
        (low < value if low_open else low <= value)
        and (value < high if high_open else value <= high)
        and (integer or -largest <= value <= largest)
    )


def numpy_forms(x) -> list:
    """``x`` and the numpy scalars of it: ``int64`` and ``uint64`` of an integer they hold, and
    ``float32`` and ``float16`` of a float, rounded."""
    if type(x) is float:
        with np.errstate(over="ignore"):
            return [x, np.float32(x), np.float16(x)]
    return [x, *(kind(x) for kind, low, high in INTEGER_KINDS if low <= x <= high)]


@settings(deadline=None)
@given(drawn=drawn_ranges(), data=st.data())
def test_the_range_reader_reads_a_range_exactly(drawn, data):
    """``_within`` accepts a number, or each entry of an array, exactly when fractions do.

    The numbers lie on, next to and far from each end, NaN, both infinities and
    integers past the largest float among them, each as a Python number, as every
    numpy scalar that holds it and in ``int64``, ``uint64`` and ``float64``
    arrays. A field of integers holds only integers.
    """
    bounds, integer = drawn
    values = [
        value
        for end in bounds_of(bounds)[:2]
        for value in (
            [end, math.nextafter(end, -math.inf), math.nextafter(end, math.inf)]
            + ([int(end) + d for d in range(-2, 3)] if math.isfinite(end) else [])
        )
    ]
    values += HUGE_INTEGERS + [math.nan, math.inf, -math.inf]
    values += data.draw(st.lists(st.integers() | st.floats(), max_size=5), label="values")
    if integer:
        values = [v for v in values if type(v) is int]
    for x in (form for v in values for form in numpy_forms(v)):
        assert _within(x, bounds, integer) == read_exactly(x, bounds, integer), x
    arrays = [
        np.array([v for v in values if type(v) is int and low <= v <= high], kind)
        for kind, low, high in INTEGER_KINDS
    ]
    if not integer:
        arrays.append(np.array([v for v in values if type(v) is float], np.float64))
    for array in arrays:
        expected = [read_exactly(v, bounds, integer) for v in array.tolist()]
        assert _within(array, bounds, integer).tolist() == expected, array


#: Values of a JSON field for the column reader: integers on either side of 2**53, of int64 and
#: of the largest float, floats on the edges of their range, and values of no number type.
COLUMN_VALUES = [
    0, 1, -1, *(sign * (end + d) for end in (2**53, 2**63) for d in (-1, 0, 1) for sign in (1, -1)),
    2**64, -(2**64), BIG, -BIG, 10**400, -(10**400),
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max, -sys.float_info.max,
    math.nan, math.inf, -math.inf, 0.5, 1.0,
    True, False, None, "1",
]
#: Every range a record field is read with, and whether an ``int64`` column holds it, so that it
#: may bound an integer field too.
COLUMN_BOUNDS = [
    ("[0, 1]", True), ("(0, inf)", False), ("(-inf, inf)", False), ("[0, 3]", True),
    ("[0, 7]", True), ("[0, 31]", True), (_ID_RANGE, True),
]


@settings(max_examples=examples(100), deadline=None)
@given(
    values=st.lists(st.sampled_from(COLUMN_VALUES) | st.integers() | st.floats(), max_size=12),
    drawn=st.sampled_from(COLUMN_BOUNDS),
    integer=st.booleans(),
)
@example(values=[BIG], drawn=("(0, inf)", False), integer=False)
@example(values=[0.5, -BIG, 2], drawn=("(-inf, inf)", False), integer=False)
def test_the_column_reader_follows_the_number_rule(values, drawn, integer):
    """``_column`` refuses an entry exactly when ``setting_problems`` does, marks the entries of
    the wrong type, and reads every accepted entry as ``int`` or ``float`` reads it.

    An integer field's range lies in ``int64``, which holds its column.
    """
    bounds, fits_int64 = drawn
    integer = integer and fits_int64
    column, mistyped, bad = _column(values, bounds, integer)
    kinds = (int,) if integer else (int, float)
    assert column.dtype == (np.int64 if integer else np.float64)
    assert bad.tolist() == [bool(setting_problems("v", v, bounds, integer=integer)) for v in values]
    assert mistyped.tolist() == [type(v) not in kinds for v in values]
    read = int if integer else float
    accepted = [(got, v) for got, v, refused in zip(column.tolist(), values, bad) if not refused]
    assert [repr(got) for got, _ in accepted] == [repr(read(v)) for _, v in accepted]


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
    ("width", lambda v: AnnotatedImage(1, v, 5), "(0, inf)", False, False),
    ("height", lambda v: AnnotatedImage(1, 5, v), "(0, inf)", False, False),
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
@settings(max_examples=examples(150), deadline=None)
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


def parse_fused(path):
    return parse_detections(path, "fused")


def parse_product(path):
    return parse_detections(path, "enumeration-model")


def parse_disease(path):
    return parse_detections(path, "diagnosis-A")


def parse_images(path):
    """``parse_ground_truth`` of the image records in ``path``, with no annotations."""
    path.write_text(json.dumps({"images": json.loads(path.read_text()), "annotations": []}))
    return parse_ground_truth(path)


def parse_annotations(path):
    """``parse_ground_truth`` of the annotation records in ``path``, all on image 1."""
    images = [{"id": 1, "width": 5, "height": 5}]
    path.write_text(json.dumps({"images": images, "annotations": json.loads(path.read_text())}))
    return parse_ground_truth(path)


DETECTIONS = [{"image_id": 1, "bbox": [0, 0, 1, 1], "score": 0.5, "category_id_3": 0}] * 2
#: The category code fields of a triple and the bounds of each.
TRIPLE_CODES = (("category_id_1", "[0, 3]"), ("category_id_2", "[0, 7]"), ("category_id_3", "[0, 3]"))
#: The coordinates of a box and the bounds of each.
BOX_CODES = (("x", "(-inf, inf)"), ("y", "(-inf, inf)"), ("w", "(0, inf)"), ("h", "(0, inf)"))
#: Detections and annotations whose category is a bare ``category_id``.
BARE = [{"image_id": 1, "bbox": [0, 0, 1, 1], "score": 0.5, "category_id": 1}] * 2
CROPS = [
    {"crop_id": i, "image_id": 1, "crop_bbox": [0, 0, 1, 1], "source_bbox": [0, 0, 1, 1],
     "category_id_1": 0, "category_id_2": 1, "enum_score": 0.5}
    for i in (0, 1)
]
VERDICTS = [{"crop_id": i, "label": "caries", "confidence": 0.5} for i in (0, 1)]
IMAGES = [{"id": i, "width": 5, "height": 5} for i in (1, 2)]

#: (name, read the file, its two good records, error, bounds, integer, optional, build the
#: value type with the value or None): the number fields of the record files.
RECORD_FIELDS = [
    (
        "score", parse_fused, DETECTIONS, InvalidScore, "[0, 1]", False, False,
        lambda v: Detection(1, BoundingBox(0, 0, 1, 1), v, CategoryTriple(disease="caries"), "fused"),
    ),
    (
        "matched_enum_id", parse_fused, DETECTIONS, MalformedFile, _ID_RANGE, True, True,
        lambda v: Detection(1, BoundingBox(0, 0, 1, 1), 0.5, CategoryTriple(1, 2), "fused", v),
    ),
    ("enum_score", read_crop_manifest, CROPS, MalformedFile, "[0, 1]", False, False, None),
    ("crop_id", read_crop_manifest, CROPS, MalformedFile, _ID_RANGE, True, False, None),
    (
        "confidence", parse_crop_classifications, VERDICTS, MalformedFile, "[0, 1]", False, False,
        lambda v: CropClassification(0, "caries", v),
    ),
    (
        "crop_id", parse_crop_classifications, VERDICTS, MalformedFile, _ID_RANGE, True, False,
        lambda v: CropClassification(v, "caries", 0.5),
    ),
    (
        "width", parse_images, IMAGES, MalformedFile, "(0, inf)", False, False,
        lambda v: AnnotatedImage(1, v, 5),
    ),
    # The 0-based category codes; CategoryTriple holds them 1-based, so no value type builds them.
    *(
        (name, read, DETECTIONS, InvalidCategory, bounds, True, False, None)
        for read in (parse_fused, parse_annotations)
        for name, bounds in TRIPLE_CODES
    ),
    ("category_id", parse_product, BARE, InvalidCategory, "[0, 31]", True, False, None),
    ("category_id", parse_disease, BARE, InvalidCategory, "[0, 3]", True, False, None),
    ("category_id", parse_annotations, BARE, InvalidCategory, "[0, 31]", True, False, None),
    *(
        (name, read_crop_manifest, CROPS, InvalidCategory, bounds, True, False, None)
        for name, bounds in TRIPLE_CODES[:2]
    ),
    # A box coordinate, named ``bbox w`` and on; BoundingBox names it ``box w``.
    *(
        (
            f"{key} {coordinate}", read, records, MalformedFile, bounds, False, False,
            lambda v, k=k: BoundingBox(*(v if j == k else end for j, end in enumerate((0, 0, 1, 1)))),
        )
        for read, records, key in (
            (parse_fused, DETECTIONS, "bbox"),
            (parse_annotations, DETECTIONS, "bbox"),
            (read_crop_manifest, CROPS, "crop_bbox"),
            (read_crop_manifest, CROPS, "source_bbox"),
        )
        for k, (coordinate, bounds) in enumerate(BOX_CODES)
    ),
]
#: The short test ids of ``BIG`` and ``-BIG``.
BIG_IDS = {BIG: "past-float-max", -BIG: "past-lowest-float"}
#: Each record field with the values among -1, 1.5, three non-numbers and ±BIG that its rule refuses.
RECORD_CASES = [
    pytest.param(*row, value, id=f"{row[0]}-{row[1].__name__}-{BIG_IDS.get(value, value)}")
    for row in RECORD_FIELDS
    for value in (-1, 1.5, "x", True, None, BIG, -BIG)
    if setting_problems(row[0], value, row[4], integer=row[5], optional=row[6])
]


@pytest.mark.parametrize("name,read,records,error,bounds,integer,optional,build,value", RECORD_CASES)
def test_a_file_names_a_bad_number_as_memory_does(
    tmp_path, name, read, records, error, bounds, integer, optional, build, value
):
    """A record file names a bad number in the words of the settings rule, as the value type does.

    A value that is no number (for an integer field, no ``int``) is
    :class:`MalformedFile`; a number the field refuses is the field's error.
    A box coordinate, such as ``bbox w``, is set in its box and named as
    :class:`BoundingBox` names ``box w``.
    """
    key, _, coordinate = name.partition(" ")
    written = value
    if coordinate:
        written = list(records[1][key])
        written["xywh".index(coordinate)] = value
    path = tmp_path / "records.json"
    path.write_text(json.dumps([records[0], {**records[1], key: written}]))
    number = type(value) is int or type(value) is float and not integer
    with pytest.raises(error if number else MalformedFile) as exc_info:
        read(path)
    named = str(exc_info.value).partition("[1]: ")[2]
    assert named == setting_problems(name, value, bounds, integer=integer, optional=optional)[0]
    if build is not None:
        with pytest.raises(ConfigError) as exc_info:
            build(value)
        assert str(exc_info.value) == named.replace(name, f"box {coordinate}" if coordinate else name, 1)


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

    @pytest.mark.parametrize(
        "build,named",
        [
            (lambda: BalancePlan(counts=[1]), "counts must be a mapping, got [1]"),
            (lambda: BalancePlan(multipliers=None), "multipliers must be a mapping, got None"),
            (lambda: oversample_plan(5), "counts must be a mapping, got 5"),
            (lambda: oversample_plan({}, boost=5), "multipliers must be a mapping, got 5"),
        ],
        ids=["counts-list", "multipliers-none", "counts-number", "boost-number"],
    )
    def test_a_plan_is_a_mapping(self, build, named):
        """Each raised a bare AttributeError or TypeError before the rule."""
        with pytest.raises(ConfigError, match=f"^{re.escape(named)}$"):
            build()


#: Every path a pipeline config requires, each set to a file that exists or, for ``out_dir``,
#: to a directory that is not made at construction; all absolute, so none is resolved.
CONFIG_PATHS = {
    "ground_truth": __file__,
    "enumeration": __file__,
    "diagnosis_a": __file__,
    "out_dir": os.path.join(os.path.dirname(__file__), "unused"),
}

#: Per kind of settings file, by its name in messages: its required keys with good values and
#: the problem of each left out, good settings, bad settings with the problem of each, and keys
#: that it has no field for.
SETTINGS_FILES = {
    "pipeline config": (
        {key: (path, f"{key} path is required") for key, path in CONFIG_PATHS.items()},
        {"tau": 0.3, "axes": ["disease", "quadrant"], "diagnosis_b": __file__},
        {
            "tau": (7, "tau must be a number in [0, 1], got 7"),
            "max_dets": (0, "max_dets must be an integer in [1, inf), got 0"),
            "overlap_iou": (2, "overlap_iou must be a number in [0, 1], got 2"),
        },
        ("taus", 7),
    ),
    "profile": (
        {"name": ("custom", "name must be a string, got None")},
        {"recall": 0.5, "fp_per_image": 1.5},
        {
            "recall": (2, "recall must be a number in [0, 1], got 2"),
            "fp_per_image": (-1, "fp_per_image must be a number in [0, inf), got -1"),
            "localization_noise": (0.6, "localization_noise must be a number in [0, 0.5], got 0.6"),
        },
        ("percision", "det_cap"),
    ),
}


def read_settings(what: str, payload: dict, as_file: bool):
    """The settings object of ``payload``: a pipeline config from the dict itself, or either
    kind from a JSON file holding it."""
    if not as_file:
        return pipeline_config_from_dict(payload)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "settings.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return (load_profile if what == "profile" else load_pipeline_config)(path)


@settings(max_examples=examples(100), deadline=None)
@given(
    source=st.sampled_from([("pipeline config", False), ("pipeline config", True), ("profile", True)]),
    data=st.data(),
)
def test_a_settings_file_names_every_problem(source, data):
    """A payload with no fault builds the object its settings construct; any other is one
    ConfigError that names each left-out key, unknown key, bad value and wrong schema_version."""
    what, as_file = source
    required, good, bad, unknown_keys = SETTINGS_FILES[what]
    left_out = data.draw(st.sets(st.sampled_from(sorted(required))), "left out")
    unknown = data.draw(st.sets(st.sampled_from(unknown_keys)), "unknown keys")
    if as_file:  # a JSON object's keys are strings
        unknown = {str(key) for key in unknown}
    faults = data.draw(st.sets(st.sampled_from(sorted(bad)), max_size=2), "bad values")
    # A profile has no schema_version, so there it is one more unknown key.
    version = data.draw(st.sampled_from([1, None] if what == "profile" else [1, None, 2, "1"]))
    settings = {key: value for key, (value, _) in required.items() if key not in left_out}
    settings |= good | {key: bad[key][0] for key in faults}
    payload = {**settings, **{key: 0 for key in unknown}}
    problems = [required[key][1] for key in left_out] + [bad[key][1] for key in faults]
    if version is not None:
        payload["schema_version"] = version
    if what == "profile" and version is not None:
        unknown.add("schema_version")
    elif what == "pipeline config" and version != 1:
        problems.append(f"unsupported schema_version {version!r}, expected 1")
    if unknown:
        problems.append(f"unknown {what} keys: {sorted(unknown, key=repr)!r}")

    if not problems:
        make = DetectorProfile if what == "profile" else PipelineConfig
        assert read_settings(what, payload, as_file) == make(**settings)
        return
    with pytest.raises(ConfigError) as info:
        read_settings(what, payload, as_file)
    assert sorted(str(info.value).split("; ")) == sorted(problems)


class TestSettingsFiles:
    """Examples of the one rule that builds and refuses both kinds of settings file."""

    def test_a_config_with_no_path_names_all_four(self):
        named = "; ".join(f"{key} path is required" for key in CONFIG_PATHS)
        with pytest.raises(ConfigError, match=f"^{re.escape(named)}$"):
            PipelineConfig()

    def test_a_profile_with_no_name_is_refused(self):
        with pytest.raises(ConfigError, match=r"^name must be a string, got None$"):
            DetectorProfile()

    def test_keys_of_mixed_types_are_named_in_one_error(self):
        """This raised a bare TypeError from sorting the unknown keys."""
        named = "unknown pipeline config keys: ['x', 1]; ground_truth path is required"
        with pytest.raises(ConfigError, match=f"^{re.escape(named)}"):
            pipeline_config_from_dict({1: 2, "x": 3, "schema_version": 1})

    def test_a_profile_file_holding_an_array_is_refused(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(ConfigError, match=r"^profile must be a JSON object$"):
            load_profile(path)

    @pytest.mark.parametrize("what,load", [("profile", load_profile), ("pipeline config", load_pipeline_config)])
    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing-file", "directory"])
    def test_a_file_that_cannot_be_read_is_a_config_error(self, tmp_path, what, load, name):
        """A profile leaked FileNotFoundError or IsADirectoryError, and so did a config."""
        with pytest.raises(ConfigError, match=f"^cannot read {what}: .*{re.escape(str(tmp_path))}"):
            load(tmp_path / name)
