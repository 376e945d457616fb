"""Synthetic panoramic-radiograph scenes and simulated detector outputs.

The generator lays out up to 32 teeth per image on two arches using FDI
numbering, marks a random subset as diseased, and the simulator then
produces detections with configurable recall, localisation noise, score
distributions and false-positive rate. Both build their sets as columns:
each drawn value is appended to a list of Python floats and ints, and each
column becomes one array when the last image is drawn. No object is built
per row; the set's constructor checks its columns, as every column set's does.

Determinism contract: every value is one scalar ``Generator`` call, and the
calls of an image come in a fixed order. The generator draws image after
image from ``numpy.random.default_rng(plan.seed)``; the simulator draws each
image from its own ``numpy.random.default_rng([seed, salt, index])`` stream,
so an image's detections do not depend on the other images of the set. The
calls are neither batched nor rewritten. A batched call would change the
order of the values in the stream. Rewriting ``rng.uniform(a, b)`` as
``a + (b - a) * rng.random()`` gives the same bits only where numpy's C code
was compiled without fused multiply-add contraction. Every benchmark input's
bytes hang on both.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .detections import Columns, DetectionSet, _category_key, category_codes
from .errors import ConfigError, choice_problems, raise_problems, setting_problems, shorten
from .geometry import DISEASES, source_code
from .io import AnnotatedDataset, AnnotatedImage, PathLike, _load_config

SIMULATOR_SOURCES = ("enumeration-model", "diagnosis-A", "diagnosis-B")

# Every synthetic image has the same extent; each tooth's position, size and
# aspect vary by up to this fraction of its slot.
_WIDTH = 2900
_HEIGHT = 1300
_LAYOUT_JITTER = 0.05


@dataclass(frozen=True, slots=True)
class ScenePlan:
    """Layout and labelling parameters for one synthetic dataset."""

    num_images: int = 10
    missing_rate: float = 0.0
    #: A probability per disease, held read-only in :data:`DISEASES` order and left out of the hash.
    disease_prior: Mapping[str, float] = field(default_factory=dict, hash=False)
    seed: int = 0

    def __post_init__(self) -> None:
        prior, problems = self.disease_prior, []
        if not isinstance(prior, Mapping):
            problems.append(f"disease_prior must be a mapping, got {shorten(prior)}")
            prior = {}
        pairs = [(name, prior[name]) for name in DISEASES if name in prior] + [
            (name, p) for name, p in prior.items() if name not in DISEASES
        ]
        for name, p in pairs:
            problems += choice_problems("disease_prior disease", name, DISEASES)
            problems += setting_problems(f"disease_prior[{shorten(name)}]", p, "[0, inf)")
        if not problems and sum(p for _, p in pairs) > 1.0 + 1e-9:
            problems.append("disease_prior mass exceeds 1")
        problems += setting_problems("num_images", self.num_images, "[1, inf)", integer=True)
        problems += setting_problems("missing_rate", self.missing_rate, "[0, 1)")
        problems += setting_problems("seed", self.seed, "[0, inf)", integer=True)
        raise_problems(problems)
        object.__setattr__(self, "disease_prior", MappingProxyType(dict(pairs)))


@dataclass(frozen=True, slots=True)
class DetectorProfile:
    """Statistical behaviour of one simulated detector."""

    name: str
    recall: float = 1.0
    fp_per_image: float = 0.0
    localization_noise: float = 0.0
    tp_score_mean: float = 1.0
    tp_score_std: float = 0.0
    fp_score_mean: float = 0.5
    fp_score_std: float = 0.0

    def __post_init__(self) -> None:
        raise_problems(
            choice_problems("name", self.name, str)
            + setting_problems("recall", self.recall, "[0, 1]")
            + setting_problems("fp_per_image", self.fp_per_image, "[0, inf)")
            + setting_problems("localization_noise", self.localization_noise, "[0, 0.5]")
            + setting_problems("tp_score_mean", self.tp_score_mean, "[0, 1]")
            + setting_problems("tp_score_std", self.tp_score_std, "[0, inf)")
            + setting_problems("fp_score_mean", self.fp_score_mean, "[0, 1]")
            + setting_problems("fp_score_std", self.fp_score_std, "[0, inf)")
        )


# FDI layout: the upper arch reads quadrant 1 tooth 8..1 then quadrant 2
# tooth 1..8 from left to right; the lower arch mirrors with quadrants 4/3.
_UPPER = [(1, t) for t in range(8, 0, -1)] + [(2, t) for t in range(1, 9)]
_LOWER = [(4, t) for t in range(8, 0, -1)] + [(3, t) for t in range(1, 9)]


def _columns(xywh: list, codes: list) -> tuple[np.ndarray, np.ndarray]:
    """The box column of the flat x, y, w, h floats ``xywh`` and the category key of each row's
    (quadrant, tooth, disease) codes in ``codes``."""
    boxes = np.array(xywh, float).reshape(-1, 4)
    return boxes, _category_key(*np.array(codes, np.intp).reshape(-1, 3).T)


def generate_scene(plan: ScenePlan) -> AnnotatedDataset:
    """Build a deterministic synthetic dataset from ``plan``.

    Healthy teeth get quadrant+tooth annotations; diseased teeth carry the
    full quadrant+tooth+disease triple. The dataset is built from columns.
    """
    rng = np.random.default_rng(plan.seed)
    margin = 0.05 * _WIDTH
    slot_w = (_WIDTH - 2 * margin) / 16
    tooth_w = 0.72 * slot_w
    tooth_h = 0.22 * _HEIGHT
    rows = ((_UPPER, 0.20 * _HEIGHT), (_LOWER, 0.55 * _HEIGHT))

    prior = [(DISEASES.index(name), p) for name, p in plan.disease_prior.items()]
    images, image, xywh, codes = [], [], [], []
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
                disease = -1
                u = rng.random()
                acc = 0.0
                for code, p in prior:
                    acc += p
                    if u < acc:
                        disease = code
                        break
                image.append(i)
                xywh += (x, y, w, h)
                codes.append((quadrant - 1, tooth - 1, disease))
    boxes, key = _columns(xywh, codes)
    return AnnotatedDataset._from_columns(
        images, np.array(image, np.int32), boxes, key, [None] * len(key)
    )


def _clamped_normal(rng: np.random.Generator, mean: float, std: float) -> float:
    return min(max(float(rng.normal(mean, std)), 0.0), 1.0)


def _jitter_box(
    rng: np.random.Generator, box: list, noise: float, width: float, height: float
) -> tuple[float, float, float, float]:
    bx, by, bw, bh = box
    dx = float(rng.normal(0.0, 1.0)) * noise * bw
    dy = float(rng.normal(0.0, 1.0)) * noise * bh
    sw = 1.0 + float(rng.normal(0.0, 1.0)) * noise
    sh = 1.0 + float(rng.normal(0.0, 1.0)) * noise
    w = max(bw * sw, 1.0)
    h = max(bh * sh, 1.0)
    w = min(w, float(width))
    h = min(h, float(height))
    x = min(max(bx + dx, 0.0), width - w)
    y = min(max(by + dy, 0.0), height - h)
    return x, y, w, h


def simulate_detector(
    ds: AnnotatedDataset,
    profile: DetectorProfile,
    source: str = "diagnosis-A",
    seed: int = 0,
) -> DetectionSet:
    """Run one simulated detector over every image of ``ds``.

    ``source`` selects the task: ``enumeration-model`` emits quadrant+tooth
    detections for every tooth, the diagnosis sources emit disease-only
    detections for diseased teeth. Each image draws from an independent
    seeded stream, so per-image results never depend on batch composition.
    The annotations are read from the dataset's columns, and the set is
    built from columns, which :class:`~detfuse.detections.Columns` checks: a
    box or score out of range is a :class:`ConfigError` that names its row.
    """
    problems = setting_problems("seed", seed, "[0, inf)", integer=True)
    problems += choice_problems("source", source, SIMULATOR_SOURCES)
    raise_problems(problems)
    enumeration_task = source == "enumeration-model"
    salt = zlib.crc32(f"{profile.name}|{source}".encode("utf-8"))

    # Each annotation's codes as the task sees them, and the rows it detects, image by image.
    quadrant, tooth, disease = category_codes(ds.key)
    absent = np.full_like(disease, -1)
    if enumeration_task:
        eligible, disease = (quadrant >= 0) & (tooth >= 0), absent
    else:
        eligible, quadrant, tooth = disease >= 0, absent, absent
    targets = np.flatnonzero(eligible)
    targets = targets[np.argsort(ds.image[targets], kind="stable")]
    ends = np.cumsum(np.bincount(ds.image[targets], minlength=len(ds.images))).tolist()
    truth, found = ds.xywh.tolist(), list(zip(quadrant.tolist(), tooth.tolist(), disease.tolist()))

    image, xywh, score, codes = [], [], [], []
    targets, start = targets.tolist(), 0
    for index, (img, end) in enumerate(zip(ds.images, ends)):
        rng = np.random.default_rng([seed, salt, index])
        for row in targets[start:end]:
            if rng.random() >= profile.recall:
                continue
            xywh += _jitter_box(rng, truth[row], profile.localization_noise, img.width, img.height)
            score.append(_clamped_normal(rng, profile.tp_score_mean, profile.tp_score_std))
            image.append(index)
            codes.append(found[row])
        start = end
        n_fp = int(rng.poisson(profile.fp_per_image))
        for _ in range(n_fp):
            w = float(rng.uniform(0.04, 0.09)) * img.width
            h = float(rng.uniform(0.15, 0.30)) * img.height
            x = float(rng.uniform(0.0, img.width - w))
            y = float(rng.uniform(0.0, img.height - h))
            xywh += (x, y, w, h)
            if enumeration_task:
                codes.append((int(rng.integers(1, 5)) - 1, int(rng.integers(1, 9)) - 1, -1))
            else:
                codes.append((-1, -1, int(rng.integers(0, len(DISEASES)))))
            score.append(_clamped_normal(rng, profile.fp_score_mean, profile.fp_score_std))
            image.append(index)
    boxes, key = _columns(xywh, codes)
    n = len(score)
    columns = Columns(
        tuple(ds.image_ids()), np.array(image, np.int32), boxes, np.array(score, float), key,
        np.full(n, source_code(source), np.int8), np.full(n, -1, np.int64),
    )
    return DetectionSet.from_columns(columns, source)


# ---------------------------------------------------------------------------
# profile loading

BUILTIN_PROFILES = ("diffusiondet-like", "dino-like", "perfect")
_PROFILE_KEYS = {f.name for f in fields(DetectorProfile)}


def load_profile(name_or_path: PathLike) -> DetectorProfile:
    """Load a built-in profile by name, or any profile from the JSON file at a path."""
    if isinstance(name_or_path, str) and name_or_path in BUILTIN_PROFILES:
        path = resources.files("detfuse").joinpath(f"profiles/{name_or_path}.json")
    elif isinstance(name_or_path, (str, os.PathLike)):
        path = Path(name_or_path)
    else:
        raise ConfigError(f"profile must be a name or a path, got {shorten(name_or_path)}")
    payload = _load_config(path, "profile")
    if not isinstance(payload, dict):
        raise ConfigError("profile JSON must be an object")
    unknown = set(payload) - _PROFILE_KEYS
    if unknown:
        raise ConfigError(f"unknown profile fields: {shorten(sorted(unknown))}")
    if "name" not in payload:
        raise ConfigError("profile is missing a name")
    return DetectorProfile(**payload)
