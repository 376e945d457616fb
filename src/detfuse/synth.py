"""Synthetic panoramic-radiograph scenes and simulated detector outputs.

The generator lays out up to 32 teeth per image on two arches using FDI
numbering, marks a random subset as diseased, and the simulator then
produces detections with configurable recall, localisation noise, score
distributions and false-positive rate. Determinism contract: every image
is simulated from its own ``numpy.random.default_rng([seed, salt, index])``
stream, so results are independent of image processing order.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field, fields
from importlib import resources
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .detections import DetectionSet
from .errors import ConfigError, choice_problems, raise_problems, setting_problems, shorten
from .geometry import DISEASES, BoundingBox, CategoryTriple, Detection
from .io import AnnotatedDataset, AnnotatedImage, GroundTruthAnnotation, PathLike

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
    det_cap: Optional[int] = None

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
            + setting_problems("det_cap", self.det_cap, "[1, inf)", integer=True, optional=True)
        )


# FDI layout: the upper arch reads quadrant 1 tooth 8..1 then quadrant 2
# tooth 1..8 from left to right; the lower arch mirrors with quadrants 4/3.
_UPPER = [(1, t) for t in range(8, 0, -1)] + [(2, t) for t in range(1, 9)]
_LOWER = [(4, t) for t in range(8, 0, -1)] + [(3, t) for t in range(1, 9)]


def generate_scene(plan: ScenePlan) -> AnnotatedDataset:
    """Build a deterministic synthetic dataset from ``plan``.

    Healthy teeth get quadrant+tooth annotations; diseased teeth carry the
    full quadrant+tooth+disease triple.
    """
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


def _clamped_normal(rng: np.random.Generator, mean: float, std: float) -> float:
    return min(max(float(rng.normal(mean, std)), 0.0), 1.0)


def _jitter_box(
    rng: np.random.Generator, box: BoundingBox, noise: float, width: int, height: int
) -> BoundingBox:
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
    """
    problems = setting_problems("seed", seed, "[0, inf)", integer=True)
    problems += choice_problems("source", source, SIMULATOR_SOURCES)
    raise_problems(problems)
    enumeration_task = source == "enumeration-model"
    salt = zlib.crc32(f"{profile.name}|{source}".encode("utf-8"))

    by_image: dict = {img.image_id: [] for img in ds.images}
    for ann in ds.annotations:
        by_image[ann.image_id].append(ann)

    detections = []
    for index, img in enumerate(ds.images):
        rng = np.random.default_rng([seed, salt, index])
        image_dets = []
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
            box = _jitter_box(rng, ann.box, profile.localization_noise, img.width, img.height)
            score = _clamped_normal(rng, profile.tp_score_mean, profile.tp_score_std)
            image_dets.append(Detection(img.image_id, box, score, out_cat, source))
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
            score = _clamped_normal(rng, profile.fp_score_mean, profile.fp_score_std)
            image_dets.append(Detection(img.image_id, BoundingBox(x, y, w, h), score, cat, source))
        if profile.det_cap is not None and len(image_dets) > profile.det_cap:
            order = sorted(range(len(image_dets)), key=lambda k: (-image_dets[k].score, k))
            image_dets = [image_dets[k] for k in sorted(order[: profile.det_cap])]
        detections.extend(image_dets)
    return DetectionSet(detections, source, ds.image_ids())


# ---------------------------------------------------------------------------
# profile loading

BUILTIN_PROFILES = ("diffusiondet-like", "dino-like", "perfect")
_PROFILE_KEYS = {f.name for f in fields(DetectorProfile)}


def load_profile(name_or_path: PathLike) -> DetectorProfile:
    """Load a built-in profile by name, or any profile from the JSON file at a path."""
    if isinstance(name_or_path, str) and name_or_path in BUILTIN_PROFILES:
        text = (
            resources.files("detfuse").joinpath(f"profiles/{name_or_path}.json").read_text("utf-8")
        )
    elif isinstance(name_or_path, (str, os.PathLike)):
        with open(name_or_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        raise ConfigError(f"profile must be a name or a path, got {shorten(name_or_path)}")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"profile is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("profile JSON must be an object")
    unknown = set(payload) - _PROFILE_KEYS
    if unknown:
        raise ConfigError(f"unknown profile fields: {shorten(sorted(unknown))}")
    if "name" not in payload:
        raise ConfigError("profile is missing a name")
    return DetectorProfile(**payload)
