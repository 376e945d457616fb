"""End-to-end pipeline orchestration and config handling."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import subprocess
import sys

import pytest

import detfuse.detections as detections_module
import detfuse.pipeline as pipeline_module
from detfuse import (
    AXES,
    BoundingBox,
    ConfigError,
    CropAssignment,
    CropClassification,
    Detection,
    DetfuseError,
    GroundTruthAnnotation,
    PipelineConfig,
    PipelineStageError,
    ScenePlan,
    assign_crops,
    filter_enumeration,
    generate_scene,
    load_pipeline_config,
    load_profile,
    parse_crop_classifications,
    parse_detections,
    parse_ground_truth,
    pipeline_config_from_dict,
    read_crop_manifest,
    run_pipeline,
    simulate_detector,
    write_crop_classifications,
    write_detections,
    write_ground_truth,
)

PRIOR = {"caries": 0.4, "impacted": 0.3}


def make_inputs(tmp_path, *, prior=PRIOR, num_images=4):
    """Write gt/enum/diag-A/diag-B files, return (dataset, path dict)."""
    ds = generate_scene(ScenePlan(num_images=num_images, disease_prior=prior, seed=21))
    enums = simulate_detector(ds, load_profile("perfect"), "enumeration-model", seed=1)
    diag_a = simulate_detector(ds, load_profile("diffusiondet-like"), "diagnosis-A", seed=1)
    diag_b = simulate_detector(ds, load_profile("dino-like"), "diagnosis-B", seed=1)
    paths = {
        "ground_truth": str(tmp_path / "gt.json"),
        "enumeration": str(tmp_path / "enum.json"),
        "diagnosis_a": str(tmp_path / "diag_a.json"),
        "diagnosis_b": str(tmp_path / "diag_b.json"),
        "out_dir": str(tmp_path / "out"),
    }
    write_ground_truth(ds, paths["ground_truth"])
    write_detections(enums, paths["enumeration"])
    write_detections(diag_a, paths["diagnosis_a"])
    write_detections(diag_b, paths["diagnosis_b"])
    return ds, paths


def oracle_verdicts(ds, paths, out_path, gate=0.7, pad=0.1):
    """Classify each crop with its ground-truth disease at confidence 0.9."""
    truth = {
        (a.image_id, a.category.quadrant, a.category.enumeration): a.category.disease
        for a in ds.annotations
    }
    enums = parse_detections(paths["enumeration"], "enumeration-model")
    crops = assign_crops(filter_enumeration(enums, gate), ds.images, pad)
    verdicts = [
        CropClassification(i, truth[(c.image_id, *c.tooth)] or "normal", 0.9)
        for i, c in enumerate(crops)
    ]
    write_crop_classifications(verdicts, out_path)
    return str(out_path)


class TestRunPipeline:
    def test_full_run_writes_all_artifacts(self, tmp_path):
        ds, paths = make_inputs(tmp_path)
        result = run_pipeline(PipelineConfig(**paths, axes=("disease", "agnostic")))
        names = [os.path.basename(p) for p in result.artifacts]
        assert names == [
            "01_fused.json",
            "02_integrated.json",
            "04_final.json",
            "metrics_disease.json",
            "metrics_agnostic.json",
        ]
        assert all(os.path.isfile(p) for p in result.artifacts)
        assert result.fused.source == "fused"
        assert result.final.source == "fused"
        assert set(result.reports) == {"disease", "agnostic"}
        payload = json.loads(open(os.path.join(paths["out_dir"], "metrics_disease.json")).read())
        assert payload["mAP"] == result.reports["disease"].mean_ap

    def test_fused_artifact_round_trips(self, tmp_path):
        ds, paths = make_inputs(tmp_path)
        result = run_pipeline(PipelineConfig(**paths))
        reread = parse_detections(os.path.join(paths["out_dir"], "01_fused.json"), "fused")
        assert len(reread) == len(result.fused)
        for a, b in zip(reread, result.fused):
            assert a.box == b.box
            assert a.score == b.score
            assert a.category == b.category

    def test_complementary_stage_adds_detections_and_lifts_map(self, tmp_path):
        ds, paths = make_inputs(tmp_path)
        base = run_pipeline(PipelineConfig(**paths))
        verdicts = oracle_verdicts(ds, paths, tmp_path / "verdicts.json")
        with_crops = run_pipeline(
            PipelineConfig(
                **{**paths, "out_dir": str(tmp_path / "out2")},
                crop_classifications=verdicts,
            )
        )
        names = [os.path.basename(p) for p in with_crops.artifacts]
        assert "crops_manifest.json" in names
        assert "03_complementary.json" in names
        assert len(with_crops.final) > len(base.final)
        assert with_crops.reports["disease"].mean_ap > base.reports["disease"].mean_ap

    def test_missing_diagnosis_b_passes_a_through(self, tmp_path, caplog):
        ds, paths = make_inputs(tmp_path)
        paths.pop("diagnosis_b")
        with caplog.at_level(logging.WARNING, logger="detfuse.pipeline"):
            result = run_pipeline(PipelineConfig(**paths))
        assert any("diagnosis-B" in r.message for r in caplog.records)
        diag_a = parse_detections(paths["diagnosis_a"], "diagnosis-A")
        assert result.fused.source == "fused"
        assert [d.box for d in result.fused] == [d.box for d in diag_a]

    def test_skipping_complementary_is_logged(self, tmp_path, caplog):
        _, paths = make_inputs(tmp_path)
        with caplog.at_level(logging.WARNING, logger="detfuse.pipeline"):
            result = run_pipeline(PipelineConfig(**paths))
        assert any("complementary" in r.message for r in caplog.records)
        assert not any("03_complementary" in p for p in result.artifacts)

    def test_diseaseless_diagnosis_records_are_dropped(self, tmp_path, caplog):
        ds, paths = make_inputs(tmp_path)
        records = json.loads(open(paths["diagnosis_a"]).read())
        records.append(
            {"image_id": 1, "bbox": [10, 10, 50, 50], "score": 0.9, "category_id_1": 0}
        )
        with open(paths["diagnosis_a"], "w") as fh:
            json.dump(records, fh)
        with caplog.at_level(logging.WARNING, logger="detfuse.pipeline"):
            result = run_pipeline(PipelineConfig(**paths))
        assert any("without a disease label" in r.message for r in caplog.records)
        assert all(d.category.disease is not None for d in result.fused)

    def test_stage_configs_are_built_once_and_reused(self, tmp_path, monkeypatch):
        ds, paths = make_inputs(tmp_path)
        verdicts = oracle_verdicts(ds, paths, tmp_path / "verdicts.json")
        cfg = PipelineConfig(**paths, crop_classifications=verdicts)
        seen = {}

        def spy(name, fn):
            def wrapper(*args):
                seen[name] = args[-1]
                return fn(*args)

            monkeypatch.setattr(pipeline_module, name, wrapper)

        for name in ("threshold_ensemble", "integrate", "merge_complementary", "evaluate"):
            spy(name, getattr(pipeline_module, name))
        run_pipeline(cfg)
        assert seen["threshold_ensemble"] is cfg.ensemble
        assert seen["integrate"] is cfg.integration
        assert seen["merge_complementary"] is cfg.merge
        assert seen["evaluate"] is cfg.evaluation

    def test_malformed_enumeration_fails_in_load_stage(self, tmp_path):
        _, paths = make_inputs(tmp_path)
        with open(paths["enumeration"], "w") as fh:
            fh.write("{\"not\": \"an array\"}")
        with pytest.raises(PipelineStageError) as exc_info:
            run_pipeline(PipelineConfig(**paths))
        assert exc_info.value.stage == "load"

    def test_axis_without_labels_fails_in_evaluate_stage(self, tmp_path):
        # a fully healthy scene has no disease labels for the disease axis
        _, paths = make_inputs(tmp_path, prior={})
        with pytest.raises(PipelineStageError) as exc_info:
            run_pipeline(PipelineConfig(**paths, axes=("disease",)))
        assert exc_info.value.stage == "evaluate"


def artifact_hashes(tmp_path, *, crops: bool) -> dict[str, str]:
    """The sha256 of every ``out_dir`` file of one four-axis run on the seeded scene."""
    ds, paths = make_inputs(tmp_path)
    if crops:
        paths["crop_classifications"] = oracle_verdicts(ds, paths, tmp_path / "verdicts.json")
    run_pipeline(PipelineConfig(**paths, axes=AXES))
    out = paths["out_dir"]
    return {
        name: hashlib.sha256(open(os.path.join(out, name), "rb").read()).hexdigest()
        for name in sorted(os.listdir(out))
    }


#: Artifact hashes recorded when each stage still built one ``Detection``
#: object per record; the columnar stages must write the same bytes.
PINNED_HASHES = {
    False: {
        "01_fused.json": "896c6be8338947069640a7fd73db65cdb7f8279906a072bb207a1fce8a1f6374",
        "02_integrated.json": "d4e3e3181aa2db939f7eeb81099916cbaab7db024b7ab798782bbb484e625a57",
        "04_final.json": "5f676cf3c94f1385ef0740efe156bf486624a8f7f62de1fa1188669c8990f34a",
        "metrics_agnostic.json": "9ded128ad1d28beb447fedf5008675607f912bd11f06d4af3e5ba4075e5eb8a8",
        "metrics_disease.json": "8f01ddff833dda57adbb05de6cd9b695e8885c946e2e198801704c6876fdb38e",
        "metrics_enumeration.json": "66a1ae795eac768d09878a0c89e60510496028b8264f71b332f9aee8a673d060",
        "metrics_quadrant.json": "9f7d24376b5eb6d0f2f8b479790d4b2bd2be6beb89053b27634878c092d32882",
    },
    True: {
        "01_fused.json": "896c6be8338947069640a7fd73db65cdb7f8279906a072bb207a1fce8a1f6374",
        "02_integrated.json": "d4e3e3181aa2db939f7eeb81099916cbaab7db024b7ab798782bbb484e625a57",
        "03_complementary.json": "7dc9fad5207603f84b73724a7525a9e8da452d0e09b9a6d56e385053b1b89c29",
        "04_final.json": "5e57ab28bb0b3c34dc0a4e8ac5c87a2596cef505718e2659e7f3a7f25aa276ff",
        "crops_manifest.json": "b031d2cfe7baedbc82481bbd2826f03ba766f72e39c6ea81d712342a319dc144",
        "metrics_agnostic.json": "3e5be54b60e9705bde40fb60fdfa5443af7ac16eb885b3b2e1cf44b38b861c94",
        "metrics_disease.json": "c7b2ada4d00c0feb4586431c3c2a3a7984460564cfa278a2e2ae97a3eded83e3",
        "metrics_enumeration.json": "c688b2a7744f8bd78ff2961498b7703c052be7961598cd68485b6c1e3ec80f87",
        "metrics_quadrant.json": "aa7f10b56b50dc5f9ff07327575f8730842f6f69a88ce721d708690117883be7",
    },
}


class TestPinnedArtifacts:
    @pytest.mark.parametrize("crops", [False, True], ids=["without-crops", "with-crops"])
    def test_every_artifact_keeps_its_bytes(self, tmp_path, crops):
        assert artifact_hashes(tmp_path, crops=crops) == PINNED_HASHES[crops]

    def test_pipeline_builds_no_detection_objects(self, tmp_path, monkeypatch):
        """The stages work on columns: a run with the crop stage builds no per-row object."""
        ds, paths = make_inputs(tmp_path)
        verdicts = oracle_verdicts(ds, paths, tmp_path / "verdicts.json")
        cfg = PipelineConfig(**paths, crop_classifications=verdicts, axes=AXES)
        classes = (Detection, GroundTruthAnnotation, CropAssignment, BoundingBox, CropClassification)
        built = {cls: [] for cls in classes}
        for cls, objects in built.items():
            init = cls.__init__

            def counting(self, *args, init=init, objects=objects, **kwargs):
                objects.append(self)
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        result = run_pipeline(cfg)
        assert {cls.__name__: len(objects) for cls, objects in built.items()} == {
            "Detection": 0, "GroundTruthAnnotation": 0, "CropAssignment": 0, "BoundingBox": 0,
            "CropClassification": 0,
        }
        # The counts see views built on demand.
        assert result.final[0] in built[Detection]
        assert parse_ground_truth(cfg.ground_truth).annotations[0] in built[GroundTruthAnnotation]
        crop = read_crop_manifest(os.path.join(cfg.out_dir, "crops_manifest.json"))[0]
        assert crop in built[CropAssignment]
        assert crop.crop_box in built[BoundingBox]
        assert parse_crop_classifications(verdicts)[0] in built[CropClassification]

    def test_pipeline_encodes_each_row_once(self, tmp_path, monkeypatch):
        """01 builds the fused rows' text, 02 only the new scores, and 03 and 04 reuse it."""
        ds, paths = make_inputs(tmp_path)
        verdicts = oracle_verdicts(ds, paths, tmp_path / "verdicts.json")
        cfg = PipelineConfig(**paths, crop_classifications=verdicts, axes=AXES)
        built = {}
        for piece, build in detections_module._ROW_TEXT.items():

            def counting(cols, build=build, piece=piece):
                built[piece] = built.get(piece, 0) + len(cols.score)
                return build(cols)

            monkeypatch.setitem(detections_module._ROW_TEXT, piece, counting)
        result = run_pipeline(cfg)
        with open(os.path.join(cfg.out_dir, "02_integrated.json")) as fh:
            integrated = len(json.load(fh))
        kept = len(result.integrated) - integrated  # the complementary rows the merge appends
        assert kept > 0
        assert built == {
            "box": len(result.fused) + kept,
            "score": len(result.fused) + integrated + kept,
        }


#: Runs the pipeline config given as JSON and prints each result set's image ids.
RUN_AND_PRINT_IDS = """
import json, sys
from detfuse import PipelineConfig, run_pipeline
result = run_pipeline(PipelineConfig(**json.loads(sys.argv[1])))
print(json.dumps([list(s.columns.ids) for s in (result.fused, result.integrated, result.final)]))
"""


def test_string_image_ids_do_not_depend_on_the_hash_seed(tmp_path):
    """Universes keep the dataset's image order, so no set or artifact varies with the hash seed."""
    _, paths = make_inputs(tmp_path, num_images=6)
    for key in ("ground_truth", "enumeration", "diagnosis_a", "diagnosis_b"):
        with open(paths[key]) as fh:
            payload = json.load(fh)
        records = payload["annotations"] if key == "ground_truth" else payload
        for record in records:
            record["image_id"] = f"img-{record['image_id']}"
        for image in payload["images"] if key == "ground_truth" else []:
            image["id"] = f"img-{image['id']}"
        with open(paths[key], "w") as fh:
            json.dump(payload, fh)
    ds = parse_ground_truth(paths["ground_truth"])
    paths["crop_classifications"] = oracle_verdicts(ds, paths, tmp_path / "verdicts.json")
    src = os.path.dirname(os.path.dirname(pipeline_module.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = []
    for seed in ("1", "2"):
        out = str(tmp_path / f"out-{seed}")
        cfg = json.dumps({**paths, "out_dir": out, "axes": list(AXES)})
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": pythonpath}
        result = subprocess.run(
            [sys.executable, "-c", RUN_AND_PRINT_IDS, cfg],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        files = {name: open(os.path.join(out, name), "rb").read() for name in sorted(os.listdir(out))}
        runs.append((json.loads(result.stdout), files))
    assert runs[0][0] == [ds.image_ids()] * 3
    assert runs[1] == runs[0]


class TestPipelineConfig:
    def test_all_problems_reported_at_once(self, tmp_path):
        with pytest.raises(ConfigError) as exc_info:
            PipelineConfig(
                ground_truth=str(tmp_path / "missing.json"),
                enumeration=str(tmp_path / "missing2.json"),
                diagnosis_a=str(tmp_path / "missing3.json"),
                out_dir=str(tmp_path),
                tau=1.5,
                overlap_iou=2.0,
                max_dets=0,
                axes=("color",),
            )
        message = str(exc_info.value)
        for fragment in ("tau", "overlap_iou", "max_dets", "color", "missing.json"):
            assert fragment in message

    @pytest.mark.parametrize(
        "key,value",
        [
            ("max_match_distance", 0),
            ("max_dets", 1.5),
            ("max_dets", True),
            ("tau", "x"),
            ("enum_score_gate", None),
            ("min_confidence", float("nan")),
            ("pad_fraction", "0.1"),
            ("unmatched_policy", "keep"),
            ("max_match_distance", float("inf")),
            ("pad_fraction", float("inf")),
            pytest.param("pad_fraction", 10**400, id="pad_fraction-too-large-for-a-float"),
            ("ground_truth", None),
        ],
    )
    def test_bad_setting_fails_before_anything_is_written(self, tmp_path, key, value):
        _, paths = make_inputs(tmp_path)
        payload = {"schema_version": 1, **paths, key: value}
        with pytest.raises(ConfigError, match=key):
            pipeline_config_from_dict(payload)
        assert not os.path.exists(paths["out_dir"])

    def test_stage_configs_carry_the_flat_settings(self, tmp_path):
        _, paths = make_inputs(tmp_path)
        cfg = PipelineConfig(
            **paths,
            tau=0.2,
            enum_score_gate=0.4,
            max_match_distance=30.0,
            unmatched_policy="drop",
            min_confidence=0.6,
            overlap_iou=0.3,
            max_dets=7,
        )
        assert cfg.ensemble.tau == 0.2
        assert (
            cfg.integration.enum_score_gate,
            cfg.integration.max_match_distance,
            cfg.integration.unmatched_policy,
        ) == (0.4, 30.0, "drop")
        assert (cfg.merge.overlap_iou, cfg.merge.min_confidence) == (0.3, 0.6)
        assert cfg.evaluation.max_dets == 7

    def test_config_error_is_a_value_error(self):
        assert issubclass(ConfigError, ValueError)
        assert issubclass(ConfigError, DetfuseError)

    def test_direct_construction_requires_path_strings(self, tmp_path):
        """A list ``out_dir`` passed and then failed in ``os.makedirs``; an open
        descriptor passed as the ground-truth file."""
        _, paths = make_inputs(tmp_path)
        with open(paths["ground_truth"]) as fh:
            for key, value in (("out_dir", ["x"]), ("ground_truth", fh.fileno()), ("diagnosis_b", 0.5)):
                named = re.escape(f"{key} must be a path string, got {value!r}")
                with pytest.raises(ConfigError, match=named):
                    PipelineConfig(**{**paths, key: value})
        assert not os.path.exists(paths["out_dir"])

    def test_from_dict_requires_axes_list(self, tmp_path):
        _, paths = make_inputs(tmp_path)
        payload = {"schema_version": 1, **paths, "axes": "disease"}
        with pytest.raises(ConfigError, match="axes must be a list") as exc_info:
            pipeline_config_from_dict(payload)
        assert "unknown axis" not in str(exc_info.value)

    def test_direct_construction_rejects_string_axes_once(self, tmp_path):
        _, paths = make_inputs(tmp_path)
        with pytest.raises(ConfigError, match="axes must be a list") as exc_info:
            PipelineConfig(**paths, axes="disease")
        assert "unknown axis" not in str(exc_info.value)

    def test_v1_threads_key_is_ignored_with_one_warning(self, tmp_path, caplog):
        _, paths = make_inputs(tmp_path)
        payload = {"schema_version": 1, **paths, "threads": 4}
        with caplog.at_level(logging.WARNING, logger="detfuse.pipeline"):
            cfg = pipeline_config_from_dict(payload)
        warnings = [r for r in caplog.records if "threads" in r.message]
        assert len(warnings) == 1
        assert "deprecated" in warnings[0].message
        assert run_pipeline(cfg).reports["disease"].mean_ap > 0

    def test_from_dict_rejects_unknown_keys(self, tmp_path):
        _, paths = make_inputs(tmp_path)
        payload = {"schema_version": 1, **paths, "taus": 0.1}
        with pytest.raises(ConfigError, match="unknown pipeline config keys"):
            pipeline_config_from_dict(payload)

    @pytest.mark.parametrize("version", [None, 0, 2, "1"])
    def test_from_dict_enforces_schema_version(self, tmp_path, version):
        _, paths = make_inputs(tmp_path)
        payload = dict(paths)
        if version is not None:
            payload["schema_version"] = version
        with pytest.raises(ConfigError, match="schema_version"):
            pipeline_config_from_dict(payload)

    def test_from_dict_requires_core_keys(self):
        with pytest.raises(ConfigError, match="missing required keys"):
            pipeline_config_from_dict({"schema_version": 1, "out_dir": "x"})

    def test_from_dict_joins_paths_to_base_dir(self, tmp_path):
        _, paths = make_inputs(tmp_path)
        payload = {
            "schema_version": 1,
            "ground_truth": "gt.json",
            "enumeration": "enum.json",
            "diagnosis_a": "diag_a.json",
            "out_dir": "out",
            "axes": ["disease"],
        }
        cfg = pipeline_config_from_dict(payload, str(tmp_path))
        assert cfg.ground_truth == str(tmp_path / "gt.json")
        assert cfg.axes == ("disease",)

    def test_load_config_resolves_relative_to_file(self, tmp_path):
        _, paths = make_inputs(tmp_path)
        cfg_dir = tmp_path / "configs"
        cfg_dir.mkdir()
        payload = {
            "schema_version": 1,
            "ground_truth": "../gt.json",
            "enumeration": "../enum.json",
            "diagnosis_a": "../diag_a.json",
            "diagnosis_b": "../diag_b.json",
            "out_dir": "../out",
        }
        cfg_path = cfg_dir / "pipeline.json"
        cfg_path.write_text(json.dumps(payload))
        cfg = load_pipeline_config(cfg_path)
        assert cfg.ground_truth == str(tmp_path / "gt.json")
        result = run_pipeline(cfg)
        assert result.reports["disease"].mean_ap > 0

    def test_load_config_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_pipeline_config(path)
