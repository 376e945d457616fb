"""Command-line surface: flows, outputs and exit codes."""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import fields
from pathlib import Path

import pytest
from click.testing import CliRunner

from detfuse import (
    DetfuseError,
    EnsembleConfig,
    EvalConfig,
    IntegrationConfig,
    MergeConfig,
    PipelineConfig,
    ScenePlan,
    SplitSpec,
    __version__,
)
from detfuse.cli import main
from detfuse.complementary import _PAD_FRACTION

runner = CliRunner()
ROOT = Path(__file__).resolve().parents[1]


def invoke(*args):
    return runner.invoke(main, [str(a) for a in args])


def ok(*args):
    result = invoke(*args)
    assert result.exit_code == 0, result.output
    return result


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Synthetic gt + three simulated detector files, built once via the CLI."""
    root = tmp_path_factory.mktemp("cli_corpus")
    ok(
        "synth",
        "--out-dir", root,
        "--images", 6,
        "--seed", 3,
        "--simulate", "enumeration-model=perfect",
        "--simulate", "diagnosis-A=diffusiondet-like",
        "--simulate", "diagnosis-B=dino-like",
    )
    return root


@pytest.fixture(scope="module")
def perfect_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_perfect")
    ok(
        "synth",
        "--out-dir", root,
        "--images", 4,
        "--seed", 5,
        "--simulate", "enumeration-model=perfect",
        "--simulate", "diagnosis-A=perfect",
        "--simulate", "diagnosis-B=perfect",
    )
    return root


class TestBasics:
    def test_version(self):
        result = ok("--version")
        assert __version__ in result.output

    def test_help_lists_commands(self):
        result = ok("--help")
        for cmd in ("ensemble", "integrate", "evaluate", "synth", "split", "pipeline"):
            assert cmd in result.output

    def test_unknown_option_is_usage_error(self):
        assert invoke("evaluate", "--bogus").exit_code == 2

    def test_missing_file_is_usage_error(self):
        assert invoke("balance", "/nonexistent/gt.json").exit_code == 2

    def test_domain_error_is_exit_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"images\": 7}")
        result = invoke("balance", bad)
        assert result.exit_code == 1
        assert "Error" in result.output

    @pytest.mark.parametrize(
        "args,key",
        [
            (["ensemble", "diagnosis-A.json", "diagnosis-B.json", "-o", "OUT", "--tau", 3], "tau"),
            (
                ["integrate", "enumeration-model.json", "diagnosis-A.json", "-o", "OUT",
                 "--max-distance", 0],
                "max_match_distance",
            ),
            (
                ["evaluate", "gt.json", "diagnosis-A.json", "--source", "diagnosis-A",
                 "--report-json", "OUT", "--max-dets", 0],
                "max_dets",
            ),
            (
                ["crops", "enumeration-model.json", "--gt", "gt.json", "-o", "OUT", "--gate", 5],
                "enum_score_gate",
            ),
            (
                ["split", "gt.json", "--train", -1, "--val", 1, "--test", 6, "--out-dir", "OUT"],
                "train_count",
            ),
            (["balance", "gt.json", "--boost", "foo=2", "-o", "OUT"], "'foo'"),
            (["balance", "gt.json", "--boost", "caries=0", "-o", "OUT"], "multipliers['caries']"),
            (
                ["split", "gt.json", "--train", 4, "--val", 1, "--test", 1, "--seed", -1,
                 "--out-dir", "OUT"],
                "seed",
            ),
            (["synth", "--out-dir", "OUT", "--seed", -1], "seed"),
            (
                ["crops", "enumeration-model.json", "--gt", "gt.json", "-o", "OUT", "--pad", "nan"],
                "pad_fraction",
            ),
            (
                ["synth", "--out-dir", "OUT", "--simulate", "diagnosis-A=diffusiondet-like",
                 "--simulate", {"recall": "high"}],
                "recall",
            ),
            (["synth", "--out-dir", "OUT", "--simulate", {"localization_noise": 1}], "localization_noise"),
            (["synth", "--out-dir", "OUT", "--simulate", {"fp_per_image": float("nan")}], "fp_per_image"),
            (["synth", "--out-dir", "OUT", "--simulate", {"fp_per_image": 10**400}], "fp_per_image"),
            (["synth", "--out-dir", "OUT", "--disease-prior", "caries=nan"], "disease_prior['caries']"),
            (
                ["ensemble", "diagnosis-A.json", "diagnosis-B.json", "-o", "OUT",
                 "--primary-source", "bogus"],
                "source tag 'bogus'",
            ),
        ],
    )
    def test_out_of_range_option_is_one_error_line(self, corpus, tmp_path, args, key):
        """A bad setting exits 1 with one line naming it; a dict is a profile file to simulate."""
        out = tmp_path / "out.json"
        profile = tmp_path / "profile.json"
        argv = []
        for a in args:
            if isinstance(a, dict):
                profile.write_text(json.dumps({"name": "p", **a}))
                argv.append(f"diagnosis-B={profile}")
            else:
                argv.append(out if a == "OUT" else corpus / a if str(a).endswith(".json") else a)
        result = invoke(*argv)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: ")
        assert key in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "args,message",
        [
            (
                ["integrate", "enumeration-model.json", "enumeration-model.json", "-o", "OUT"],
                "no disease label",
            ),
            (
                ["crops", "diagnosis-A.json", "--gt", "gt.json", "-o", "OUT", "--gate", 0],
                "lacks quadrant/tooth",
            ),
            (
                ["complement", "--crops", "EMPTY", "--classifications", "EMPTY",
                 "--integrated", "enumeration-model.json", "-o", "OUT"],
                "no disease label",
            ),
        ],
    )
    def test_missing_label_axis_is_one_error_line(self, corpus, tmp_path, args, message):
        out = tmp_path / "out.json"
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        named = {"OUT": out, "EMPTY": empty}
        argv = [named.get(a) or (corpus / a if str(a).endswith(".json") else a) for a in args]
        result = invoke(*argv)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: ")
        assert message in lines[0]
        assert not out.exists()


    @pytest.mark.parametrize("image_id", [[1], True, 1.5])
    def test_bad_image_id_is_one_error_line(self, tmp_path, image_id):
        records = [{"image_id": image_id, "bbox": [1, 2, 3, 4], "score": 0.5, "category_id_3": 0}]
        dets = tmp_path / "d.json"
        dets.write_text(json.dumps(records))
        out = tmp_path / "o.json"
        result = invoke("ensemble", dets, dets, "-o", out)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: ")
        assert "[0]: image_id must be an integer or a string" in lines[0]
        assert not out.exists()

    def test_box_value_too_large_for_a_float_is_one_error_line(self, tmp_path):
        """A huge value, or a long string, is echoed in short on one line."""
        dets = tmp_path / "d.json"
        out = tmp_path / "o.json"
        for field, value, message in (
            ("bbox", [1, 2, 10**400, 4], "[0]: bbox w must be a number in (0, inf), got 1000"),
            ("score", "9" * 5000, "[0]: score must be a number in [0, 1], got '9999"),
        ):
            record = {"image_id": 1, "bbox": [1, 2, 3, 4], "score": 0.5, "category_id_3": 0}
            dets.write_text(json.dumps([{**record, field: value}]))
            result = invoke("ensemble", dets, dets, "-o", out)
            assert result.exit_code == 1
            assert isinstance(result.exception, SystemExit)  # no traceback
            lines = result.output.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("Error: ")
            assert message in lines[0]
            assert len(lines[0]) - len(str(dets)) <= 200
            assert not out.exists()

    def test_unknown_long_image_id_is_one_short_error_line(self, tmp_path):
        """A detection on an image the ground truth lacks names it in short."""
        gt = tmp_path / "gt.json"
        image = {"id": 1, "width": 5, "height": 5}
        gt.write_text(json.dumps({"images": [image], "annotations": []}))
        dets = tmp_path / "d.json"
        record = {"image_id": "x" * 5000, "bbox": [1, 2, 3, 4], "score": 0.5, "category_id_3": 0}
        dets.write_text(json.dumps([record]))
        result = invoke("evaluate", gt, dets)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: detection references image 'xxx")
        assert "(5002 characters) outside the universe" in lines[0]
        assert len(lines[0]) <= 200

    @pytest.mark.parametrize("name", sorted(main.commands))
    def test_every_command_maps_a_domain_error_to_one_line(self, monkeypatch, name):
        """The command group, not each command, turns a domain error into exit 1."""
        command = main.commands[name]

        def fail():
            raise DetfuseError(f"{name} failed")

        monkeypatch.setattr(command, "params", [])
        monkeypatch.setattr(command, "callback", fail)
        result = invoke(name)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.output == f"Error: {name} failed\n"

    def test_bad_crop_image_id_is_one_error_line(self, tmp_path):
        crop = {"crop_id": 0, "image_id": [1], "crop_bbox": [1, 2, 3, 4],
                "source_bbox": [1, 2, 3, 4], "category_id_1": 0, "category_id_2": 1,
                "enum_score": 0.5}
        crops = tmp_path / "crops.json"
        crops.write_text(json.dumps([crop]))
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        out = tmp_path / "o.json"
        result = invoke(
            "complement", "--crops", crops, "--classifications", empty,
            "--integrated", empty, "-o", out,
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: ")
        assert "[0]: image_id must be an integer or a string" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "pipeline"])
    def test_file_that_is_not_utf8_is_one_error_line(self, corpus, tmp_path, command):
        """A record file or a config holding a byte that is no UTF-8 is refused, not a traceback."""
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'[{"image_id": "\xff"}]')
        args = ["evaluate", corpus / "gt.json", bad] if command == "evaluate" else ["pipeline", bad]
        result = invoke(*args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: ")
        assert "is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 15" in lines[0]

    @pytest.mark.parametrize("command", ["evaluate", "pipeline"])
    def test_file_nested_too_deeply_is_one_error_line(self, corpus, tmp_path, command):
        """A record file or a config nested deeper than json reads is refused, not a traceback."""
        bad = tmp_path / "deep.json"
        bad.write_bytes(b'[{"image_id": ' + b"[" * 1100 + b"]" * 1100 + b"}]")
        args = ["evaluate", corpus / "gt.json", bad] if command == "evaluate" else ["pipeline", bad]
        result = invoke(*args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: ")
        assert "is nested too deeply to read: maximum recursion depth exceeded" in lines[0]


class TestSynth:
    def test_writes_expected_files(self, corpus):
        for name in ("gt.json", "enumeration-model.json", "diagnosis-A.json", "diagnosis-B.json"):
            assert os.path.isfile(corpus / name)

    def test_malformed_simulate_spec(self, tmp_path):
        assert invoke("synth", "--out-dir", tmp_path, "--simulate", "nonsense").exit_code == 2

    def test_unknown_simulate_source(self, tmp_path):
        result = invoke("synth", "--out-dir", tmp_path, "--simulate", "fused=perfect")
        assert result.exit_code == 2

    def test_malformed_prior(self, tmp_path):
        result = invoke("synth", "--out-dir", tmp_path, "--disease-prior", "caries")
        assert result.exit_code == 2

    def test_unknown_disease_in_prior_is_domain_error(self, tmp_path):
        result = invoke("synth", "--out-dir", tmp_path, "--disease-prior", "gum=0.1")
        assert result.exit_code == 1


class TestFlow:
    def test_ensemble_integrate_evaluate(self, corpus, tmp_path):
        fused = tmp_path / "fused.json"
        result = ok(
            "ensemble",
            corpus / "diagnosis-A.json",
            corpus / "diagnosis-B.json",
            "-o", fused,
            "--tau", 0.05,
        )
        assert "fused" in result.output
        assert fused.is_file()

        integrated = tmp_path / "integrated.json"
        result = ok(
            "integrate", corpus / "enumeration-model.json", fused, "-o", integrated
        )
        assert "matched" in result.output

        result = ok("evaluate", corpus / "gt.json", fused, "--axis", "disease")
        assert "axis=disease mAP=" in result.output

    def test_perfect_streams_reach_unity(self, perfect_corpus, tmp_path):
        fused = tmp_path / "fused.json"
        ok(
            "ensemble",
            perfect_corpus / "diagnosis-A.json",
            perfect_corpus / "diagnosis-B.json",
            "-o", fused,
        )
        result = ok("evaluate", perfect_corpus / "gt.json", fused, "--axis", "disease")
        assert "axis=disease mAP=1.0000 AP50=1.0000 AP75=1.0000 AR=1.0000" in result.output
        # the enumeration stream covers every tooth, so agnostic also reaches 1
        result = ok(
            "evaluate",
            perfect_corpus / "gt.json",
            perfect_corpus / "enumeration-model.json",
            "--source", "enumeration-model",
            "--axis", "agnostic",
        )
        assert "axis=agnostic mAP=1.0000" in result.output

    def test_integrate_matches_every_perfect_detection(self, perfect_corpus, tmp_path):
        fused = tmp_path / "fused.json"
        ok(
            "ensemble",
            perfect_corpus / "diagnosis-A.json",
            perfect_corpus / "diagnosis-B.json",
            "-o", fused,
        )
        out = tmp_path / "integrated.json"
        result = ok("integrate", perfect_corpus / "enumeration-model.json", fused, "-o", out)
        n = len(json.loads(fused.read_text()))
        assert f"integrated {n} detections ({n} matched)" in result.output

    def test_crops_and_complement(self, perfect_corpus, tmp_path):
        manifest = tmp_path / "crops.json"
        result = ok(
            "crops",
            perfect_corpus / "enumeration-model.json",
            "--gt", perfect_corpus / "gt.json",
            "-o", manifest,
        )
        assert "wrote" in result.output

        verdicts = tmp_path / "verdicts.json"
        records = json.loads(manifest.read_text())
        verdicts.write_text(
            json.dumps(
                [
                    {"crop_id": r["crop_id"], "label": "caries", "confidence": 0.9}
                    for r in records
                ]
            )
        )
        fused = tmp_path / "fused.json"
        ok(
            "ensemble",
            perfect_corpus / "diagnosis-A.json",
            perfect_corpus / "diagnosis-B.json",
            "-o", fused,
        )
        integrated = tmp_path / "integrated.json"
        ok("integrate", perfect_corpus / "enumeration-model.json", fused, "-o", integrated)
        merged = tmp_path / "merged.json"
        result = ok(
            "complement",
            "--crops", manifest,
            "--classifications", verdicts,
            "--integrated", integrated,
            "-o", merged,
        )
        assert "complementary detections" in result.output
        assert len(json.loads(merged.read_text())) >= len(json.loads(integrated.read_text()))

    def test_universe_mismatch_without_allow_union(self, corpus, perfect_corpus, tmp_path):
        result = invoke(
            "ensemble",
            corpus / "diagnosis-A.json",  # 6 images
            perfect_corpus / "diagnosis-B.json",  # 4 images
            "-o", tmp_path / "fused.json",
        )
        assert result.exit_code == 1
        assert "--allow-union" in result.output
        ok(
            "ensemble",
            corpus / "diagnosis-A.json",
            perfect_corpus / "diagnosis-B.json",
            "-o", tmp_path / "fused.json",
            "--allow-union",
        )


class TestEvaluateOptions:
    def test_report_json_and_pr_csv(self, perfect_corpus, tmp_path):
        report = tmp_path / "report.json"
        pr = tmp_path / "pr.csv"
        ok(
            "evaluate",
            perfect_corpus / "gt.json",
            perfect_corpus / "diagnosis-A.json",
            "--source", "diagnosis-A",
            "--axis", "disease",
            "--report-json", report,
            "--pr-csv", pr,
        )
        payload = json.loads(report.read_text())
        assert payload["disease"]["mAP"] == 1.0
        assert pr.read_text().splitlines()[0] == "recall,precision,iou_threshold"

    def test_pr_csv_needs_single_axis(self, perfect_corpus, tmp_path):
        result = invoke(
            "evaluate",
            perfect_corpus / "gt.json",
            perfect_corpus / "diagnosis-A.json",
            "--source", "diagnosis-A",
            "--axis", "disease",
            "--axis", "agnostic",
            "--pr-csv", tmp_path / "pr.csv",
        )
        assert result.exit_code == 2

    def test_repeated_axis_is_a_usage_error(self, perfect_corpus, tmp_path):
        report = tmp_path / "report.json"
        result = invoke(
            "evaluate",
            perfect_corpus / "gt.json",
            perfect_corpus / "diagnosis-A.json",
            "--axis", "disease",
            "--axis", "agnostic",
            "--axis", "disease",
            "--report-json", report,
        )
        assert result.exit_code == 2
        assert "--axis must not repeat an axis" in result.output
        assert not report.exists()

    def test_an_axis_that_fails_prints_no_report(self, tmp_path):
        """Every axis is evaluated before any is printed: a ground truth without disease
        labels fails the second axis, and neither the first axis's line nor a file is left."""
        ok(
            "synth", "--out-dir", tmp_path, "--images", 3, "--seed", 1,
            "--disease-prior", "caries=0.0", "--simulate", "enumeration-model=perfect",
        )
        report = tmp_path / "report.json"
        result = invoke(
            "evaluate",
            tmp_path / "gt.json",
            tmp_path / "enumeration-model.json",
            "--source", "enumeration-model",
            "--axis", "quadrant",
            "--axis", "disease",
            "--report-json", report,
        )
        assert result.exit_code == 1
        assert "axis=" not in result.output
        assert "carries no 'disease' labels" in result.output
        assert not report.exists()

    def test_axis_choice_enforced(self, perfect_corpus):
        result = invoke(
            "evaluate",
            perfect_corpus / "gt.json",
            perfect_corpus / "diagnosis-A.json",
            "--axis", "color",
        )
        assert result.exit_code == 2

    def test_tooth_only_relabels_classes(self, perfect_corpus):
        result = ok(
            "evaluate",
            perfect_corpus / "gt.json",
            perfect_corpus / "enumeration-model.json",
            "--source", "enumeration-model",
            "--axis", "enumeration",
            "--tooth-only",
        )
        labels = [
            line.split()[0] for line in result.output.splitlines() if line.startswith("  ")
        ]
        assert labels == [str(t) for t in range(1, 9)]


class TestBalanceAndSplit:
    def test_balance_default_boost(self, corpus, tmp_path):
        plan_path = tmp_path / "plan.json"
        result = ok("balance", corpus / "gt.json", "-o", plan_path)
        assert "deep-caries" in result.output
        plan = json.loads(plan_path.read_text())
        assert plan["multipliers"]["periapical-lesion"] == 2
        assert plan["multipliers"]["deep-caries"] == 2
        assert plan["multipliers"]["caries"] == 1
        assert plan["planned"]["caries"] == plan["counts"]["caries"]

    def test_balance_audit_only(self, corpus):
        result = ok("balance", corpus / "gt.json", "--audit-only")
        assert "x1" in result.output
        assert "x2" not in result.output

    def test_balance_custom_boost(self, corpus):
        result = ok("balance", corpus / "gt.json", "--boost", "caries=3")
        assert "x3" in result.output

    def test_balance_bad_boost_spec(self, corpus):
        assert invoke("balance", corpus / "gt.json", "--boost", "caries").exit_code == 2

    def test_split_writes_id_lists(self, corpus, tmp_path):
        out = tmp_path / "splits"
        result = ok(
            "split", corpus / "gt.json",
            "--train", 4, "--val", 1, "--test", 1,
            "--out-dir", out, "--write-datasets",
        )
        assert "train: 4 images" in result.output
        ids = {
            name: json.loads((out / f"{name}_ids.json").read_text())
            for name in ("train", "val", "test")
        }
        assert sorted(len(v) for v in ids.values()) == [1, 1, 4]
        assert (out / "train.json").is_file()
        train_ds = json.loads((out / "train.json").read_text())
        assert {img["id"] for img in train_ds["images"]} == set(ids["train"])

    def test_split_count_mismatch_is_domain_error(self, corpus, tmp_path):
        result = invoke(
            "split", corpus / "gt.json",
            "--train", 4, "--val", 1, "--test", 2,
            "--out-dir", tmp_path / "splits",
        )
        assert result.exit_code == 1


class TestPipelineCommand:
    def _config(self, corpus, tmp_path, **settings):
        """A config file running the corpus streams into ``tmp_path / "run"``."""
        config = {
            "schema_version": 1,
            "ground_truth": str(corpus / "gt.json"),
            "enumeration": str(corpus / "enumeration-model.json"),
            "diagnosis_a": str(corpus / "diagnosis-A.json"),
            "diagnosis_b": str(corpus / "diagnosis-B.json"),
            "out_dir": str(tmp_path / "run"),
            **settings,
        }
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(config))
        return path

    def _verdicts(self, corpus, tmp_path):
        """A caries verdict at confidence 0.9 on every crop of the corpus."""
        manifest = tmp_path / "crops.json"
        ok("crops", corpus / "enumeration-model.json", "--gt", corpus / "gt.json", "-o", manifest)
        verdicts = tmp_path / "verdicts.json"
        verdicts.write_text(json.dumps([
            {"crop_id": r["crop_id"], "label": "caries", "confidence": 0.9}
            for r in json.loads(manifest.read_text())
        ]))
        return str(verdicts)

    def test_config_run_matches_stepwise_ensemble(self, corpus, tmp_path):
        out_dir = tmp_path / "run"
        result = ok("pipeline", self._config(corpus, tmp_path, axes=["disease", "agnostic"]))
        assert "fused:" in result.output
        assert "axis=disease mAP=" in result.output
        assert f"artifacts in {out_dir}" in result.output

        stepwise = tmp_path / "fused.json"
        ok(
            "ensemble",
            corpus / "diagnosis-A.json",
            corpus / "diagnosis-B.json",
            "-o", stepwise,
            "--tau", 0.05,
        )
        assert stepwise.read_bytes() == (out_dir / "01_fused.json").read_bytes()

    def test_failing_stage_is_exit_one(self, corpus, tmp_path):
        config = {
            "schema_version": 1,
            "ground_truth": str(corpus / "gt.json"),
            "enumeration": str(corpus / "gt.json"),  # wrong format on purpose
            "diagnosis_a": str(corpus / "diagnosis-A.json"),
            "out_dir": str(tmp_path / "run"),
        }
        cfg_path = tmp_path / "pipeline.json"
        cfg_path.write_text(json.dumps(config))
        result = invoke("pipeline", cfg_path)
        assert result.exit_code == 1
        assert "load" in result.output

    def test_merged_count_is_labelled_by_its_stage(self, corpus, tmp_path):
        """The middle count is 02's rows without the crop stage and 03's rows with it."""
        run = tmp_path / "run"
        result = ok("pipeline", self._config(corpus, tmp_path))
        rows = len(json.loads((run / "02_integrated.json").read_text()))
        assert f"integrated: {rows} detections" in result.output
        assert "complementary:" not in result.output

        verdicts = self._verdicts(corpus, tmp_path)
        result = ok("pipeline", self._config(corpus, tmp_path, crop_classifications=verdicts))
        rows = len(json.loads((run / "03_complementary.json").read_text()))
        assert rows > len(json.loads((run / "02_integrated.json").read_text()))
        assert f"complementary: {rows} detections" in result.output
        assert "integrated:" not in result.output

    def test_images_only_run_with_no_axes(self, corpus, tmp_path):
        """Ground truth without annotations runs every stage and evaluates nothing."""
        gt = json.loads((corpus / "gt.json").read_text())
        gt["annotations"] = []
        images_only = tmp_path / "images.json"
        images_only.write_text(json.dumps(gt))
        verdicts = self._verdicts(corpus, tmp_path)
        config = self._config(
            corpus, tmp_path, ground_truth=str(images_only), crop_classifications=verdicts, axes=[]
        )
        result = ok("pipeline", config)
        assert sorted(os.listdir(tmp_path / "run")) == [
            "01_fused.json",
            "02_integrated.json",
            "03_complementary.json",
            "04_final.json",
            "crops_manifest.json",
        ]
        assert "axis=" not in result.output

    def test_readme_quick_start_runs_the_shipped_config(self, tmp_path):
        config = tmp_path / "pipeline.example.json"
        shutil.copy(ROOT / "configs" / "pipeline.example.json", config)
        ok(
            "synth",
            "--out-dir", tmp_path / "data",
            "--images", 20,
            "--seed", 42,
            "--simulate", "enumeration-model=perfect",
            "--simulate", "diagnosis-A=diffusiondet-like",
            "--simulate", "diagnosis-B=dino-like",
        )
        result = ok("pipeline", config)
        assert "axis=agnostic mAP=" in result.output
        assert f"artifacts in {tmp_path / 'data' / 'out'}" in result.output


def test_every_default_is_its_stage_configs():
    """Each CLI option and flat pipeline setting defaults to the value of the setting it sets."""
    flat = {f.name: f.default for f in fields(PipelineConfig) if f.init}
    homes = {
        ("ensemble", "tau"): EnsembleConfig().tau,
        ("integrate", "gate"): IntegrationConfig().enum_score_gate,
        ("integrate", "policy"): IntegrationConfig().unmatched_policy,
        ("crops", "gate"): IntegrationConfig().enum_score_gate,
        ("crops", "pad"): _PAD_FRACTION,
        ("complement", "min_confidence"): MergeConfig().min_confidence,
        ("complement", "overlap_iou"): MergeConfig().overlap_iou,
        ("evaluate", "max_dets"): EvalConfig().max_dets,
        ("synth", "images"): ScenePlan().num_images,
        ("synth", "seed"): ScenePlan().seed,
        ("synth", "missing_rate"): ScenePlan().missing_rate,
        ("split", "seed"): {f.name: f.default for f in fields(SplitSpec)}["seed"],
    }
    for (command, option), default in homes.items():
        params = {p.name: p.default for p in main.commands[command].params}
        assert params[option] == default, (command, option)

    stage = {
        f.name: f.default
        for cls in (EnsembleConfig, IntegrationConfig, MergeConfig, EvalConfig)
        for f in fields(cls)
    }
    shared = flat.keys() & stage.keys()
    assert shared == {
        "tau", "enum_score_gate", "max_match_distance", "unmatched_policy",
        "min_confidence", "overlap_iou", "max_dets",
    }
    for name in shared:
        assert flat[name] == stage[name], name
    assert flat["pad_fraction"] == _PAD_FRACTION
