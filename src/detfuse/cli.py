"""Command-line interface.

Exit codes: 0 on success, 1 on any domain error (bad file contents,
dangling references, out-of-range settings, failed stages) or file error,
2 on usage errors such as unknown options or option values of the wrong
type. The command group maps the errors of every command, in one place.
"""

from __future__ import annotations

import logging
import os
from typing import Callable, Iterable

import click

from . import __version__
from .complementary import (
    _PAD_FRACTION,
    MergeConfig,
    assign_crops,
    audit_balance,
    classifications_to_detections,
    merge_complementary,
    oversample_plan,
    parse_crop_classifications,
    read_crop_manifest,
    write_crop_manifest,
)
from .ensemble import EnsembleConfig, threshold_ensemble
from .errors import DetfuseError
from .integrate import UNMATCHED_POLICIES, IntegrationConfig, filter_enumeration, integrate, write_integrated
from .io import (
    SplitSpec,
    _dump_json,
    parse_ground_truth,
    split_ids,
    subset_dataset,
    write_ground_truth,
    write_id_list,
)
from .metrics import AXES, EvalConfig, EvaluationReport, evaluate, write_pr_csv
from .pipeline import load_pipeline_config, run_pipeline
from .results import parse_detections, write_detections
from .synth import SIMULATOR_SOURCES, ScenePlan, generate_scene, load_profile, simulate_detector


class _Group(click.Group):
    """The command group; a domain or file error in any command is one ``Error:`` line, exit 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (DetfuseError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc


def _echo_report(axis: str, report: EvaluationReport) -> None:
    """Echo the summary line of ``report``."""
    click.echo(
        f"axis={axis} mAP={report.mean_ap:.4f} AP50={report.ap50:.4f} "
        f"AP75={report.ap75:.4f} AR={report.ar:.4f}"
    )


@click.group(cls=_Group)
@click.version_option(__version__)
@click.option("-v", "--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose: bool) -> None:
    """Detection fusion and evaluation for dual-stream dental detectors."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


@main.command()
@click.argument("primary", type=click.Path(exists=True, dir_okay=False))
@click.argument("secondary", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
@click.option(
    "--tau", default=EnsembleConfig().tau, show_default=True, help="Score threshold splitting the streams."
)
@click.option("--primary-source", default="diagnosis-A", show_default=True)
@click.option("--secondary-source", default="diagnosis-B", show_default=True)
@click.option("--allow-union", is_flag=True, help="Permit differing image universes.")
def ensemble(primary, secondary, output, tau, primary_source, secondary_source, allow_union):
    """Fuse two detection files with the score-threshold rule."""
    cfg = EnsembleConfig(tau=tau)
    a = parse_detections(primary, primary_source)
    b = parse_detections(secondary, secondary_source)
    fused = threshold_ensemble(a, b, cfg, allow_union=allow_union)
    write_detections(fused, output)
    click.echo(f"fused {len(a)} + {len(b)} -> {len(fused)} detections ({output})")


@main.command("integrate")
@click.argument("enumeration", type=click.Path(exists=True, dir_okay=False))
@click.argument("diagnosis", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
@click.option(
    "--gate",
    default=IntegrationConfig().enum_score_gate,
    show_default=True,
    help="Enumeration score gate (strict).",
)
@click.option("--max-distance", default=None, type=float, help="Optional center-distance bound.")
@click.option(
    "--policy",
    default=IntegrationConfig().unmatched_policy,
    show_default=True,
    type=click.Choice(UNMATCHED_POLICIES),
)
@click.option("--diagnosis-source", default="fused", show_default=True)
def integrate_cmd(enumeration, diagnosis, output, gate, max_distance, policy, diagnosis_source):
    """Attach tooth positions to disease detections by closest center."""
    cfg = IntegrationConfig(
        enum_score_gate=gate, max_match_distance=max_distance, unmatched_policy=policy
    )
    enums = parse_detections(enumeration, "enumeration-model")
    diags = parse_detections(diagnosis, diagnosis_source)
    merged = integrate(enums, diags, cfg)
    write_integrated(merged, output)
    matched = int((merged.columns.link >= 0).sum())
    click.echo(f"integrated {len(merged)} detections ({matched} matched) -> {output}")


@main.command()
@click.argument("enumeration", type=click.Path(exists=True, dir_okay=False))
@click.option("--gt", "gt_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
@click.option("--gate", default=IntegrationConfig().enum_score_gate, show_default=True)
@click.option("--pad", default=_PAD_FRACTION, show_default=True, help="Padding per side as a box fraction.")
def crops(enumeration, gt_path, output, gate, pad):
    """Emit the crop manifest for the external patch classifier."""
    ds = parse_ground_truth(gt_path)
    enums = parse_detections(enumeration, "enumeration-model", ds.image_ids())
    gated = filter_enumeration(enums, gate)
    manifest = assign_crops(gated, ds.images, pad)
    write_crop_manifest(manifest, output)
    click.echo(f"wrote {len(manifest)} crops -> {output}")


@main.command()
@click.option("--crops", "crops_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--classifications", required=True, type=click.Path(exists=True, dir_okay=False)
)
@click.option("--integrated", "integrated_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
@click.option("--min-confidence", default=MergeConfig().min_confidence, show_default=True)
@click.option("--overlap-iou", default=MergeConfig().overlap_iou, show_default=True)
def complement(crops_path, classifications, integrated_path, output, min_confidence, overlap_iou):
    """Merge crop-classifier verdicts into an integrated detection file."""
    cfg = MergeConfig(overlap_iou=overlap_iou, min_confidence=min_confidence)
    manifest = read_crop_manifest(crops_path)
    verdicts = parse_crop_classifications(classifications)
    integrated = parse_detections(integrated_path, "fused")
    comp = classifications_to_detections(manifest, verdicts, cfg.min_confidence)
    merged = merge_complementary(integrated, comp, cfg)
    write_integrated(merged, output)
    click.echo(
        f"added {len(merged) - len(integrated)} complementary detections -> {output}"
    )


def _parse_pairs(pairs: Iterable[str], convert: Callable) -> dict:
    """``DISEASE=VALUE`` strings as a dict of ``convert(VALUE)`` by disease."""
    parsed = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not value:
            raise click.BadParameter(f"expected DISEASE=VALUE, got {pair!r}")
        try:
            parsed[name] = convert(value)
        except ValueError as exc:
            raise click.BadParameter(f"{pair!r}: cannot read {value!r} as {convert.__name__}") from exc
    return parsed


@main.command()
@click.argument("ground_truth", type=click.Path(exists=True, dir_okay=False))
@click.option("--boost", multiple=True, help="DISEASE=MULTIPLIER override; repeatable.")
@click.option("--audit-only", is_flag=True, help="Histogram only, identity multipliers.")
@click.option("-o", "--output", default=None, type=click.Path(dir_okay=False))
def balance(ground_truth, boost, audit_only, output):
    """Audit the disease histogram and plan duplication counts."""
    ds = parse_ground_truth(ground_truth)
    audited = audit_balance(ds)
    if audit_only:
        plan = audited
    else:
        plan = oversample_plan(audited.counts, _parse_pairs(boost, int) if boost else None)
    planned = plan.planned()
    for disease, count in plan.counts.items():
        click.echo(
            f"{disease:20s} count={count:6d} x{plan.multipliers[disease]} -> {planned[disease]}"
        )
    if output:
        payload = {
            "counts": plan.counts,
            "multipliers": plan.multipliers,
            "planned": planned,
        }
        _dump_json(payload, output)
        click.echo(f"wrote plan -> {output}")


@main.command("evaluate")
@click.argument("ground_truth", type=click.Path(exists=True, dir_okay=False))
@click.argument("detections", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--axis",
    "axes",
    multiple=True,
    type=click.Choice(AXES),
    default=("disease",),
    show_default=True,
)
@click.option("--source", default="fused", show_default=True, help="Source tag of the detections.")
@click.option("--max-dets", default=EvalConfig().max_dets, show_default=True)
@click.option("--tooth-only", is_flag=True, help="Score enumeration as 8 tooth classes.")
@click.option("--report-json", default=None, type=click.Path(dir_okay=False))
@click.option("--pr-csv", default=None, type=click.Path(dir_okay=False))
def evaluate_cmd(
    ground_truth, detections, axes, source, max_dets, tooth_only, report_json, pr_csv
):
    """Report AP/AR for a detection file along one or more axes."""
    if pr_csv and len(axes) != 1:
        raise click.UsageError("--pr-csv requires exactly one --axis")
    if len(set(axes)) != len(axes):
        raise click.UsageError(f"--axis must not repeat an axis, got {' '.join(axes)}")
    cfg = EvalConfig(max_dets=max_dets, enumeration_product=not tooth_only)
    ds = parse_ground_truth(ground_truth)
    dets = parse_detections(detections, source, ds.image_ids())
    # Every axis is evaluated before anything is printed or written, so a failing one leaves neither.
    reports = {axis: evaluate(ds, dets, axis, cfg) for axis in axes}
    for axis, report in reports.items():
        _echo_report(axis, report)
        for label, (ap, ar) in report.per_class.items():
            click.echo(f"  {label:20s} AP={ap:.4f} AR={ar:.4f}")
    if report_json:
        _dump_json({axis: rep.as_dict() for axis, rep in reports.items()}, report_json)
    if pr_csv:
        write_pr_csv(reports[axes[0]], pr_csv)


@main.command()
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
@click.option("--images", default=ScenePlan().num_images, show_default=True)
@click.option("--seed", default=ScenePlan().seed, show_default=True)
@click.option("--missing-rate", default=ScenePlan().missing_rate, show_default=True)
@click.option(
    "--disease-prior",
    default="caries=0.1,deep-caries=0.08,impacted=0.07,periapical-lesion=0.05",
    show_default=True,
)
@click.option(
    "--simulate",
    "simulations",
    multiple=True,
    help="SOURCE=PROFILE, e.g. diagnosis-A=diffusiondet-like; repeatable.",
)
def synth(out_dir, images, seed, missing_rate, disease_prior, simulations):
    """Generate a synthetic dataset and optional simulated detections."""
    plan = ScenePlan(
        num_images=images,
        missing_rate=missing_rate,
        disease_prior=_parse_pairs(filter(None, disease_prior.split(",")), float),
        seed=seed,
    )
    streams = []
    for spec in simulations:
        source, _, profile_name = spec.partition("=")
        if not profile_name:
            raise click.BadParameter(f"expected SOURCE=PROFILE, got {spec!r}")
        if source not in SIMULATOR_SOURCES:
            raise click.BadParameter(f"source must be one of {SIMULATOR_SOURCES}")
        streams.append((source, load_profile(profile_name)))
    ds = generate_scene(plan)
    os.makedirs(out_dir, exist_ok=True)
    gt_path = os.path.join(out_dir, "gt.json")
    write_ground_truth(ds, gt_path)
    click.echo(f"wrote {len(ds.key)} annotations on {len(ds)} images -> {gt_path}")
    for source, profile in streams:
        dets = simulate_detector(ds, profile, source, seed)
        path = os.path.join(out_dir, f"{source}.json")
        write_detections(dets, path)
        click.echo(f"simulated {len(dets)} {source} detections ({profile.name}) -> {path}")


@main.command()
@click.argument("ground_truth", type=click.Path(exists=True, dir_okay=False))
@click.option("--train", required=True, type=int)
@click.option("--val", required=True, type=int)
@click.option("--test", required=True, type=int)
@click.option("--seed", default=SplitSpec(0, 0, 0).seed, show_default=True)
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
@click.option("--write-datasets", is_flag=True, help="Also write per-split annotation files.")
def split(ground_truth, train, val, test, seed, out_dir, write_datasets):
    """Deterministically split a dataset into train/val/test id lists."""
    ds = parse_ground_truth(ground_truth)
    spec = SplitSpec(train, val, test, seed)
    parts = split_ids(ds.image_ids(), spec)
    os.makedirs(out_dir, exist_ok=True)
    for name, ids in zip(("train", "val", "test"), parts):
        write_id_list(ids, os.path.join(out_dir, f"{name}_ids.json"))
        if write_datasets:
            write_ground_truth(subset_dataset(ds, ids), os.path.join(out_dir, f"{name}.json"))
        click.echo(f"{name}: {len(ids)} images")


@main.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
def pipeline(config):
    """Run the full fusion pipeline described by a JSON config."""
    cfg = load_pipeline_config(config)
    result = run_pipeline(cfg)
    click.echo(f"fused:      {len(result.fused)} detections")
    merged = "integrated:" if cfg.crop_classifications is None else "complementary:"
    click.echo(f"{merged} {len(result.integrated)} detections")
    click.echo(f"final:      {len(result.final)} detections")
    for axis, report in result.reports.items():
        _echo_report(axis, report)
    click.echo(f"artifacts in {cfg.out_dir}")


if __name__ == "__main__":
    main()
