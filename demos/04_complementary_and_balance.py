"""Recover missed findings with per-tooth crops, and rebalance rare classes.

Two complementary ideas share this demo because both lean on the
enumeration stream:

* crop classification: every confidently-detected tooth becomes a padded
  crop for an external patch classifier; confident non-normal verdicts
  come back as detections scored enum_score * confidence and merge into
  the integrated set unless a same-disease box already overlaps.
* class rebalancing: a duplication plan that doubles the rare classes
  (periapical-lesion, deep-caries) in a training manifest.

Run:  python3 demos/04_complementary_and_balance.py
"""

import tempfile
from pathlib import Path

from detfuse import (
    CropClassification,
    MergeConfig,
    ScenePlan,
    assign_crops,
    audit_balance,
    classifications_to_detections,
    filter_enumeration,
    generate_scene,
    integrate,
    load_profile,
    merge_complementary,
    oversample_plan,
    read_crop_manifest,
    simulate_detector,
    write_crop_manifest,
)

ds = generate_scene(
    ScenePlan(num_images=8, disease_prior={"caries": 0.2, "deep-caries": 0.15}, seed=13)
)
enums = simulate_detector(ds, load_profile("perfect"), "enumeration-model", seed=1)
# a weak diagnosis stream that misses a third of the findings
weak = simulate_detector(ds, load_profile("diffusiondet-like"), "diagnosis-A", seed=1)
integrated = integrate(enums, weak)
print(f"integrated without crops: {len(integrated)} findings")

# 1. emit one padded crop per gated tooth
gated = filter_enumeration(enums, 0.7)
crops = assign_crops(gated, ds.images, pad_fraction=0.1)
workdir = Path(tempfile.mkdtemp(prefix="detfuse-demo-"))
manifest_path = workdir / "crops_manifest.json"
write_crop_manifest(crops, manifest_path)
print(f"crop manifest: {len(crops)} crops -> {manifest_path}")

# 2. an external classifier labels each crop; here an oracle stands in
truth = {
    (a.image_id, a.category.quadrant, a.category.enumeration): a.category.disease
    for a in ds.annotations
}
manifest = read_crop_manifest(manifest_path)
verdicts = [
    CropClassification(i, truth.get((c.image_id, *c.tooth)) or "normal", 0.9)
    for i, c in enumerate(manifest)
]
print(f"classifier verdicts: {sum(1 for v in verdicts if v.label != 'normal')} non-normal")

# 3. convert and merge; duplicates of existing findings are suppressed
comp = classifications_to_detections(manifest, verdicts, min_confidence=0.5)
merged = merge_complementary(integrated, comp, MergeConfig(overlap_iou=0.5))
print(f"complementary candidates: {len(comp)}, merged total: {len(merged)}")
print(f"net new findings: {len(merged) - len(integrated)}")

# --- class rebalancing -----------------------------------------------------
print("\ndisease histogram and duplication plan:")
audit = audit_balance(ds)
plan = oversample_plan(audit.counts)
planned = plan.planned()
for disease, count in plan.counts.items():
    print(f"  {disease:18s} {count:4d} x{plan.multipliers[disease]} -> {planned[disease]}")

custom = oversample_plan(audit.counts, {"caries": 3})
print(f"custom boost: caries x3 -> {custom.planned()['caries']}")
