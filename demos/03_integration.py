"""Attach tooth positions to disease findings by closest-center matching.

Disease detectors say *what* is wrong, the enumeration detector says
*which tooth* exists where.  Integration gates the enumeration stream at a
score threshold, then assigns each disease box to the nearest surviving
tooth center in the same image.  Matched outputs keep the disease box,
inherit the tooth's quadrant/number, and multiply the two confidences.

Run:  python3 demos/03_integration.py
"""

from detfuse import (
    BoundingBox,
    CategoryTriple,
    Detection,
    DetectionSet,
    IntegrationConfig,
    integrate,
)


def fmt_center(box: BoundingBox) -> str:
    return f"({box.x + box.w / 2:.0f}, {box.y + box.h / 2:.0f})"


universe = frozenset({1})
teeth = DetectionSet(
    [
        Detection(1, BoundingBox(100, 100, 60, 90), 0.95, CategoryTriple(1, 3), "enumeration-model"),
        Detection(1, BoundingBox(200, 100, 60, 90), 0.88, CategoryTriple(1, 4), "enumeration-model"),
        Detection(1, BoundingBox(300, 100, 60, 90), 0.40, CategoryTriple(1, 5), "enumeration-model"),
    ],
    "enumeration-model",
    universe,
)
findings = DetectionSet(
    [
        Detection(1, BoundingBox(105, 110, 50, 70), 0.80, CategoryTriple(disease="caries"), "fused"),
        Detection(1, BoundingBox(210, 95, 55, 80), 0.60, CategoryTriple(disease="deep-caries"), "fused"),
        Detection(1, BoundingBox(310, 105, 50, 70), 0.70, CategoryTriple(disease="impacted"), "fused"),
    ],
    "fused",
    universe,
)

print("teeth (enumeration stream):")
for i, d in enumerate(teeth):
    print(f"  [{i}] FDI {d.category.fdi} score={d.score:.2f} center={fmt_center(d.box)}")
print("findings (diagnosis stream):")
for d in findings:
    print(f"  {d.category.disease:12s} score={d.score:.2f} center={fmt_center(d.box)}")

# The 0.40 tooth falls below the default 0.7 gate.  With a 60px distance
# bound the 'impacted' finding then has no tooth within reach, so the
# unmatched policy decides whether it survives as a disease-only finding.
for policy in ("keep-without-enumeration", "drop"):
    cfg = IntegrationConfig(unmatched_policy=policy, max_match_distance=60.0)
    merged = integrate(teeth, findings, cfg)
    print(f"\npolicy={policy}: {len(merged)} outputs")
    for item in merged:
        tooth = f"FDI {item.category.fdi}" if item.category.quadrant else "no tooth"
        via = f"matched enum #{item.matched_enum_id}" if item.matched_enum_id is not None else "unmatched"
        print(f"  {item.category.disease:12s} {tooth:10s} score={item.score:.3f} ({via})")

print("\nlowering the gate re-admits the weak tooth and the match returns:")
cfg = IntegrationConfig(enum_score_gate=0.3, max_match_distance=60.0)
merged = integrate(teeth, findings, cfg)
for item in merged:
    print(
        f"  {item.category.disease:12s} matched enum #{item.matched_enum_id} score={item.score:.3f}"
    )
