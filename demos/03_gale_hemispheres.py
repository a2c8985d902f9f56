#!/usr/bin/env python3
# The alternating moment-curve placement puts n points on S^(d-1), d = n-2s+1,
# so that EVERY open hemisphere contains a stable s-subset of [n].  All checks
# below are exact integer arithmetic: no epsilons, no floating point.

from kneser_chroma.gale import (
    GaleEmbedding,
    build_embedding,
    canonical_hemispheres,
    general_position_check,
    verify_gale_property,
)

emb = build_embedding(6, 2)
print(f"n=6, s=2 -> d={emb.d}; points (sign-alternating moment curve):")
for i, p in enumerate(emb.points, start=1):
    print(f"  point {i}: {p}")

print("\ngeneral position (every 3x3 minor nonzero):",
      general_position_check(emb))

parts = list(canonical_hemispheres(emb))
print(f"\ncanonical great spheres through d-1 = {emb.d-1} points: "
      f"{len(parts)} oriented partitions")
for part in parts[:4]:
    print(f"  normal={part.normal}  signs={part.signs_string()}")
print("  ...")

print("\nhemisphere property across the desk-scale grid:")
for n in range(5, 13):
    row = []
    for s in range(2, (n - 1) // 2 + 1):
        bad = verify_gale_property(build_embedding(n, s))
        row.append(f"s={s}:{'ok' if bad is None else 'FAIL'}")
    if row:
        print(f"  n={n:2d}  " + "  ".join(row))

# Without the alternating signs the construction fails: all points then lie
# in one halfspace and some opposite hemisphere is nearly empty.
adv = GaleEmbedding(n=6, s=2, d=3, signs=(1,) * 6)
bad = verify_gale_property(adv)
print("\nnon-alternating moment curve (adversarial):")
print("  counterexample partition:", bad.signs_string(),
      "normal =", bad.normal)
