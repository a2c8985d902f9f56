#!/usr/bin/env python3
# Build Kneser and Schrijver graphs, sample spanning random subgraphs, and
# show that sampling is reproducible and monotone in p under a fixed seed.

from kneser_chroma.graphs import (
    build_kneser,
    build_schrijver,
    sample_subgraph,
    to_canonical_json,
)

kg = build_kneser(5, 2)
print(f"KG(5,2): {kg.num_vertices} vertices, {kg.num_edges} edges (Petersen)")
print("vertices:", ", ".join(str(v) for v in kg.vertices))

sg = build_schrijver(5, 2)
print(f"\nSG(5,2): {sg.num_vertices} vertices, {sg.num_edges} edges (a 5-cycle)")
print("stable pairs:", ", ".join(str(v) for v in sg.vertices))

print("\nSchrijver graphs are much smaller than their Kneser parents:")
for n, k in [(8, 2), (10, 2), (12, 3)]:
    a, b = build_kneser(n, k), build_schrijver(n, k)
    print(f"  n={n:2d} k={k}: |KG|={a.num_vertices:4d}  |SG|={b.num_vertices:4d}")

print("\nSeeded sampling of SG(8,2), p=0.5:")
parent = build_schrijver(8, 2)
for seed in (1, 2):
    g = sample_subgraph(parent, 0.5, seed)
    again = sample_subgraph(parent, 0.5, seed)
    print(f"  seed={seed}: {g.num_edges}/{parent.num_edges} edges kept, "
          f"rerun identical: {g == again}")

print("\nCoupled monotonicity (same seed, growing p):")
for p in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
    g = sample_subgraph(parent, p, seed=7)
    print(f"  p={p:.1f}: {g.num_edges:3d} edges")

print("\nCanonical JSON (byte-reproducible):")
print(to_canonical_json(sample_subgraph(build_kneser(4, 2), 0.5, 3)), end="")
