#!/usr/bin/env python3
# Exact chromatic numbers of Kneser and Schrijver graphs at desk scale:
# both families meet chi = n - 2k + 2 exactly, and the Schrijver graphs
# are vertex-critical while the Kneser graphs are not.

import time

from kneser_chroma.chromatic import (
    chromatic_number,
    max_independent_set,
    vertex_critical,
)
from kneser_chroma.graphs import build_kneser, build_schrijver

print("family      n  k   |V|  |E|   chi  n-2k+2  nodes    time")
for n in range(5, 11):
    for k in range(2, (n - 1) // 2 + 1):
        for name, build in (("kneser   ", build_kneser), ("schrijver", build_schrijver)):
            g = build(n, k)
            t0 = time.time()
            res = chromatic_number(g)
            dt = time.time() - t0
            mark = "ok" if res.chi == n - 2 * k + 2 else "MISMATCH"
            print(f"{name} {n:2d} {k:2d} {g.num_vertices:5d} {g.num_edges:5d} "
                  f"{res.chi:4d} {n - 2*k + 2:6d}  {res.nodes_explored:8d} "
                  f"{dt:6.2f}s  {mark}")

print("\nPetersen graph details:")
pet = build_kneser(5, 2)
res = chromatic_number(pet)
print("  chi =", res.chi, "coloring =", res.coloring)
print("  clique number =", len(res.clique), "(triangle-free)")
print("  independence number =", max_independent_set(pet).size,
      "(the Erdos-Ko-Rado star size)")

print("\nVertex criticality (deleting any vertex drops chi):")
for n, k in [(6, 2), (7, 2), (8, 3)]:
    print(f"  SG({n},{k}): {vertex_critical(build_schrijver(n, k))}"
          f"   KG({n},{k}): {vertex_critical(build_kneser(n, k))}")
