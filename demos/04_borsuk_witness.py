#!/usr/bin/env python3
# The antipodal-witness search: for ANY d-coloring of the stable k-subsets
# there is a direction whose two open sides both carry the same color at
# least ceil(|side census|/d) times.  The search space is the full face
# lattice of the point arrangement; a few colorings genuinely need a
# boundary face (direction orthogonal to some point) rather than a full cell.

import random

from kneser_chroma.gale import WitnessSearch, build_embedding, witness_to_json_dict

n, k, ell = 8, 2, 1
emb = build_embedding(n, k + ell)
search = WitnessSearch(emb, k)
print(f"n={n}, k={k}, ell={ell}: d={emb.d}, "
      f"{search.num_stable} stable {k}-subsets, "
      f"{len(search.faceset.faces)} faces "
      f"(certified exhaustive: {search.faceset.certified_exhaustive})")

rng = random.Random(0)
coloring = [rng.randrange(emb.d) for _ in range(search.num_stable)]
w = search.find(coloring)
print("\nrandom coloring:", coloring)
print("witness:", witness_to_json_dict(w))

print("\n1000 random colorings:")
boundary = 0
for _ in range(1000):
    coloring = [rng.randrange(emb.d) for _ in range(search.num_stable)]
    w = search.find(coloring)
    if 0 in w.face.signs:
        boundary += 1
print(f"  witness found every time; {boundary} needed a boundary face")

# (7,2,1) is small enough to try EVERY 2-coloring of the 14 stable pairs
emb7 = build_embedding(7, 3)
search7 = WitnessSearch(emb7, 2)
m = search7.num_stable
boundary = 0
for code in range(1 << m):
    w = search7.find([(code >> i) & 1 for i in range(m)])
    if 0 in w.face.signs:
        boundary += 1
print(f"\nexhaustive over all {1 << m} two-colorings at (7,2,1): "
      f"witness always exists, {boundary} only on boundary faces")
