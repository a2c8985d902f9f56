#!/usr/bin/env python3
# Monte Carlo: chromatic number of random spanning subgraphs SG(n,k)(p).
# Per-trial seeds derive from the master seed, so the p-series is coupled
# and the distributions shift monotonically.  The event-A oracle checks
# individual samples exhaustively: event A holds iff some full cell of the
# moment-curve arrangement has families M+ and M- of the fixed size
# t = ceil(C(k+ell, k)/d) inside its two open sides, with no sampled edge
# between them.

from collections import Counter

from kneser_chroma.bounds import derived_params
from kneser_chroma.chromatic import chromatic_number
from kneser_chroma.cli import run_random_chi
from kneser_chroma.events import event_a_oracle
from kneser_chroma.graphs import build_schrijver

n, k, ell = 8, 2, 1
parent_chi = chromatic_number(build_schrijver(n, k)).chi
d, _ = derived_params(n, k, ell)
print(f"SG({n},{k}): chi(parent) = {parent_chi}, "
      f"threshold d+1 = {d + 1} at ell={ell}")

print(f"\n{'p':>4}  distribution of chi over 200 trials"
      f"{'':24} freq(chi >= {d + 1})")
for p in (0.2, 0.4, 0.6, 0.8, 1.0):
    rows, summary = run_random_chi(
        family="schrijver", n=n, k=k, p=p, trials=200, master_seed=606,
        ell=ell,
    )
    hist = Counter(r[2] for r in rows)
    dist = "  ".join(f"chi={c}:{hist[c]:3d}" for c in sorted(hist))
    print(f"{p:4.1f}  {dist:60s} {summary['freq_chi_ge_threshold']:.3f}")

print("\nevent A (cross-independent monochromatic candidate sets with no")
print("surviving edge between them) over 50 seeds:")
for p in (0.0, 0.5, 0.9, 1.0):
    holds = sum(
        event_a_oracle(n, k, ell, p, seed=s).holds for s in range(50)
    )
    print(f"  p={p:3.1f}: event A holds in {holds}/50 samples")
