#!/usr/bin/env python3
# Numeric side of the chromatic lower bound: the condition on p, the bound
# chain on the bad-event probability, and the smallest certified gap 2*ell.
# Everything stays in log space; t is an exact big-integer ceiling.

from kneser_chroma.bounds import (
    TheoremParams,
    best_gap,
    condition_holds,
    condition_rhs,
    corollary_regime_report,
    derived_params,
    ln_pA_bound,
)

n, k, ell, p, eps = 10**6, 2, 63096, 0.5, 0.5
d, t = derived_params(n, k, ell)
rhs = condition_rhs(n, k, ell)
params = TheoremParams(n, k, ell, p, eps)
print(f"n={n}, k={k}, ell={ell}: d={d}, t={t}")
print(f"(1-eps)p = {(1-eps)*p}  vs  rhs = {rhs:.9f}  "
      f"-> condition {'holds' if condition_holds(params) else 'fails'}")

ch = ln_pA_bound(params)
print("\nlog-space bound chain (each step is the next relaxation):")
print(f"  l1 = {ch.l1:18.3f}   exact binomials")
print(f"  l2 = {ch.l2:18.3f}   binomial -> t(1+ln d) relaxation")
print(f"  l3 = {ch.l3:18.3f}   condition applied")
print(f"  l4 = {ch.l4:18.3f}   = -eps n ln 3")

bg = best_gap(n, k, p, eps)
print(f"\nsmallest certified gap at these (n,k,p,eps): ell*={bg.ell}, "
      f"gap={bg.gap}, chi lower bound={bg.chi_lower}")

print("\nlarge-k regime where even ell=2 and ell=1 certify:")
rep = corollary_regime_report(2003, 1000, 0.9, 0.1)
for e in rep.entries:
    verdict = e.conclusion if e.holds else "condition fails"
    print(f"  ell={e.ell}: d={e.d}, t={e.t}, rhs={e.rhs and round(e.rhs, 6)}"
          f" -> {verdict}")

print("\nfixed small n: the condition needs large ell to kick in")
for pp in (0.3, 0.6, 1.0):
    bg = best_gap(13, 2, pp, 0.1)
    print(f"  n=13, k=2, p={pp}: "
          + (f"ell*={bg.ell}, chi >= {bg.chi_lower}" if bg else "no ell works"))
