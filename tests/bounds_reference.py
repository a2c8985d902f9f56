"""Reference for ``bounds.best_gap``: the galloping bisection from ell = 1.

``best_gap`` gallops (ell = 1, 2, 4, ..., then ell_max) until the condition
holds and bisects between the last two ells tried, so it never evaluates an
ell beyond twice the answer.  It makes O(log n) calls of ``condition_holds``
and decides the same monotone condition as the library's search, which
starts at a float estimate of the answer instead; the two must agree on
every input, exceptions included.
"""

from __future__ import annotations

from kneser_chroma.bounds import BestGap, TheoremParams, condition_holds
from kneser_chroma.errors import CapacityError


def best_gap(n: int, k: int, p: float, eps: float) -> BestGap | None:
    if k < 2:
        raise ValueError(f"precondition k >= 2 violated (k={k})")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p={p} outside (0, 1]")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps={eps} outside (0, 1)")
    ell_max = (n - 2 * k - 1) // 2
    if ell_max < 1:
        return None

    def holds(ell: int) -> bool:
        try:
            params = TheoremParams(n=n, k=k, ell=ell, p=p, eps=eps)
        except CapacityError:  # t past MAX_T_BITS: rhs is 0.0
            return (1.0 - eps) * p > 0.0
        return condition_holds(params)

    # invariant: the condition fails below lo, and holds at hi once found
    lo, hi = 1, 1
    while not holds(hi):
        if hi == ell_max:
            return None
        lo, hi = hi + 1, min(2 * hi, ell_max)
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    d = n - 2 * k - 2 * lo + 1
    return BestGap(ell=lo, gap=2 * lo, chi_lower=d + 1)
