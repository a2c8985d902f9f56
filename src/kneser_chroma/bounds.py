"""Log-space evaluation of the chromatic lower-bound condition and its chain.

Everything is overflow-safe for n up to 1e9: the pigeonhole count t is an
exact big integer of at most ``MAX_T_BITS`` bits (a larger one is a
CapacityError), and no other binomial or 3^n is ever materialized outside
log space.  The condition is monotone in ell, so ``best_gap`` finds the
smallest certified gap by a galloping bisection started at a float estimate
of the answer, in a few condition evaluations.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import CapacityError
from .setfam import ln_binomial

LN3 = math.log(3.0)
# C(k+ell, k) is computed exactly only up to this many bits, as predicted
# by ln_binomial
MAX_T_BITS = 2**16
MAX_T_LN = MAX_T_BITS * math.log(2.0)


def _check_rates(p: float, eps: float) -> None:
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p={p} outside (0, 1]")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps={eps} outside (0, 1)")


class TheoremParams(namedtuple("TheoremParams", "n k ell p eps dt")):
    """Finite parameter tuple (n, k, ell, p, eps), validated on construction.

    The last field, dt, is derived_params(n, k, ell), built here so that t is
    built once per params.  It is a function of n, k and ell, so it decides no
    comparison, and the repr leaves it out.  Construction, copies, pickles and
    ``_replace`` all pass the five parameters through ``__new__``.
    """

    __slots__ = ()

    def __new__(cls, n, k, ell, p, eps):
        dt = derived_params(n, k, ell)
        _check_rates(p, eps)
        return super().__new__(cls, n, k, ell, p, eps, dt)

    @classmethod
    def _make(cls, iterable):
        return cls(*tuple(iterable)[:5])

    def __getnewargs__(self):
        return self[:5]

    def __repr__(self):
        return "TheoremParams(n=%r, k=%r, ell=%r, p=%r, eps=%r)" % self[:5]


def derived_params(n: int, k: int, ell: int) -> tuple[int, int]:
    """Exact (d, t): d = n-2k-2ell+1, t = ceil(C(k+ell, k) / d)."""
    if k < 2:
        raise ValueError(f"precondition k >= 2 violated (k={k})")
    if ell < 1:
        raise ValueError(f"precondition ell >= 1 violated (ell={ell})")
    d = n - 2 * k - 2 * ell + 1
    if d < 2:
        raise ValueError(f"precondition d >= 2 violated (d={d})")
    # C(a, m) < a^m settles the common case without a logarithm
    m = k if k < ell else ell
    if m * (k + ell).bit_length() > MAX_T_BITS and ln_binomial(k + ell, k) > MAX_T_LN:
        raise CapacityError(
            f"C(k+ell, k) at k={k}, ell={ell} has over {MAX_T_BITS} bits (cap)"
        )
    t = -(-math.comb(k + ell, k) // d)
    return d, t


def _rhs(n: int, d: int, t: int) -> float:
    inv_t = 1 / t  # int division, correctly rounded for any t
    try:
        n_ln3 = n * LN3
    except OverflowError:  # not a CapacityError: best_gap reads that as t past the cap
        raise ValueError(f"n with {n.bit_length()} bits is past float range") from None
    return n_ln3 * inv_t * inv_t + 2.0 * (1.0 + math.log(d)) * inv_t


def condition_rhs(n: int, k: int, ell: int) -> float:
    """t^-2 n ln3 + 2 t^-1 (1 + ln d), in log space."""
    return _rhs(n, *derived_params(n, k, ell))


def condition_holds(params: TheoremParams) -> bool:
    """Strict test (1 - eps) p > t^-2 n ln3 + 2 t^-1 (1 + ln d)."""
    return (1.0 - params.eps) * params.p > _rhs(params.n, *params.dt)


def _ln_ln_binomial(b: float, t: int, d: int) -> float:
    """ln b, b = ln C(t d, t); past float range, ln t H(d), H(d) = ln d +
    (d-1) ln(d/(d-1)): Stirling's leading term, off by O(ln(t d)) there."""
    if b < math.inf:
        return math.log(b)
    x = 1 / (d - 1)
    return math.log(t) + math.log(math.log(d) + (math.log1p(x) / x if x else 1.0))


def _plus_tail(total: float, logs, t1: int, t2: int, p: float) -> float:
    """total + t1 t2 ln(1-p) for 0 <= p < 1, ``logs`` the logs of total's terms.

    The sum over its larger term carries about 1e-16 top of rounding, top that
    term's log: ln C(a, m) is rounded to 1e-16 ln a of its size, and past float
    range t1 t2 goes through logs, where an inf - inf is summed.  So a sum
    within 1e-14 top of 0, once that reaches 1e-9, is NaN: its sign is unknown.
    """
    lnq = math.log1p(-p)
    r = -1.0  # the sign of total - exp(neg) where exp(neg) overflows
    try:
        try:
            tail = float(t1 * t2) * -lnq if lnq else 0.0
        except OverflowError:
            neg = math.log(t1 * t2) + math.log(-lnq)
            tail = math.exp(neg) if total < math.inf else math.inf
        if tail < math.inf:
            top = max(total, tail)
            s, cut = total - tail, 1e-14 * math.log(top) * top
            return math.nan if abs(s) <= cut and 1e-9 <= cut < math.inf else s
        top = max(*logs, neg)
        r = sum(math.exp(x - top) for x in logs) - math.exp(neg - top)
        if abs(r) <= 1e-14 * top:
            return math.nan
        return math.copysign(math.exp(top + math.log(abs(r))), r)
    except OverflowError:
        return math.copysign(math.inf, r)


def ln_g(t1: int, t2: int, d: int, p: float) -> float:
    """ln of C(t1 d, t1) C(t2 d, t2) (1-p)^(t1 t2); -inf at p = 1."""
    if t1 < 1 or t2 < 1:
        raise ValueError("t1 and t2 must be >= 1")
    if d < 2:
        raise ValueError(f"d={d} must be >= 2")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    if p == 1.0:
        return -math.inf
    b1, b2 = ln_binomial(t1 * d, t1), ln_binomial(t2 * d, t2)
    logs = [_ln_ln_binomial(b1, t1, d), _ln_ln_binomial(b2, t2, d)]
    return _plus_tail(b1 + b2, logs, t1, t2, p)


def g_is_decreasing(d: int, t: int, p: float) -> bool:
    """True iff p > (1 + ln d) / t, making g shrink above the starting t."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if d < 2:
        raise ValueError(f"d={d} must be >= 2")
    return p > (1.0 + math.log(d)) * (1 / t)


class ChainBounds(namedtuple("ChainBounds", "l1 l2 l3 l4 conclusive")):
    """Successive log-space upper bounds on the bad-event probability.

    l1 = n ln3 + 2 ln C(td,t) + t^2 ln(1-p)   (exact first bound)
    l2 = n ln3 + 2 t (1+ln d) - p t^2         (binomial relaxation)
    l3 = -t^2 eps p                            (condition applied)
    l4 = -eps n ln3                            (pigeonhole on t^2 p)
    l2..l4 are only meaningful when the condition holds (conclusive=True).
    """

    __slots__ = ()


def ln_pA_bound(params: TheoremParams) -> ChainBounds:
    n, p, eps = params.n, params.p, params.eps
    d, t = params.dt
    conclusive = condition_holds(params)  # first: it refuses an n past float range
    l1 = -math.inf  # (1-p)^(t^2) is 0 at p = 1
    if p < 1.0:
        b = ln_binomial(t * d, t)
        logs = [math.log(n) + math.log(LN3), math.log(2.0) + _ln_ln_binomial(b, t, d)]
        l1 = _plus_tail(n * LN3 + 2.0 * b, logs, t, t, p)
    if not conclusive:
        return ChainBounds(l1=l1, l2=None, l3=None, l4=None, conclusive=False)
    try:
        t2 = float(t * t)
        l2 = n * LN3 + 2.0 * float(t) * (1.0 + math.log(d)) - p * t2
    except OverflowError:  # past t^2 = inf, where p t^2 is inf
        t2, l2 = math.inf, -math.inf
    l3 = -t2 * eps * p
    l4 = -eps * n * LN3
    return ChainBounds(l1=l1, l2=l2, l3=l3, l4=l4, conclusive=True)


BestGap = namedtuple("BestGap", "ell gap chi_lower")


def _estimate(n: int, k: int, lhs: float, ell_max: int) -> int:
    """Float guess at ``best_gap``'s answer, in 1..ell_max; 1 past float range.

    With a = n ln3 and b = 2 + 2 ln d, lhs > a/t^2 + b/t iff t > t*, the root
    of lhs t^2 - b t - a, and ceil(C(k+ell, k)/d) > t* iff C(k+ell, k) >
    floor(t*) d.  This solves ln C(k+ell, k) = ln(floor(t*) d) in log space
    (t* d overflows at (1e7, 1e6, 1e-300, 0.1)), refitting d at each step:
    first by (ell + (k+1)/2)^k / k! >= C(k+ell, k) (AM-GM), then by Newton.
    """
    try:
        a, lk, ell = n * LN3, math.lgamma(k + 1), 0.0
        for i in range(8):
            d = max(n - 2 * k - 2 * ell + 1, 2.0)
            b = 2.0 * (1.0 + math.log(d))
            root = math.sqrt(b * b + 4.0 * lhs * a)
            ln_t = math.log(b + root) - math.log(2.0 * lhs)
            if ln_t < 36.0:  # past 2^52, floor(t*) is t* in float
                ln_t = math.log(math.floor(math.exp(ln_t)))
            # the target falls by slope per unit of ell
            target, slope = ln_t + math.log(d), 2.0 * (1.0 + 2.0 / root) / d
            if i == 0:
                m = math.exp((target + lk) / k)
                step = ((k + 1) / 2 - m) / (1.0 + m * slope / k)
            else:
                f = math.lgamma(k + ell + 1) - math.lgamma(ell + 1) - lk - target
                step = f / (math.log((k + ell + 0.5) / (ell + 0.5)) + slope)
            ell = min(max(ell - step, 0.0), ell_max)
            if i and abs(step) < 0.1:
                break
        return min(int(ell) + 1, ell_max)
    except (OverflowError, ValueError):  # n or an intermediate past float range
        return 1


def best_gap(n: int, k: int, p: float, eps: float) -> BestGap | None:
    """Minimal ell >= 1 whose condition holds; None when no ell works.

    The condition is monotone in ell (below), so the answer is the first ell
    of 1..ell_max = (n-2k-1)//2 (the last with d >= 2) that holds.  Probing
    e-1 and e, e from ``_estimate``, the search gallops down (e-2, e-3, e-5,
    ...) if e-1 holds, else up (e+1, e+2, e+4, ..., ell_max), then bisects the
    last two ells tried.  Only probes move its bracket (false below lo, true
    at hi), so a bad estimate costs probes, about 2 log2 of its miss, never a
    wrong ell.  A probe builds at most one C(k+ell, k), and ``derived_params``
    refuses one past MAX_T_BITS before building it; the tests bound the probes
    by twice the answer at large n and k.  None is probed when (1 - eps) p
    rounds to 0, where no ell holds.  Monotonicity:

    - From ell to ell+1, d = n-2k-2ell+1 drops by 2 and C(k+ell, k) rises,
      so C(k+ell, k)/d rises and t = ceil(C(k+ell, k)/d) never decreases.
    - Both terms of rhs = t^-2 n ln3 + 2 t^-1 (1+ln d) are then products of
      positive factors that never increase (1 + ln d > 0 for d >= 2), so rhs
      never increases, and ``lhs > rhs`` is false on a prefix of the ells
      and true on the rest.
    - The float evaluation keeps this order: it is a chain of rounded
      operations each monotone in its arguments -- 1/t (of the exact
      integer t, correctly rounded at any size), products of nonnegative
      values, a sum and log -- so the computed rhs never increases either,
      and the search returns exactly the ell a linear scan upward would.
    - Past MAX_T_BITS, where ``derived_params`` refuses to build t, the
      condition is decided without it: t > 2^65536 / d puts 1/t below
      float's smallest value, so 1/t rounds to 0.0, rhs evaluates to exactly
      0.0, and the condition holds at every ell past the cap, as
      (1 - eps) p > 0 here.
    """
    if k < 2:
        raise ValueError(f"precondition k >= 2 violated (k={k})")
    _check_rates(p, eps)
    ell_max, lhs = (n - 2 * k - 1) // 2, (1.0 - eps) * p
    if ell_max < 1 or lhs == 0.0:
        return None

    def holds(ell: int) -> bool:
        try:
            params = TheoremParams(n=n, k=k, ell=ell, p=p, eps=eps)
        except CapacityError:  # t past MAX_T_BITS: rhs is 0.0, see above
            return True
        return condition_holds(params)

    e = _estimate(n, k, lhs, ell_max)
    if e > 1 and holds(e - 1):
        hi, x, step = e - 1, max(e - 2, 1), 2
        while hi > 1 and holds(x):
            hi, x, step = x, max(e - 1 - step, 1), 2 * step
        lo = min(x + 1, hi)
    else:
        lo, hi, step = e, e, 1
        while not holds(hi):
            if hi == ell_max:
                return None
            lo, hi, step = hi + 1, min(e + step, ell_max), 2 * step
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    d = n - 2 * k - 2 * lo + 1
    return BestGap(ell=lo, gap=2 * lo, chi_lower=d + 1)


RegimeEntry = namedtuple("RegimeEntry", "ell d t rhs holds conclusion")
RegimeReport = namedtuple("RegimeReport", "entries certified")


def corollary_regime_report(
    n: int, k: int, p: float, eps: float, extra_ells=()
) -> RegimeReport:
    """Evaluate the finite-n condition at ell = 1, 2 and any requested ells.

    Each ell whose condition holds certifies the chromatic gap <= 2*ell at
    these concrete parameters (the fixed-ell corollary conclusions; ell = 2
    and ell = 1 are the two headline gap-4 / gap-2 regimes).  p and eps are
    refused outside (0, 1] and (0, 1), NaN included, before any ell.
    """
    _check_rates(p, eps)
    ells = sorted({1, 2} | set(extra_ells))
    lhs = (1.0 - eps) * p
    entries = []
    for ell in ells:
        try:
            d, t = derived_params(n, k, ell)
        except ValueError:
            d = t = rhs = None
        else:
            rhs = _rhs(n, d, t)
        holds = rhs is not None and lhs > rhs
        conclusion = f"chi >= n-2k+2 - {2 * ell} (gap <= {2 * ell})" if holds else None
        entries.append(
            RegimeEntry(ell=ell, d=d, t=t, rhs=rhs, holds=holds, conclusion=conclusion)
        )
    certified = tuple(e.conclusion for e in entries if e.holds)
    return RegimeReport(entries=tuple(entries), certified=certified)
