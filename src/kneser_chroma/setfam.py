"""k-subsets of [n] as bitmasks: colex order, cyclic stability, binomials.

Ground-set elements are 1-based; bit i-1 of a mask represents element i.
The canonical vertex order everywhere in this package is colexicographic.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import reduce
from itertools import compress
from operator import and_

from .errors import CapacityError

MAX_GROUND_SET = 64

LN_2PI = math.log(2.0 * math.pi)


class KSubset(namedtuple("KSubset", "mask n k rank")):
    """A k-element subset of [n], with its colex rank among all k-subsets."""

    __slots__ = ()

    def elements(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if self.mask >> i & 1)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.elements())) + "}"


def _check_domain(n: int, k: int) -> None:
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    if k < 0 or n < 0:
        raise ValueError("n and k must be nonnegative")
    if n > MAX_GROUND_SET:
        raise CapacityError(f"n={n} exceeds {MAX_GROUND_SET}, the ground-set cap")


def _colex_walk(n: int, k: int, gap: int) -> tuple[list[int], list[int]]:
    """The k-sets of positions 0..n-1 spaced at least ``gap`` apart, in colex
    order, as masks and their colex ranks among all k-subsets.

    Level i holds such i-sets in colex order.  Those topped by position p
    are the first C(p - (gap-1)(i-1), i-1) sets of level i-1 (the ones whose
    top is at most p - gap), each with bit p set and C(p, i) added to its
    colex rank.  A level stops short of the positions its larger elements
    still need, so p runs over gap (i-1) <= p < n - gap (k-i).  With gap 1,
    level i is all C(n-k+i, i) i-subsets of its positions, and each level
    is at most k/n of the next, so at most min(k, n/(n-k)) sets are built
    per set returned.  With gap 2 the work per set is O(k^2) at worst
    (n = 2k) and a small constant when n is well above 2k; it never walks
    all C(n, k) masks.
    """
    masks, ranks = [0], [0]
    for i in range(1, k + 1):
        level_masks, level_ranks = [], []
        for p in range(gap * (i - 1), n - gap * (k - i)):
            below = math.comb(p - (gap - 1) * (i - 1), i - 1)
            bit, step = 1 << p, math.comb(p, i)
            level_masks += [m | bit for m in masks[:below]]
            level_ranks += [r + step for r in ranks[:below]]
        masks, ranks = level_masks, level_ranks
    return masks, ranks


def enumerate_ksubsets(n: int, k: int) -> list[KSubset]:
    """All k-subsets of [n] in colex order; list position equals rank."""
    _check_domain(n, k)
    return [KSubset(m, n, k, r) for m, r in zip(*_colex_walk(n, k, 1))]


def enumerate_stable_ksubsets(n: int, k: int) -> list[KSubset]:
    """Stable k-subsets of [n] in colex order, each with its rank among all
    k-subsets: the walk with elements 2 apart, then the wrap filter.

    Stable means no two cyclically consecutive elements; a singleton or the
    empty set is stable, even on the 1-cycle.
    """
    _check_domain(n, k)
    pairs = zip(*_colex_walk(n, k, 2))
    if k > 1:
        # the cycle also makes positions n-1 and 0 consecutive
        ends = 1 | 1 << (n - 1)
        pairs = ((m, r) for m, r in pairs if m & ends != ends)
    return [KSubset(m, n, k, r) for m, r in pairs]


def iter_bits(mask: int):
    """Positions of the set bits of a nonnegative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def select_bits(mask: int, items):
    """items[i] for each set bit i of a nonnegative int, ascending.

    One C-level pass over the binary digits of the mask, with no big-int
    operation per set bit, so on wide, dense masks such as adjacency rows it
    beats ``iter_bits``.
    """
    return compress(items, bin(mask)[:1:-1].encode().translate(_BIT_FLAGS))


class SubsetIndex:
    """Which members of a family of subsets of [n] lie inside a ground set.

    Built once from a list of masks: for each element e it keeps the bitset of
    list positions whose mask avoids e.  ``within(ground)`` is the bitset of
    positions i with ``masks[i]`` a subset of ``ground``, at one big-int AND
    per element of [n] missing from ``ground``.
    """

    def __init__(self, masks, n: int):
        self._elements = (1 << n) - 1
        self._positions = (1 << len(masks)) - 1
        has = [0] * n
        for i, m in enumerate(masks):
            for e in iter_bits(m):
                has[e] |= 1 << i
        self._avoid = [self._positions ^ h for h in has]

    def within(self, ground: int) -> int:
        missing = select_bits(self._elements & ~ground, self._avoid)
        return reduce(and_, missing, self._positions)


def ln_binomial(a: int, b: int) -> float:
    """ln C(a, b) to about 1e-14 relative; inf past float range.

    With m = min(b, a-b) <= 64 it is an fsum of the m logs of (a-m+i)/i.
    Past 64 it is Stirling's series for a!, m! and (a-m)! to third order,
    with the large terms gathered before they are rounded, r = m/a <= 1/2:

        ln C(a, m) = m ((1-r) g + ln a - ln m) - (ln(1-r) + ln m + ln 2pi)/2
                     - 1/(12m) - r/(12(a-m)) + (1 + (r/(1-r))^3 - r^3)/(360m^3),

    g = -ln(1-r)/r.  Each factorial's remainder lies between 0 and its first
    omitted term 1/(1260x^5) (Robbins 1955), so the error is below
    1/(630 m^5) < 1.4e-12 against ln C(a, m) >= ln C(130, 65) > 85.  No float(a)
    is taken, so any a is read (math.log takes big ints), and
    (a-m) ln(a/(a-m)) = m (1-r) g stays near m.  An m past float range gives
    inf: ln C(a, m) >= ln C(2m, m) >= 2m ln 2 - ln(2 sqrt(m)) is past it too.
    """
    if b < 0 or b > a:
        raise ValueError(f"need 0 <= b <= a, got a={a}, b={b}")
    m = min(b, a - b)
    if m <= 64:
        return math.fsum(math.log(a - m + i) - math.log(i) for i in range(1, m + 1))
    try:
        mf = float(m)
    except OverflowError:
        return math.inf
    r = m / a
    g = -math.log1p(-r) / r if r else 1.0
    lead = mf * ((1.0 - r) * g + math.log(a) - math.log(m))
    half = 0.5 * (math.log1p(-r) + math.log(m) + LN_2PI)
    third = (1.0 + (r / (1.0 - r)) ** 3 - r**3) * mf**-3 / 360.0
    return lead - half - 1.0 / (12.0 * mf) - m / (12 * a * (a - m)) + third


def stable_count(n: int, k: int) -> int:
    """Number of stable k-subsets of the n-cycle: (n/(n-k)) * C(n-k, k)."""
    if k == 0:
        return 1
    if n <= 0:
        return 0
    if n == 1:
        return 1 if k == 1 else 0
    if 2 * k > n:
        return 0
    return n * math.comb(n - k, k) // (n - k)
