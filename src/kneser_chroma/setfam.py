"""k-subsets of [n] as bitmasks: colex ranking, cyclic stability, binomials.

Ground-set elements are 1-based; bit i-1 of a mask represents element i.
The canonical vertex order everywhere in this package is colexicographic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import CapacityError

MAX_GROUND_SET = 64

LN_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class KSubset:
    """A k-element subset of [n], with its colex rank among all k-subsets."""

    mask: int
    n: int
    k: int
    rank: int

    @classmethod
    def from_mask(cls, mask: int, n: int) -> "KSubset":
        if n < 0 or n > MAX_GROUND_SET:
            raise CapacityError(f"ground set size {n} outside 0..{MAX_GROUND_SET}")
        if mask < 0 or mask >> n:
            raise ValueError(f"mask {mask:#x} has bits outside positions 1..{n}")
        return cls(mask=mask, n=n, k=mask.bit_count(), rank=rank_mask(mask))

    def elements(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if self.mask >> i & 1)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.elements())) + "}"


def rank_mask(mask: int) -> int:
    """Colex rank of a subset given as a bitmask: sum of C(pos_j, j+1)."""
    r = 0
    j = 0
    m = mask
    while m:
        low = m & -m
        r += math.comb(low.bit_length() - 1, j + 1)
        j += 1
        m ^= low
    return r


def _colex_masks(n: int, k: int):
    # all k-subsets of positions 0..n-1 in colex order, as masks
    if k == 0:
        yield 0
        return
    for top in range(k - 1, n):
        for rest in _colex_masks(top, k - 1):
            yield rest | (1 << top)


def enumerate_ksubsets(n: int, k: int) -> list[KSubset]:
    """All k-subsets of [n] in colex order; list position equals rank."""
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    if k < 0 or n < 0:
        raise ValueError("n and k must be nonnegative")
    if n > MAX_GROUND_SET:
        raise CapacityError(f"n={n} exceeds {MAX_GROUND_SET}")
    return [
        KSubset(mask=m, n=n, k=k, rank=r) for r, m in enumerate(_colex_masks(n, k))
    ]


def mask_is_stable(mask: int, n: int) -> bool:
    """True iff the subset has no two cyclically consecutive elements of [n].

    Singletons and the empty set are stable: a lone element is not a pair,
    even on the degenerate 1-cycle.
    """
    if n <= 1 or mask.bit_count() <= 1:
        return True
    full = (1 << n) - 1
    succ = ((mask << 1) | (mask >> (n - 1))) & full
    return mask & succ == 0


def enumerate_stable_ksubsets(n: int, k: int) -> list[KSubset]:
    """Stable k-subsets of [n] in colex order (filter of enumerate_ksubsets)."""
    return [s for s in enumerate_ksubsets(n, k) if mask_is_stable(s.mask, n)]


def iter_bits(mask: int):
    """Positions of the set bits of a nonnegative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
        out = self._positions
        for e in iter_bits(self._elements & ~ground):
            out &= self._avoid[e]
        return out


def binomial_exact(a: int, b: int) -> int:
    """Exact C(a, b); zero when b > a."""
    if a < 0 or b < 0:
        raise ValueError("binomial arguments must be nonnegative")
    if b > a:
        return 0
    return math.comb(a, b)


def _ln_factorial(x: int) -> float:
    if x < 2**53:
        return math.lgamma(x + 1.0)
    # Stirling; the 1/(12x) term already puts the truncation error below 1e-200
    xf = float(x)
    return (xf + 0.5) * math.log(x) - xf + 0.5 * LN_2PI + 1.0 / (12.0 * xf)


@lru_cache(maxsize=65536)
def ln_binomial(a: int, b: int) -> float:
    """ln C(a, b) with relative error <= 1e-9 for a <= 1e9.

    Routes through an exact binomial for tiny a, an fsum of integer logs when
    min(b, a-b) is moderate (the accuracy-critical regime), and log-factorials
    only when both parts are large enough to drown the cancellation error.
    """
    if b < 0 or b > a:
        raise ValueError(f"need 0 <= b <= a, got a={a}, b={b}")
    m = min(b, a - b)
    if m == 0:
        return 0.0
    if a <= 64:
        return math.log(math.comb(a, b))
    if m <= 10_000:
        return math.fsum(
            math.log(a - m + i) - math.log(i) for i in range(1, m + 1)
        )
    return _ln_factorial(a) - _ln_factorial(b) - _ln_factorial(a - b)


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
