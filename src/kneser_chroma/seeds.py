"""Stateless keyed pseudorandom functions for reproducible sampling.

Everything here is pure 64-bit integer arithmetic (splitmix64 finalizer),
so results are identical across runs, platforms, and thread counts.
"""

from __future__ import annotations

import math

from .setfam import select_bits

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_C1 = 0xBF58476D1CE4E5B9
_MIX_C2 = 0x94D049BB133111EB

EDGE_RNG_ID = "splitmix64-edge-v1"


def mix64(x: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit mixer."""
    x &= _M64
    x ^= x >> 30
    x = (x * _MIX_C1) & _M64
    x ^= x >> 27
    x = (x * _MIX_C2) & _M64
    x ^= x >> 31
    return x


def kept_adjacency(
    seed: int, p: float, ranks: list[int], adj: tuple[int, ...]
) -> list[int]:
    """Adjacency bitsets of the edges of ``adj`` that sampling keeps.

    An edge u < v is kept iff its 53-bit value, the top of
    mix64(mix64(mix64(seed ^ GOLDEN) ^ ranks[u] C1) ^ ranks[v] C2) with
    products taken mod 2^64, is < p 2^53; that is exact at p = 0 and p = 1.
    The first two rounds depend on the row only and run once per row, the
    last is inlined, and the value is compared with the integer
    ceil(p 2^53), which is exact since the value has 53 bits.

    The last round starts with x ^= x >> 30 on x = row_key ^ col_key.  That
    step is the map x -> x ^ (x >> 30), linear over GF(2) on 64-bit words,
    so it sends a ^ b to f(a) ^ f(b) and runs once per row key and once
    per column key instead of once per edge.  Likewise y >> 11 < T iff
    y < T << 11 for integers y, T >= 0, so the final shift folds into the
    threshold, ``limit``.

    The round ends with y = x ^ (x >> 31) on a 64-bit x.  As x >> 31 <
    2^33, y and x agree on bits 33-63: y >> 33 == x >> 33.  With
    ``low = (limit >> 33) << 33`` and ``high = low + 2^33``, x < low gives
    y >> 33 < limit >> 33, so y < limit, and x >= high gives y >> 33 >
    limit >> 33, so y >= limit.  Only x in [low, high), one 2^-31 share of
    the values, computes y.

    Each kept edge costs two big-int ORs.  For p > 1/2 the loop records the
    dropped edges instead, the smaller side in expectation, and row u is
    ``adj[u] & ~dropped[u]``: the dropped rows are symmetric like the kept
    ones, and every edge of ``adj`` is either kept or dropped.
    """
    m = len(ranks)
    c1, c2, m64 = _MIX_C1, _MIX_C2, _M64
    limit = math.ceil(p * (1 << 53)) << 11
    low = limit >> 33 << 33
    high = low + (1 << 33)
    drop = p > 0.5
    seed_key = mix64(seed ^ _GOLDEN)
    col_keys = [(r * c2) & m64 for r in ranks]
    col_keys = [c ^ (c >> 30) for c in col_keys]
    bits = [1 << v for v in range(m)]
    out = [0] * m
    for u, (rank_lo, row) in enumerate(zip(ranks, adj)):
        row_key = mix64(seed_key ^ ((rank_lo * c1) & m64))
        row_key ^= row_key >> 30
        bit = bits[u]
        side = 0
        for v in select_bits(row >> (u + 1), range(u + 1, m)):
            x = ((row_key ^ col_keys[v]) * c1) & m64
            x ^= x >> 27
            x = (x * c2) & m64
            # dropped iff y >= limit, settled on x outside [low, high)
            if (x >= low and (x >= high or x ^ (x >> 31) >= limit)) is drop:
                side |= bits[v]
                out[v] |= bit
        out[u] |= side
    if drop:
        return [row & ~dropped for row, dropped in zip(adj, out)]
    return out


def trial_seed(master_seed: int, trial: int) -> int:
    """Per-trial seed derived from a master seed, independent of run order."""
    return mix64(master_seed ^ mix64(trial ^ _GOLDEN))


def color_at(seed: int, index: int, num_colors: int) -> int:
    """Deterministic near-uniform color in 0..num_colors-1 for one index."""
    u = mix64(seed ^ ((index * _MIX_C1) & _M64)) >> 11
    return (u * num_colors) >> 53
