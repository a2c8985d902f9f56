"""Stateless keyed pseudorandom functions for reproducible sampling.

Everything here is pure 64-bit integer arithmetic (splitmix64 finalizer),
so results are identical across runs, platforms, and thread counts.
"""

from __future__ import annotations

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_C1 = 0xBF58476D1CE4E5B9
_MIX_C2 = 0x94D049BB133111EB

EDGE_RNG_ID = "splitmix64-edge-v1"

TWO53 = float(1 << 53)


def mix64(x: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit mixer."""
    x &= _M64
    x ^= x >> 30
    x = (x * _MIX_C1) & _M64
    x ^= x >> 27
    x = (x * _MIX_C2) & _M64
    x ^= x >> 31
    return x


def edge_value(seed: int, rank_lo: int, rank_hi: int) -> int:
    """53-bit uniform value keyed by (seed, unordered pair of subset ranks)."""
    x = mix64(seed ^ _GOLDEN)
    x = mix64(x ^ ((rank_lo * _MIX_C1) & _M64))
    x = mix64(x ^ ((rank_hi * _MIX_C2) & _M64))
    return x >> 11


def keep_edge(seed: int, rank_lo: int, rank_hi: int, p: float) -> bool:
    """Keep iff the derived uniform in [0,1) is < p; exact at p=0 and p=1."""
    return float(edge_value(seed, rank_lo, rank_hi)) < p * TWO53


def trial_seed(master_seed: int, trial: int) -> int:
    """Per-trial seed derived from a master seed, independent of run order."""
    return mix64(master_seed ^ mix64(trial ^ _GOLDEN))


def color_at(seed: int, index: int, num_colors: int) -> int:
    """Deterministic near-uniform color in 0..num_colors-1 for one index."""
    u = mix64(seed ^ ((index * _MIX_C1) & _M64)) >> 11
    return (u * num_colors) >> 53
