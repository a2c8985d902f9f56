import math
import random
from itertools import combinations, count

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graph_reference import rank_mask

from kneser_chroma.errors import CapacityError
from kneser_chroma.setfam import (
    MAX_GROUND_SET,
    KSubset,
    SubsetIndex,
    enumerate_ksubsets,
    enumerate_stable_ksubsets,
    iter_bits,
    ln_binomial,
    select_bits,
    stable_count,
)


def unrank_ksubset(n: int, k: int, rank: int) -> KSubset:
    """Inverse of ``KSubset.rank`` for the colex order on k-subsets of [n]."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if n > MAX_GROUND_SET:
        raise CapacityError(f"n={n} exceeds {MAX_GROUND_SET}")
    if not 0 <= rank < math.comb(n, k):
        raise ValueError(f"rank {rank} outside 0..C({n},{k})-1")
    mask = 0
    r = rank
    c = n - 1
    for j in range(k, 0, -1):
        while math.comb(c, j) > r:
            c -= 1
        r -= math.comb(c, j)
        mask |= 1 << c
        c -= 1
    return KSubset(mask=mask, n=n, k=k, rank=rank)


def mask_is_stable(mask: int, n: int) -> bool:
    """True iff the subset has no two cyclically consecutive elements of [n].

    Singletons and the empty set are stable: a lone element is not a pair,
    even on the degenerate 1-cycle.  The reference definition of stability
    that ``enumerate_stable_ksubsets`` is checked against.
    """
    if n <= 1 or mask.bit_count() <= 1:
        return True
    full = (1 << n) - 1
    succ = ((mask << 1) | (mask >> (n - 1))) & full
    return mask & succ == 0


def mask_of(elements):
    """Bitmask of a set of 1-based elements."""
    return sum(1 << (e - 1) for e in elements)


def brute_stable(elements, n):
    """Independent cyclic-adjacency check on 1-based element tuples."""
    es = set(elements)
    for i in es:
        succ = i % n + 1
        if succ != i and succ in es:
            return False
    return True


def brute_stable_sets(n, k):
    return sorted(
        tuple(c) for c in combinations(range(1, n + 1), k) if brute_stable(c, n)
    )


class TestEnumeration:
    def test_colex_4_2(self):
        subs = enumerate_ksubsets(4, 2)
        assert len(subs) == 6
        assert subs[0].elements() == (1, 2)
        assert subs[-1].elements() == (3, 4)

    def test_single_empty(self):
        subs = enumerate_ksubsets(5, 0)
        assert len(subs) == 1
        assert subs[0].mask == 0

    def test_count_and_distinct_10_3(self):
        subs = enumerate_ksubsets(10, 3)
        assert len(subs) == math.comb(10, 3) == 120
        assert len({s.mask for s in subs}) == 120

    def test_positions_are_ranks(self):
        for n, k in [(6, 3), (9, 2), (10, 5)]:
            for pos, s in enumerate(enumerate_ksubsets(n, k)):
                assert s.rank == pos == rank_mask(s.mask)

    def test_matches_sorted_combinations_exhaustive(self):
        # colex order is numeric mask order; ranks are list positions
        for n in range(0, 15):
            for k in range(0, n + 1):
                want = sorted(mask_of(c) for c in combinations(range(1, n + 1), k))
                subs = enumerate_ksubsets(n, k)
                assert [s.mask for s in subs] == want
                assert [s.rank for s in subs] == list(range(len(want)))
                assert all(s.n == n and s.k == k for s in subs)

    def test_colex_order_is_sorted_by_reversed_tuple(self):
        subs = enumerate_ksubsets(7, 3)
        keys = [tuple(reversed(s.elements())) for s in subs]
        assert keys == sorted(keys)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            enumerate_ksubsets(4, 5)
        with pytest.raises(CapacityError):
            enumerate_ksubsets(65, 2)

    def test_rank_unrank_roundtrip_exhaustive(self):
        for n in range(0, 17):
            for k in range(0, n + 1):
                total = math.comb(n, k)
                for r in range(total):
                    s = unrank_ksubset(n, k, r)
                    assert s.rank == r
                    assert rank_mask(s.mask) == r

    @given(
        st.integers(0, MAX_GROUND_SET).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))
        )
    )
    def test_rank_mask_inverts_unrank(self, case):
        n, mask = case
        k = mask.bit_count()
        r = rank_mask(mask)
        assert 0 <= r < math.comb(n, k)
        assert unrank_ksubset(n, k, r).mask == mask

    def test_unrank_range_checks(self):
        with pytest.raises(ValueError):
            unrank_ksubset(5, 2, 10)
        with pytest.raises(ValueError):
            unrank_ksubset(5, 6, 0)


class TestStability:
    def test_gap_pair_on_c5(self):
        assert mask_is_stable(mask_of([1, 3]), 5)

    @pytest.mark.parametrize("n", [3, 4, 7, 12])
    def test_wraparound_pair_unstable(self, n):
        assert not mask_is_stable(mask_of([1, n]), n)

    def test_examples(self):
        assert mask_is_stable(mask_of([2, 4, 6]), 7)
        assert mask_is_stable(mask_of([2, 4, 6]), 6)
        assert not mask_is_stable(mask_of([1, 3, 6]), 6)

    def test_empty_and_singletons_stable(self):
        assert mask_is_stable(0, 5)
        for n in range(1, 8):
            for i in range(1, n + 1):
                assert mask_is_stable(mask_of([i]), n)

    def test_matches_bruteforce(self):
        for n in range(2, 13):
            for k in range(0, n + 1):
                for s in enumerate_ksubsets(n, k):
                    assert mask_is_stable(s.mask, n) == brute_stable(s.elements(), n)

    def test_subsets_of_stable_are_stable(self):
        # exhaustively for n <= 12: closure under taking subsets
        for n in range(2, 13):
            for k in range(1, n // 2 + 1):
                for s in enumerate_stable_ksubsets(n, k):
                    sub = s.mask
                    while True:
                        assert mask_is_stable(sub, n)
                        if sub == 0:
                            break
                        sub = (sub - 1) & s.mask


class TestStableEnumeration:
    def test_5_2(self):
        got = [set(s.elements()) for s in enumerate_stable_ksubsets(5, 2)]
        assert got == [{1, 3}, {1, 4}, {2, 4}, {2, 5}, {3, 5}]

    def test_counts(self):
        assert len(enumerate_stable_ksubsets(6, 2)) == 9
        got = [set(s.elements()) for s in enumerate_stable_ksubsets(4, 2)]
        assert got == [{1, 3}, {2, 4}]

    def test_matches_bruteforce_filter(self):
        for n in range(2, 13):
            for k in range(0, n // 2 + 1):
                got = [s.elements() for s in enumerate_stable_ksubsets(n, k)]
                assert sorted(got) == brute_stable_sets(n, k)
                ranks = [rank_mask(sum(1 << (e - 1) for e in t)) for t in got]
                assert ranks == sorted(ranks)

    def test_matches_stable_filter_exhaustive(self):
        # both families against itertools: colex order is numeric mask order,
        # ranks come from rank_mask and stability from mask_is_stable
        for n in range(0, 17):
            for k in range(0, n + 1):
                masks = sorted(mask_of(c) for c in combinations(range(1, n + 1), k))
                want = [KSubset(m, n, k, rank_mask(m)) for m in masks]
                assert enumerate_ksubsets(n, k) == want
                stable = [s for s in want if mask_is_stable(s.mask, n)]
                assert enumerate_stable_ksubsets(n, k) == stable

    def test_cost_follows_the_output_not_c_n_k(self):
        # C(64,32) is about 1.8e18 masks; a filter over them would never end
        alternating = int("01" * 32, 2)
        got = enumerate_stable_ksubsets(64, 32)
        assert [s.mask for s in got] == [alternating, alternating << 1]
        assert [s.rank for s in got] == [rank_mask(s.mask) for s in got]
        assert len(enumerate_stable_ksubsets(40, 19)) == stable_count(40, 19) == 400

    def test_count_identity(self):
        # (n/(n-k)) C(n-k,k) against the brute-force filter
        for n in range(3, 21):
            for k in range(1, (n - 1) // 2 + 1):
                expected = n * math.comb(n - k, k) // (n - k)
                assert len(enumerate_stable_ksubsets(n, k)) == expected
                assert stable_count(n, k) == expected


class TestBinomials:
    def test_ln_small(self):
        assert ln_binomial(4, 2) == pytest.approx(math.log(6), rel=1e-12)
        for a in (0, 1, 7, 100, 10**9):
            assert ln_binomial(a, 0) == 0.0

    def test_ln_matches_exact_all_small(self):
        for a in range(0, 65):
            for b in range(0, a + 1):
                expected = math.log(math.comb(a, b)) if math.comb(a, b) > 1 else 0.0
                got = ln_binomial(a, b)
                if expected == 0.0:
                    assert got == 0.0
                else:
                    assert got == pytest.approx(expected, rel=1e-9)

    def test_ln_large_against_exact(self):
        for a, b in [(10**6, 3), (10**6, 17), (10**9, 2), (12345678, 1000)]:
            expected = math.log(math.comb(a, b))
            assert ln_binomial(a, b) == pytest.approx(expected, rel=1e-9)

    def test_ln_huge_min_part(self):
        # high-precision gamma oracle; exact comb at this size is impractical
        import mpmath

        mpmath.mp.dps = 40
        for a, b in [(10**7, 10**6), (10**9, 10**5), (10**9, 5 * 10**8)]:
            expected = float(mpmath.log(mpmath.binomial(a, b)))
            assert ln_binomial(a, b) == pytest.approx(expected, rel=1e-9)

    def test_ln_past_float_range(self):
        # no float(a) is taken: a past 2^1024 against a high-precision oracle
        import mpmath

        for a, b in [(2**1100 + 12345, 5 * 10**9), (10**310, 10**20),
                     (2**1030, 2**1020), (7 * 10**400, 3 * 10**250),
                     (2**1030, 10_001), (2**1030, 10_000)]:
            with mpmath.workdps(40 + len(str(a))):
                expected = float(
                    mpmath.loggamma(a + 1) - mpmath.loggamma(b + 1)
                    - mpmath.loggamma(a - b + 1)
                )
            assert ln_binomial(a, b) == pytest.approx(expected, rel=1e-9)
        # ln C(a, m) >= ln C(2m, m) > m ln 2: past float range with m
        assert ln_binomial(2**2000, 2**1500) == math.inf
        assert ln_binomial(2**1030, 2**1023) == math.inf

    def test_ln_domain(self):
        with pytest.raises(ValueError):
            ln_binomial(10, 11)


class TestLnBinomialSeams:
    def test_against_mpmath_across_the_branch_seam(self):
        import mpmath

        for m in (1, 2, 63, 64, 65, 66, 100, 9999, 10000, 10001):
            for a in (2 * m, 2 * m + 1, 3 * m, 10**6, 10**9, 2**200):
                with mpmath.workdps(40 + len(str(a))):
                    expected = float(
                        mpmath.loggamma(a + 1) - mpmath.loggamma(m + 1)
                        - mpmath.loggamma(a - m + 1)
                    )
                for b in (m, a - m):
                    assert ln_binomial(a, b) == pytest.approx(expected, rel=1e-13)

    def test_no_module_holds_a_cache(self):
        # no state lasts from one call to the next; a cache is a reviewed edit
        import importlib
        import pkgutil

        import kneser_chroma

        cached = []
        for info in pkgutil.iter_modules(kneser_chroma.__path__):
            module = importlib.import_module(f"kneser_chroma.{info.name}")
            for name, value in vars(module).items():
                inner = vars(value).items() if isinstance(value, type) else ()
                members = [(f"{name}.{k}", v) for k, v in inner]
                for where, obj in [(name, value), *members]:
                    if hasattr(obj, "cache_info"):
                        cached.append(f"{info.name}.{where}")
        assert cached == []


@st.composite
def family_and_grounds(draw):
    n = draw(st.integers(0, 12))
    full = (1 << n) - 1
    mask = st.integers(0, full)
    masks = draw(st.lists(mask, max_size=40))
    grounds = draw(st.lists(mask, max_size=8)) + [0, full]
    return n, masks, grounds


class TestSubsetIndex:
    @given(family_and_grounds())
    def test_within_matches_bruteforce(self, case):
        n, masks, grounds = case
        index = SubsetIndex(masks, n)
        for g in grounds:
            want = sum(1 << i for i, m in enumerate(masks) if m & g == m)
            assert index.within(g) == want

    @pytest.mark.parametrize("n", [0, 1, 2, 17, 31, 63, 64])
    def test_within_matches_bruteforce_up_to_64(self, n):
        rng = random.Random(n)
        full = (1 << n) - 1
        # sparse, uniform and dense subsets of [n]
        draws = (
            lambda: rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n),
            lambda: rng.getrandbits(n),
            lambda: rng.getrandbits(n) | rng.getrandbits(n),
        )
        for size in (0, 1, 50, 300):
            masks = [draws[i % 3]() for i in range(size)]
            index = SubsetIndex(masks, n)
            grounds = [full, 0] + [rng.getrandbits(n) for _ in range(20)]
            grounds += [full ^ (1 << rng.randrange(n)) for _ in range(5) if n]
            for g in grounds:
                want = sum(1 << i for i, m in enumerate(masks) if m & g == m)
                assert index.within(g) == want

    def test_iter_bits(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(0b101001)) == [0, 3, 5]
        assert list(iter_bits(1 << 200)) == [200]

    @given(st.integers(0, 2**600))
    def test_select_bits_matches_iter_bits(self, mask):
        labels = [str(i) for i in range(mask.bit_length())]
        assert list(select_bits(mask, labels)) == [str(i) for i in iter_bits(mask)]
        assert list(select_bits(mask, count(7))) == [
            i + 7 for i in iter_bits(mask)
        ]
