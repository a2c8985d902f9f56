import math
import random
import sys
from fractions import Fraction

import bounds_reference as reference
import mpmath
import pytest

from kneser_chroma.bounds import (
    BestGap,
    TheoremParams,
    best_gap,
    condition_holds,
    condition_rhs,
    corollary_regime_report,
    derived_params,
    g_is_decreasing,
    ln_g,
    ln_pA_bound,
)
from kneser_chroma.errors import CapacityError

mpmath.mp.dps = 50


def mp_rhs(n, k, ell):
    """High-precision recomputation of the condition right-hand side."""
    d = n - 2 * k - 2 * ell + 1
    t = -(-math.comb(k + ell, k) // d)
    t = mpmath.mpf(t)
    return float(
        n * mpmath.log(3) / t**2 + 2 * (1 + mpmath.log(d)) / t
    )


def mp_ln_g(t1, t2, d, p):
    """ln g through loggamma, at 500 digits: the loggamma terms of t = 1e400
    agree in their first 400 digits."""
    def ln_binomial(t):
        return (mpmath.loggamma(t * d + 1) - mpmath.loggamma(t + 1)
                - mpmath.loggamma(t * (d - 1) + 1))
    with mpmath.workdps(500):
        tail = t1 * t2 * mpmath.log1p(-mpmath.mpf(p))
        return ln_binomial(t1) + ln_binomial(t2) + tail


def exact_g(t1, t2, d, p_frac):
    """Exact rational g for probabilities given as Fractions."""
    return (
        Fraction(math.comb(t1 * d, t1))
        * Fraction(math.comb(t2 * d, t2))
        * (1 - p_frac) ** (t1 * t2)
    )


def linear_best_gap(n, k, p, eps):
    """The linear scan ``best_gap`` used before the search, kept as the reference."""
    if k < 2:
        raise ValueError(f"precondition k >= 2 violated (k={k})")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p={p} outside (0, 1]")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps={eps} outside (0, 1)")
    ell_max = (n - 2 * k - 1) // 2
    for ell in range(1, ell_max + 1):
        if condition_holds(TheoremParams(n=n, k=k, ell=ell, p=p, eps=eps)):
            d = n - 2 * k - 2 * ell + 1
            return BestGap(ell=ell, gap=2 * ell, chi_lower=d + 1)
    return None


def brute_min_ell(n, k, p, eps):
    """Scan oracle for the gap optimizer, written independently."""
    ell = 1
    while n - 2 * k - 2 * ell + 1 >= 2:
        d = n - 2 * k - 2 * ell + 1
        t = -(-math.comb(k + ell, k) // d)
        rhs = n * math.log(3) / t**2 + 2 * (1 + math.log(d)) / t
        if (1 - eps) * p > rhs:
            return ell
        ell += 1
    return None


class TestDerivedParams:
    def test_examples(self):
        assert derived_params(10, 2, 1) == (5, 1)
        assert derived_params(13, 2, 2) == (6, 1)

    def test_large_exact_ceiling(self):
        d, t = derived_params(10**6, 2, 63096)
        assert d == 873805
        # exact ceiling of C(63098,2)/873805; floor division is one less
        num = math.comb(63098, 2)
        assert num % 873805 != 0
        assert t == num // 873805 + 1 == 2279

    def test_preconditions_named(self):
        with pytest.raises(ValueError, match="k >= 2"):
            derived_params(10, 1, 1)
        with pytest.raises(ValueError, match="ell >= 1"):
            derived_params(10, 2, 0)
        with pytest.raises(ValueError, match="d >= 2"):
            derived_params(10, 2, 4)  # d = -1

    def test_t_at_least_one(self):
        for n, k, ell in [(10, 2, 1), (100, 3, 5), (64, 2, 10)]:
            _, t = derived_params(n, k, ell)
            assert t >= 1


class TestConditionRhs:
    def test_headline_against_high_precision(self):
        got = condition_rhs(10**6, 2, 63096)
        assert got == pytest.approx(mp_rhs(10**6, 2, 63096), rel=1e-9)
        assert got == pytest.approx(0.224405506546, rel=1e-9)

    def test_t_one_case(self):
        expected = 13 * math.log(3) + 2 * (1 + math.log(6))
        assert condition_rhs(13, 2, 2) == pytest.approx(expected, rel=1e-12)

    def test_decreasing_in_t(self):
        # same two-term expression, evaluated directly on a t-grid
        for d in (2, 10, 100):
            n = 1000
            vals = [
                n * math.log(3) / t**2 + 2 * (1 + math.log(d)) / t
                for t in range(1, 50)
            ]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_matches_mpmath_on_grid(self):
        for n, k, ell in [(100, 2, 3), (1000, 3, 17), (10**9, 2, 4)]:
            assert condition_rhs(n, k, ell) == pytest.approx(
                mp_rhs(n, k, ell), rel=1e-9
            )


class TestCondition:
    def test_headline_true(self):
        assert condition_holds(TheoremParams(10**6, 2, 63096, 0.5, 0.5))

    def test_t_one_always_false(self):
        # RHS > n ln3 + 2(1+ln d) > 1 when t = 1
        for n, k, ell in [(10, 2, 1), (13, 2, 2)]:
            _, t = derived_params(n, k, ell)
            assert t == 1
            assert not condition_holds(TheoremParams(n, k, ell, 1.0, 1e-9))

    def test_eps_to_one_false(self):
        assert not condition_holds(TheoremParams(10**6, 2, 63096, 1.0, 0.999999))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            TheoremParams(10**6, 2, 63096, 0.0, 0.5)
        with pytest.raises(ValueError):
            TheoremParams(10**6, 2, 63096, 0.5, 1.0)


class TestLnG:
    def test_t1_t1_closed_form(self):
        # g(1,1,d,p) = d^2 (1-p)
        for d in (2, 5, 50):
            for p in (0.0, 0.25, 0.5, 0.9):
                assert ln_g(1, 1, d, p) == pytest.approx(
                    2 * math.log(d) + math.log1p(-p), rel=1e-12, abs=1e-12
                )

    def test_exact_cross_check_2_2_3(self):
        assert math.exp(ln_g(2, 2, 3, 0.5)) == pytest.approx(225 / 16, rel=1e-12)

    def test_exact_rational_sweep_small(self):
        # every (t1, t2, d) with t*d <= 64, p with exact float representation;
        # the oracle takes logs of exact numerator/denominator to dodge
        # subnormal underflow in tiny rationals
        for p_frac in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            p = float(p_frac)
            for d in range(2, 33):
                for t1 in range(1, 64 // d + 1):
                    for t2 in range(1, 64 // d + 1):
                        g = exact_g(t1, t2, d, p_frac)
                        expected = math.log(g.numerator) - math.log(g.denominator)
                        assert ln_g(t1, t2, d, p) == pytest.approx(
                            expected, rel=1e-9
                        )

    def test_p_one_is_neg_inf(self):
        assert ln_g(3, 3, 4, 1.0) == -math.inf

    def test_domain(self):
        with pytest.raises(ValueError):
            ln_g(0, 1, 4, 0.5)
        with pytest.raises(ValueError):
            ln_g(1, 1, 4, 1.5)

    def test_step_bound_grid(self):
        # ln g(t+1,t) - ln g(t,t) < 1 + ln d - p t
        for d in (2, 5, 17, 50):
            for t in (1, 2, 7, 50, 200, 500):
                for p in (0.1, 0.3, 0.5, 0.7, 0.9):
                    step = ln_g(t + 1, t, d, p) - ln_g(t, t, d, p)
                    assert step < 1 + math.log(d) - p * t


class TestGDecreasing:
    def test_examples(self):
        assert not g_is_decreasing(6, 1, 1.0)
        assert g_is_decreasing(873805, 2278, 0.5)
        assert g_is_decreasing(873805, 2279, 0.5)

    def test_condition_implies_decreasing_spot(self):
        params = TheoremParams(10**6, 2, 63096, 0.5, 0.5)
        assert condition_holds(params)
        d, t = derived_params(params.n, params.k, params.ell)
        assert g_is_decreasing(d, t, params.p)


class TestChain:
    def test_headline_ordering(self):
        ch = ln_pA_bound(TheoremParams(10**6, 2, 63096, 0.5, 0.5))
        assert ch.conclusive
        assert ch.l1 <= ch.l2 < ch.l3 < ch.l4
        assert ch.l4 == pytest.approx(-0.5 * 10**6 * math.log(3), rel=1e-12)
        assert ch.l1 < 0

    def test_nonconclusive_only_l1(self):
        ch = ln_pA_bound(TheoremParams(13, 2, 2, 1.0, 0.1))
        assert not ch.conclusive
        assert ch.l2 is None and ch.l3 is None and ch.l4 is None
        assert ch.l1 == -math.inf  # (1-p)^(t^2) vanishes at p=1

    def test_nonconclusive_l1_value(self):
        ch = ln_pA_bound(TheoremParams(13, 2, 2, 0.9, 0.1))
        assert not ch.conclusive
        d, t = derived_params(13, 2, 2)
        expected = (
            13 * math.log(3)
            + 2 * math.log(math.comb(t * d, t))
            + t * t * math.log1p(-0.9)
        )
        assert ch.l1 == pytest.approx(expected, rel=1e-12)


class TestBestGap:
    def test_headline(self):
        bg = best_gap(10**6, 2, 0.5, 0.5)
        assert bg is not None
        assert bg.ell <= 63096
        assert bg.gap == 2 * bg.ell
        assert bg.chi_lower == 10**6 - 4 - 2 * bg.ell + 2

    def test_matches_brute_scan(self):
        for n, k, p, eps in [
            (13, 2, 1.0, 0.1),
            (50, 2, 0.9, 0.2),
            (200, 3, 0.7, 0.25),
            (30, 2, 0.2, 0.5),
        ]:
            expected = brute_min_ell(n, k, p, eps)
            got = best_gap(n, k, p, eps)
            if expected is None:
                assert got is None
            else:
                assert got is not None and got.ell == expected

    def test_13_2_feasible_at_ell_4(self):
        # d=2, t=ceil(15/2)=8: rhs ~ 0.646 < 0.9, so the scan succeeds
        assert condition_holds(TheoremParams(13, 2, 4, 1.0, 0.1))
        bg = best_gap(13, 2, 1.0, 0.1)
        assert bg is not None and bg.ell == 4 and bg.chi_lower == 3

    def test_infeasible_small_p(self):
        assert best_gap(13, 2, 0.3, 0.5) is None

    def test_monotone_in_p(self):
        for n, k, eps in [(100, 2, 0.2), (500, 2, 0.3)]:
            prev = None
            for p in (0.2, 0.4, 0.6, 0.8, 1.0):
                bg = best_gap(n, k, p, eps)
                if prev is not None and prev.ell is not None:
                    if bg is None:
                        assert prev is None
                    else:
                        assert bg.ell <= prev.ell
                if bg is not None:
                    prev = bg

    def test_chi_lower_cap(self):
        for n, k, p, eps in [(10**6, 2, 0.5, 0.5), (200, 3, 0.7, 0.25)]:
            bg = best_gap(n, k, p, eps)
            if bg is not None:
                assert bg.chi_lower <= n - 2 * k + 2


class TestBisection:
    PS = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.97, 1.0)
    EPSS = (0.01, 0.05, 0.1, 0.2, 0.5, 0.9)

    def sample(self):
        # no ell works, or only ell_max does, only for n <= 212 on this grid,
        # so half the sample is drawn there
        rng = random.Random(20151)
        return [
            (rng.randint(*span), rng.randint(2, 5), rng.choice(self.PS),
             rng.choice(self.EPSS))
            for span in ((5, 250), (251, 2000))
            for _ in range(1000)
        ]

    def test_matches_linear_scan_on_sample(self):
        outcomes = set()
        for n, k, p, eps in self.sample():
            expected = linear_best_gap(n, k, p, eps)
            assert best_gap(n, k, p, eps) == expected, (n, k, p, eps)
            if expected is None:
                outcomes.add("none")
            elif expected.ell == (n - 2 * k - 1) // 2:
                outcomes.add("ell_max")
            else:
                outcomes.add("inside")
        assert outcomes == {"none", "ell_max", "inside"}

    def test_edges_of_the_range(self):
        # ell_max = (n-2k-1)//2 is the first ell that holds, or none does
        assert best_gap(1000, 2, 3e-4, 0.5).ell == 497
        assert linear_best_gap(1000, 2, 3e-4, 0.5).ell == 497
        assert best_gap(1000, 2, 1e-9, 0.9) is None
        # ell = 1 holds, and no ell exists below d = 2
        assert best_gap(2003, 1000, 0.9, 0.1) == linear_best_gap(2003, 1000, 0.9, 0.1)
        assert best_gap(2003, 1000, 0.9, 0.1).ell == 1
        for n in (4, 5, 6, 7):
            assert best_gap(n, 2, 1.0, 0.1) is None

    @pytest.mark.parametrize(
        "n,k",
        [(13, 2), (100, 2), (1000, 3), (2000, 5), (5001, 4), (10**4, 200)],
    )
    def test_rhs_never_increases_in_ell(self, n, k):
        ell_max = (n - 2 * k - 1) // 2
        rhs = [condition_rhs(n, k, ell) for ell in range(1, ell_max + 1)]
        assert all(b <= a for a, b in zip(rhs, rhs[1:]))

    def test_overflow_branch_is_in_the_checked_range(self):
        # at k=200, n=1e4 t passes float's range inside the ell range checked
        # above, where 1/t is still the correctly rounded quotient
        fits = []
        for ell in range(1, (10**4 - 401) // 2 + 1):
            _, t = derived_params(10**4, 200, ell)
            try:
                float(t)
                fits.append(True)
            except OverflowError:
                fits.append(False)
        assert fits[0] and not fits[-1]
        assert fits == sorted(fits, reverse=True)

    @pytest.fixture
    def evaluated(self, monkeypatch):
        """The ells at which best_gap evaluates the condition, in order."""
        import kneser_chroma.bounds as bounds_mod

        calls = []
        real = bounds_mod.condition_holds

        def counted(params):
            calls.append(params.ell)
            return real(params)

        monkeypatch.setattr(bounds_mod, "condition_holds", counted)
        return calls

    @pytest.mark.parametrize(
        "n,k,p,eps,ell",
        [(10**7, 2, 0.5, 0.5, 352828), (10**9, 2, 0.5, 0.1, 9847227),
         # t* d is about e^710 here, past float's range, and a probe far above
         # the answer is costly: C(k+ell, ell) has 63,328 bits at ell = 7,434
         (10**7, 10**6, 1e-300, 0.1, 68)],
    )
    def test_evaluations_are_logarithmic(self, evaluated, n, k, p, eps, ell):
        assert best_gap(n, k, p, eps).ell == ell
        assert len(evaluated) <= 2 * math.ceil(math.log2(ell)) + 1
        assert max(evaluated) < 2 * ell

    def test_large_k_never_evaluates_past_the_answer(self, evaluated):
        # C(k + ell, k) has ~2.7e6 bits at ell = ell_max/2 here and takes
        # seconds to compute exactly; the answer needs only ell <= 2
        assert best_gap(10**7, 10**6, 0.5, 0.1).ell == 2
        assert evaluated == [1, 2]
        assert linear_best_gap(10**7, 10**6, 0.5, 0.1).ell == 2

    def test_infeasible_at_1e9_returns_none(self, evaluated):
        # the linear scan walks all ~5e8 ells here; the estimate is past ell_max
        assert best_gap(10**9, 2, 1e-20, 0.5) is None
        ell_max = (10**9 - 5) // 2
        assert evaluated == [ell_max - 1, ell_max]


    def test_never_raises_past_the_binomial_cap(self):
        # best_gap decides an ell whose C(k+ell, k) is past MAX_T_BITS without
        # computing it; derived_params refuses such an ell
        for n, k, p, eps in self.sample():
            best_gap(n, k, p, eps)
            best_gap(n, k, 1e-300, eps)
        for n, k in ((10**7, 10**6), (10**9, 2), (10**4, 200), (2003, 1000)):
            for p in self.PS + (1e-300, 5e-324):
                for eps in self.EPSS:
                    best_gap(n, k, p, eps)
        with pytest.raises(CapacityError):
            derived_params(10**7, 10**6, 2 * 10**6)

    def test_tiny_p_at_large_k_matches_linear_scan(self):
        assert best_gap(10**7, 10**6, 1e-300, 0.1) == linear_best_gap(
            10**7, 10**6, 1e-300, 0.1
        )

    def test_zero_lhs_never_evaluates_past_the_cap(self, evaluated):
        # (1 - 0.5) * 5e-324 rounds to 0, so no ell holds, up to ell_max =
        # 3,999,999 where C(k+ell, k) has millions of bits; none is probed
        assert best_gap(10**7, 10**6, 5e-324, 0.5) is None
        assert evaluated == []

    def test_probes_past_the_cap_hold(self, monkeypatch):
        # an estimate at ell_max has the search gallop down through ells whose
        # C(k+ell, k) is past MAX_T_BITS: each holds without building t
        import kneser_chroma.bounds as bounds_mod

        want = best_gap(10**6, 10**5, 0.5, 0.1)
        capped = []
        real = bounds_mod.derived_params

        def counted(n, k, ell):
            try:
                return real(n, k, ell)
            except CapacityError:
                capped.append(ell)
                raise

        monkeypatch.setattr(bounds_mod, "derived_params", counted)
        monkeypatch.setattr(bounds_mod, "_estimate", lambda n, k, lhs, top: top)
        assert best_gap(10**6, 10**5, 0.5, 0.1) == want
        assert want.ell == 2 and len(capped) == 23

    def test_bounds_sweep_probes_pinned(self, evaluated):
        # the 18 sweeps of perfbench's bounds-sweep op mix, p and eps jittered
        # by up to 2% as there: each probes e - 1, which fails, and e
        grid = {2: ((0.5, 0.1), (0.9, 0.05), (0.3, 0.2))}
        grid[3], grid[5] = grid[2], grid[2][:1]
        mix = [(n, k, p, eps) for n in (10**5, 10**6, 10**7) for k in (2, 3, 5)
               if k != 2 or n <= 10**6 for p, eps in grid[k]]
        assert len(mix) == 18
        rng = random.Random(2015)
        for _ in range(10):
            for n, k, p, eps in mix:
                p, eps = (x * (1.0 + 0.02 * (2.0 * rng.random() - 1.0))
                          for x in (p, eps))
                evaluated.clear()
                ell = best_gap(n, k, p, eps).ell
                assert evaluated == [ell - 1, ell], (n, k, p, eps)


class TestAgainstReference:
    """The same BestGap, None or exception type as the gallop from ell = 1 in
    ``bounds_reference``, and on the small grid as the linear scan too."""

    @staticmethod
    def outcome(search, *args):
        try:
            return search(*args)
        except (ValueError, CapacityError) as exc:
            return type(exc)

    def test_small_grid(self):
        ps = (1e-300, 1e-9, 0.01, 0.3, 0.5, 0.9, 1.0)
        cases = [(n, k, p, eps) for n in range(5, 81) for k in range(2, n)
                 for p in ps for eps in (1e-9, 0.1, 0.5, 0.99)]
        assert len(cases) == 86184
        for case in cases:
            got = self.outcome(best_gap, *case)
            assert got == self.outcome(reference.best_gap, *case), case
            assert got == self.outcome(linear_best_gap, *case), case

    def test_wide_grid(self):
        ns = (7, 9, 10, 11, 12, 15, 20, 30, 50, 100) + tuple(
            10**e for e in (3, 4, 5, 6, 7, 8, 9, 12))
        ks = (2, 3, 4, 5, 7, 10, 20, 50, 200, 1000)
        pes = ((0.5, 0.1), (0.9, 0.05), (0.3, 0.2), (1, 0.5), (0.01, 0.01),
               (1e-6, 0.9), (0.999, 1e-6), (1e-12, 0.5))
        for n in ns:
            for k in ks:
                for p, eps in pes:
                    got = self.outcome(best_gap, n, k, p, eps)
                    assert got == self.outcome(reference.best_gap, n, k, p, eps), (
                        n, k, p, eps)


class TestPastTSquared:
    """t^2 and t1 t2 past float range, against mpmath."""

    def test_condition_keeps_its_n_term(self):
        # t = 5e159: n ln3 / t^2 = 4.4e-20 is far above lhs = 9e-151; a
        # 1/t^2 that rounded to 0 dropped it and read the condition true
        n, k, ell, p, eps = 10**300, 2, 10**230, 1e-150, 0.1
        params = TheoremParams(n, k, ell, p, eps)
        d, t = params.dt
        assert 10**159 < t < 10**160
        assert condition_rhs(n, k, ell) == pytest.approx(mp_rhs(n, k, ell), rel=1e-12)
        assert condition_rhs(n, k, ell) > 4e-20
        assert not condition_holds(params)
        ch = ln_pA_bound(params)
        assert not ch.conclusive
        # t^2 ln(1-p) = -2.5e169 is finite; l1 is about n ln3 = 1.1e300
        want = n * mpmath.log(3) + mp_ln_g(t, t, d, p)
        assert ch.l1 == pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize("t1, t2, d, p", [
        (10**200, 10**200, 2, 1e-300),  # t1 t2 past range, tail finite
        (10**400, 10**400, 2, 0.5),     # both binomials inf, the tail wins
        (10**400, 10**400, 2, 1e-300),
        (10**400, 1, 2, 0.5),           # the binomial of t1 wins
        (10**400, 3, 2, 0.5),
        (10**170, 10**170, 7, 0.5),
    ], ids=["1e200-1e200-2-1e-300", "1e400-1e400-2-0.5", "1e400-1e400-2-1e-300",
            "1e400-1-2-0.5", "1e400-3-2-0.5", "1e170-1e170-7-0.5"])
    def test_ln_g_against_mpmath(self, t1, t2, d, p):
        want = mp_ln_g(t1, t2, d, p)
        got = ln_g(t1, t2, d, p)
        if abs(want) > sys.float_info.max:
            assert got == math.copysign(math.inf, want)
        else:
            assert got == pytest.approx(float(want), rel=1e-12)

    def test_ln_g_too_close_to_call_is_nan(self):
        # 2t ln 2 - 2t ln 2 leaves about -459, under the logs' rounding at
        # t = 1e400; floats cannot tell its sign
        assert -470 < mp_ln_g(10**400, 2, 2, 0.5) < -450
        assert math.isnan(ln_g(10**400, 2, 2, 0.5))

    def test_ln_g_cancelling_in_float_range_is_nan_or_right(self):
        # the same 2t ln 2 - 2t ln 2 at t = 10^e with both terms finite; the
        # parent gave +368.0 at e = 17 and +3.57e285 at e = 300 (mpmath -18.4
        # and -344.2), and at e = 308 it took total - exp(neg)
        kept = []
        for e in range(10, 309):
            got = ln_g(10**e, 2, 2, 0.5)
            if math.isnan(got):
                continue
            want = mp_ln_g(10**e, 2, 2, 0.5)
            top = float(2 * 10**e * mpmath.log(2))  # the tail, the larger term
            assert abs(got - float(want)) <= 1e-14 * top and (got < 0) == (want < 0), e
            kept.append(e)
        assert kept == [10, 11, 12, 13]


class TestPastFloatRange:
    """An n that does not convert to a float is a ValueError naming n from
    every entry point.  Not a CapacityError: best_gap reads that one as a t
    past MAX_T_BITS and would certify ell = 1."""

    @pytest.mark.parametrize("call", [
        lambda n: condition_rhs(n, 3, 3),
        lambda n: condition_holds(TheoremParams(n, 3, 3, 0.5, 0.1)),
        lambda n: ln_pA_bound(TheoremParams(n, 3, 3, 0.5, 0.1)),
        lambda n: best_gap(n, 3, 0.5, 0.1),
        lambda n: corollary_regime_report(n, 3, 0.5, 0.1, (7,)),
    ])
    @pytest.mark.parametrize("n", [2**1024, 10**400])
    def test_value_error_names_n(self, call, n):
        with pytest.raises(ValueError, match="^n with"):
            call(n)

    def test_largest_float_still_evaluates(self):
        n = int(sys.float_info.max)
        assert condition_rhs(n, 3, 3) == math.inf
        assert not condition_holds(TheoremParams(n, 3, 3, 0.5, 0.1))


class TestRegimeReport:
    def test_ell2_certifies_gap4(self):
        rep = corollary_regime_report(200, 80, 0.5, 0.2)
        by_ell = {e.ell: e for e in rep.entries}
        assert by_ell[2].holds
        assert "gap <= 4" in by_ell[2].conclusion
        assert any("gap <= 4" in c for c in rep.certified)

    def test_ell1_certifies_gap2(self):
        # needs t = ceil((k+1)/d) substantial: small d, huge k
        rep = corollary_regime_report(2003, 1000, 0.9, 0.1)
        by_ell = {e.ell: e for e in rep.entries}
        assert by_ell[1].holds
        assert "gap <= 2" in by_ell[1].conclusion

    def test_all_fail_empty_certifications(self):
        rep = corollary_regime_report(13, 2, 0.3, 0.5)
        assert rep.certified == ()

    @pytest.mark.parametrize("p,eps,message", [
        (2.0, 0.25, "p=2.0 outside (0, 1]"),
        (0.0, 0.25, "p=0.0 outside (0, 1]"),
        (math.nan, 0.25, "p=nan outside (0, 1]"),
        (0.5, 1.0, "eps=1.0 outside (0, 1)"),
        (0.5, 0.0, "eps=0.0 outside (0, 1)"),
        (0.5, math.nan, "eps=nan outside (0, 1)"),
    ])
    def test_rates_refused_as_best_gap_and_params_do(self, p, eps, message):
        # p = 2.0 once certified gap <= 79802 at ell = 39901
        for call in (
            lambda: corollary_regime_report(10**6, 2, p, eps, (39901,)),
            lambda: best_gap(10**6, 2, p, eps),
            lambda: TheoremParams(n=10**6, k=2, ell=1, p=p, eps=eps),
        ):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message

    def test_invalid_ell_reported_not_raised(self):
        rep = corollary_regime_report(10, 2, 0.5, 0.5, extra_ells=[40])
        by_ell = {e.ell: e for e in rep.entries}
        assert by_ell[40].d is None
        assert not by_ell[40].holds
