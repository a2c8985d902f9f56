"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the verdict
lines on success).  Budgets are generous for desk scale; every tolerance is
pinned here, none is configurable.
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
import pytest

from kneser_chroma.bounds import (
    TheoremParams,
    condition_holds,
    condition_rhs,
    derived_params,
    g_is_decreasing,
    ln_g,
    ln_pA_bound,
)
from kneser_chroma.chromatic import chromatic_number, vertex_critical
from kneser_chroma.cli import run_random_chi
from kneser_chroma.events import event_a_oracle
from kneser_chroma.errors import NoWitnessFound
from kneser_chroma.gale import WitnessSearch, build_embedding, verify_gale_property
from kneser_chroma.graphs import build_kneser, build_schrijver
from kneser_chroma import seeds

mpmath.mp.dps = 50


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_lovasz_schrijver_formula():
    checked = 0
    t0 = time.time()
    for n in range(5, 11):
        for k in range(2, (n - 1) // 2 + 1):
            expected = n - 2 * k + 2
            for build in (build_kneser, build_schrijver):
                res = chromatic_number(build(n, k))
                assert res.status == "exact"
                assert res.chi == expected, (build.__name__, n, k, res.chi)
                checked += 1
    _report(
        1, True, f"chi = n-2k+2 on {checked} graphs (n<=10) in {time.time()-t0:.1f}s"
    )


def test_criterion_02_vertex_criticality():
    pairs = [
        (n, k) for n in range(5, 10) for k in range(2, (n - 1) // 2 + 1)
    ]
    t0 = time.time()
    for n, k in pairs:
        assert vertex_critical(build_schrijver(n, k)) is True, (n, k)
    _report(
        2,
        True,
        f"all SG_(n,k) vertex-critical for {len(pairs)} pairs (n<=9) "
        f"in {time.time()-t0:.1f}s",
    )


def test_criterion_03_gale_lemma():
    checked = 0
    t0 = time.time()
    for n in range(5, 13):
        for s in range(2, (n - 1) // 2 + 1):
            emb = build_embedding(n, s)
            assert emb.d >= 2
            assert verify_gale_property(emb) is None, (n, s)
            checked += 1
    _report(
        3,
        True,
        f"hemisphere property holds for {checked} embeddings (n<=12) "
        f"in {time.time()-t0:.1f}s",
    )


def test_criterion_04_borsuk_witness():
    cases = [(7, 2, 1), (8, 2, 1), (9, 2, 1), (9, 3, 1)]
    t0 = time.time()
    total = 0
    boundary = 0
    for n, k, ell in cases:
        emb = build_embedding(n, k + ell)
        search = WitnessSearch(emb, k)
        assert search.faceset.certified_exhaustive
        for trial in range(1000):
            seed = seeds.trial_seed(20260809, trial)
            coloring = [
                seeds.color_at(seed, i, emb.d) for i in range(search.num_stable)
            ]
            try:
                w = search.find(coloring)
            except NoWitnessFound as exc:
                _report(4, False, f"({n},{k},{ell}) trial {trial}: {exc}")
            assert w.count_pos >= w.t_pos and w.count_neg >= w.t_neg
            total += 1
            if 0 in w.face.signs:
                boundary += 1
    _report(
        4,
        True,
        f"{total} random colorings all witnessed ({boundary} on boundary "
        f"faces) in {time.time()-t0:.1f}s",
    )


def _holding_sweep():
    """Deterministic parameter grid filtered by the theorem condition."""
    tuples = []
    for n in (300, 1000, 3000, 10_000, 30_000, 100_000, 300_000, 1_000_000):
        for k in (2, 3, 4):
            ell_max = (n - 2 * k - 1) // 2
            for i in range(50):
                ell = max(1, (ell_max * (50 + i)) // 100)
                try:
                    d, t = derived_params(n, k, ell)
                except ValueError:
                    continue
                for p in (0.3, 0.5, 0.7, 0.9, 1.0):
                    for eps in (0.1, 0.25, 0.5):
                        params = TheoremParams(n, k, ell, p, eps)
                        if condition_holds(params):
                            tuples.append((params, d, t))
    return tuples


SWEEP = None


def _get_sweep():
    global SWEEP
    if SWEEP is None:
        SWEEP = _holding_sweep()
    return SWEEP


def test_criterion_05_g_monotonicity_implication():
    t0 = time.time()
    sweep = _get_sweep()
    assert len(sweep) >= 10_000, f"only {len(sweep)} holding tuples"
    for params, d, t in sweep:
        assert g_is_decreasing(d, t, params.p), (params, d, t)
    # step bound ln g(t+1,t) - ln g(t,t) < 1 + ln d - p t on the stated grid
    for d in range(2, 51):
        for t in (1, 2, 3, 5, 10, 20, 50, 100, 200, 350, 500):
            for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
                step = ln_g(t + 1, t, d, p) - ln_g(t, t, d, p)
                assert step < 1 + math.log(d) - p * t, (d, t, p)
    _report(
        5,
        True,
        f"condition => g decreasing on {len(sweep)} tuples; step bound "
        f"holds on the (d,t,p) grid; {time.time()-t0:.1f}s",
    )


def test_criterion_06_pa_chain():
    t0 = time.time()
    sweep = _get_sweep()
    for params, d, t in sweep:
        ch = ln_pA_bound(params)
        assert ch.conclusive
        assert ch.l1 <= ch.l2 < ch.l3 < ch.l4, (params, ch)
    checked = 0
    for p_frac in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        p = float(p_frac)
        for d in range(2, 33):
            for t1 in range(1, 64 // d + 1):
                for t2 in range(1, 64 // d + 1):
                    g = (
                        Fraction(math.comb(t1 * d, t1))
                        * Fraction(math.comb(t2 * d, t2))
                        * (1 - p_frac) ** (t1 * t2)
                    )
                    expected = math.log(g.numerator) - math.log(g.denominator)
                    got = ln_g(t1, t2, d, p)
                    assert abs(got - expected) <= 1e-9 * abs(expected)
                    checked += 1
    _report(
        6,
        True,
        f"chain ordered on {len(sweep)} tuples; exp(ln_g) matches exact "
        f"rational g on {checked} small cases; {time.time()-t0:.1f}s",
    )


def test_criterion_07_condition_evaluation():
    n, k, ell = 10**6, 2, 63096
    # independent high-precision oracle, recomputed here
    d = n - 2 * k - 2 * ell + 1
    t = -(-math.comb(k + ell, k) // d)
    oracle = float(
        n * mpmath.log(3) / mpmath.mpf(t) ** 2
        + 2 * (1 + mpmath.log(d)) / mpmath.mpf(t)
    )
    t0 = time.time()
    rhs = condition_rhs(n, k, ell)
    holds = condition_holds(TheoremParams(n, k, ell, 0.5, 0.5))
    elapsed = time.time() - t0
    ok = holds and abs(rhs - oracle) <= 1e-3 and elapsed < 1.0
    _report(
        7,
        ok,
        f"condition true, rhs={rhs:.6f} vs oracle={oracle:.6f} "
        f"(|diff|={abs(rhs-oracle):.2e}), {elapsed*1000:.0f}ms",
    )


def test_criterion_08_event_a_consistency():
    n, k, ell = 8, 2, 1
    num_seeds = 100
    t0 = time.time()
    freqs = {}
    for p in (0.0, 0.5, 1.0):
        holds = 0
        for s in range(num_seeds):
            seed = seeds.trial_seed(808, s)
            if event_a_oracle(n, k, ell, p, seed).holds:
                holds += 1
        freqs[p] = holds / num_seeds
    ok = freqs[0.0] == 1.0 and freqs[1.0] == 0.0
    # at p=0.5 compare against the first log bound
    params = TheoremParams(n, k, ell, 0.5, 0.5)
    l1 = ln_pA_bound(params).l1
    bound = min(1.0, math.exp(min(l1, 700.0)))
    f = freqs[0.5]
    sigma = math.sqrt(max(f * (1 - f), 0.25 / num_seeds) / num_seeds)
    ok = ok and f <= bound + 3 * sigma
    _report(
        8,
        ok,
        f"freq(p=0)={freqs[0.0]}, freq(p=1)={freqs[1.0]}, "
        f"freq(p=0.5)={f} <= min(1,exp(L1))+3sigma={bound + 3*sigma:.3f}; "
        f"{time.time()-t0:.1f}s",
    )


def test_criterion_09_random_chi_sandwich():
    t0 = time.time()
    ps = (0.3, 0.6, 0.9)
    for family, n, k in (("schrijver", 8, 2), ("kneser", 7, 2)):
        parent = build_kneser(n, k) if family == "kneser" else build_schrijver(n, k)
        parent_chi = chromatic_number(parent).chi
        per_p = {}
        for p in ps:
            rows, summary = run_random_chi(
                family=family, n=n, k=k, p=p, trials=200, master_seed=909
            )
            assert summary["timeouts"] == 0
            chis = [r[2] for r in rows]
            assert all(c <= parent_chi for c in chis), (family, p)
            per_p[p] = chis
        # coupled seeds: monotone per trial, hence monotone in mean
        for p1, p2 in zip(ps, ps[1:]):
            assert all(a <= b for a, b in zip(per_p[p1], per_p[p2]))
            m1 = sum(per_p[p1]) / len(per_p[p1])
            m2 = sum(per_p[p2]) / len(per_p[p2])
            var = sum((c - m2) ** 2 for c in per_p[p2]) / (len(per_p[p2]) - 1)
            assert m2 >= m1 - 3 * math.sqrt(var / len(per_p[p2]))
    _report(
        9,
        True,
        f"1200 sampled graphs: chi <= chi(parent), means monotone in p "
        f"(coupled); {time.time()-t0:.1f}s",
    )


def test_criterion_10_reproducibility(tmp_path):
    t0 = time.time()
    commands = {
        "gen": ["gen-graph", "--family", "schrijver", "--n", "9", "--k", "2",
                "--p", "0.5", "--seed", "321"],
        "random": ["random-chi", "--family", "schrijver", "--n", "8",
                   "--k", "2", "--ell", "1", "--p", "0.6", "--trials", "12",
                   "--seed", "321"],
        "eventa": ["event-a", "--n", "8", "--k", "2", "--ell", "1",
                   "--p", "0.5", "--seed", "321"],
        "witness": ["witness", "--n", "8", "--k", "2", "--ell", "1",
                    "--seed", "321"],
        "bounds": ["bounds", "--n", "1000000", "--k", "2", "--ell", "63096",
                   "--p", "0.5", "--eps", "0.5"],
        "gale": ["gale-verify", "--n", "9", "--k", "2", "--ell", "1"],
    }
    gen_file = tmp_path / "chi_input.json"
    base_env = {key: val for key, val in os.environ.items()}
    base_env.pop("KNESER_CHROMA_THREADS", None)

    def run(args, threads):
        env = dict(base_env)
        if threads:
            env["KNESER_CHROMA_THREADS"] = str(threads)
        proc = subprocess.run(
            [sys.executable, "-m", "kneser_chroma.cli", *args],
            capture_output=True, env=env,
        )
        assert proc.returncode == 0, (args, proc.stderr)
        return proc.stdout

    for name, args in commands.items():
        first = run(args, threads=None)
        second = run(args, threads=3)
        assert first == second, f"{name} differs across thread counts"
        if name == "gen":
            gen_file.write_bytes(first)
    chi_args = ["chi", str(gen_file), "--budget-nodes", "100000"]
    assert run(chi_args, None) == run(chi_args, 3)
    _report(
        10,
        True,
        f"{len(commands)+1} commands byte-identical across runs and thread "
        f"counts; {time.time()-t0:.1f}s",
    )
