import hashlib
import inspect
import json
import math
import random
import sys
from functools import cache

import chromatic_reference as reference
import pytest
from graph_reference import is_proper

from kneser_chroma import chromatic, seeds
from kneser_chroma.chromatic import (
    EXACT,
    PROBE_EDGES,
    Budget,
    _dsatur_greedy,
    _max_clique_exact,
    chromatic_number,
    max_independent_set,
    vertex_critical,
)
from kneser_chroma.graphs import (
    _disjointness_adjacency,
    build_kneser,
    build_schrijver,
    sample_subgraph,
)
from kneser_chroma.setfam import iter_bits


def is_clique(graph, vertices) -> bool:
    """True iff the vertices are pairwise adjacent."""
    return all(graph.adj[u] >> v & 1 for u in vertices for v in vertices if u != v)


def brute_chromatic(graph):
    """Plain backtracking in vertex order; independent of the solver."""
    nv = graph.num_vertices

    def colorable(m):
        colors = [-1] * nv

        def place(v):
            if v == nv:
                return True
            used = {colors[u] for u in range(nv) if graph.adj[v] >> u & 1 and colors[u] >= 0}
            for c in range(m):
                if c not in used:
                    colors[v] = c
                    if place(v + 1):
                        return True
                    colors[v] = -1
                if c > max(colors):  # first untouched color; rest symmetric
                    break
            return False

        return place(0)

    if graph.num_edges == 0:
        return 1
    m = 2
    while not colorable(m):
        m += 1
    return m


def brute_alpha(graph):
    """Exact maximum independent set over all 2^V subsets (V <= 20)."""
    nv = graph.num_vertices
    assert nv <= 20
    best = 0
    for mask in range(1 << nv):
        if mask.bit_count() <= best:
            continue
        ok = True
        m = mask
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            if graph.adj[u] & mask:
                ok = False
                break
        if ok:
            best = mask.bit_count()
    return best


class TestChromaticNumber:
    def test_petersen(self):
        res = chromatic_number(build_kneser(5, 2))
        assert res.chi == 3
        assert res.status == "exact"
        assert is_proper(build_kneser(5, 2), res.coloring)

    def test_schrijver_6_2(self):
        assert chromatic_number(build_schrijver(6, 2)).chi == 4

    def test_kneser_7_3(self):
        assert chromatic_number(build_kneser(7, 3)).chi == 3

    def test_edgeless(self):
        res = chromatic_number(build_kneser(3, 2))
        assert res.chi == 1
        assert res.coloring == (0, 0, 0)

    def test_empty_graph_rejected(self):
        g = build_kneser(3, 2)
        empty = type(g)(g.family, 3, 2, (), (), None)
        with pytest.raises(ValueError):
            chromatic_number(empty)

    def test_formula_small_grid(self):
        for n in range(5, 9):
            for k in range(2, (n - 1) // 2 + 1):
                assert chromatic_number(build_kneser(n, k)).chi == n - 2 * k + 2
                assert chromatic_number(build_schrijver(n, k)).chi == n - 2 * k + 2

    def test_matches_bruteforce_on_sampled_graphs(self):
        parent = build_schrijver(7, 2)
        for seed in range(12):
            g = sample_subgraph(parent, 0.5, seed)
            res = chromatic_number(g)
            assert res.chi == brute_chromatic(g)
            assert is_proper(g, res.coloring)
            assert max(res.coloring) + 1 == res.chi

    def test_deterministic(self):
        g = sample_subgraph(build_kneser(7, 2), 0.6, seed=11)
        r1 = chromatic_number(g, Budget(max_nodes=10**6))
        r2 = chromatic_number(g, Budget(max_nodes=10**6))
        assert r1 == r2

    def test_budget_timeout(self):
        res = chromatic_number(build_kneser(7, 2), Budget(max_nodes=1))
        assert res.status == "timeout"
        assert res.lower <= res.upper
        assert res.coloring is not None
        assert is_proper(build_kneser(7, 2), res.coloring)

    def test_time_budget(self):
        # the deadline is read every 1,024 nodes; SG(10,3) takes 32,387
        g = build_schrijver(10, 3)
        assert chromatic_number(g, Budget(max_ms=0)).status == "timeout"
        assert chromatic_number(g, Budget(max_ms=10**7)) == chromatic_number(g)

    @pytest.mark.parametrize("fields", [
        {"max_ms": float("nan")}, {"max_ms": -5.0}, {"max_ms": -math.inf},
        {"max_nodes": -1},
    ])
    def test_budget_refuses_nan_or_negative(self, fields):
        # a NaN deadline never passes (SG(10,3) would run all 32,387 nodes)
        # and a negative cap would time every search out at once
        with pytest.raises(ValueError):
            Budget(**fields)
        with pytest.raises(ValueError):
            Budget(max_nodes=10)._replace(**fields)

    def test_budget_limits_kept(self):
        # SG(10,3) takes 32,387 nodes; KG(10,2), used before, now takes 1,119
        g = build_schrijver(10, 3)
        assert Budget() == Budget(None, None) == (None, None)
        # the node at which each budget fires; a deadline is read every 1,024
        # nodes, so at 1,024 it comes before a node budget of 1,500.  Budgets
        # 0-2 fire in the clique search, which ends the solve with a greedy
        # clique of 2 and no decide(m) node
        for budget, nodes, lower in [
            (Budget(0), 1, 2), (Budget(1), 2, 2), (Budget(2), 3, 2),
            (Budget(1024), 1025, 3), (Budget(2047), 2048, 3),
            (Budget(max_ms=0), 1024, 3), (Budget(1023, 0.0), 1024, 3),
            (Budget(1500, 0.0), 1024, 3),
        ]:
            res = chromatic_number(g, budget)
            assert (res.status, res.nodes_explored, res.lower, res.upper) == (
                "timeout", nodes, lower, 6
            ), budget
        assert chromatic_number(g, Budget(max_ms=math.inf)) == chromatic_number(g)
        assert Budget(5)._replace(max_ms=0.0) == Budget(5, 0.0)

    def test_recursion_limit_restored(self):
        # KG(14,4) has 1,001 vertices; the searches on this sample leave the
        # process-wide recursion limit as they found it
        g = sample_subgraph(build_kneser(14, 4), 0.5, 1)
        before = sys.getrecursionlimit()
        res = chromatic_number(g, Budget(max_nodes=3000))
        assert sys.getrecursionlimit() == before
        assert is_proper(g, res.coloring)
        assert vertex_critical(g, Budget(max_nodes=3000)) is None
        assert sys.getrecursionlimit() == before

    def test_wide_sample_bracket_under_a_small_budget(self):
        # KG(14,4) at p = 0.5, seed 1: greedy DSATUR uses 12 colors, and the
        # descent stalled in decide(11) at [3, 12]; the Lovasz coloring's 8
        # colors start it at decide(7)
        g = sample_subgraph(build_kneser(14, 4), 0.5, 1)
        res = chromatic_number(g, Budget(max_nodes=3000))
        assert (res.status, res.lower, res.upper) == ("timeout", 3, 8)
        assert is_proper(g, res.coloring) and max(res.coloring) < 8

    def test_alpha_search_gets_recursion_room(self):
        # pins that chi and alpha of KG(9,3) leave the limit alone: with it 25
        # frames past the caller both run, neither raising it nor recursing
        g = build_kneser(9, 3)
        before = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 25)
        try:
            assert chromatic_number(g).chi == 5
            res = max_independent_set(g)
        finally:
            sys.setrecursionlimit(before)
        assert (res.size, res.status, res.nodes_explored) == (28, "exact", 391)

    def test_searches_leave_the_recursion_limit_alone(self, monkeypatch):
        # KG(14,6) has 3,003 vertices, each colored on an explicit stack; with
        # the limit 50 frames past the caller no search recurses or raises it
        # (the limit is set here: chromatic_reference raises it for the session)
        calls = []
        set_limit = sys.setrecursionlimit
        monkeypatch.setattr(sys, "setrecursionlimit", calls.append)
        before = sys.getrecursionlimit()
        set_limit(len(inspect.stack()) + 50)
        try:
            res = chromatic_number(build_kneser(14, 6), Budget(max_nodes=20000))
            sample = sample_subgraph(build_kneser(14, 4), 0.5, 1)
            critical = vertex_critical(sample, Budget(max_nodes=3000))
            alpha = max_independent_set(build_kneser(9, 3))
        finally:
            set_limit(before)
        assert calls == []
        assert (res.status, res.lower, res.upper, res.nodes_explored) == (
            "timeout", 2, 4, 20001
        )
        assert critical is None
        assert alpha.size == 28


def criterion_01_grid():
    """Every KG/SG with n <= 10 and 2 <= k <= (n-1)/2, unsampled."""
    return [
        build(n, k)
        for n in range(5, 11)
        for k in range(2, (n - 1) // 2 + 1)
        for build in (build_kneser, build_schrijver)
    ]


@cache
def pin_grid():
    """(graph, budget) over the grid of ``test_cli.py::TestChi``, plus 1,000
    coupled SG(10,3) samples at p = 0.9 and 0.97 (a superset of its 300)."""
    cases = []
    for n in range(2, 10):
        for k in range(1, n // 2 + 1):
            for g in (build_kneser(n, k), build_schrijver(n, k)):
                cases.append((g, None))
                for p in (0.3, 0.6, 0.9):
                    for seed in (1, 2, 3):
                        sampled = sample_subgraph(g, p, seed)
                        cases.append((sampled, Budget(max_nodes=5000)))
    parent = build_schrijver(10, 3)
    for trial in range(500):
        seed = seeds.trial_seed(1, trial)
        for p in (0.9, 0.97):
            cases.append((sample_subgraph(parent, p, seed), Budget(max_nodes=5000)))
    return cases


# pin_grid() rows that timed out under the uncolored-degree tie-break with no
# fallback search
PIN_GRID_TIMEOUTS_UNDER_THE_DEGREE_KEY = frozenset(
    (364, 365, 411, 489, 513, 623, 625, 743, 869, 969, 1041, 1087, 1143, 1173,
     1221, 1225, 1299, 1301, 1349, 1399)
)


def assert_against_reference(graph, new, ref):
    """Rows exact on both sides keep chi/lower/upper, a row that turns exact
    lands in the reference's bracket, a timeout's bracket holds the
    reference's exact chi, and every coloring is proper."""
    assert is_proper(graph, new.coloring)
    assert max(new.coloring) + 1 <= new.chi
    if new.status == EXACT:
        assert max(new.coloring) + 1 == new.chi == new.lower == new.upper
    if new.status == ref.status == EXACT:
        assert (new.chi, new.lower, new.upper) == (ref.chi, ref.lower, ref.upper)
    elif new.status == EXACT:
        assert ref.lower <= new.chi <= ref.upper
    elif ref.status == EXACT:
        assert new.lower <= ref.chi <= new.upper


class TestAgainstReference:
    """The bucketed DSATUR search with Sewell's pick against the reference
    solver (static degree)."""

    def test_criterion_01_grid(self):
        # the reference takes 17 s on this grid, 16 of them on KG(10,3) and
        # SG(10,3); its rows for those two are exact with chi = 6
        for g in criterion_01_grid():
            new = chromatic_number(g)
            assert new.status == EXACT
            if (g.n, g.k) == (10, 3):
                assert (new.chi, new.lower, new.upper) == (6, 6, 6)
                assert is_proper(g, new.coloring) and max(new.coloring) == 5
            else:
                assert_against_reference(g, new, reference.chromatic_number(g))

    def test_pin_grid_and_coupled_samples(self):
        cases = pin_grid()
        timeouts = {"new": 0, "reference": 0}
        turned_exact, turned_timeout = 0, []
        for i, (g, budget) in enumerate(cases):
            new = chromatic_number(g, budget)
            ref = reference.chromatic_number(g, budget)
            assert_against_reference(g, new, ref)
            timeouts["new"] += new.status != EXACT
            timeouts["reference"] += ref.status != EXACT
            turned_exact += ref.status != EXACT and new.status == EXACT
            if ref.status == EXACT and new.status != EXACT:
                turned_timeout.append(i)
        assert len(cases) == 1400
        # 12 timeouts before the clique cap and the contraction probes, 4 with
        # the uncolored-degree tie-break and the TabuCol pass; Sewell's pick
        # turned rows 364 and 743 exact and lost 869, 875 and 1041; the Lovasz
        # fold turned 869, 1041 and 1173 exact (5 timeouts before it)
        assert timeouts == {"new": 2, "reference": 72}
        assert turned_exact == 71
        # a different search order loses instances the old one solved within
        # the budget: 1 of the 1,000 coupled SG(10,3) samples (5 before the
        # TabuCol pass, 4 before the probes, 1 with both, 2 before the fold),
        # none of the 400 smaller graphs
        assert turned_timeout == [875]

    def test_coupled_rows_exact_under_the_degree_key_pinned(self):
        # chi/status/lower/upper of the coupled rows exact under the
        # uncolored-degree tie-break with no fallback; digest computed with
        # Sewell's pick and the DSATUR probes
        h = hashlib.sha256()
        for i, (g, budget) in enumerate(pin_grid()[400:], 400):
            if i not in PIN_GRID_TIMEOUTS_UNDER_THE_DEGREE_KEY:
                res = chromatic_number(g, budget)
                row = {"chi": res.chi, "status": res.status, "lower": res.lower,
                       "upper": res.upper}
                h.update((json.dumps(row, separators=(",", ":")) + "\n").encode())
        assert h.hexdigest() == (
            "f04f4aa3fcf1e0bdfb2cd053c4c647794bfc6472d8a9f6855f490229983fe76a"
        )

    @pytest.mark.parametrize(
        "master_seed,trial,rescued",
        [(1, 343, True), (1, 386, True), (1, 412, True), (1, 474, True),
         (1, 499, True), (7, 5, True)],
    )
    def test_rows_lost_to_the_dynamic_key(self, master_seed, trial, rescued):
        # coupled SG(10,3) samples at p = 0.97 that the reference solves within
        # 5,000 nodes (chi 5) and the bucketed search with the uncolored-degree
        # tie-break alone did not; Sewell's pick solves 343, 412, 499 and
        # (7, 5) within 410 nodes, the contraction probes 474, and the Lovasz
        # fold 386
        parent = build_schrijver(10, 3)
        g = sample_subgraph(parent, 0.97, seeds.trial_seed(master_seed, trial))
        res = chromatic_number(g, Budget(max_nodes=5000))
        assert is_proper(g, res.coloring)
        assert res.lower <= 5 <= res.upper
        assert (res.status == EXACT) == rescued
        if rescued:
            assert res.chi == max(res.coloring) + 1 == 5

    def test_greedy_identical(self):
        cases = greedy_cases()
        assert len(cases) == 2 * (24 + 1400 + 600 + 3)
        for adj, active in cases:
            assert _dsatur_greedy(adj, active) == reference._dsatur_greedy(adj, active)

    def test_greedy_clique_identical(self):
        for adj, active in greedy_cases():
            want = reference._greedy_clique(adj, active)
            assert chromatic._greedy_clique(adj, active) == want

    @pytest.mark.parametrize(
        "build,n,k,nodes",
        [
            # with the uncolored-degree tie-break: 141,879; 153,365 with each
            # search seeded by a greedy clique of its kernel; reference 1,120,301
            (build_schrijver, 10, 3, 32_387),
            # 33,869 before the Lovasz coloring's 6 colors replaced greedy's
            (build_kneser, 10, 3, 33_752),  # degree 69,362; reference 225,581
            (build_kneser, 10, 2, 1_119),  # degree 32,019; reference 36,839
            # the clique seed cost these two nodes under the degree tie-break:
            # 7,361 against 4,518 before it, and 2,554 against 2,322
            (build_schrijver, 10, 2, 931),
            (build_schrijver, 9, 3, 917),
        ],
        ids=["build_schrijver-10-3", "build_kneser-10-3", "build_kneser-10-2",
             "build_schrijver-10-2", "build_schrijver-9-3"],
    )
    def test_parent_node_counts_pinned(self, build, n, k, nodes):
        res = chromatic_number(build(n, k))
        assert res.status == EXACT and res.chi == n - 2 * k + 2
        assert res.nodes_explored == nodes

    @pytest.mark.parametrize(
        "build,nodes", [(build_schrijver, 1_282_151), (build_kneser, 485_180)],
        ids=["build_schrijver-11-3", "build_kneser-11-3"],
    )
    def test_eleven_three_parents_exact_within_5m_nodes(self, build, nodes):
        # both timed out at 5,000,001 nodes with [3, 7] under the
        # uncolored-degree tie-break
        g = build(11, 3)
        res = chromatic_number(g, Budget(max_nodes=5_000_000))
        assert (res.status, res.chi, res.nodes_explored) == (EXACT, 7, nodes)
        assert is_proper(g, res.coloring)


@cache
def greedy_cases():
    """(adjacency, active) for the greedy passes: the two grids, seed 7's bench
    samples and three wide samples, each whole and without one vertex, as a
    probe colors it.  The vertex left out is below the top one, where the
    reference's color list ends."""
    graphs = criterion_01_grid() + [g for g, _ in pin_grid()] + bench_samples(7) + [
        sample_subgraph(build_kneser(12, 4), 0.5, 2),
        sample_subgraph(build_schrijver(15, 4), 0.9, 1),
        sample_subgraph(build_kneser(14, 4), 0.5, 1),
    ]
    cases = []
    for g in graphs:
        full = (1 << g.num_vertices) - 1
        cases += [(g.adj, full), (g.adj, full ^ 1 << g.num_vertices // 3)]
    return cases


def bench_samples(seed):
    """The 600 samples of one random-chi-sg bench pass at ``seed``: 300
    master seeds, each sampled at p = 0.9 and 0.97 with trial index 0."""
    rng = random.Random(f"random-chi-sg/{seed}")
    parent = build_schrijver(10, 3)
    return [
        sample_subgraph(parent, p, seeds.trial_seed(master, 0))
        for master in [rng.getrandbits(62) for _ in range(300)]
        for p in (0.9, 0.97)
    ]


class TestCliqueCap:
    def test_capped_search_returns_the_uncapped_clique(self):
        # a clique's members are pairwise disjoint k-sets of [n], so n // k
        # bounds it, and the search only replaces its best by a larger one
        graphs = criterion_01_grid() + [g for g, _ in pin_grid()] + bench_samples(7)
        nodes = {"capped": 0, "uncapped": 0}
        for g in graphs:
            active = (1 << g.num_vertices) - 1
            capped, uncapped = chromatic._Counter(None), chromatic._Counter(None)
            want = _max_clique_exact(g.adj, active, uncapped)
            assert len(want) <= g.n // g.k
            assert _max_clique_exact(g.adj, active, capped, g.n // g.k) == want
            nodes["capped"] += capped.nodes
            nodes["uncapped"] += uncapped.nodes
        assert len(graphs) == 24 + 1400 + 600
        assert nodes["capped"] < nodes["uncapped"]

    def test_greedy_clique_of_the_cap_spends_no_node(self):
        # the search only replaces its best by a larger one, so a greedy
        # clique with n // k members is its answer
        returned = 0
        for g in criterion_01_grid() + bench_samples(7):
            active = (1 << g.num_vertices) - 1
            greedy = chromatic._greedy_clique(g.adj, active)
            if len(greedy) == g.n // g.k:
                counter = chromatic._Counter(None)
                got = _max_clique_exact(g.adj, active, counter, g.n // g.k)
                assert (got, counter.nodes) == (sorted(greedy), 0)
                returned += 1
        assert returned == 20 + 300  # of 24 and 600

    def test_exact_clique_on_sg_12_4(self):
        # SG(12,4) has 105 vertices; a greedy clique of it has 2 members
        g = build_schrijver(12, 4)
        res = chromatic_number(g, Budget(max_nodes=20_000))
        assert g.num_vertices == 105
        assert (res.status, res.clique, res.lower) == ("timeout", (0, 57, 104), 3)
        assert is_clique(g, res.clique)


def spy_probes(monkeypatch):
    """Per decide(m) search: [m, probes, probe result or None if the probes
    never ran], with every coloring the probes return checked on G."""
    searches = []
    probing = []
    decide, greedy = chromatic._decide_colorable, chromatic._dsatur_greedy
    probes = chromatic._contraction_probes

    def spy_decide(adj, m, active, counter, *sample):
        searches.append([m, 0, None])
        return decide(adj, m, active, counter, *sample)

    def spy_greedy(adj, active, *classes):  # a probe colors one contraction greedily
        if probing:
            searches[-1][1] += 1
        return greedy(adj, active, *classes)

    def spy_contraction_probes(adj, active, m, sample):
        probing.append(m)
        try:
            found = probes(adj, active, m, sample)
        finally:
            probing.pop()
        if found is not None:  # a proper m-coloring of G
            for v in iter_bits(active):
                assert 0 <= found[v] < m
                assert all(found[u] != found[v] for u in iter_bits(adj[v] & active))
        searches[-1][2] = found is not None
        return found

    monkeypatch.setattr(chromatic, "_decide_colorable", spy_decide)
    monkeypatch.setattr(chromatic, "_dsatur_greedy", spy_greedy)
    monkeypatch.setattr(chromatic, "_contraction_probes", spy_contraction_probes)
    return searches


def probe_samples():
    """Coupled SG(10,3) samples at p = 0.97, master seed 1, trials 0-49."""
    parent = build_schrijver(10, 3)
    return [
        sample_subgraph(parent, 0.97, seeds.trial_seed(1, trial)) for trial in range(50)
    ]


def probe_searches():
    """(sample, its solve's clique) for each of probe_samples() that greedy
    DSATUR colors with more than n-2k+1 colors: the solves that searched
    decide(n-2k+1) before the Lovasz fold answered most of them.  Three of
    those searches probe, trial 5's, 39's and 41's."""
    cases = []
    for g in probe_samples():
        full = (1 << g.num_vertices) - 1
        if _dsatur_greedy(g.adj, full)[1] > g.n - 2 * g.k + 1:
            cases.append((g, chromatic_number(g, Budget(max_nodes=5000)).clique))
    return cases


def decide_n_minus_2k_plus_1(cases):
    """decide(n-2k+1) on each (sample, clique) as the solve calls it, with a
    5,000-node budget of its own."""
    for g, clique in cases:
        full, m = (1 << g.num_vertices) - 1, g.n - 2 * g.k + 1
        counter = chromatic._Counter(Budget(max_nodes=5000))
        try:
            chromatic._decide_colorable(g.adj, m, full, counter, clique, g)
        except chromatic._OutOfBudget:
            pass


class TestContractionProbes:
    def test_probes_only_at_n_minus_2k_plus_1_and_within_the_limit(self, monkeypatch):
        cases = probe_searches()
        searches = spy_probes(monkeypatch)
        for g in probe_samples():
            res = chromatic_number(g, Budget(max_nodes=5000))
            assert is_proper(g, res.coloring)
        # the fold answers the other solves before any decide(5)
        solver = [(m, n, found) for m, n, found in searches if found is not None]
        assert solver == [(5, 7, False)]
        start = len(searches)
        decide_n_minus_2k_plus_1(cases)
        probed = [(m, n, found) for m, n, found in searches[start:]
                  if found is not None]
        assert all(n == 0 for _, n, found in searches if found is None)
        assert {m for m, _, _ in solver + probed} == {10 - 2 * 3 + 1}
        assert all(1 <= n <= PROBE_EDGES for _, n, _ in solver + probed)
        # two searches find their coloring at the third and the tenth probe,
        # one misses on all 7 (the solve's own search above)
        assert sorted(probed) == [(5, 3, True), (5, 7, False), (5, 10, True)]

    def test_no_probe_past_the_limit(self, monkeypatch):
        # the three searches that probed above each hold more than 3 dropped
        # edges
        cases = probe_searches()
        monkeypatch.setattr(chromatic, "PROBE_EDGES", 3)
        searches = spy_probes(monkeypatch)
        decide_n_minus_2k_plus_1(cases)
        probed = [(m, n, found) for m, n, found in searches if found is not None]
        assert probed == [(5, 0, False)] * 3

    def test_sample_missing_many_edges_gets_no_probe(self, monkeypatch):
        # KG(14,4) at p = 0.5 drops about half of its 105,105 edges, and its
        # probes stop at counting.  chromatic_number's own descent starts at
        # decide(7) = decide(n-2k+1) on this sample, from the Lovasz
        # coloring's 8 colors; that call is made here directly, with a
        # 1,000-node budget, past its node PROBE_AFTER
        searches = spy_probes(monkeypatch)
        g = sample_subgraph(build_kneser(14, 4), 0.5, 1)
        full = (1 << g.num_vertices) - 1
        counter = chromatic._Counter(Budget(max_nodes=1000))
        with pytest.raises(chromatic._OutOfBudget):
            chromatic._decide_colorable(g.adj, 7, full, counter, (), g)
        assert searches == [[7, 0, False]]


def fold_graphs():
    """The criterion-01 grid, pin_grid() and seed 7's bench samples, each with
    n-2k+1 >= 2."""
    graphs = criterion_01_grid() + [g for g, _ in pin_grid()] + bench_samples(7)
    return [g for g in graphs if g.n - 2 * g.k + 1 >= 2]


class TestLovaszFold:
    def test_fold_is_proper_with_n_minus_2k_plus_1_colors(self):
        # a fold the solver would not call (greedy met n-2k+1) is checked too
        graphs = fold_graphs()
        folded = 0
        for g in graphs:
            colors, used = chromatic._lovasz_fold(g)
            m = g.n - 2 * g.k + 1
            assert used in (m, m + 1)
            assert is_proper(g, colors) and len(set(colors)) == max(colors) + 1 == used
            folded += used == m
        assert (len(graphs), folded) == (1944, 1646)

    def test_unfolded_coloring_is_lovasz_and_proper_on_the_parent(self):
        # on the parent no fold exists, as chi = n-2k+2; the first ordering is
        # 0, 1, ..., n-1, so a vertex S is colored min(min S, n-2k+1)
        for g in fold_graphs():
            parent = g._replace(adj=_disjointness_adjacency(g.vertices, g.n),
                                provenance=None)
            colors, used = chromatic._lovasz_fold(parent)
            m = g.n - 2 * g.k + 1
            assert used == m + 1 == len(set(colors))
            assert colors == [min((v.mask & -v.mask).bit_length() - 1, m)
                              for v in g.vertices]
            assert is_proper(parent, colors) and is_proper(g, colors)

    def test_bench_hits_pinned(self):
        # of seed 7's 600 samples the fold colors 540 with 5 colors; greedy
        # DSATUR uses 6 or more on 385, where the solver calls the fold, and
        # of those it folds 334
        hits = called = folded = 0
        for g in bench_samples(7):
            used = chromatic._lovasz_fold(g)[1]
            greedy = _dsatur_greedy(g.adj, (1 << g.num_vertices) - 1)[1]
            hits += used == 5
            called += greedy > 5
            folded += greedy > 5 and used == 5
        assert (hits, called, folded) == (540, 385, 334)


def spy_nodes(monkeypatch):
    """(vertex, color) of every search node, read off the DFS frame."""
    nodes = []
    spend = chromatic._Counter.spend

    def spy_spend(counter):
        frame = sys._getframe(1)
        nodes.append((frame.f_locals["v"], frame.f_locals["c"]))
        spend(counter)

    monkeypatch.setattr(chromatic._Counter, "spend", spy_spend)
    return nodes


def sewell_pick(adj, colors, colored, uncolored, top, cand):
    """Sewell's pick by enumeration: the candidate with the most pairs (u, c),
    u an uncolored neighbour and c < top a color that no colored neighbour
    of either has; the lowest index among equal scores."""
    free = {}

    def free_colors(w):
        if w not in free:
            taken = {colors[x] for x in iter_bits(adj[w] & colored)}
            free[w] = [c for c in range(top) if c not in taken]
        return free[w]

    scores = {
        v: sum(1 for u in iter_bits(adj[v] & uncolored)
               for c in free_colors(v) if c in free_colors(u))
        for v in iter_bits(cand)
    }
    best = max(scores.values())
    return min(v for v, score in scores.items() if score == best)


def spy_picks(monkeypatch):
    """(picked, Sewell's pick) for each non-forced pick from two or more
    candidates, read off the DFS frame at the node of its first color."""
    picks = []
    spend = chromatic._Counter.spend

    def spy_spend(counter):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "_decide_colorable":
            f = frame.f_locals
            sat, vbit, near = f["sat"], f["vbit"], f["near"]
            cand = f["snap"][sat] | vbit  # the snapshot is taken once v left
            first = not any(not near[c] & vbit for c in range(f["c"]))
            if sat < f["m"] - 1 and cand != vbit and first:
                uncolored = f["rest"] | vbit
                want = sewell_pick(f["adj"], f["colors"], f["active"] & ~uncolored,
                                   uncolored, f["top"], cand)
                picks.append((f["v"], want))
        spend(counter)

    monkeypatch.setattr(chromatic._Counter, "spend", spy_spend)
    return picks


class TestSewellPick:
    def test_picks_match_the_enumerated_scores(self, monkeypatch):
        # every non-forced pick over seed 7's bench solves and the criterion-01
        # grid; a popped vertex's later colors repeat its pick and are skipped
        picks = spy_picks(monkeypatch)
        for g in bench_samples(7):
            chromatic_number(g, Budget(max_nodes=5000))
        for g in criterion_01_grid():
            chromatic_number(g)
        assert len(picks) == 17_978  # 27,849 before the Lovasz fold
        assert all(got == want for got, want in picks)


class TestForcedVertices:
    def test_forced_pair_fails_without_a_node(self, monkeypatch):
        # C5 at m = 2: the clique colors 0 and 1, and vertices 2 and 4 are
        # forced; 2 takes color 0 at one node, after which 3 and 4 are
        # adjacent and both forced to color 1, which fails at no node
        nodes = spy_nodes(monkeypatch)
        c5 = tuple(1 << (v + 1) % 5 | 1 << (v - 1) % 5 for v in range(5))
        counter = chromatic._Counter(None)
        assert chromatic._decide_colorable(c5, 2, 0b11111, counter, (0, 1)) is None
        assert nodes == [(2, 0)] and counter.nodes == 1

    @pytest.mark.parametrize("build", [build_schrijver, build_kneser], ids=["C5", "Petersen"])
    def test_odd_cycles_refute_two_colors_in_one_node(self, build):
        # SG(5,2) is C5 and KG(5,2) the Petersen graph; each took 2 nodes with
        # forced vertices picked by degree
        g = build(5, 2)
        res = chromatic_number(g)
        assert (res.chi, res.status, res.nodes_explored) == (3, EXACT, 1)
        counter = chromatic._Counter(None)
        full = (1 << g.num_vertices) - 1
        assert chromatic._decide_colorable(g.adj, 2, full, counter, res.clique) is None
        assert counter.nodes == 1

    def test_bench_rows_pinned(self):
        # chi/status/lower/upper of seed 7's 600 random-chi-sg solves; digest
        # computed with Sewell's pick, the DSATUR probes and the Lovasz fold,
        # which turned row 577 from a [3, 6] timeout to an exact 5
        h = hashlib.sha256()
        for g in bench_samples(7):
            res = chromatic_number(g, Budget(max_nodes=5000))
            row = {"chi": res.chi, "status": res.status, "lower": res.lower,
                   "upper": res.upper}
            h.update((json.dumps(row, separators=(",", ":")) + "\n").encode())
        assert h.hexdigest() == (
            "e28135f4f7c68e3a0d2c3bcc51c39b2e058927ea43377349e3e5a43e7e001fc9"
        )


class TestSeededSearch:
    def test_every_search_is_seeded_with_the_solves_clique(self, monkeypatch):
        # chromatic_number hands its exact clique to each decide(m) call, and
        # decide builds no clique of its own
        calls = []  # (graph's adjacency, seed clique) per decide(m) call
        inside = []
        decide, greedy = chromatic._decide_colorable, chromatic._greedy_clique

        def spy_decide(adj, m, active, counter, clique, *sample):
            calls.append((adj, clique))
            inside.append(True)
            try:
                return decide(adj, m, active, counter, clique, *sample)
            finally:
                inside.pop()

        def spy_greedy(adj, active, *classes):
            assert not inside, "decide(m) built a clique of its own"
            return greedy(adj, active, *classes)

        monkeypatch.setattr(chromatic, "_decide_colorable", spy_decide)
        monkeypatch.setattr(chromatic, "_greedy_clique", spy_greedy)
        searched = 0
        for g in bench_samples(7):
            del calls[:]
            res = chromatic_number(g, Budget(max_nodes=5000))
            assert all(adj is g.adj for adj, _ in calls)
            assert all(tuple(clique) == res.clique for _, clique in calls)
            searched += bool(calls)
        assert searched == 600

    def test_full_results_pinned(self):
        # every field of seed 7's 600 random-chi-sg solves, nodes and colorings
        # included; digest computed with Sewell's pick, the DSATUR probes and
        # the Lovasz fold
        h = hashlib.sha256()
        for g in bench_samples(7):
            res = chromatic_number(g, Budget(max_nodes=5000))
            h.update((repr(tuple(res)) + "\n").encode())
        assert h.hexdigest() == (
            "c4817d4e45765080c7df1e117b866101c1b0f2c666ed90fc9df5a8d8685118e1"
        )


class TestBoundsHelpers:
    def test_clique_kneser_6_2(self):
        assert len(chromatic_number(build_kneser(6, 2)).clique) >= 3

    def test_clique_petersen_trianglefree(self):
        assert len(chromatic_number(build_kneser(5, 2)).clique) == 2

    def test_clique_edgeless(self):
        assert len(chromatic_number(build_kneser(3, 2)).clique) == 1

    def test_alpha_examples(self):
        r = max_independent_set(build_kneser(5, 2))
        assert r.size == 4 and r.status == "exact"
        assert max_independent_set(build_kneser(6, 2)).size == 5
        assert max_independent_set(build_kneser(3, 2)).size == 3

    def test_alpha_matches_bruteforce(self):
        for n, k in [(5, 2), (6, 2)]:
            g = build_kneser(n, k)
            assert max_independent_set(g).size == brute_alpha(g)
        for seed in range(5):
            g = sample_subgraph(build_schrijver(7, 2), 0.5, seed)
            assert max_independent_set(g).size == brute_alpha(g)

    def test_alpha_erdos_ko_rado(self):
        # stars are maximum independent sets: alpha = C(n-1, k-1)
        for n, k in [(5, 2), (6, 2), (7, 2), (7, 3)]:
            from math import comb

            assert max_independent_set(build_kneser(n, k)).size == comb(n - 1, k - 1)

    def test_sandwich(self):
        graphs = [build_kneser(6, 2), build_schrijver(8, 2), build_kneser(7, 3)]
        graphs += [sample_subgraph(build_kneser(6, 2), 0.5, s) for s in range(5)]
        for g in graphs:
            res = chromatic_number(g)
            assert is_clique(g, res.clique) and len(res.clique) <= res.chi


class TestIsProper:
    def test_solver_coloring_proper(self):
        g = build_kneser(5, 2)
        assert is_proper(g, chromatic_number(g).coloring)

    def test_constant_improper_with_edges(self):
        g = build_kneser(5, 2)
        assert not is_proper(g, [0] * 10)

    def test_constant_proper_edgeless(self):
        assert is_proper(build_kneser(3, 2), [0, 0, 0])

    def test_partial_rejected(self):
        g = build_kneser(4, 2)
        with pytest.raises(ValueError):
            is_proper(g, [0, 1])
        with pytest.raises(ValueError):
            is_proper(g, [0, 1, None, 0, 1, 2])


class TestVertexCritical:
    def test_schrijver_critical(self):
        assert vertex_critical(build_schrijver(6, 2)) is True
        assert vertex_critical(build_schrijver(7, 2)) is True

    def test_kneser_not_critical(self):
        assert vertex_critical(build_kneser(6, 2)) is False
        # KG(4,2) is a perfect matching: less a vertex, two edges are left,
        # and one color fails on either
        assert vertex_critical(build_kneser(4, 2)) is False

    def test_edgeless_not_critical(self):
        assert vertex_critical(build_kneser(3, 2)) is False

    def test_single_edge_graph(self):
        assert vertex_critical(build_schrijver(4, 2)) is True

    def test_indeterminate_on_tiny_budget(self):
        assert vertex_critical(build_schrijver(8, 2), Budget(max_nodes=1)) is None

    def test_one_vertex_is_critical(self):
        assert vertex_critical(build_kneser(3, 0)) is True

    def test_budget_runs_out_in_the_per_vertex_loop(self):
        # the per-vertex refutations spend more nodes than chromatic_number
        g = build_schrijver(7, 2)
        budget = Budget(max_nodes=chromatic_number(g).nodes_explored)
        assert chromatic_number(g, budget).status == EXACT
        assert vertex_critical(g, budget) is None
        assert vertex_critical(g) is True

    def test_one_budget_for_the_solve_and_the_loop(self):
        # SG(7, 2): 31 nodes to solve chi, 186 to refute each vertex (28 and
        # 178 with the uncolored-degree tie-break); a budget of 216 covers
        # either part, not both
        g = build_schrijver(7, 2)
        assert chromatic_number(g).nodes_explored == 31
        assert vertex_critical(g, Budget(max_nodes=186)) is None
        assert vertex_critical(g, Budget(max_nodes=216)) is None
        assert vertex_critical(g, Budget(max_nodes=217)) is True

    def test_empty_graph_refused(self):
        g = build_schrijver(3, 2)
        assert g.num_vertices == 0
        for fn in (max_independent_set, vertex_critical):
            with pytest.raises(ValueError, match="empty graph"):
                fn(g)


class TestSubgraphMonotonicity:
    def test_chi_never_exceeds_parent(self):
        for fam, n, k in [("kneser", 6, 2), ("schrijver", 8, 2)]:
            parent = (
                build_kneser(n, k) if fam == "kneser" else build_schrijver(n, k)
            )
            parent_chi = chromatic_number(parent).chi
            for seed in range(10):
                for p in (0.2, 0.5, 0.8):
                    g = sample_subgraph(parent, p, seed)
                    assert chromatic_number(g).chi <= parent_chi
