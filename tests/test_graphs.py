import json
import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_reference import edges as edge_list
from graph_reference import rank_mask, reference_canonical_json, to_json_dict

from kneser_chroma import graphs
from kneser_chroma.errors import CapacityError
from kneser_chroma.gale import WitnessSearch, build_embedding
from kneser_chroma.graphs import (
    build_kneser,
    build_schrijver,
    from_json_dict,
    sample_subgraph,
    to_canonical_json,
)
from kneser_chroma.seeds import mix64
from kneser_chroma.setfam import enumerate_stable_ksubsets, iter_bits

M64 = (1 << 64) - 1


def edge_value(seed, rank_lo, rank_hi):
    """53-bit uniform value keyed by (seed, unordered pair of subset ranks)."""
    x = mix64(seed ^ 0x9E3779B97F4A7C15)
    x = mix64(x ^ ((rank_lo * 0xBF58476D1CE4E5B9) & M64))
    x = mix64(x ^ ((rank_hi * 0x94D049BB133111EB) & M64))
    return x >> 11


def last_product(seed, rank_lo, rank_hi):
    """x of the last mix64 round, before its final y = x ^ (x >> 31)."""
    x = mix64(seed ^ 0x9E3779B97F4A7C15)
    x = mix64(x ^ ((rank_lo * 0xBF58476D1CE4E5B9) & M64))
    x ^= (rank_hi * 0x94D049BB133111EB) & M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & M64
    x ^= x >> 27
    return (x * 0x94D049BB133111EB) & M64


def keep_edge(seed, rank_lo, rank_hi, p):
    """Keep iff the derived uniform in [0,1) is < p; exact at p=0 and p=1."""
    return float(edge_value(seed, rank_lo, rank_hi)) < p * float(1 << 53)


def per_edge_sample(graph, p, seed):
    """Three mixes and a float compare per edge: the reference for sampling."""
    m = len(graph.vertices)
    ranks = [v.rank for v in graph.vertices]
    adj = [0] * m
    for u in range(m):
        for v in iter_bits((graph.adj[u] >> (u + 1)) << (u + 1)):
            if keep_edge(seed, ranks[u], ranks[v], p):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return tuple(adj)


def brute_edge_count(vertex_sets):
    """Independent disjointness count over explicit element tuples."""
    return sum(
        1
        for a, b in combinations(vertex_sets, 2)
        if not set(a) & set(b)
    )


def pair_loop_adjacency(vertices):
    """Reference O(V^2) disjointness scan over every vertex pair."""
    m = len(vertices)
    adj = [0] * m
    for u in range(m):
        for v in range(u + 1, m):
            if vertices[u].mask & vertices[v].mask == 0:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return tuple(adj)


class TestBuilders:
    def test_adjacency_matches_pair_loop(self):
        for n in range(0, 13):
            for k in range(0, n + 1):
                for build in (build_kneser, build_schrijver):
                    try:
                        g = build(n, k)
                    except CapacityError:
                        continue
                    assert g.adj == pair_loop_adjacency(g.vertices), (build, n, k)

    def test_petersen(self):
        g = build_kneser(5, 2)
        assert g.num_vertices == 10
        assert g.num_edges == 15
        assert g.num_edges == brute_edge_count([v.elements() for v in g.vertices])

    def test_kneser_4_2_matching(self):
        g = build_kneser(4, 2)
        assert g.num_vertices == 6
        assert g.num_edges == 3
        assert all(g.adj[u].bit_count() == 1 for u in range(6))

    def test_kneser_3_2_edgeless(self):
        g = build_kneser(3, 2)
        assert g.num_vertices == 3
        assert g.num_edges == 0

    def test_schrijver_5_2_cycle(self):
        g = build_schrijver(5, 2)
        assert g.num_vertices == 5
        assert g.num_edges == 5
        assert all(g.adj[u].bit_count() == 2 for u in range(5))

    def test_schrijver_6_2(self):
        assert build_schrijver(6, 2).num_vertices == 9

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_schrijver_2k_k(self, k):
        g = build_schrijver(2 * k, k)
        assert g.num_vertices == 2
        assert g.num_edges == 1
        odds = tuple(range(1, 2 * k + 1, 2))
        evens = tuple(range(2, 2 * k + 1, 2))
        assert {g.vertices[0].elements(), g.vertices[1].elements()} == {odds, evens}

    def test_edge_counts_match_bruteforce(self):
        for n in range(2, 10):
            for k in range(1, n // 2 + 1):
                g = build_kneser(n, k)
                assert g.num_edges == brute_edge_count(
                    [v.elements() for v in g.vertices]
                )

    def test_schrijver_is_induced_subgraph_of_kneser(self):
        for n in range(4, 13):
            for k in range(2, n // 2 + 1):
                kg = build_kneser(n, k)
                sg = build_schrijver(n, k)
                pos = {v.mask: i for i, v in enumerate(kg.vertices)}
                for u in range(sg.num_vertices):
                    for v in range(u + 1, sg.num_vertices):
                        assert sg.adj[u] >> v & 1 == (
                            kg.adj[pos[sg.vertices[u].mask]]
                            >> pos[sg.vertices[v].mask] & 1
                        )

    def test_capacity_errors(self):
        with pytest.raises(CapacityError):
            build_kneser(65, 2)
        with pytest.raises(CapacityError):
            build_kneser(30, 15)
        assert build_kneser(14, 2).num_vertices == math.comb(14, 2) == 91

    def test_adjacency_is_symmetric_irreflexive(self):
        g = build_kneser(6, 2)
        for u in range(g.num_vertices):
            assert not g.adj[u] >> u & 1
            for v in range(g.num_vertices):
                assert g.adj[u] >> v & 1 == g.adj[v] >> u & 1


class TestFamilyCap:
    """The vertex cap counts each family's own vertices, on every path."""

    def test_schrijver_counts_its_stable_sets(self):
        # SG(40,19) has 400 vertices among C(40,19) ~ 1.3e11 19-subsets: the
        # same graph as the file read in test_schrijver_read_cost_follows_the_file
        masks = [s.mask for s in enumerate_stable_ksubsets(40, 19)]
        edges = [
            [u, v] for u, v in combinations(range(len(masks)), 2)
            if not masks[u] & masks[v]
        ]
        header = {"family": "schrijver", "p": None, "seed": None, "rng_id": None}
        read = from_json_dict(
            header | {"n": 40, "k": 19, "vertices": masks, "edges": edges}
        )
        assert build_schrijver(40, 19) == read

    def test_cap_is_the_own_count(self, monkeypatch):
        # SG(30,14) has 30/16 C(16,14) = 225 vertices
        monkeypatch.setattr(graphs, "MAX_VERTICES", 225)
        assert build_schrijver(30, 14).num_vertices == 225
        monkeypatch.setattr(graphs, "MAX_VERTICES", 224)
        with pytest.raises(CapacityError, match="225 vertices, over the vertex cap 224"):
            build_schrijver(30, 14)
        monkeypatch.undo()
        # SG(34,3) has 4,930 vertices among C(34,3) = 5,984 3-subsets
        assert build_schrijver(34, 3).num_vertices == 4930
        with pytest.raises(CapacityError, match="cap"):
            build_kneser(30, 15)

    def test_stable_sets_refused_alike(self):
        # SG(35,3) has 5,425 vertices: the witness search's stable sets are
        # refused by the graph's rule, with the graph's message
        with pytest.raises(CapacityError) as graph_error:
            build_schrijver(35, 3)
        with pytest.raises(CapacityError) as witness_error:
            WitnessSearch(build_embedding(35, 4), 3)
        assert "5425 vertices" in str(graph_error.value)
        assert str(witness_error.value) == str(graph_error.value)

    def test_domain_checked_before_counting(self):
        for n, k in [(5, 6), (5, -1), (-1, 0)]:
            for build in (build_kneser, build_schrijver):
                with pytest.raises(ValueError):
                    build(n, k)
        with pytest.raises(CapacityError, match="ground-set cap"):
            build_schrijver(10**9, 2)
        header = {"family": "schrijver", "p": None, "seed": None, "rng_id": None}
        with pytest.raises(ValueError):
            from_json_dict(header | {"n": -1, "k": 0, "vertices": [], "edges": []})


class TestAdjacent:
    def setup_method(self):
        self.g = build_kneser(5, 2)
        self.idx = {v.elements(): i for i, v in enumerate(self.g.vertices)}

    def test_disjoint_pair(self):
        assert self.g.adj[self.idx[(1, 2)]] >> self.idx[(3, 4)] & 1

    def test_sharing_pair(self):
        assert not self.g.adj[self.idx[(1, 2)]] >> self.idx[(2, 3)] & 1

    def test_diagonal(self):
        assert not self.g.adj[3] >> 3 & 1


class TestSampling:
    def test_p_one_identity(self):
        g = build_kneser(6, 2)
        s = sample_subgraph(g, 1.0, seed=7)
        assert s.adj == g.adj
        assert s.vertices == g.vertices

    def test_p_zero_edgeless(self):
        g = build_kneser(6, 2)
        s = sample_subgraph(g, 0.0, seed=7)
        assert s.num_edges == 0
        assert s.vertices == g.vertices

    def test_same_seed_reproducible(self):
        g = build_schrijver(8, 2)
        a = sample_subgraph(g, 0.37, seed=123)
        b = sample_subgraph(g, 0.37, seed=123)
        assert a == b
        assert to_canonical_json(a) == to_canonical_json(b)

    def test_spanning(self):
        g = build_schrijver(9, 2)
        s = sample_subgraph(g, 0.5, seed=5)
        assert s.vertices == g.vertices
        assert all(s.adj[u] & ~g.adj[u] == 0 for u in range(g.num_vertices))

    def test_monotone_coupling(self):
        g = build_kneser(7, 2)
        for seed in range(25):
            prev = None
            for p in (0.1, 0.3, 0.55, 0.8, 1.0):
                cur = sample_subgraph(g, p, seed)
                if prev is not None:
                    assert all(
                        prev.adj[u] & ~cur.adj[u] == 0
                        for u in range(g.num_vertices)
                    )
                prev = cur

    def test_monte_carlo_mean(self):
        g = build_kneser(7, 2)
        assert g.num_edges == 105
        trials = 1000
        counts = [sample_subgraph(g, 0.5, s).num_edges for s in range(trials)]
        mean = sum(counts) / trials
        se = math.sqrt(105 * 0.25 / trials)
        assert abs(mean - 52.5) <= 3 * se

    def test_decision_independent_of_family_packaging(self):
        # keyed by subset ranks: shared edges of KG and SG get identical fates
        kg = build_kneser(6, 2)
        sg = build_schrijver(6, 2)
        skg = sample_subgraph(kg, 0.5, seed=99)
        ssg = sample_subgraph(sg, 0.5, seed=99)
        kpos = {v.mask: i for i, v in enumerate(kg.vertices)}
        for u in range(sg.num_vertices):
            for v in range(u + 1, sg.num_vertices):
                if sg.adj[u] >> v & 1:
                    assert ssg.adj[u] >> v & 1 == (
                        skg.adj[kpos[sg.vertices[u].mask]]
                        >> kpos[sg.vertices[v].mask] & 1
                    )

    def test_matches_per_edge_reference(self):
        small = [
            build(n, k)
            for n in range(2, 10)
            for k in range(1, n // 2 + 1)
            for build in (build_kneser, build_schrijver)
        ]
        cases = [
            (g, p, seed)
            for g in small
            for p in (0.0, 0.3, 0.6, 0.9, 0.97, 1.0)
            for seed in (1, 2, 3, 2**64 + 3)
        ] + [(build_kneser(12, 4), 0.6, 1), (build_schrijver(14, 4), 0.97, 2)]
        for g, p, seed in cases:
            s = sample_subgraph(g, p, seed)
            assert s.adj == per_edge_sample(g, p, seed), (g.family, g.n, g.k, p, seed)

    def test_threshold_exact_at_value_boundary(self):
        # kept iff value < p 2^53: a p landing exactly on a value keeps it out
        g = build_kneser(4, 2)
        value = edge_value(5, g.vertices[0].rank, g.vertices[5].rank)
        assert g.adj[0] >> 5 & 1
        for p, kept in ((value / 2**53, 0), ((value + 1) / 2**53, 1)):
            assert sample_subgraph(g, p, 5).adj[0] >> 5 & 1 == kept
            assert keep_edge(5, g.vertices[0].rank, g.vertices[5].rank, p) == kept

    def test_tie_band_and_recorded_side(self):
        # y = x ^ (x >> 31) shares bits 33-63 with x, so the sampler settles
        # x below [low, low + 2^33) as kept and above it as dropped, and
        # computes y only inside.  p = value / 2^53 and (value + 1) / 2^53
        # put the edge of that value inside the band; the other edges of
        # the graph fall on either side of it.  Below p = 1/2 the kept edges
        # are recorded, above it the dropped ones.
        seed = 5
        hits = set()
        for g in (build_kneser(6, 2), build_schrijver(8, 2), build_kneser(7, 3)):
            ranks = [v.rank for v in g.vertices]
            pairs = [(ranks[u], ranks[v]) for u, v in edge_list(g)]
            values = [edge_value(seed, *pair) for pair in pairs]
            ps = [value / 2**53 for value in values]
            ps += [(value + 1) / 2**53 for value in values]
            for p in ps + [0.5, math.nextafter(0.5, 1)]:
                assert sample_subgraph(g, p, seed).adj == per_edge_sample(g, p, seed)
                limit = math.ceil(p * 2**53) << 11
                low, high = limit >> 33 << 33, (limit >> 33) + 1 << 33
                for pair, value in zip(pairs, values):
                    x = last_product(seed, *pair)
                    assert (x ^ (x >> 31)) >> 11 == value
                    band = "below" if x < low else "inside" if x < high else "above"
                    hits.add((p > 0.5, band, value < p * 2**53))
        for dropped_recorded in (False, True):
            assert {
                (dropped_recorded, "below", True),
                (dropped_recorded, "above", False),
                (dropped_recorded, "inside", True),
                (dropped_recorded, "inside", False),
            } <= hits

    def test_rejects_bad_p_and_resampling(self):
        g = build_kneser(5, 2)
        with pytest.raises(ValueError):
            sample_subgraph(g, 1.5, seed=0)
        s = sample_subgraph(g, 0.5, seed=0)
        with pytest.raises(ValueError):
            sample_subgraph(s, 0.5, seed=1)


class TestJson:
    def test_round_trip_plain(self):
        g = build_kneser(5, 2)
        text = to_canonical_json(g)
        g2 = from_json_dict(json.loads(text))
        assert to_canonical_json(g2) == text
        assert g2 == g

    def test_round_trip_sampled(self):
        g = sample_subgraph(build_schrijver(8, 2), 0.6, seed=42)
        text = to_canonical_json(g)
        g2 = from_json_dict(json.loads(text))
        assert to_canonical_json(g2) == text
        assert g2 == g  # the parent's family and the provenance come back

    @settings(max_examples=60, deadline=None)
    @given(
        build=st.sampled_from([build_kneser, build_schrijver]),
        nk=st.integers(2, 9).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(1, n // 2))
        ),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_round_trip_random(self, build, nk, p, seed):
        g = sample_subgraph(build(*nk), p, seed)
        text = to_canonical_json(g)
        g2 = from_json_dict(json.loads(text))
        assert to_canonical_json(g2) == text
        assert g2 == g

    @settings(max_examples=100, deadline=None)
    @given(
        build=st.sampled_from([build_kneser, build_schrijver]),
        nk=st.integers(0, 12).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, n))
        ),
        p=st.none() | st.floats(0.0, 1.0),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_writer_matches_json_dumps_reference(self, build, nk, p, seed):
        g = build(*nk)
        if p is not None:
            g = sample_subgraph(g, p, seed)
        text = to_canonical_json(g)
        assert text == reference_canonical_json(g)
        assert from_json_dict(json.loads(text)).adj == g.adj

    @pytest.mark.parametrize("p", [None, 0.5])
    def test_accepts_reversed_shuffled_and_duplicate_edges(self, p):
        g = build_kneser(7, 2)
        if p is not None:
            g = sample_subgraph(g, p, seed=11)
        obj = to_json_dict(g)
        edges = obj["edges"]
        obj["edges"] = [[v, u] for u, v in edges[::-1]] + edges[::3]
        assert from_json_dict(obj) == g

    def test_vertex_order_is_colex_rank(self):
        g = build_kneser(6, 3)
        masks = json.loads(to_canonical_json(g))["vertices"]
        assert masks == sorted(masks, key=rank_mask)

    def test_edges_sorted_u_lt_v(self):
        g = build_schrijver(8, 2)
        edges = json.loads(to_canonical_json(g))["edges"]
        assert all(u < v for u, v in edges)
        assert edges == sorted(edges)

    def test_rejects_malformed(self):
        g = build_kneser(4, 2)
        obj = to_json_dict(g)
        obj["edges"] = [[0, 0]]
        with pytest.raises(ValueError):
            from_json_dict(obj)
        obj2 = to_json_dict(g)
        obj2["vertices"][0] = 7  # popcount 3, not a 2-subset
        with pytest.raises(ValueError):
            from_json_dict(obj2)
        obj3 = to_json_dict(g)
        obj3["vertices"][5] = 1 << 10 | 1  # a 2-set, but not inside [4]
        with pytest.raises(ValueError):
            from_json_dict(obj3)
        # a JSON true or false must not pass as 1 or 0
        header = {"family": "kneser", "p": None, "seed": None, "rng_id": None}
        for bad in (
            {"n": True, "k": True, "vertices": [True], "edges": []},
            {"n": 3, "k": 1, "vertices": [True, 2, 4],
             "edges": [[False, True], [0, 2], [True, 2]]},
            {"n": 3, "k": 1, "vertices": [1, 2, 4],
             "edges": [[False, True], [0, 2], [True, 2]]},
        ):
            with pytest.raises(ValueError):
                from_json_dict(header | bad)

    def test_schrijver_read_cost_follows_the_file(self):
        # SG(64,32) has 2 vertices among C(64,32) ~ 1.8e18 32-subsets and
        # SG(40,19) 400 among C(40,19) ~ 1.3e11: neither read may walk those
        header = {"family": "schrijver", "p": None, "seed": None, "rng_id": None}
        alternating = int("01" * 32, 2)
        g = from_json_dict(
            header
            | {"n": 64, "k": 32, "vertices": [alternating, alternating << 1],
               "edges": [[0, 1]]}
        )
        assert [v.mask for v in g.vertices] == [alternating, alternating << 1]
        assert g.adj == (0b10, 0b01)
        masks = [s.mask for s in enumerate_stable_ksubsets(40, 19)]
        edges = [
            [u, v] for u, v in combinations(range(len(masks)), 2)
            if not masks[u] & masks[v]
        ]
        g = from_json_dict(
            header | {"n": 40, "k": 19, "vertices": masks, "edges": edges}
        )
        assert [v.mask for v in g.vertices] == masks
        assert g.num_edges == len(edges) > 0

    @pytest.mark.parametrize(
        "change",
        [
            {"edges": [[0, 5]]},  # an unsampled graph missing edges
            {"edges": [[0, 1]]},  # {1,2} and {1,3} intersect
            {"family": "sampled"},
            {"p": 0.5, "seed": 1, "rng_id": None},
            {"p": True, "seed": 1, "rng_id": "splitmix64-edge-v1"},
            {"p": 0.5, "seed": 1.0, "rng_id": "splitmix64-edge-v1"},
        ],
    )
    def test_rejects_contradictions(self, change):
        obj = to_json_dict(build_kneser(4, 2))
        obj.update(change)
        with pytest.raises(ValueError):
            from_json_dict(obj)

    @pytest.mark.parametrize("p", [None, 0.5])
    def test_parent_adjacency_built_only_for_unsampled(self, monkeypatch, p):
        # a sampled file's edges are checked one by one against the masks
        calls = []
        built = graphs._disjointness_adjacency

        def spy(*args):
            calls.append(args)
            return built(*args)

        g = build_schrijver(8, 2)
        if p is not None:
            g = sample_subgraph(g, p, seed=3)
        monkeypatch.setattr(graphs, "_disjointness_adjacency", spy)
        assert from_json_dict(json.loads(to_canonical_json(g))) == g
        assert len(calls) == (p is None)

    def test_sampled_edge_between_intersecting_sets_refused(self):
        obj = to_json_dict(sample_subgraph(build_kneser(4, 2), 0.5, seed=3))
        obj["edges"].append([0, 1])  # {1,2} and {1,3} intersect
        with pytest.raises(ValueError, match="intersecting"):
            from_json_dict(obj)

    @pytest.mark.parametrize(
        "prov",
        [{"p": None, "seed": None, "rng_id": None},
         {"p": 0.5, "seed": 1, "rng_id": "splitmix64-edge-v1"}],
        ids=["unsampled", "sampled"],
    )
    def test_self_loop_on_the_empty_set_refused(self, prov):
        # KG(3,0) is one vertex, the empty set, disjoint from itself: only
        # the self-loop check refuses its loop
        obj = {"family": "kneser", "n": 3, "k": 0, **prov,
               "vertices": [0], "edges": [[0, 0]]}
        with pytest.raises(ValueError, match="self-loop"):
            from_json_dict(obj)
        assert from_json_dict(obj | {"edges": []}).adj == (0,)

    def test_rejects_unstable_schrijver_vertex(self):
        obj = to_json_dict(build_kneser(5, 2))
        obj["family"] = "schrijver"
        with pytest.raises(ValueError):
            from_json_dict(obj)
        obj = to_json_dict(sample_subgraph(build_kneser(5, 2), 0.5, seed=3))
        obj["family"] = "schrijver"
        with pytest.raises(ValueError):
            from_json_dict(obj)
