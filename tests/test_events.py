"""Event A over the full cells, against a brute force and the paper's facts.

Event A asks for two opposite open hemispheres holding families M+ and M- of
the fixed size t = ceil(C(k+ell, k) / d), with no sampled edge between them.
"""

import pytest
from events_reference import event_a_brute

from kneser_chroma.bounds import derived_params
from kneser_chroma.chromatic import EXACT, chromatic_number
from kneser_chroma.events import event_a_oracle
from kneser_chroma.gale import WitnessSearch, build_embedding
from kneser_chroma.graphs import build_schrijver, sample_subgraph

# every (n, k, ell) with n <= 10 and d >= 2
SMALL = ((7, 2, 1), (8, 2, 1), (9, 2, 1), (9, 2, 2), (9, 3, 1),
         (10, 2, 1), (10, 2, 2), (10, 3, 1))

# the samples on which the full cells hold and the canonical hemispheres,
# with per-side thresholds ceil(|side| / d), did not
FULL_CELLS_ONLY = ((9, 2, 2, 0.5, 2), (10, 3, 1, 0.9, 3), (10, 3, 1, 0.9, 5),
                   (10, 3, 1, 0.9, 8), (10, 2, 2, 0.9, 1))


class TestAgainstBruteForce:
    @pytest.mark.parametrize("n,k,ell", SMALL)
    def test_small_grid(self, n, k, ell):
        only = [(p, seed) for *inst, p, seed in FULL_CELLS_ONLY if inst == [n, k, ell]]
        grid = [(p, seed) for p in (0.3, 0.7, 0.9, 1.0) for seed in range(3)]
        verdicts = set()
        for p, seed in grid + only:
            rep = event_a_oracle(n, k, ell, p, seed)
            want = event_a_brute(n, k, ell, p, seed)
            assert (rep.holds, rep.partitions_examined) == want, (p, seed)
            verdicts.add(rep.holds)
            assert rep.holds or (p, seed) not in only
        assert verdicts == {True, False}

    def test_census_indexes_the_sampled_graph(self):
        # the witness search's stables are SG(n, k)'s vertices, in order
        for n, k, ell in SMALL:
            search = WitnessSearch(build_embedding(n, k + ell), k)
            assert tuple(search.stables) == build_schrijver(n, k).vertices


class TestPaperFacts:
    """On every sample of a small grid: if A fails, chi(G(p)) >= d+1; and a
    proper coloring with at most d colors has a witness, with thresholds at
    least t, and A holds."""

    def test_failing_a_forces_chi_above_d_and_few_colors_force_a(self):
        failing = colored = 0
        for n, k, ell in SMALL:
            d, t = derived_params(n, k, ell)
            parent = build_schrijver(n, k)
            search = WitnessSearch(build_embedding(n, k + ell), k)
            # SG(10, 3) at p = 1 costs 150k solver nodes; it adds nothing here
            top = (0.9,) if (n, k) == (10, 3) else (0.9, 1.0)
            for p in (0.1, 0.3, 0.5, 0.7, *top):
                for seed in range(6):
                    holds = event_a_oracle(n, k, ell, p, seed).holds
                    res = chromatic_number(sample_subgraph(parent, p, seed))
                    assert res.status == EXACT
                    if not holds:
                        failing += 1
                        assert res.chi >= d + 1, (n, k, ell, p, seed)
                    if res.chi <= d:
                        colored += 1
                        w = search.find(list(res.coloring))
                        assert w.t_pos >= t and w.t_neg >= t
                        assert holds, (n, k, ell, p, seed)
        assert failing >= 50 and colored >= 50
