"""Brute-force reference for ``events.event_a_oracle``.

``event_a_brute`` takes the full cells (faces with no zero sign) from
``gale_reference.enumerate_faces_eager``, in face order, and on each tries
every t-subset of the stable k-subsets inside the plus side against every
t-subset inside the minus side, t = ceil(C(k+ell, k) / d), until one pair
has no sampled edge between them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from gale_reference import enumerate_faces_eager
from kneser_chroma.bounds import derived_params
from kneser_chroma.gale import build_embedding
from kneser_chroma.graphs import build_schrijver, sample_subgraph


@lru_cache(maxsize=None)
def full_cells(n: int, s: int):
    """The faces of build_embedding(n, s) with no zero sign, in face order."""
    faces = enumerate_faces_eager(build_embedding(n, s)).faces
    return [f for f in faces if 0 not in f.signs]


def event_a_brute(n: int, k: int, ell: int, p: float, seed: int):
    """(holds, full cells examined): the first cell that holds, or all of them."""
    _, t = derived_params(n, k, ell)
    graph = sample_subgraph(build_schrijver(n, k), p, seed)
    masks = [v.mask for v in graph.vertices]
    cells = full_cells(n, k + ell)
    for examined, cell in enumerate(cells, 1):
        plus = [v for v, m in enumerate(masks) if m & cell.plus_mask == m]
        minus = [v for v, m in enumerate(masks) if m & cell.minus_mask == m]
        for m_plus in combinations(plus, t):
            for m_minus in combinations(minus, t):
                if not any(graph.adj[u] >> v & 1 for u in m_plus for v in m_minus):
                    return True, examined
    return False, len(cells)
