"""Graph helpers shared by the test modules, which import no other test
module.

``Graph.edges`` and ``graphs.to_json_dict`` are the reference copy of the
graph JSON writer before the row-wise one, verbatim apart from their imports
(``edges`` is a function here, not a method): the object form of a graph
file, serialized by ``json.dumps``.  The differential tests hold
``graphs.to_canonical_json`` to the same bytes.  ``is_proper`` checks a
coloring edge by edge, and ``rank_mask`` gives a subset's colex rank.
"""

from __future__ import annotations

import json
import math

from kneser_chroma import seeds
from kneser_chroma.graphs import Graph


def edges(graph: Graph) -> list[tuple[int, int]]:
    """Edge list as (u, v) with u < v, lexicographically sorted."""
    out = []
    for u, row in enumerate(graph.adj):
        higher = row >> (u + 1)
        while higher:
            low = higher & -higher
            out.append((u, u + low.bit_length()))
            higher ^= low
    return out


def to_json_dict(graph: Graph) -> dict:
    prov = graph.provenance
    return {
        "family": graph.family,
        "n": graph.n,
        "k": graph.k,
        "p": prov.p if prov else None,
        "seed": prov.seed if prov else None,
        "rng_id": seeds.EDGE_RNG_ID if prov else None,
        "vertices": [v.mask for v in graph.vertices],
        "edges": [[u, v] for u, v in edges(graph)],
    }


def reference_canonical_json(graph: Graph) -> str:
    """Byte-reproducible serialization: fixed key order, no whitespace."""
    return json.dumps(to_json_dict(graph), separators=(",", ":")) + "\n"


def is_proper(graph: Graph, coloring) -> bool:
    """True iff every vertex is colored and no edge is monochromatic."""
    colors = list(coloring)
    if len(colors) != graph.num_vertices or any(c is None for c in colors):
        raise ValueError("coloring must assign every vertex a color")
    for u in range(graph.num_vertices):
        row = graph.adj[u] >> (u + 1)
        while row:
            low = row & -row
            v = u + low.bit_length()
            row ^= low
            if colors[u] == colors[v]:
                return False
    return True


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
