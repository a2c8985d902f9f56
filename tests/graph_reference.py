"""Reference copy of the graph JSON writer before the row-wise one.

``Graph.edges`` and ``graphs.to_json_dict`` verbatim apart from their
imports (``edges`` is a function here, not a method): the object form of a
graph file, serialized by ``json.dumps``.  The differential tests hold
``graphs.to_canonical_json`` to the same bytes.
"""

from __future__ import annotations

import json

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
