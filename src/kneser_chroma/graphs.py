"""Kneser and Schrijver graphs, plus seeded spanning random subgraphs.

Adjacency is stored as one bitset per vertex (Python ints), so neighbor
queries are O(1) mask probes and the structures are immutable and picklable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import seeds
from .errors import CapacityError
from .setfam import (
    MAX_GROUND_SET,
    KSubset,
    enumerate_ksubsets,
    enumerate_stable_ksubsets,
)

DEFAULT_VERTEX_CAP = 5000

KNESER = "kneser"
SCHRIJVER = "schrijver"
SAMPLED = "sampled"


@dataclass(frozen=True)
class Provenance:
    p: float
    seed: int
    parent_family: str
    rng_id: str


@dataclass(frozen=True)
class Graph:
    family: str
    n: int
    k: int
    vertices: tuple[KSubset, ...]
    adj: tuple[int, ...]
    provenance: Provenance | None = None

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as (u, v) with u < v, lexicographically sorted."""
        out = []
        for u, row in enumerate(self.adj):
            higher = row >> (u + 1)
            while higher:
                low = higher & -higher
                out.append((u, u + low.bit_length()))
                higher ^= low
        return out

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()


def _check_capacity(n: int, k: int, max_vertices: int) -> None:
    if n > MAX_GROUND_SET:
        raise CapacityError(f"n={n} exceeds ground-set cap {MAX_GROUND_SET}")
    if math.comb(n, k) > max_vertices:
        raise CapacityError(
            f"C({n},{k})={math.comb(n, k)} exceeds vertex cap {max_vertices}"
        )


def _disjointness_adjacency(vertices: tuple[KSubset, ...]) -> tuple[int, ...]:
    m = len(vertices)
    adj = [0] * m
    masks = [v.mask for v in vertices]
    for u in range(m):
        mu = masks[u]
        row = adj[u]
        for v in range(u + 1, m):
            if mu & masks[v] == 0:
                row |= 1 << v
                adj[v] |= 1 << u
        adj[u] = row
    return tuple(adj)


def build_kneser(n: int, k: int, max_vertices: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Kneser graph: all k-subsets of [n], edges between disjoint pairs."""
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    _check_capacity(n, k, max_vertices)
    vertices = tuple(enumerate_ksubsets(n, k))
    return Graph(KNESER, n, k, vertices, _disjointness_adjacency(vertices))


def build_schrijver(n: int, k: int, max_vertices: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Schrijver graph: the Kneser graph induced on stable k-subsets."""
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    _check_capacity(n, k, max_vertices)
    vertices = tuple(enumerate_stable_ksubsets(n, k))
    return Graph(SCHRIJVER, n, k, vertices, _disjointness_adjacency(vertices))


def sample_subgraph(graph: Graph, p: float, seed: int) -> Graph:
    """Spanning subgraph keeping each edge independently with probability p.

    The keep/drop decision for an edge is a pure function of
    (seed, min subset rank, max subset rank); iteration order, thread count,
    and the enclosing graph family cannot change it.  For a fixed seed the
    kept sets are nested in p (threshold coupling).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    if graph.provenance is not None:
        raise ValueError("refusing to resample an already sampled graph")
    m = len(graph.vertices)
    ranks = [v.rank for v in graph.vertices]
    adj = [0] * m
    for u in range(m):
        row = graph.adj[u] >> (u + 1)
        ru = ranks[u]
        while row:
            low = row & -row
            v = u + low.bit_length()
            row ^= low
            if seeds.keep_edge(seed, ru, ranks[v], p):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    prov = Provenance(
        p=p, seed=seed, parent_family=graph.family, rng_id=seeds.EDGE_RNG_ID
    )
    return Graph(SAMPLED, graph.n, graph.k, graph.vertices, tuple(adj), prov)


def adjacent(graph: Graph, u: int, v: int) -> bool:
    """O(1) symmetric adjacency probe; false on the diagonal."""
    m = len(graph.vertices)
    if not (0 <= u < m and 0 <= v < m):
        raise IndexError(f"vertex index out of range 0..{m - 1}")
    return bool(graph.adj[u] >> v & 1)


# --- canonical JSON format (read/written by the CLI) ---------------------


def to_json_dict(graph: Graph) -> dict:
    prov = graph.provenance
    return {
        "family": prov.parent_family if prov else graph.family,
        "n": graph.n,
        "k": graph.k,
        "p": prov.p if prov else None,
        "seed": prov.seed if prov else None,
        "rng_id": prov.rng_id if prov else None,
        "vertices": [v.mask for v in graph.vertices],
        "edges": [[u, v] for u, v in graph.edges()],
    }


def to_canonical_json(graph: Graph) -> str:
    """Byte-reproducible serialization: fixed key order, no whitespace."""
    return json.dumps(to_json_dict(graph), separators=(",", ":")) + "\n"


def from_json_dict(obj: dict) -> Graph:
    n, k = obj["n"], obj["k"]
    vertices = tuple(KSubset.from_mask(m, n) for m in obj["vertices"])
    for v in vertices:
        if v.k != k:
            raise ValueError(f"vertex mask {v.mask:#x} is not a {k}-subset")
    for a, b in zip(vertices, vertices[1:]):
        if a.mask >= b.mask:
            raise ValueError(
                f"vertex masks must strictly increase (colex order): "
                f"{b.mask:#x} follows {a.mask:#x}"
            )
    m = len(vertices)
    adj = [0] * m
    for u, v in obj["edges"]:
        # checked before the shift below, which would allocate a 2^v-bit int
        if not (0 <= u < m and 0 <= v < m):
            raise ValueError(f"edge [{u}, {v}] has an index outside 0..{m - 1}")
        if u == v:
            raise ValueError("self-loop in edge list")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if obj.get("p") is None:
        return Graph(obj["family"], n, k, vertices, tuple(adj))
    prov = Provenance(
        p=obj["p"], seed=obj["seed"], parent_family=obj["family"], rng_id=obj["rng_id"]
    )
    return Graph(SAMPLED, n, k, vertices, tuple(adj), prov)
