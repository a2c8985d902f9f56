"""Kneser and Schrijver graphs, plus seeded spanning random subgraphs.

Adjacency is stored as one bitset per vertex (Python ints), so neighbor
queries are O(1) mask probes and the structures are immutable and picklable.
Row u is the set of vertices inside the complement of u, read off a
``SubsetIndex`` in O(k) big-int operations.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

from . import seeds
from .errors import CapacityError
from .setfam import (
    MAX_GROUND_SET,
    KSubset,
    SubsetIndex,
    enumerate_ksubsets,
    enumerate_stable_ksubsets,
    select_bits,
    stable_count,
)

MAX_VERTICES = 5000

KNESER = "kneser"
SCHRIJVER = "schrijver"


Provenance = namedtuple("Provenance", "p seed")


class Graph(namedtuple("Graph", "family n k vertices adj provenance", defaults=[None])):
    __slots__ = ()

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


def _family(family: str, n: int, k: int):
    """(vertex count, enumeration) of a family's graph on k-subsets of [n].

    The family name and 0 <= k <= n (ValueError), then n <= MAX_GROUND_SET
    (CapacityError) are checked before anything is counted, so no count sees
    a huge n.  The setfam enumeration is looked up at each call, so a rebound
    module attribute is the one returned.
    """
    if family not in (KNESER, SCHRIJVER):
        raise ValueError(f"family {family!r} is neither {KNESER!r} nor {SCHRIJVER!r}")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    if n > MAX_GROUND_SET:
        raise CapacityError(f"n={n} exceeds ground-set cap {MAX_GROUND_SET}")
    if family == KNESER:
        return math.comb(n, k), enumerate_ksubsets
    return stable_count(n, k), enumerate_stable_ksubsets


def family_vertices(family: str, n: int, k: int) -> list[KSubset]:
    """The family's vertices in colex order: C(n, k) k-subsets for kneser,
    (n/(n-k)) C(n-k, k) stable ones for schrijver.  That count is held to
    ``MAX_VERTICES``, read at each call, before any vertex is built
    (CapacityError).
    """
    count, enumerate_family = _family(family, n, k)
    if count > MAX_VERTICES:
        raise CapacityError(
            f"{family}({n}, {k}) has {count} vertices, "
            f"over the vertex cap {MAX_VERTICES}"
        )
    return enumerate_family(n, k)


def _disjointness_adjacency(vertices: tuple[KSubset, ...], n: int) -> tuple[int, ...]:
    masks = [v.mask for v in vertices]
    index = SubsetIndex(masks, n)
    # only the empty set lies inside its own complement; it is never a loop
    return tuple(index.within(~m) if m else 0 for m in masks)


def build_kneser(n: int, k: int) -> Graph:
    """Kneser graph: all k-subsets of [n], edges between disjoint pairs."""
    vertices = tuple(family_vertices(KNESER, n, k))
    return Graph(KNESER, n, k, vertices, _disjointness_adjacency(vertices, n))


def build_schrijver(n: int, k: int) -> Graph:
    """Schrijver graph: the Kneser graph induced on stable k-subsets."""
    vertices = tuple(family_vertices(SCHRIJVER, n, k))
    return Graph(SCHRIJVER, n, k, vertices, _disjointness_adjacency(vertices, n))


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
    adj = seeds.kept_adjacency(seed, p, [v.rank for v in graph.vertices], graph.adj)
    prov = Provenance(p=p, seed=seed)
    return Graph(graph.family, graph.n, graph.k, graph.vertices, tuple(adj), prov)


# --- canonical JSON format (read/written by the CLI) ---------------------


def to_canonical_json(graph: Graph) -> str:
    """Byte-reproducible serialization: fixed key order, no whitespace.

    "edges" lists [u, v] for every edge with u < v, sorted.  It is written
    row by row from the adjacency bitsets: row u's upper neighbours become
    one string join over precomputed decimal labels.
    """
    prov = graph.provenance
    head = json.dumps(
        {
            "family": graph.family,
            "n": graph.n,
            "k": graph.k,
            "p": prov.p if prov else None,
            "seed": prov.seed if prov else None,
            "rng_id": seeds.EDGE_RNG_ID if prov else None,
            "vertices": [v.mask for v in graph.vertices],
        },
        separators=(",", ":"),
    )
    labels = list(map(str, range(graph.num_vertices)))
    rows = []
    for u, row in enumerate(graph.adj):
        row >>= u + 1
        if row:
            left = f"[{u},"
            cols = select_bits(row, labels[u + 1 :])
            rows.append(left + ("]," + left).join(cols) + "]")
    return head[:-1] + ',"edges":[' + ",".join(rows) + "]}\n"


def _provenance(obj: dict) -> Provenance | None:
    """None for an unsampled file; the triple must be all null or all valid."""
    p, seed, rng_id = obj.get("p"), obj.get("seed"), obj.get("rng_id")
    if p is None and seed is None and rng_id is None:
        return None
    # type(...) rather than isinstance: a JSON true must not pass as 1
    valid = type(p) in (int, float) and 0 <= p <= 1 and type(seed) is int
    if not valid or rng_id != seeds.EDGE_RNG_ID:
        raise ValueError(
            f"provenance p={p!r}, seed={seed!r}, rng_id={rng_id!r} is neither "
            f"all null nor a p in [0, 1], an int seed and {seeds.EDGE_RNG_ID!r}"
        )
    return Provenance(p=p, seed=seed)


def from_json_dict(obj: dict) -> Graph:
    """The graph of a parsed canonical JSON file, checked in full.

    n, k, vertex masks and edge indices must be JSON integers, a JSON true
    or false is refused (it would pass an isinstance check as 1 or 0).  The
    vertices must be the family's whole vertex set in colex order, so they
    and their ranks are taken from the family's own enumeration once the
    count matches.  Edges may come in any order and repeat.

    Each edge is checked where it is read: two indices in range, no
    self-loop, then disjoint vertex masks (the self-loop check goes first,
    since the empty set is disjoint from itself).  So every edge of a
    sampled file lies in the parent graph, and the parent's adjacency is
    built only for an unsampled file, which must hold all of its edges.
    """
    family, n, k = obj["family"], obj["n"], obj["k"]
    if type(n) is not int or type(k) is not int:
        raise ValueError(f"n={n!r} and k={k!r} must be integers")
    whole, enumerate_family = _family(family, n, k)
    masks = obj["vertices"]
    # counted before the family is enumerated, so that costs in proportion
    # to the file's own vertex list (times O(k^2) at worst for schrijver,
    # whose enumeration never walks all C(n, k) masks)
    m = len(masks)
    if m != whole:
        raise ValueError(f"{family} file lists {m} of the family's {whole} vertices")
    vertices = tuple(enumerate_family(n, k))
    for i, (v, mask) in enumerate(zip(vertices, masks)):
        if type(mask) is not int or mask != v.mask:
            raise ValueError(
                f"vertex masks must be the {family} family's {k}-subsets of "
                f"[{n}] in colex order: position {i} holds {mask!r}, not {v.mask}"
            )
    bit = [1 << i for i in range(m)]
    adj = [0] * m
    for u, v in obj["edges"]:
        # checked before use: bit[-1] is the last vertex's bit
        if type(u) is not int or type(v) is not int or not (0 <= u < m and 0 <= v < m):
            raise ValueError(f"edge [{u!r}, {v!r}] is not two indices in 0..{m - 1}")
        if u == v:
            raise ValueError("self-loop in edge list")
        if masks[u] & masks[v]:
            raise ValueError("an edge joins two intersecting vertex masks")
        adj[u] |= bit[v]
        adj[v] |= bit[u]
    adj = tuple(adj)
    prov = _provenance(obj)
    if prov is None and adj != _disjointness_adjacency(vertices, n):
        raise ValueError("an unsampled graph lacks an edge between disjoint vertices")
    return Graph(family, n, k, vertices, adj, prov)
