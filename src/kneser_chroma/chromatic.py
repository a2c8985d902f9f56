"""Exact chromatic number, independence number, vertex criticality.

The solver wraps a DSATUR-ordered branch-and-bound m-colorability decision:
greedy DSATUR, or a Lovasz coloring folded below it, gives the upper bound,
a maximum clique the lower one, and the answer is certified by exhausting
the (chi-1)-color search tree.  If the
budget runs out in the clique search, the solve ends there as a timeout with
a greedy clique and the bound's coloring.  Each decide(m) search colors the
whole graph it is given, first the solve's clique, as Brelaz's exact DSATUR
does (1979): a greedy clique of the sample had 2 members, not 3, in 841 of
1,797 bench decide(4) calls.  All tie-breaks are fixed, so results
are deterministic under node budgets: the search picks a forced vertex, one
with a single color left, by lowest index, and any other by Sewell's rule
below; the greedy upper bound by saturation, then static degree, then
index.  Both keep the uncolored vertices in per-saturation bitset buckets
and scan only the top one.  The greedy passes also hold the vertices as one
bitset per static degree, highest first: the greedy bound takes the lowest
bit of the first class that meets the top bucket, and the greedy clique
walks the classes, each from its lowest index, with one bitset of the
vertices adjacent to every member so far.

With m colors the forced vertices are bucket[m-1].  (1) While it is
non-empty it is the top bucket (a vertex with no color left fails the chain
first), so any pick too colors every forced vertex before it branches.
(2) A color not yet used lies in no near[c], so a forced vertex's color
always passes the used + 1 rule.  (3) Coloring forced vertices is unit
propagation, which reaches the same fixed point, or a conflict, in any
order.  So the index pick keeps the branch points, every verdict and the
first coloring found, and a forced neighbour left with the same one color
fails the chain before it spends a node.  (4) Only the node counts of
failing chains move, and with them the node at which the probes and the
budget fire.  On coupled SG(10,3) samples 89% of the picks that refute
m = 4 are forced.

Both exact searches, the coloring DFS and the clique branch-and-bound, are
loops over an explicit list of frames, one per vertex on the current path,
so neither recurses nor touches the interpreter's recursion limit.  A
coloring frame keeps the buckets as its vertex left them and near[c] before
its color c, and undoes the color by restoring the two.

Sewell's rule (1996, "An improved algorithm for exact graph colouring")
takes, from the top saturation bucket, the vertex with the most pairs
(u, c): u an uncolored neighbour, c < top a color free for both; then the
lowest index.  A bucket of one is taken unscored.  The score is summed
color-major over one bitset of uncolored vertices free for c per color: in
prototypes, scoring each candidate's colors from its own row put the median
bench solve up 21%, this form 8.6%.  Against the uncolored-degree key it
took bench nodes per op (600 SG(10,3) solves at p = 0.9/0.97, 5,000-node
budget, seeds 7/11/13) from 552.8/574.3/562.6 to 423.3/419.9/404.3, the
SG(10,3) parent from 141,879 nodes to 32,387, and it solves SG(11,3) and
KG(11,3) exactly in 1,282,151 and 485,180 nodes, where the old rule timed
out at 5M.  It also retired a seeded 200-move TabuCol pass that ran at node
500 of every long search: with the pass the bench read 1/0/1 timeouts,
without it and with the probes below 2/1/1, and with neither 3/3/2.

Two facts about the family's graphs guide the search.  A clique is a set of
pairwise disjoint k-sets of [n], so none has more than n // k members, and
the exact clique search stops at that size: it returns the same clique, as
it only ever replaces its best by a larger one, and a greedy clique of that
size before it spends a node.  And chi(KG(n,k)) =
chi(SG(n,k)) = n-2k+2 (Lovasz 1978, Schrijver 1978), so every
(n-2k+1)-coloring of a sample makes a dropped parent edge uv monochromatic,
and it colors the contraction G/{u,v}.  Near p = 1 chi is mostly n-2k+1,
whose call must find.  So at the node PROBE_AFTER past the start of a
decide(n-2k+1) search, the loop colors G/{u,v} by greedy DSATUR for each
dropped edge.  A coloring with at most m colors gives v the color of u, is
checked edge by edge on G and ends the call; after a miss the loop resumes
where it stopped, so the DFS visits the same nodes in the same order.  Probes are not charged to ``Budget.max_nodes`` and can
only end a search early, so a row exact without them stays exact with the
same chi.  The parent rows are derived only there.  A sample that dropped
more than PROBE_EDGES edges gets no probe: SG(10,3) at p = 0.97 drops 4-25
of its 425, KG(14,4) at p = 0.5 about 52,000.  On the three bench passes
13 of 24 probing calls hit (34 of 64 before the fold below).

The same theorem gives the upper bound a start.  Every ordering x_0, ...,
x_{n-1} of [n] colors a k-set S by the first i < n-2k+1 with x_i in S, and
by n-2k+1 if there is none.  Class i's members share x_i, and two k-sets of
the last 2k-1 elements meet, so no class holds an edge of KG(n,k), and the
coloring is proper on every spanning subgraph of KG(n,k) or SG(n,k).  When
greedy DSATUR uses more than n-2k+1 >= 2 colors, ``_lovasz_fold`` takes the
2n orderings x_i = r +- i mod n in turn and folds each vertex of the top
class into the first class with no neighbour of it, or else into the first
class whose one neighbour x of it can move to another class with no
neighbour of x.  Every step keeps each class independent, so the first
ordering that places the whole top class gives an (n-2k+1)-coloring, the new
upper bound; if none does and greedy used more than n-2k+2 colors, the first
ordering's coloring gives n-2k+2.  Only the bound the descent starts from
moves; a decide(m) search below it runs as before, save where the node
budget stops it.  On the 1,800 bench solves greedy used 6 or 7 colors on
1,175 of them, and the fold took nodes per op from 423.3/419.9/404.3 to
273.1/283.4/273.4, timeouts from 2/1/1 to 1/1/1 and in-process solve CPU
from 0.60/0.54/0.56 s to 0.42/0.43/0.41 s a pass (best of 5, interleaved);
every row exact before kept its chi.  It folds 1,580 of the 1,800 samples,
1,402 with rotations alone and 1,385 without the one-neighbour move.
"""

from __future__ import annotations

import time
from collections import namedtuple
from itertools import islice, product

from .graphs import Graph, _disjointness_adjacency
from .setfam import iter_bits

EXACT = "exact"
TIMEOUT = "timeout"
# the contraction probes; see the module docstring
PROBE_AFTER = 500
PROBE_EDGES = 24


class Budget(namedtuple("Budget", "max_nodes max_ms", defaults=[None, None])):
    """Search budget; ``max_nodes`` is deterministic, ``max_ms`` is not.

    A NaN or negative limit is a ValueError, from ``_replace`` too: a NaN
    deadline never passes, and a negative cap stops every search at once.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, max_nodes=None, max_ms=None):
        if not all(x is None or x >= 0 for x in (max_nodes, max_ms)):
            raise ValueError(f"budget limits must be >= 0, got {max_nodes}, {max_ms}")
        return super().__new__(cls, max_nodes, max_ms)


class _OutOfBudget(Exception):
    pass


_NEVER = 1 << 62


class _Counter:
    """Search nodes against the node budget and the deadline.

    ``spend`` compares the count with one limit: the node budget or, with a
    deadline, the next multiple of 1024 less one if that comes first, so the
    clock is read only at those multiples.  Without a deadline the limit is
    the budget, and passing it raises before the clock would be read.
    """

    __slots__ = ("nodes", "max_nodes", "deadline", "limit")

    def __init__(self, budget: Budget | None):
        budget = budget or Budget()
        self.nodes = 0
        self.max_nodes = _NEVER if budget.max_nodes is None else budget.max_nodes
        self.deadline = None
        self.limit = self.max_nodes
        if budget.max_ms is not None:
            self.deadline = time.monotonic() + budget.max_ms / 1000.0
            self.limit = min(self.max_nodes, 1023)

    def spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            if self.nodes > self.max_nodes or time.monotonic() > self.deadline:
                raise _OutOfBudget
            self.limit = min(self.max_nodes, self.nodes + 1023)


ColoringResult = namedtuple(
    "ColoringResult", "chi coloring clique nodes_explored status lower upper"
)


def _degree_classes(adj: tuple[int, ...], active: int) -> list[int]:
    """The active vertices as one bitset per active degree, highest first."""
    classes = [0] * len(adj)  # classes[d]: active vertices of degree d
    bit = 1
    for row in adj:
        if active & bit:
            classes[(row & active).bit_count()] |= bit
        bit <<= 1
    return [cls for cls in reversed(classes) if cls]


def _greedy_clique(
    adj: tuple[int, ...], active: int, classes: list[int] | None = None
) -> list[int]:
    """Deterministic maximal clique: grow in (degree desc, index asc) order.

    Walks the degree classes, each from its lowest index, keeping one bitset
    of the active vertices adjacent to every member so far.  ``classes`` is
    ``_degree_classes(adj, active)``, built here if not given.
    """
    clique: list[int] = []
    common = active
    for cls in classes or _degree_classes(adj, active):
        cand = cls & common
        while cand:
            v = (cand & -cand).bit_length() - 1
            clique.append(v)
            common &= adj[v]
            cand &= adj[v]  # adj[v] lacks v
    return clique


def _max_clique_exact(
    adj: tuple[int, ...],
    active: int,
    counter: _Counter,
    cap: int = _NEVER,
    classes: list[int] | None = None,
) -> list[int]:
    """Branch-and-bound maximum clique with a greedy-coloring bound, up to ``cap``.

    A greedy clique with ``cap`` members is returned at once: the search only
    ever replaces its best by a larger one.
    """
    best = _greedy_clique(adj, active, classes)
    if len(best) >= cap:
        return sorted(best)
    stack: list[int] = []  # the clique so far, one vertex per frame below the top
    frames: list[list] = []  # [candidates untried, their (vertex, color) sequence]
    p = active
    while True:
        if p:
            # color candidates greedily; vertices are tried in reverse color order
            seq: list[tuple[int, int]] = []
            rem = p
            c = 0
            while rem:
                c += 1
                cand = rem
                while cand:
                    low = cand & -cand
                    v = low.bit_length() - 1
                    seq.append((v, c))
                    cand &= ~adj[v] & ~low
                    rem ^= low
            frames.append([p, seq])
        elif not frames:
            return sorted(best)
        cur, seq = frame = frames[-1]
        if seq and len(best) < cap and len(stack) + seq[-1][1] > len(best):
            v = seq.pop()[0]
            counter.spend()
            frame[0] = cur = cur ^ 1 << v  # adj[v] lacks v: the child is unchanged
            p = cur & adj[v]
            if p:
                stack.append(v)
            elif len(stack) >= len(best):
                best = stack + [v]
        else:
            frames.pop()
            if stack:
                stack.pop()
            p = 0


IndependentSetResult = namedtuple(
    "IndependentSetResult", "size vertices status nodes_explored"
)


def max_independent_set(graph: Graph) -> IndependentSetResult:
    """Exact alpha(G): a maximum clique of the complement.

    It takes no budget and runs to the end, which grows fast with the graph:
    on KG(10,4), 210 vertices, it ran past 60 s on a 2-vCPU VM.
    """
    m = graph.num_vertices
    if m == 0:
        raise ValueError("empty graph")
    full = (1 << m) - 1
    comp = tuple(~graph.adj[u] & full & ~(1 << u) for u in range(m))
    counter = _Counter(None)
    best = _max_clique_exact(comp, full, counter)
    return IndependentSetResult(len(best), tuple(best), EXACT, counter.nodes)


def _dsatur_greedy(
    adj: tuple[int, ...], active: int, classes: list[int] | None = None
) -> tuple[list[int], int]:
    """Greedy DSATUR coloring of the active vertices; returns (colors, used).

    Picks by (saturation desc, static degree desc, lowest index): the lowest
    bit of the first degree class that meets the top saturation bucket, of
    ``classes`` as ``_greedy_clique`` takes them.
    """
    colors = [-1] * len(adj)
    classes = classes or _degree_classes(adj, active)
    near: list[int] = []  # near[c]: vertices with a neighbour colored c
    bucket = [active]  # bucket[s]: uncolored vertices with saturation s
    uncolored = active
    while uncolored:
        while not bucket[-1]:
            bucket.pop()
        top = bucket[-1]
        for cls in classes:
            if cls & top:
                break
        bit = cls & top
        bit &= -bit
        best_v = bit.bit_length() - 1
        c = 0
        while c < len(near) and near[c] & bit:
            c += 1
        if c == len(near):
            near.append(0)
        colors[best_v] = c
        uncolored ^= bit
        bucket[-1] ^= bit
        touched = adj[best_v] & uncolored & ~near[c]
        near[c] |= touched
        bucket.append(0)
        s = len(bucket) - 2
        while touched:  # each one gains color c: up one bucket
            up = touched & bucket[s]
            bucket[s] ^= up
            bucket[s + 1] |= up
            touched ^= up
            s -= 1
    return colors, len(near)


def _lovasz_fold(graph: Graph) -> tuple[list[int], int]:
    """An (n-2k+1)-coloring folded from a Lovasz coloring, else the first
    Lovasz coloring with n-2k+2 colors; returns (colors, used).

    Needs n-2k+1 >= 2.  Tries the orderings x_i = r + i, then r - i mod n,
    for r = 0..n-1; see the module docstring.
    """
    n, adj = graph.n, graph.adj
    m = n - 2 * graph.k + 1
    holds = [0] * n  # holds[e]: the vertices that contain e
    for i, vertex in enumerate(graph.vertices):
        for e in iter_bits(vertex.mask):
            holds[e] |= 1 << i
    first = None
    for r, step in product(range(n), (1, -1)):
        rest, classes = (1 << len(adj)) - 1, []
        for i in range(m):
            classes.append(rest & holds[(r + step * i) % n])
            rest &= ~classes[-1]
        first = first or classes + [rest]
        if all(_fold_in(classes, w, adj) for w in iter_bits(rest)):
            break
    else:
        classes, m = first, m + 1
    colors = [0] * len(adj)
    for c, cls in enumerate(classes):
        for v in iter_bits(cls):
            colors[v] = c
    return colors, m


def _fold_in(classes: list[int], w: int, adj: tuple[int, ...]) -> bool:
    """Put w into the first class with no neighbour of w, or else into the
    first class whose one neighbour x of w can move to another class with no
    neighbour of x; False if neither exists."""
    row, wbit = adj[w], 1 << w
    for i, cls in enumerate(classes):
        if not cls & row:
            classes[i] |= wbit
            return True
    for i, cls in enumerate(classes):
        x = cls & row
        if x & x - 1 == 0:
            xrow = adj[x.bit_length() - 1]
            for j, other in enumerate(classes):
                if j != i and not other & xrow:
                    classes[i] ^= x | wbit
                    classes[j] |= x
                    return True
    return False


def _contraction_probes(
    adj: tuple[int, ...], active: int, m: int, sample: Graph
) -> list[int] | None:
    """An m-coloring of the active vertices from G/{u,v} for a dropped parent
    edge uv.

    None if more than PROBE_EDGES parent edges among them are missing from
    ``adj``, or if no probe finds one.
    """
    parent = _disjointness_adjacency(sample.vertices, sample.n)
    dropped = list(islice(
        ((u, v) for u in iter_bits(active)
         for v in iter_bits((parent[u] & ~adj[u] & active) >> u + 1 << u + 1)),
        PROBE_EDGES + 1,
    ))
    if len(dropped) > PROBE_EDGES:
        return None
    for u, v in dropped:
        vbit, ubit = 1 << v, 1 << u
        merged = [row | ubit if row & vbit else row for row in adj]
        merged[u] = adj[u] | adj[v]
        colors, used = _dsatur_greedy(merged, active ^ vbit)
        if used > m:
            continue
        colors[v] = colors[u]
        if all(colors[w] != colors[x] for w in iter_bits(active)
               for x in iter_bits(adj[w] & active)):
            return colors
    return None


def _decide_colorable(
    adj: tuple[int, ...],
    m: int,
    active: int,
    counter: _Counter,
    clique: tuple[int, ...],
    sample: Graph | None = None,
) -> list[int] | None:
    """Coloring of the active vertices with m colors, or None if impossible.

    Needs m >= 1 and at least one active vertex: ``chromatic_number`` asks
    for m >= lower >= 2, and ``vertex_critical`` for chi - 1 >= 1 with one
    of its two or more vertices left out; both pass their solve's clique.
    Raises _OutOfBudget when the node budget runs out before a verdict.
    ``chromatic_number`` passes the graph as ``sample`` at m = n-2k+1, where
    the search runs the contraction probes once it has spent PROBE_AFTER
    nodes.  A vertex that is not forced is picked by Sewell's rule.
    """
    colors = [-1] * len(adj)
    clique = [v for v in clique if active >> v & 1]
    if len(clique) > m:
        return None
    # near[c]: active vertices with a neighbour colored c
    near = [0] * m
    uncolored = active
    for i, v in enumerate(clique):
        colors[v] = i
        uncolored ^= 1 << v
        near[i] = adj[v] & active
    used = len(clique)
    # bucket[s]: uncolored active vertices with saturation s (s <= m); the
    # clique's colors are distinct, so each member's uncolored neighbours
    # move up one bucket
    bucket = [0] * (m + 1)
    bucket[0] = uncolored
    for i in range(used):
        moving, s = near[i] & uncolored, i
        while moving:
            up = moving & bucket[s]
            bucket[s] ^= up
            bucket[s + 1] |= up
            moving ^= up
            s -= 1

    spend = counter.spend
    probe_at = counter.nodes + PROBE_AFTER if sample is not None else -1
    # a frame per colored vertex above the current one: the vertex, its bit
    # and bucket, the vertices after it and its neighbours among them, the
    # colors used before it, its color and near[c] before it, its color
    # limit and the buckets as it left its own
    frames: list[tuple] = []
    while uncolored:
        sat = m
        while not bucket[sat]:
            sat -= 1
        cand = bucket[sat]
        conflict = 0
        top = used + 1 if used < m else m
        vbit = cand & -cand
        if sat == m - 1:
            # forced: lowest index; a forced neighbour with its color fails
            c = 0
            while near[c] & vbit:
                c += 1
            conflict = adj[vbit.bit_length() - 1] & cand & ~near[c]
        elif cand ^ vbit:
            # Sewell's pick: most pairs (uncolored neighbour u, color c < top)
            # with c free for both, then lowest index; scored color-major
            free = [uncolored & ~near[c] for c in range(top)]
            best = -1
            while cand:
                low = cand & -cand
                cand ^= low
                row = adj[low.bit_length() - 1]
                score = 0
                for f in free:
                    if f & low:
                        score += (row & f).bit_count()
                if score > best:
                    best, vbit = score, low
        v = vbit.bit_length() - 1
        if conflict:  # try no color: back into the parent's next one, at no node
            c, top = -1, 0
        else:
            bucket[sat] ^= vbit
            snap = bucket[:]
            rest = uncolored ^ vbit
            nbrs = adj[v] & rest
            c = -1
        # try v's next color; once v has none, the parent's snapshot undoes it
        while True:
            if c >= 0:
                near[c] = old
                bucket[:] = snap
            c += 1
            while c < top and near[c] & vbit:
                c += 1
            if c == top:
                if not frames:
                    return None
                v, vbit, sat, rest, nbrs, used, c, old, top, snap = frames.pop()
                continue
            spend()
            if counter.nodes == probe_at:
                found = _contraction_probes(adj, active, m, sample)
                if found is not None:
                    return found
            colors[v] = c
            old = near[c]
            near[c] = old | nbrs
            moving = nbrs & ~old  # each one gains color c: up one bucket
            s = sat
            while moving:
                up = moving & bucket[s]
                if up:
                    bucket[s] ^= up
                    bucket[s + 1] |= up
                    moving ^= up
                s -= 1
            # a neighbour left with no color fails the subtree at no node
            if not bucket[m]:
                frames.append((v, vbit, sat, rest, nbrs, used, c, old, top, snap))
                uncolored = rest
                used = used if c < used else c + 1
                break
    return colors


def chromatic_number(graph: Graph, budget: Budget | None = None) -> ColoringResult:
    """Exact chi(G) with a proper coloring; bracketing bounds on timeout.

    Without a ``budget`` the search runs until chi is certified: on the
    KG(14,4) sample at p = 0.5 and seed 1 that took over two minutes on a
    2-vCPU VM, where ``Budget(max_nodes=3000)`` stops in under a second.
    """
    if graph.num_vertices == 0:
        raise ValueError("empty graph")
    return _chromatic(graph, _Counter(budget))


def _chromatic(graph: Graph, counter: _Counter) -> ColoringResult:
    nv = graph.num_vertices
    active = (1 << nv) - 1
    clique, best, lower, upper = [0], [0] * nv, 1, 1
    status = EXACT

    if any(graph.adj):
        classes = _degree_classes(graph.adj, active)
        best, upper = _dsatur_greedy(graph.adj, active, classes)
        if upper > graph.n - 2 * graph.k + 1 >= 2:
            colors, used = _lovasz_fold(graph)
            if used < upper:
                best, upper = colors, used
        try:
            # a clique's members are pairwise disjoint k-sets of [n]
            clique = _max_clique_exact(
                graph.adj, active, counter, graph.n // graph.k, classes
            )
        except _OutOfBudget:  # keep the upper bound, take a greedy clique
            clique = sorted(_greedy_clique(graph.adj, active, classes))
            status = TIMEOUT if len(clique) < upper else EXACT
        lower = max(2, len(clique))
        # try one color fewer than the best coloring until that fails or the
        # clique bound is met
        while status == EXACT and upper > lower:
            try:
                m = upper - 1
                sample = graph if m == graph.n - 2 * graph.k + 1 else None
                found = _decide_colorable(graph.adj, m, active, counter, clique, sample)
            except _OutOfBudget:
                status = TIMEOUT
                break
            if found is None:
                break
            best, upper = found, max(found) + 1

    return ColoringResult(
        chi=upper,
        coloring=tuple(best),
        clique=tuple(clique),
        nodes_explored=counter.nodes,
        status=status,
        lower=upper if status == EXACT else lower,
        upper=upper,
    )


def vertex_critical(graph: Graph, budget: Budget | None = None) -> bool | None:
    """True iff removing any single vertex lowers the chromatic number.

    Returns None (indeterminate) if the budget runs out before a verdict.  The
    chi solve and the per-vertex refutations spend one budget; without one
    the call runs to a verdict, as long as ``chromatic_number``'s can.
    """
    nv = graph.num_vertices
    if nv == 0:
        raise ValueError("empty graph")
    if nv == 1:
        return True
    counter = _Counter(budget)
    res = _chromatic(graph, counter)
    if res.status != EXACT:
        return None
    chi = res.chi
    if chi == 1:
        return False
    for v in range(nv):
        try:
            attempt = _decide_colorable(
                graph.adj, chi - 1, ((1 << nv) - 1) ^ (1 << v), counter, res.clique
            )
        except _OutOfBudget:
            return None
        if attempt is None:
            return False
    return True
