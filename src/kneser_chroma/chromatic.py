"""Exact chromatic number, clique/independence bounds, vertex criticality.

The solver wraps a DSATUR-ordered branch-and-bound m-colorability decision:
greedy DSATUR gives the upper bound, a clique the lower one, and the answer
is certified by exhausting the (chi-1)-color search tree.  Each decide(m)
search first colors the solve's clique inside its kernel, as Brelaz's exact
DSATUR does (1979): a greedy clique of the kernel had 2 members, not 3, in
841 of 1,797 bench decide(4) calls.  All tie-breaks are fixed, so results
are deterministic under node budgets: the search picks a forced vertex, one
with a single color left, by lowest index, and any other by saturation desc,
then uncolored degree desc, then lowest index; the greedy upper bound by
saturation, then static degree, then index.  Both keep the uncolored
vertices in per-saturation bitset buckets and scan only the top one.

With m colors the forced vertices are bucket[m-1].  (1) While it is
non-empty it is the top bucket (a vertex with no color left fails the chain
first), so the degree pick too colors every forced vertex before it
branches.  (2) A color not yet used lies in no near[c], so a forced
vertex's color always passes the used + 1 rule.  (3) Coloring forced
vertices is unit propagation, which reaches the same fixed point, or a
conflict, in any order.  So the index pick keeps the branch points, every
verdict and the first coloring found, and a forced neighbour left with the
same one color fails the chain before it spends a node.  (4) Only the node
counts of failing chains move, and with them the node at which the TabuCol
rescue and the budget fire.  On coupled SG(10,3) samples 89% of the picks
that refute m = 4 are forced.

Both exact searches, the coloring DFS and the clique branch-and-bound, are
loops over an explicit list of frames, one per vertex on the current path,
so neither recurses nor touches the interpreter's recursion limit.  A
coloring frame keeps the buckets as its vertex left them and near[c] before
its color c, and undoes the color by restoring the two.

Near p = 1 the search's long calls are mostly *finds*: the chi-coloring
exists, greedy misses it, and the DFS wanders before it lands on one.  So
at the node TABU_AFTER past the start of one decide(m) search, the loop
runs a single TabuCol pass (Hertz and de Werra 1987, tenure of Galinier and
Hao 1999) of at most TABU_MOVES moves on its kernel.  A coloring it finds
is checked edge by edge and ends the loop; after a failed pass the loop
resumes where it stopped, so the DFS visits the same nodes in the same
order as without it.
Moves are not search nodes and are not charged to ``Budget.max_nodes``: a
pass can only end a search early, so every later search starts with at
least the budget it had without the pass, a row exact without it stays
exact with the same chi, and a timeout can only turn exact.  The two
constants bound the cost.  On coupled SG(10,3) samples at p = 0.9/0.97, 95%
of the decide(m) calls end within 500 nodes and never pay for a pass.  A
move costs about two nodes' time, so a pass costs at most about 400 nodes';
200 moves find about two thirds of the colorings that the calls it fires
in look for.  The same pass run before every search was a net loss: it
burns its moves where greedy is already tight.

Two facts about the family's graphs guide the search.  A clique is a set of
pairwise disjoint k-sets of [n], so none has more than n // k members, and
the exact clique search stops at that size: it returns the same clique, as
it only ever replaces its best by a larger one.  And chi(KG(n,k)) =
chi(SG(n,k)) = n-2k+2 (Lovasz 1978, Schrijver 1978), so every
(n-2k+1)-coloring of a sample makes a dropped parent edge uv monochromatic,
and it colors the contraction G/{u,v}.  Near p = 1 chi is mostly n-2k+1,
whose call must find.  So at m = n-2k+1 a failed pass goes on to probe
G/{u,v} for each dropped edge inside the kernel: greedy DSATUR, then at most
PROBE_MOVES TabuCol moves.  A hit gives v the color of u, is checked and
ends the call as the pass's does.  The parent rows are derived only there.
A sample that dropped more than PROBE_EDGES edges gets no probe: SG(10,3)
at p = 0.97 drops 4-25 of its 425, KG(14,4) at p = 0.5 about 52,000, whose
probes took 90 s.  On coupled SG(10,3) samples 33 of 36 probing calls hit;
50 moves a probe, a quarter of a pass, left 593-625 nodes per bench op on
three seeds against 632-675 for DSATUR alone, and 48 edges changed nothing;
the clique seed then took them to 553-574.
"""

from __future__ import annotations

import time
from collections import namedtuple
from itertools import islice

from .graphs import Graph, _disjointness_adjacency
from .seeds import mix64
from .setfam import iter_bits

EXACT = "exact"
TIMEOUT = "timeout"
# the TabuCol pass and the contraction probes; see the module docstring
TABU_AFTER = 500
TABU_MOVES = 200
PROBE_EDGES = 24
PROBE_MOVES = 50


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


def _greedy_clique(adj: tuple[int, ...], active: int) -> list[int]:
    """Deterministic maximal clique: grow in (degree desc, index asc) order."""
    verts = sorted(
        iter_bits(active), key=lambda v: (-(adj[v] & active).bit_count(), v)
    )
    clique: list[int] = []
    cmask = 0
    for v in verts:
        if cmask & ~adj[v] == 0:
            clique.append(v)
            cmask |= 1 << v
    return clique


def _max_clique_exact(
    adj: tuple[int, ...], active: int, counter: _Counter, cap: int = _NEVER
) -> list[int]:
    """Branch-and-bound maximum clique with a greedy-coloring bound, up to ``cap``."""
    best = _greedy_clique(adj, active)
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


def _clique(
    adj: tuple[int, ...], active: int, counter: _Counter, cap: int = _NEVER
) -> list[int]:
    """Maximum clique up to 64 vertices; greedy beyond or once the budget runs out."""
    if active.bit_length() <= 64:
        try:
            return _max_clique_exact(adj, active, counter, cap)
        except _OutOfBudget:
            pass
    return sorted(_greedy_clique(adj, active))


def clique_lower(graph: Graph) -> int:
    """Size of a clique found: exact for <= 64 vertices, greedy beyond."""
    m = graph.num_vertices
    if m == 0:
        raise ValueError("empty graph")
    return len(_clique(graph.adj, (1 << m) - 1, _Counter(None)))


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


def _dsatur_greedy(adj: tuple[int, ...], active: int) -> tuple[list[int], int]:
    """Greedy DSATUR coloring of the active vertices; returns (colors, used).

    Picks by (saturation desc, static degree desc, lowest index), scanning
    only the top saturation bucket.
    """
    colors = [-1] * len(adj)
    degs = [(row & active).bit_count() for row in adj]
    near: list[int] = []  # near[c]: vertices with a neighbour colored c
    bucket = [active]  # bucket[s]: uncolored vertices with saturation s
    uncolored = active
    while uncolored:
        while not bucket[-1]:
            bucket.pop()
        best_v, best_deg = -1, -1
        for v in iter_bits(bucket[-1]):
            if degs[v] > best_deg:
                best_v, best_deg = v, degs[v]
        bit = 1 << best_v
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


def _kernelize(adj: tuple[int, ...], active: int, m: int) -> tuple[int, list[int]]:
    """Strip vertices with active degree < m; they are always colorable last."""
    removed: list[int] = []
    changed = True
    while changed:
        changed = False
        for v in iter_bits(active):
            if (adj[v] & active).bit_count() < m:
                active ^= 1 << v
                removed.append(v)
                changed = True
    return active, removed


def _tabu_coloring(
    adj: tuple[int, ...], kernel: int, m: int, moves: int
) -> list[int] | None:
    """TabuCol: a proper m-coloring of the kernel (-1 off it), or None after ``moves``.

    Starts from greedy DSATUR with each color >= m moved, in index order, to
    its least-conflict color.  A move recolors a conflicting vertex to the
    color that lowers the conflicting edges most; taking its old color back
    is tabu for 0.6 * (conflicting vertices) + r moves, r in 0..9, unless
    that beats the best count so far.  r and the pick among equal moves come
    from one mix64 draw per move, keyed on (kernel, m).
    """
    colors, _ = _dsatur_greedy(adj, kernel)
    verts = list(iter_bits(kernel))
    cls = [0] * m  # cls[c]: kernel vertices colored c
    for v in verts:
        if colors[v] < m:
            cls[colors[v]] |= 1 << v
    for v in verts:
        if colors[v] >= m:
            row = adj[v]
            c = min(range(m), key=lambda c: (row & cls[c]).bit_count())
            colors[v] = c
            cls[c] |= 1 << v
    bad = 0  # vertices with a neighbour of their own color
    conflicts = 0
    for v in verts:
        own = (adj[v] & cls[colors[v]]).bit_count()
        if own:
            bad |= 1 << v
            conflicts += own
    conflicts //= 2
    best = conflicts
    key = mix64(m)
    for word in range(0, kernel.bit_length(), 64):
        key = mix64(key ^ kernel >> word)  # mix64 reads the low 64 bits
    tabu = [0] * (len(colors) * m)  # tabu[v*m + c]: first move v may take c
    for it in range(moves):
        if not conflicts:
            break
        best_d = _NEVER
        picks: list[tuple[int, int]] = []
        cand = bad
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            row = adj[v]
            cv = colors[v]
            own = (row & cls[cv]).bit_count()
            for c in range(m):
                if c == cv:
                    continue
                d = (row & cls[c]).bit_count() - own
                if d > best_d or (tabu[v * m + c] > it and conflicts + d >= best):
                    continue
                if d < best_d:
                    best_d, picks = d, [(v, c)]
                else:
                    picks.append((v, c))
        if not picks:  # every move tabu: wait for one to expire
            continue
        draw = mix64(key ^ it)
        v, c = picks[draw % len(picks)]
        a = colors[v]
        vbit = 1 << v
        cls[a] ^= vbit
        cls[c] |= vbit
        colors[v] = c
        conflicts += best_d
        best = min(best, conflicts)
        touched = adj[v] & (cls[a] | cls[c]) | vbit
        while touched:
            low = touched & -touched
            u = low.bit_length() - 1
            touched ^= low
            if adj[u] & cls[colors[u]]:
                bad |= low
            else:
                bad &= ~low
        tabu[v * m + a] = it + 1 + (bad.bit_count() * 3) // 5 + (draw >> 32) % 10
    if conflicts:
        return None
    for v in verts:  # check edge by edge, apart from the bookkeeping above
        c = colors[v]
        if not 0 <= c < m or any(colors[u] == c for u in iter_bits(adj[v] & kernel)):
            return None
    return colors


def _contraction_probes(
    adj: tuple[int, ...], kernel: int, m: int, sample: Graph
) -> list[int] | None:
    """An m-coloring of the kernel from G/{u,v} for a dropped parent edge uv.

    None if more than PROBE_EDGES parent edges inside the kernel are
    missing from ``adj``, or if no probe finds one.
    """
    parent = _disjointness_adjacency(sample.vertices, sample.n)
    dropped = list(islice(
        ((u, v) for u in iter_bits(kernel)
         for v in iter_bits((parent[u] & ~adj[u] & kernel) >> u + 1 << u + 1)),
        PROBE_EDGES + 1,
    ))
    if len(dropped) > PROBE_EDGES:
        return None
    for u, v in dropped:
        vbit, ubit = 1 << v, 1 << u
        merged = [row | ubit if row & vbit else row for row in adj]
        merged[u] = adj[u] | adj[v]
        colors = _tabu_coloring(merged, kernel ^ vbit, m, PROBE_MOVES)
        if colors is None:
            continue
        colors[v] = colors[u]
        if all(colors[w] != colors[x] for w in iter_bits(kernel)
               for x in iter_bits(adj[w] & kernel)):
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
    a failed TabuCol pass goes on to the contraction probes.
    """
    kernel, removed = _kernelize(adj, active, m)
    colors = [-1] * len(adj)

    if kernel:
        clique = [v for v in clique if kernel >> v & 1]
        if len(clique) > m:
            return None
        # near[c]: kernel vertices with a neighbour colored c
        near = [0] * m
        uncolored = kernel
        for i, v in enumerate(clique):
            colors[v] = i
            uncolored ^= 1 << v
            near[i] = adj[v] & kernel
        used = len(clique)
        # bucket[s]: uncolored kernel vertices with saturation s (s <= m); the
        # clique's colors are distinct, so saturation counts clique neighbours
        bucket = [0] * (m + 1)
        for u in iter_bits(uncolored):
            bucket[(adj[u] & (kernel ^ uncolored)).bit_count()] |= 1 << u

        spend = counter.spend
        rescue_at = counter.nodes + TABU_AFTER
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
            if sat == m - 1:
                # forced: lowest index; a forced neighbour with its color fails
                vbit = cand & -cand
                v = vbit.bit_length() - 1
                c = 0
                while near[c] & vbit:
                    c += 1
                conflict = adj[v] & cand & ~near[c]
            else:
                # DSATUR pick: saturation desc, uncolored degree desc, lowest index
                best_v = -1
                best_deg = -1
                while cand:
                    low = cand & -cand
                    v = low.bit_length() - 1
                    cand ^= low
                    deg = (adj[v] & uncolored).bit_count()
                    if deg > best_deg:
                        best_v, best_deg = v, deg
                v = best_v
                vbit = 1 << v
            if conflict:  # try no color: back into the parent's next one, at no node
                c, top = -1, 0
            else:
                bucket[sat] ^= vbit
                snap = bucket[:]
                rest = uncolored ^ vbit
                nbrs = adj[v] & rest
                top = used + 1 if used < m else m
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
                if counter.nodes == rescue_at:
                    found = _tabu_coloring(adj, kernel, m, TABU_MOVES)
                    if found is None and sample is not None:
                        found = _contraction_probes(adj, kernel, m, sample)
                    if found is not None:
                        colors = found
                        uncolored = 0
                        break
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

    # reinsert kernel-stripped vertices; a free color always exists for them
    seen = kernel
    for v in reversed(removed):
        forbidden = 0
        for u in iter_bits(adj[v] & seen):
            if colors[u] >= 0:
                forbidden |= 1 << colors[u]
        c = 0
        while forbidden >> c & 1:
            c += 1
        colors[v] = c
        seen |= 1 << v
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

    if graph.num_edges:
        # a clique's members are pairwise disjoint k-sets of [n]
        clique = _clique(graph.adj, active, counter, graph.n // graph.k)
        lower = max(2, len(clique))
        best, upper = _dsatur_greedy(graph.adj, active)
        # try one color fewer than the best coloring until that fails or the
        # clique bound is met
        while upper > lower:
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
