"""Exact chromatic number, clique/independence bounds, vertex criticality.

The solver wraps a DSATUR-ordered branch-and-bound m-colorability decision:
greedy DSATUR gives the upper bound, a clique the lower one, and the answer
is certified by exhausting the (chi-1)-color search tree.  All tie-breaks
are fixed, so results are deterministic under node budgets: the search picks
by saturation desc, then uncolored degree desc, then lowest index (Brelaz
1979); the greedy upper bound by saturation, then static degree, then index.
Both keep the uncolored vertices in per-saturation bitset buckets and scan
only the top one.

Near p = 1 the search's long calls are mostly *finds*: the chi-coloring
exists, greedy misses it, and the DFS wanders before it lands on one.  So
once one decide(m) search has spent TABU_AFTER nodes, it runs a single
TabuCol pass (Hertz and de Werra 1987, tenure of Galinier and Hao 1999) of
at most TABU_MOVES moves on its kernel.  A coloring it finds is checked edge
by edge and ends the call; a failed pass returns into the DFS where it
stopped, so the DFS visits the same nodes in the same order as without it.
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
"""

from __future__ import annotations

import sys
import time
from collections import namedtuple
from contextlib import contextmanager

from .graphs import Graph
from .seeds import mix64
from .setfam import iter_bits

EXACT = "exact"
TIMEOUT = "timeout"
# one TabuCol pass of at most TABU_MOVES moves, once a decide(m) search has
# spent TABU_AFTER nodes; see the module docstring
TABU_AFTER = 500
TABU_MOVES = 200


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


class _Colored(Exception):
    """Carries a checked coloring out of the search that it cuts short."""

    def __init__(self, colors: list[int]):
        self.colors = colors


_NEVER = 1 << 62


class _Counter:
    """Search nodes against the budget.

    ``spend`` compares the count with one limit: the first count at which
    something is due, that is the node budget, a deadline check every 1024
    nodes, or an armed rescue.  ``_due`` sorts out which.
    """

    __slots__ = ("nodes", "max_nodes", "deadline", "rescue", "rescue_at", "limit")

    def __init__(self, budget: Budget | None):
        self.nodes = 0
        self.max_nodes = budget.max_nodes if budget else None
        self.deadline = None
        if budget and budget.max_ms is not None:
            self.deadline = time.monotonic() + budget.max_ms / 1000.0
        self.disarm()

    def spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            self._due()

    def arm(self, rescue, after: int) -> None:
        """Call ``rescue()`` once, when ``after`` more nodes have been spent."""
        self.rescue, self.rescue_at = rescue, self.nodes + after - 1
        self._relimit()

    def disarm(self) -> None:
        self.rescue = self.rescue_at = None
        self._relimit()

    def _relimit(self) -> None:
        due = [x for x in (self.max_nodes, self.rescue_at) if x is not None]
        if self.deadline is not None:
            due.append(self.nodes | 1023)  # the next multiple of 1024, less one
        self.limit = min(due, default=_NEVER)

    def _due(self) -> None:
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _OutOfBudget
        if self.deadline is not None and self.nodes % 1024 == 0:
            if time.monotonic() > self.deadline:
                raise _OutOfBudget
        if self.rescue_at is not None and self.nodes > self.rescue_at:
            rescue = self.rescue
            self.disarm()
            rescue()
        self._relimit()


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
    adj: tuple[int, ...], active: int, counter: _Counter
) -> list[int]:
    """Branch-and-bound maximum clique with a greedy-coloring bound."""
    best = _greedy_clique(adj, active)
    stack: list[int] = []

    def expand(p: int) -> None:
        nonlocal best
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
        cur = p
        for v, c in reversed(seq):
            if len(stack) + c <= len(best):
                return
            counter.spend()
            stack.append(v)
            nxt = cur & adj[v]
            if nxt:
                expand(nxt)
            elif len(stack) > len(best):
                best = stack[:]
            stack.pop()
            cur &= ~(1 << v)

    if active:
        expand(active)
    return sorted(best)


def _clique(adj: tuple[int, ...], active: int, counter: _Counter) -> list[int]:
    """Maximum clique up to 64 vertices; greedy beyond or once the budget runs out."""
    if active.bit_length() <= 64:
        try:
            return _max_clique_exact(adj, active, counter)
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
    """Exact alpha(G): a maximum clique of the complement."""
    m = graph.num_vertices
    if m == 0:
        raise ValueError("empty graph")
    full = (1 << m) - 1
    comp = tuple(~graph.adj[u] & full & ~(1 << u) for u in range(m))
    counter = _Counter(None)
    best = _max_clique_exact(comp, full, counter)
    return IndependentSetResult(len(best), tuple(sorted(best)), EXACT, counter.nodes)


def _dsatur_greedy(adj: tuple[int, ...], active: int) -> tuple[list[int], int]:
    """Greedy DSATUR coloring of the active vertices; returns (colors, used).

    Picks by (saturation desc, static degree desc, lowest index), scanning
    only the top saturation bucket.
    """
    n_bits = active.bit_length()
    colors = [-1] * n_bits
    degs = [(adj[v] & active).bit_count() for v in range(n_bits)]
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
    """TabuCol: a proper m-coloring of the kernel, or None after ``moves``.

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


def _decide_colorable(
    adj: tuple[int, ...],
    m: int,
    active: int,
    counter: _Counter,
) -> list[int] | None:
    """Coloring of the active vertices with m colors, or None if impossible.

    Needs m >= 1 and at least one active vertex: ``chromatic_number`` asks
    for m >= lower >= 2, and ``vertex_critical`` for chi - 1 >= 1 with one
    of its two or more vertices left out.  Raises _OutOfBudget when the
    node budget runs out before a verdict.
    """
    n_bits = active.bit_length()
    kernel, removed = _kernelize(adj, active, m)
    colors = [-1] * n_bits

    if kernel:
        clique = _greedy_clique(adj, kernel)
        if len(clique) > m:
            return None
        # near[c]: kernel vertices with a neighbour colored c
        near = [0] * m
        uncolored = kernel
        for i, v in enumerate(clique):
            colors[v] = i
            uncolored ^= 1 << v
            near[i] = adj[v] & kernel
        used0 = len(clique)
        # bucket[s]: uncolored kernel vertices with saturation s (s <= m); the
        # clique's colors are distinct, so saturation counts clique neighbours
        bucket = [0] * (m + 1)
        for u in iter_bits(uncolored):
            bucket[(adj[u] & (kernel ^ uncolored)).bit_count()] |= 1 << u

        spend = counter.spend

        def rescue() -> None:
            found = _tabu_coloring(adj, kernel, m, TABU_MOVES)
            if found is not None:
                raise _Colored(found + [-1] * (n_bits - len(found)))

        def dfs(uncolored: int, used: int) -> bool:
            if uncolored == 0:
                return True
            # DSATUR pick: saturation desc, uncolored degree desc, lowest index
            sat = m
            while not bucket[sat]:
                sat -= 1
            cand = bucket[sat]
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
            bucket[sat] ^= vbit
            rest = uncolored ^ vbit
            nbrs = adj[v] & rest
            for c in range(used + 1 if used < m else m):
                if near[c] & vbit:
                    continue
                spend()
                colors[v] = c
                touched = nbrs & ~near[c]
                near[c] |= touched
                moving = touched  # each one gains color c: up one bucket
                s = sat
                while moving:
                    up = moving & bucket[s]
                    if up:
                        bucket[s] ^= up
                        bucket[s + 1] |= up
                        moving ^= up
                    s -= 1
                # a neighbour left with no color fails the subtree at no node
                if not bucket[m] and dfs(rest, used if c < used else c + 1):
                    return True
                colors[v] = -1
                near[c] ^= touched
                s = 1
                while touched:
                    down = touched & bucket[s]
                    if down:
                        bucket[s] ^= down
                        bucket[s - 1] |= down
                        touched ^= down
                    s += 1
            bucket[sat] |= vbit
            return False

        counter.arm(rescue, TABU_AFTER)
        try:
            if uncolored and not dfs(uncolored, used0):
                return None
        except _Colored as done:
            colors = done.colors
        finally:
            counter.disarm()

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


@contextmanager
def _recursion_room(nv: int):
    """Room for a search one frame deep per vertex; the old limit comes back."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 4 * nv + 1000))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def chromatic_number(graph: Graph, budget: Budget | None = None) -> ColoringResult:
    """Exact chi(G) with a proper coloring; bracketing bounds on timeout."""
    if graph.num_vertices == 0:
        raise ValueError("empty graph")
    return _chromatic(graph, _Counter(budget))


def _chromatic(graph: Graph, counter: _Counter) -> ColoringResult:
    nv = graph.num_vertices
    active = (1 << nv) - 1
    clique, best, lower, upper = [0], [0] * nv, 1, 1
    status = EXACT

    if graph.num_edges:
        with _recursion_room(nv):
            clique = _clique(graph.adj, active, counter)
            lower = max(2, len(clique))
            best, upper = _dsatur_greedy(graph.adj, active)
            # try one color fewer than the best coloring until that fails or
            # the clique bound is met
            while upper > lower:
                try:
                    attempt = _decide_colorable(graph.adj, upper - 1, active, counter)
                except _OutOfBudget:
                    status = TIMEOUT
                    break
                if attempt is None:
                    break
                best, upper = attempt, max(attempt) + 1

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
    chi solve and the per-vertex refutations spend one budget.
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
    with _recursion_room(nv):
        for v in range(nv):
            try:
                attempt = _decide_colorable(
                    graph.adj, chi - 1, ((1 << nv) - 1) ^ (1 << v), counter
                )
            except _OutOfBudget:
                return None
            if attempt is None:
                return False
    return True
