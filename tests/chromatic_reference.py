"""Reference copy of the exact solver before the bucketed DSATUR search.

Verbatim apart from its imports, and without the helpers that the
differential tests do not use.  The solver wraps a DSATUR-ordered
branch-and-bound m-colorability decision: greedy DSATUR gives the upper
bound, a clique the lower one, and the answer is certified by exhausting the
(chi-1)-color search tree.  All tie-breaks are fixed (saturation desc, then
static kernel degree desc, then lowest index).
"""

from __future__ import annotations

import sys
import time

from kneser_chroma.chromatic import Budget, ColoringResult
from kneser_chroma.graphs import Graph
from kneser_chroma.setfam import iter_bits

EXACT = "exact"
TIMEOUT = "timeout"


class _OutOfBudget(Exception):
    pass


class _Counter:
    __slots__ = ("nodes", "max_nodes", "deadline")

    def __init__(self, budget: Budget | None):
        self.nodes = 0
        self.max_nodes = budget.max_nodes if budget else None
        self.deadline = None
        if budget and budget.max_ms is not None:
            self.deadline = time.monotonic() + budget.max_ms / 1000.0

    def spend(self, amount: int = 1) -> None:
        self.nodes += amount
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _OutOfBudget
        if self.deadline is not None and self.nodes % 1024 == 0:
            if time.monotonic() > self.deadline:
                raise _OutOfBudget


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


def _dsatur_greedy(adj: tuple[int, ...], active: int) -> tuple[list[int], int]:
    """Greedy DSATUR coloring of the active vertices; returns (colors, used)."""
    n_bits = active.bit_length()
    colors = [-1] * n_bits
    ncm = [0] * n_bits
    degs = [(adj[v] & active).bit_count() for v in range(n_bits)]
    uncolored = active
    used = 0
    while uncolored:
        best_v, best_key = -1, None
        for v in iter_bits(uncolored):
            key = (ncm[v].bit_count(), degs[v], -v)
            if best_key is None or key > best_key:
                best_v, best_key = v, key
        c = 0
        while ncm[best_v] >> c & 1:
            c += 1
        colors[best_v] = c
        used = max(used, c + 1)
        uncolored ^= 1 << best_v
        for u in iter_bits(adj[best_v] & uncolored):
            ncm[u] |= 1 << c
    return colors, used


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


def _decide_colorable(
    adj: tuple[int, ...],
    m: int,
    active: int,
    counter: _Counter,
) -> list[int] | None:
    """Coloring of the active vertices with m colors, or None if impossible.

    Raises _OutOfBudget when the node budget runs out before a verdict.
    """
    if active == 0:
        return []
    if m <= 0:
        return None
    n_bits = active.bit_length()
    kernel, removed = _kernelize(adj, active, m)
    colors = [-1] * n_bits

    if kernel:
        degs = [(adj[v] & kernel).bit_count() for v in range(n_bits)]
        clique = _greedy_clique(adj, kernel)
        if len(clique) > m:
            return None
        ncm = [0] * n_bits
        uncolored = kernel
        for i, v in enumerate(clique):
            colors[v] = i
            uncolored ^= 1 << v
            bit = 1 << i
            for u in iter_bits(adj[v] & kernel):
                ncm[u] |= bit
        used0 = len(clique)

        spend = counter.spend

        def dfs(uncolored: int, used: int) -> bool:
            if uncolored == 0:
                return True
            # DSATUR pick: saturation desc, degree desc, lowest index
            best_v = -1
            best_sat = -1
            best_deg = -1
            um = uncolored
            while um:
                low = um & -um
                v = low.bit_length() - 1
                um ^= low
                sat = ncm[v].bit_count()
                if sat > best_sat or (
                    sat == best_sat and degs[v] > best_deg
                ):
                    best_v, best_sat, best_deg = v, sat, degs[v]
            v = best_v
            limit = used + 1 if used < m else m
            allowed = ~ncm[v] & ((1 << limit) - 1)
            rest = uncolored ^ (1 << v)
            while allowed:
                low = allowed & -allowed
                c = low.bit_length() - 1
                allowed ^= low
                spend()
                colors[v] = c
                touched = 0
                nb = adj[v] & rest
                while nb:
                    nlow = nb & -nb
                    u = nlow.bit_length() - 1
                    nb ^= nlow
                    if not ncm[u] >> c & 1:
                        ncm[u] |= 1 << c
                        touched |= nlow
                if dfs(rest, used if c < used else c + 1):
                    return True
                colors[v] = -1
                while touched:
                    nlow = touched & -touched
                    u = nlow.bit_length() - 1
                    touched ^= nlow
                    ncm[u] ^= 1 << c
            return False

        if uncolored and not dfs(uncolored, used0):
            return None

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
    """Exact chi(G) with a proper coloring; bracketing bounds on timeout."""
    nv = graph.num_vertices
    if nv == 0:
        raise ValueError("empty graph")
    if sys.getrecursionlimit() < 4 * nv + 1000:
        sys.setrecursionlimit(4 * nv + 1000)
    active = (1 << nv) - 1
    counter = _Counter(budget)
    clique, best, lower, upper = [0], [0] * nv, 1, 1
    status = EXACT

    if graph.num_edges:
        clique = _clique(graph.adj, active, counter)
        lower = max(2, len(clique))
        best, upper = _dsatur_greedy(graph.adj, active)
        # refute one color fewer until that fails or reaches lower - 1
        for m in range(upper - 1, lower - 2, -1):
            try:
                attempt = _decide_colorable(graph.adj, m, active, counter)
            except _OutOfBudget:
                status = TIMEOUT
                break
            if attempt is None:
                break
            best, upper = attempt, m

    return ColoringResult(
        chi=upper,
        coloring=tuple(best),
        clique=tuple(clique),
        nodes_explored=counter.nodes,
        status=status,
        lower=upper if status == EXACT else lower,
        upper=upper,
    )
