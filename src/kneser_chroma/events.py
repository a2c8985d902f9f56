"""Event A of the paper, checked exhaustively on one sampled Schrijver graph."""

from __future__ import annotations

from collections import namedtuple
from itertools import islice

from .bounds import derived_params
from .errors import CapacityError
from .gale import WitnessSearch, build_embedding, partition_to_json_dict
from .graphs import build_schrijver, sample_subgraph
from .setfam import iter_bits

# the largest side, pigeonhole size and node count the exhaustive search
# takes on
MAX_SIDE = 128
MAX_T = 8
MAX_NODES = 10**7


EventAReport = namedtuple(
    "EventAReport",
    "holds partitions_examined partition m_plus m_minus",
    defaults=[None, (), ()],
)


def event_a_oracle(n: int, k: int, ell: int, p: float, seed: int) -> EventAReport:
    """Exhaustive search for event A over the full cells of the arrangement.

    A holds iff some direction has families M+ and M- of stable k-subsets
    strictly inside its two open sides, each of the fixed size
    t = ceil(C(k+ell, k) / d), with no sampled edge between them.  A boundary
    face's open sides only grow into those of an adjacent full cell, so it
    is enough to walk the full cells, the first faces of the witness
    search's stream, and read their sides from its census: its stables are
    SG(n, k)'s vertices in the same colex order.  M+ is grown in colex order
    with partial cross-edge pruning.
    """
    _, t = derived_params(n, k, ell)
    if t > MAX_T:
        raise CapacityError(f"instance too large for event-A oracle (t={t} > {MAX_T})")
    search = WitnessSearch(build_embedding(n, k + ell), k)
    adj = sample_subgraph(build_schrijver(n, k), p, seed).adj
    nodes = examined = 0
    for i, cell in enumerate(search.faceset):
        if cell.zero_mask:
            break
        examined += 1
        pos, neg, _, _ = search.census_of(i)
        sp = list(iter_bits(pos))
        if max(len(sp), neg.bit_count()) > MAX_SIDE:
            raise CapacityError(
                "instance too large for event-A oracle "
                f"(sides {len(sp)}/{neg.bit_count()})"
            )

        def grow(chosen: tuple[int, ...], cap: int, allowed: int):
            """(M+, the M- candidates left) extending ``chosen``, or None."""
            nonlocal nodes
            if len(chosen) == t:
                return chosen, allowed
            for top in range(t - len(chosen) - 1, cap):
                nodes += 1
                if nodes > MAX_NODES:
                    raise CapacityError(
                        f"event-A search exceeded the node cap ({MAX_NODES}); "
                        "instance too large"
                    )
                nxt = allowed & ~adj[sp[top]]
                if nxt.bit_count() >= t:
                    found = grow((sp[top], *chosen), top, nxt)
                    if found:
                        return found
            return None

        found = grow((), len(sp), neg)
        if found:
            m_plus, allowed = found
            m_minus = tuple(islice(iter_bits(allowed), t))
            return EventAReport(True, examined, cell, m_plus, m_minus)
    return EventAReport(holds=False, partitions_examined=examined)


def event_a_json_dict(report: EventAReport) -> dict:
    witness = None
    if report.holds:
        witness = {
            "partition": partition_to_json_dict(report.partition),
            "m_plus": list(report.m_plus),
            "m_minus": list(report.m_minus),
        }
    return {
        "holds": report.holds,
        "partitions_examined": report.partitions_examined,
        "witness": witness,
    }
