"""Event A of the paper, checked exhaustively on one sampled Schrijver graph."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .bounds import derived_params
from .errors import CapacityError
from .gale import (
    HemispherePartition,
    build_embedding,
    canonical_hemispheres,
    partition_to_json_dict,
)
from .graphs import build_schrijver, sample_subgraph
from .setfam import SubsetIndex, iter_bits

# the largest side and pigeonhole size the exhaustive search takes on
MAX_SIDE = 128
MAX_T = 8


@dataclass(frozen=True)
class EventAReport:
    holds: bool
    partitions_examined: int
    partition: HemispherePartition | None = None
    m_plus: tuple[int, ...] = ()
    m_minus: tuple[int, ...] = ()


def event_a_oracle(
    n: int,
    k: int,
    ell: int,
    p: float,
    seed: int,
    max_nodes: int = 10**7,
) -> EventAReport:
    """Exhaustive cross-independent-set search over canonical partitions.

    Holds iff some canonical great-sphere partition admits M+ and M- of the
    pigeonhole sizes t(S+), t(S-) drawn from the stable k-subsets strictly
    inside each side, with no sampled edge between them.  M+ candidates are
    enumerated in colex order with partial cross-edge pruning; both sides are
    bitsets over the sampled graph's vertex indices.
    """
    d, _ = derived_params(n, k, ell)
    emb = build_embedding(n, k + ell)
    sampled = sample_subgraph(build_schrijver(n, k), p, seed)
    index = SubsetIndex([v.mask for v in sampled.vertices], n)
    nodes = 0
    examined = 0

    for part in canonical_hemispheres(emb):
        examined += 1
        sp = list(iter_bits(index.within(part.plus_mask)))
        sm = index.within(part.minus_mask)
        t_p = -(-len(sp) // d)
        t_m = -(-sm.bit_count() // d)
        if max(len(sp), sm.bit_count()) > MAX_SIDE or max(t_p, t_m) > MAX_T:
            raise CapacityError(
                f"instance too large for event-A oracle "
                f"(sides {len(sp)}/{sm.bit_count()}, t {t_p}/{t_m})"
            )
        chosen: list[int] = []

        def search(need: int, cap: int, allowed: int) -> int | None:
            """The M- candidates left once M+ is complete, or None."""
            nonlocal nodes
            if need == 0:
                return allowed
            for top in range(need - 1, cap):
                nodes += 1
                if nodes > max_nodes:
                    raise CapacityError(
                        "event-A search exceeded the node cap "
                        f"({max_nodes}); instance too large"
                    )
                nxt = allowed & ~sampled.adj[sp[top]]
                if nxt.bit_count() < t_m:  # every call starts with >= t_m left
                    continue
                chosen.append(sp[top])
                found = search(need - 1, top, nxt)
                if found is not None:
                    return found
                chosen.pop()
            return None

        allowed = search(t_p, len(sp), sm)
        if allowed is not None:
            return EventAReport(
                holds=True,
                partitions_examined=examined,
                partition=part,
                m_plus=tuple(sorted(chosen)),
                m_minus=tuple(islice(iter_bits(allowed), t_m)),
            )
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
