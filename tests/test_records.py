"""Every result record: immutable, picklable and copyable, with the repr and
field order that the report and JSON code rely on."""

import copy
import pickle
from functools import cache

import pytest

from kneser_chroma import bounds, chromatic, events, gale, graphs, setfam

# name: (field order, repr of the sample built below)
RECORDS = {
    "KSubset": (
        ["mask", "n", "k", "rank"],
        "KSubset(mask=9, n=4, k=2, rank=3)",
    ),
    "Provenance": (["p", "seed"], "Provenance(p=0.5, seed=3)"),
    "Graph": (
        ["family", "n", "k", "vertices", "adj", "provenance"],
        "Graph(family='schrijver', n=5, k=2, vertices=("
        "KSubset(mask=5, n=5, k=2, rank=1), KSubset(mask=9, n=5, k=2, rank=3), "
        "KSubset(mask=10, n=5, k=2, rank=4), KSubset(mask=18, n=5, k=2, rank=7), "
        "KSubset(mask=20, n=5, k=2, rank=8)), adj=(0, 0, 16, 0, 4), "
        "provenance=Provenance(p=0.5, seed=3))",
    ),
    "Budget": (["max_nodes", "max_ms"], "Budget(max_nodes=100, max_ms=None)"),
    "ColoringResult": (
        ["chi", "coloring", "clique", "nodes_explored", "status", "lower", "upper"],
        "ColoringResult(chi=3, coloring=(0, 0, 1, 1, 2), clique=(0, 2), "
        "nodes_explored=1, status='exact', lower=3, upper=3)",
    ),
    "IndependentSetResult": (
        ["size", "vertices", "status", "nodes_explored"],
        "IndependentSetResult(size=2, vertices=(0, 1), status='exact', "
        "nodes_explored=1)",
    ),
    "GaleEmbedding": (
        ["n", "s", "d", "signs"],
        "GaleEmbedding(n=5, s=2, d=2, signs=(-1, 1, -1, 1, -1))",
    ),
    "Witness": (
        ["face", "color", "count_pos", "count_neg", "t_pos", "t_neg"],
        "Witness(face=HemispherePartition(signs='---+-+'), color=0, "
        "count_pos=1, count_neg=4, t_pos=1, t_neg=2)",
    ),
    "EventAReport": (
        ["holds", "partitions_examined", "partition", "m_plus", "m_minus"],
        "EventAReport(holds=True, partitions_examined=1, "
        "partition=HemispherePartition(signs='---+-+-+'), m_plus=(9,), m_minus=(0,))",
    ),
    "TheoremParams": (
        ["n", "k", "ell", "p", "eps", "dt"],
        "TheoremParams(n=13, k=2, ell=4, p=1.0, eps=0.1)",
    ),
    "ChainBounds": (
        ["l1", "l2", "l3", "l4", "conclusive"],
        "ChainBounds(l1=-inf, l2=-22.62768535835545, l3=-6.4, "
        "l4=-1.4281959752685427, conclusive=True)",
    ),
    "BestGap": (
        ["ell", "gap", "chi_lower"],
        "BestGap(ell=61481, gap=122962, chi_lower=877036)",
    ),
    "RegimeEntry": (
        ["ell", "d", "t", "rhs", "holds", "conclusion"],
        "RegimeEntry(ell=4, d=2, t=8, rhs=0.6464424162756961, holds=True, "
        "conclusion='chi >= n-2k+2 - 8 (gap <= 8)')",
    ),
    "RegimeReport": (
        ["entries", "certified"],
        "RegimeReport(entries=("
        "RegimeEntry(ell=1, d=8, t=1, rhs=20.4408428360451, holds=False, "
        "conclusion=None), "
        "RegimeEntry(ell=2, d=6, t=1, rhs=19.865478691141536, holds=False, "
        "conclusion=None), "
        "RegimeEntry(ell=4, d=2, t=8, rhs=0.6464424162756961, holds=True, "
        "conclusion='chi >= n-2k+2 - 8 (gap <= 8)')), "
        "certified=('chi >= n-2k+2 - 8 (gap <= 8)',))",
    ),
}


@cache
def samples() -> dict:
    sg = graphs.build_schrijver(5, 2)
    sampled = graphs.sample_subgraph(sg, 0.5, 3)
    search = gale.WitnessSearch(gale.build_embedding(6, 2), 2)
    params = bounds.TheoremParams(13, 2, 4, 1.0, 0.1)
    regime = bounds.corollary_regime_report(13, 2, 1.0, 0.1, (4,))
    return {
        "KSubset": setfam.enumerate_ksubsets(4, 2)[3],
        "Provenance": sampled.provenance,
        "Graph": sampled,
        "Budget": chromatic.Budget(max_nodes=100),
        "ColoringResult": chromatic.chromatic_number(sg),
        "IndependentSetResult": chromatic.max_independent_set(sg),
        "GaleEmbedding": gale.build_embedding(5, 2),
        "Witness": search.find([0] * search.num_stable),
        "EventAReport": events.event_a_oracle(8, 2, 1, 0.01, 3),
        "TheoremParams": params,
        "ChainBounds": bounds.ln_pA_bound(params),
        "BestGap": bounds.best_gap(10**6, 2, 0.5, 0.5),
        "RegimeEntry": regime.entries[2],
        "RegimeReport": regime,
    }


@pytest.mark.parametrize("name", RECORDS)
def test_repr_and_field_order(name):
    fields, want = RECORDS[name]
    record = samples()[name]
    assert type(record).__name__ == name
    assert repr(record) == want
    assert list(record._asdict()) == fields
    assert record == tuple(record)


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_and_copy_round_trip(name):
    record = samples()[name]
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [
        pickle.loads(pickle.dumps(record, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for other in copies:
        assert type(other) is type(record)
        assert other == record
        assert repr(other) == repr(record)


@pytest.mark.parametrize("name", RECORDS)
def test_fields_are_read_only(name):
    record = samples()[name]
    for field in [*record._fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_theorem_params_checks_in_order_and_rebuilds_t():
    # derived_params's checks come first, then p, then eps
    with pytest.raises(ValueError, match="d >= 2"):
        bounds.TheoremParams(13, 2, 5, 0.0, 1.0)
    with pytest.raises(ValueError, match="p="):
        bounds.TheoremParams(13, 2, 4, 0.0, 1.0)
    with pytest.raises(ValueError, match="eps="):
        bounds.TheoremParams(13, 2, 4, 1.0, 1.0)
    params = samples()["TheoremParams"]
    assert params.dt == bounds.derived_params(13, 2, 4)
    moved = params._replace(ell=2)
    assert moved == bounds.TheoremParams(13, 2, 2, 1.0, 0.1)
    assert moved.dt == bounds.derived_params(13, 2, 2)
    with pytest.raises(ValueError, match="p="):
        params._replace(p=0.0)
