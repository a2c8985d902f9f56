"""Kneser/Schrijver graph experiments: exact coloring, Gale embeddings, bounds."""

from .bounds import (
    BestGap,
    ChainBounds,
    TheoremParams,
    best_gap,
    condition_holds,
    condition_rhs,
    corollary_regime_report,
    derived_params,
    g_is_decreasing,
    ln_g,
    ln_pA_bound,
)
from .chromatic import (
    Budget,
    ColoringResult,
    chromatic_number,
    clique_lower,
    max_independent_set,
    vertex_critical,
)
from .errors import CapacityError, NoWitnessFound
from .gale import (
    GaleEmbedding,
    HemispherePartition,
    Witness,
    WitnessSearch,
    build_embedding,
    canonical_hemispheres,
    enumerate_faces,
    general_position_check,
    verify_gale_property,
)
from .graphs import (
    Graph,
    build_kneser,
    build_schrijver,
    from_json_dict,
    sample_subgraph,
    to_canonical_json,
)
from .setfam import KSubset, ln_binomial

__version__ = "0.1.0"
