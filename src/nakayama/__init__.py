"""Nakayama algebras by Kupisch series: homological invariants and censuses."""

from .core import (
    CYCLIC,
    LINEAR,
    KupischSeries,
    RelationSystem,
    UniserialModule,
    canonical_form,
    kupisch_to_relations,
    normalize_relation_labels,
    relations_to_kupisch,
    syzygy,
    validate,
)
from .enumeration import (
    ChainSystem,
    count_closed_form,
    enumerate_chains,
    enumerate_cyclic,
    enumerate_linear,
    fibonacci,
    is_chain,
)
from .filtration import (
    DeltaBasis,
    EpsilonStep,
    EpsilonTower,
    base_set,
    delta_filtration,
    epsilon,
    epsilon_tower,
)
from .homology import (
    INFINITE,
    HomologyReport,
    check_inequalities,
    check_madsen,
    check_parity_interpolation,
    homology_report,
    pd_simples,
    projective_dimension,
)
from .verify import CensusTable, census

__all__ = [
    "CYCLIC",
    "LINEAR",
    "INFINITE",
    "KupischSeries",
    "RelationSystem",
    "UniserialModule",
    "DeltaBasis",
    "EpsilonStep",
    "EpsilonTower",
    "HomologyReport",
    "CensusTable",
    "ChainSystem",
    "validate",
    "canonical_form",
    "kupisch_to_relations",
    "relations_to_kupisch",
    "normalize_relation_labels",
    "syzygy",
    "projective_dimension",
    "pd_simples",
    "homology_report",
    "check_madsen",
    "check_parity_interpolation",
    "check_inequalities",
    "base_set",
    "epsilon",
    "epsilon_tower",
    "delta_filtration",
    "enumerate_cyclic",
    "enumerate_linear",
    "enumerate_chains",
    "is_chain",
    "count_closed_form",
    "fibonacci",
    "census",
]

__version__ = "0.1.0"
