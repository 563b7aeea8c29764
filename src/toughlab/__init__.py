"""Exact toughness, graph spectra, and spectral-bound certification."""

from .graphs import (
    MAX_VERTICES,
    Graph,
    VertexSet,
    complete_graph,
    component_masks,
    cycle_graph,
    degree_profile,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    is_complete,
    is_connected,
    iter_bits,
    join,
    mask_of,
    path_graph,
    petersen_graph,
    star_graph,
    vertices_of,
)
from .formats import (
    FormatError,
    enumerate_labeled,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from .spectra import (
    ConvergenceError,
    SpectralSummary,
    adjacency_spectrum,
    laplacian_spectrum,
    normalized_laplacian_spectrum,
    symmetric_eigenvalues,
)
from .invariants import (
    ConnectivityCertificate,
    IndependenceCertificate,
    ToughnessCertificate,
    independence_number,
    toughness,
    vertex_connectivity,
)
from .bounds import (
    EPS_EQ,
    algebraic_connectivity_cap,
    degree_independence_bound,
    degree_toughness_terms,
    laplacian_independence_bound,
    laplacian_toughness_terms,
    mixing_gap,
    mixing_independence_bound,
    regular_toughness_bounds,
    semiregular_equality_check,
    spectral_toughness_term,
)
from .extremal import (
    ExtremalWitness,
    build_extremal,
    detect_join_form,
)
from .sweep import (
    CHECK_NAMES,
    CHECKS,
    DEFAULT_CHECKS,
    EqualityVerdict,
    GraphFacts,
    SweepConfig,
    SweepConfigError,
    SweepReport,
    evaluate_graph,
    sweep,
)

__version__ = "0.1.0"
