"""Exact toughness, graph spectra, and spectral-bound certification."""

from .graphs import (
    MAX_VERTICES,
    ComponentPartition,
    Graph,
    VertexSet,
    complete_bipartite_graph,
    complete_graph,
    components,
    cycle_graph,
    degree_profile,
    disjoint_union,
    edge_boundary,
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
    volume,
)
from .formats import (
    CorpusStream,
    FormatError,
    enumerate_labeled,
    enumerate_labeled_connected,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from .spectra import (
    ConvergenceError,
    SpectralSummary,
    adjacency_spectrum,
    join_laplacian_spectrum,
    laplacian_spectrum,
    normalized_laplacian_spectrum,
    spectral_summary,
    symmetric_eigenvalues,
)
from .invariants import (
    ConnectivityCertificate,
    IndependenceCertificate,
    ToughnessCertificate,
    balanced_component_split,
    independence_number,
    subset_with_sum,
    toughness,
    vertex_connectivity,
)
from .bounds import (
    EPS_EQ,
    BoundReport,
    algebraic_connectivity_cap,
    cut_partition_bounds,
    independence_upper_bounds,
    laplacian_toughness_bounds,
    mixing_gap,
    mixing_gap_single,
    regular_toughness_bounds,
    semiregular_equality_check,
    toughness_lower_terms,
)
from .extremal import (
    ExtremalWitness,
    build_extremal,
    detect_join_form,
    fiedler_structure_check,
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
    bound_report,
    equality_case_verdict,
    evaluate_graph,
    sweep,
)

__version__ = "0.1.0"
