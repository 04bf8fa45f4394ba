"""Graph groupoids from finite directed multigraphs: fractality, radial
operator moments, lattice-path counts, and spectral classification."""

from .errors import (
    DisconnectedGraphError,
    FractaloidError,
    GraphError,
    LimitError,
    NotFractalError,
    ParameterError,
    UnknownVertexError,
)
from .fractality import (
    ClassificationResult,
    FractalPair,
    VertexTree,
    classification_report,
    classify,
    fractal_pair,
    is_fractal,
    max_out_degree,
    tree_isomorphic,
    tree_regular_to_depth,
    vertex_tree,
)
from .graphs import (
    DirectedGraph,
    EdgeRecord,
    ShadowedGraph,
    SignedEdge,
    VertexDegrees,
    degrees,
    family,
    glue,
    graph_from_json,
    graph_to_json,
    is_connected,
    iterated_glue_loops,
    load_graph,
    regularize,
    save_graph,
    shadow,
)
from .isomorphism import GraphMatch, graph_isomorphic
from .labeling import (
    GraphAutomaton,
    Labeling,
    automaton_step,
    build_graph_automaton,
    canonical_labeling,
    label_walk,
    labeling_dump,
)
from .lattice import (
    BalancedTupleClass,
    LatticePath,
    axis_path_counts,
    balanced_tuple_classes,
    closed_form_count,
    count_axis_paths_bruteforce,
    count_axis_paths_recurrence,
    has_axis_property,
    tuple_coefficient,
)
from .moments import (
    MomentComparisonReport,
    MomentVector,
    TruncatedOperator,
    identically_distributed,
    is_scalar,
    moment_report,
    radial_moment,
    radial_moments,
    tree_return_count,
    tree_return_counts,
    truncated_radial_matrix,
    verification_report,
    verify_moment_theorem,
)
from .words import (
    EdgeBlockType,
    ReducedWord,
    edge_block_type,
    empty_word,
    enumerate_words,
    format_word,
    inverse,
    multiply,
    path_word,
    reduce_word,
    source_range,
    vertex_word,
)

__version__ = "0.1.0"
