"""apexobs: minor-obstructions of k-apex sub-unicyclic graphs.

A graph is sub-unicyclic if it has at most one cycle, and k-apex
sub-unicyclic if deleting some k vertices makes it so.  This package
computes with the minor-obstructions of these classes at desk scale:

``graphs``
    exact computations on simple graphs with at most 32 vertices
    (bitset adjacency): recognition, blocks and bc-trees, apex numbers.
``canonical``
    canonical forms, automorphism orbits, isomorphism, exhaustive enumeration.
``minors``
    exact minor containment for small graphs.
``graphio``
    graph6 and edge-list serialization.
``obstructions``
    the shipped obstruction catalogs (3 graphs at k=0, 29 at k=1), their
    re-verification, and exhaustive obstruction search.
``cacti``
    butterfly-cacti: the connected cactus obstructions at every level,
    and the disconnected ones built from them.
``series``
    int-only truncated power series, ``mset`` as the checked Euler
    transform, and the functional-equation system whose solution counts
    butterfly-cacti (T) and their multisets (G).
``asymptotics``
    saddle-point location of the singularity, square-root expansion
    coefficients, and asymptotic growth constants.

The command-line entry point is ``apexobs`` (or ``python -m apexobs``).
"""

__version__ = "1.0.0"

from .canonical import (
    are_isomorphic,
    automorphism_orbits,
    canonical_form,
    canonical_graph,
    canonical_labeling,
    enumerate_graphs,
    graphs_up_to,
)
from .cacti import (
    ButterflyCactus,
    CactusObstructionFamily,
    apex_forest_bound_check,
    cactus_obstruction_family,
    central_set,
    disconnected_obstructions,
    generate_Z,
    verify_holiness,
)
from .graphio import (
    from_edgelist,
    from_graph6,
    load_graph,
    read_graph6_file,
    to_edgelist,
    to_graph6,
    write_graph6_file,
)
from .graphs import (
    BlockDecomposition,
    ClassId,
    Graph,
    butterfly_graph,
    complete_graph,
    complete_minus_edge,
    cycle_graph,
    cyclomatic,
    decompose,
    disjoint_union,
    is_connected,
    is_in_class,
    make_named,
    min_apex_size,
    one_step_minors,
    path_graph,
    peripheral_blocks,
)
from .minors import is_minor
from .obstructions import (
    Catalog,
    ObstructionRecord,
    is_obstruction,
    load_catalog,
    search_obstructions,
    structural_filters,
    verify_catalog,
)
from .series import (
    PowerSeries,
    SeriesSystemSolution,
    mset,
    solve_T_diamond,
    solve_system,
)
from .asymptotics import (
    AsymptoticEstimate,
    ExpansionCoefficients,
    SaddlePoint,
    check_Z1_vanishes,
    estimate_constant,
    eval_F,
    expansion_coeffs,
    solve_saddle,
)

__all__ = [
    "AsymptoticEstimate",
    "BlockDecomposition",
    "ButterflyCactus",
    "CactusObstructionFamily",
    "Catalog",
    "ClassId",
    "cactus_obstruction_family",
    "ExpansionCoefficients",
    "Graph",
    "ObstructionRecord",
    "PowerSeries",
    "SaddlePoint",
    "SeriesSystemSolution",
    "apex_forest_bound_check",
    "are_isomorphic",
    "automorphism_orbits",
    "butterfly_graph",
    "canonical_form",
    "canonical_graph",
    "canonical_labeling",
    "central_set",
    "check_Z1_vanishes",
    "complete_graph",
    "complete_minus_edge",
    "cycle_graph",
    "cyclomatic",
    "decompose",
    "disconnected_obstructions",
    "disjoint_union",
    "enumerate_graphs",
    "estimate_constant",
    "eval_F",
    "expansion_coeffs",
    "from_edgelist",
    "from_graph6",
    "generate_Z",
    "graphs_up_to",
    "is_connected",
    "is_in_class",
    "is_minor",
    "is_obstruction",
    "load_catalog",
    "load_graph",
    "make_named",
    "min_apex_size",
    "mset",
    "one_step_minors",
    "path_graph",
    "peripheral_blocks",
    "read_graph6_file",
    "search_obstructions",
    "solve_T_diamond",
    "solve_saddle",
    "solve_system",
    "structural_filters",
    "to_edgelist",
    "to_graph6",
    "verify_catalog",
    "verify_holiness",
    "write_graph6_file",
]
