"""Source-to-sink path counting and extremal search on acyclic 3-regular graphs."""

# set before the submodules load: fileio reads it
__version__ = "0.7.0"

from .dag import (
    Dag,
    DegreeProfile,
    InvalidDagError,
    PathCounts,
    ValidationReport,
    count_paths,
    edge_connectivity_at_least,
    infer_profile,
    is_on_ham_path,
    is_simple,
    reverse,
    structural_3ec,
    validate,
    vertex_kinds,
)
from .hamilton import (
    Move,
    MoveError,
    RewriteError,
    hamiltonize,
    incoming_move,
    outgoing_move,
    tree_sort,
    tree_sort_order,
)
from .tuples import (
    ArcMu,
    ArcTuple,
    InvalidTupleError,
    TupleClass,
    decode,
    encode,
    format_tuple,
    is_valid,
    parse_tuple,
    tuple_mu,
    validity_issues,
)
from .search import (
    ExtremalReport,
    SearchSpec,
    check_conjecture,
    enumerate_tuples,
    family_tuple,
    fibonacci,
    find_extremal,
    kind_run_prunable,
)
from .blocks import (
    BlockSolution,
    GrowthReport,
    assemble_bound,
    brute_block,
    growth_factor,
    solve_block,
)
