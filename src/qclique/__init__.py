"""Exact solvers and MILP formulations for dense-subgraph problems.

Two problem families share one toolkit: maximize the size of a subgraph
whose edge density stays above a threshold, or maximize the edge count at a
fixed cardinality, each with or without a connectedness requirement. The
package offers exact combinatorial solvers (`brute_force`,
`branch_and_bound`), MILP model builders with four interchangeable
connectivity encodings, LP/MPS round-tripping, an external-solver bridge, a
cut-separation loop, and a resumable benchmarking grid. `solve_problem`
dispatches any problem/engine combination; the `qclique` console script
fronts it all.
"""

from __future__ import annotations

from .backend import (
    BackendConfig,
    BackendError,
    BackendProcessError,
    BackendValidationError,
    ModelFormat,
    extract_vertex_set,
    solve_external,
)
from .driver import ENGINES, build_problem_model, solve_problem
from .formulations import (
    Connectivity,
    FormulationError,
    Problem,
    ProblemSpec,
    add_cflow,
    add_cstree,
    add_mpr,
    build_certificate,
    build_f3,
    build_m1,
    indicator_assignment,
    lazy_cuts,
)
from .graphs import (
    Graph,
    GraphError,
    components,
    density,
    induced_edge_count,
    is_connected,
    largest_component,
    parse_edge_list,
    parse_matrix_market,
    serialize_edge_list,
)
from .grid import GridCell, GridError, GridRow, GridSpec, aggregate, read_cells, run_grid
from .lazy import solve_lazy
from .lpio import (
    FormatError,
    export_lp,
    export_mps,
    parse_lp,
    parse_mps,
    parse_solution_file,
)
from .milp import BINARY, CONTINUOUS, LinearConstraint, LinearModel, ModelError, Variable
from .solve import (
    Limits,
    Solution,
    SolveError,
    SolveStatus,
    branch_and_bound,
    brute_force,
    meets_density,
)

__version__ = "0.1.0"

__all__ = [
    "BINARY",
    "CONTINUOUS",
    "ENGINES",
    "BackendConfig",
    "BackendError",
    "BackendProcessError",
    "BackendValidationError",
    "Connectivity",
    "FormatError",
    "FormulationError",
    "Graph",
    "GraphError",
    "GridCell",
    "GridError",
    "GridRow",
    "GridSpec",
    "Limits",
    "LinearConstraint",
    "LinearModel",
    "ModelError",
    "ModelFormat",
    "Problem",
    "ProblemSpec",
    "Solution",
    "SolveError",
    "SolveStatus",
    "Variable",
    "add_cflow",
    "add_cstree",
    "add_mpr",
    "aggregate",
    "branch_and_bound",
    "brute_force",
    "build_certificate",
    "build_f3",
    "build_m1",
    "build_problem_model",
    "components",
    "density",
    "export_lp",
    "export_mps",
    "extract_vertex_set",
    "indicator_assignment",
    "induced_edge_count",
    "is_connected",
    "largest_component",
    "lazy_cuts",
    "meets_density",
    "parse_edge_list",
    "parse_lp",
    "parse_matrix_market",
    "parse_mps",
    "parse_solution_file",
    "read_cells",
    "run_grid",
    "serialize_edge_list",
    "solve_external",
    "solve_lazy",
    "solve_problem",
    "__version__",
]
