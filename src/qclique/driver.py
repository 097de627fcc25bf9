"""One-call solve dispatch shared by the grid harness and the CLI.

solve_problem routes a ProblemSpec to the right machinery: the
combinatorial solvers, the cut-separation loop, the bundled HiGHS engine,
or an external backend process - building the matching model (edge-count
formulation, or threshold formulation over the sizes 1..n, plus the
requested connectivity add-on, which reads its size constant from the base
model) when a model-based engine is selected. Objectives are always
recomputed from the graph, and vertex sets come back in ascending order.
"""

from __future__ import annotations

import time

from .backend import (
    ENGINES,  # re-exported: the CLI and the package read driver.ENGINES
    BackendConfig,
    check_engine,
    solve_external,
    solve_in_process,
)
from .formulations import (
    Connectivity,
    Problem,
    ProblemSpec,
    VariableLayout,
    add_cflow,
    add_cstree,
    add_mpr,
    build_f3,
    build_m1,
)
from .graphs import Graph, induced_edge_count
from .lazy import solve_lazy
from .milp import LinearModel
from .solve import Limits, Solution, SolveError, branch_and_bound, brute_force


_ADD_ONS = {
    Connectivity.MPR: add_mpr,
    Connectivity.CSTREE: add_cstree,
    Connectivity.CFLOW: add_cflow,
}


def build_problem_model(
    g: Graph, spec: ProblemSpec
) -> tuple[LinearModel, VariableLayout]:
    """The MILP for a spec: base formulation plus its connectivity rows.

    The threshold model gets the size bounds (1, n): no tightening from
    gamma or degrees is attempted. Cut separation has no static model, so
    LAZY mode is rejected here; use solve_problem (or solve_lazy directly)
    for it.
    """
    spec.validate_for(g)
    if spec.mode is Connectivity.LAZY:
        raise SolveError("cut separation builds no static model; solve instead")
    if spec.problem is Problem.DKS:
        model, layout = build_m1(g, spec.k)
    else:
        model, layout = build_f3(g, spec.gamma, 1, g.n)
    add = _ADD_ONS.get(spec.mode)
    return add(model, layout, g) if add else (model, layout)


def solve_problem(
    g: Graph,
    spec: ProblemSpec,
    engine: str | BackendConfig = "bnb",
    limits: Limits = Limits(),
) -> Solution:
    """Solve a problem specification on the graph with the chosen engine.

    engine is "bnb" (branch and bound), "brute" (exhaustive oracle),
    "milp" (bundled HiGHS on the built model), or a BackendConfig for an
    external process. The combinatorial engines read every connectivity
    mode alike; on a model engine, LAZY mode runs the separation loop.
    Each engine checks the spec against the graph itself.
    """
    check_engine(engine)
    if engine == "bnb":
        return branch_and_bound(g, spec, limits)
    if engine == "brute":
        return brute_force(g, spec)
    if spec.mode is Connectivity.LAZY:
        return solve_lazy(g, spec.k, engine=engine, limits=limits)
    return _solve_through_model(g, spec, engine, limits)


def _solve_through_model(
    g: Graph,
    spec: ProblemSpec,
    engine: str | BackendConfig,
    limits: Limits,
) -> Solution:
    start = time.monotonic()
    model, layout = build_problem_model(g, spec)
    limit = limits.time_seconds
    if engine == "milp":
        status, vertices, nodes = solve_in_process(model, layout, limit)
    else:
        status, vertices, nodes = solve_external(model, layout, engine, limit)
    elapsed = time.monotonic() - start
    if spec.problem is Problem.MQC:
        objective = len(vertices)
    else:
        objective = induced_edge_count(g, vertices)
    return Solution(vertices, objective, status, elapsed=elapsed, nodes_explored=nodes)
