"""Connectivity by cut separation for the fixed-cardinality problem.

The loop builds the unrestricted edge-count model once and solves it, and
whenever the answer comes back disconnected, adds one neighborhood
inequality per vertex of each small fragment (a selected fragment vertex
demands a selected fragment neighbor) to that model and re-solves. A
disconnected answer always violates at least one of its own cuts, so every
round strictly shrinks the candidate space and the loop terminates.

Two interchangeable inner optimizers read the added cuts: "milp" solves
the built model with the bundled HiGHS engine, and a BackendConfig routes
it to an external solver process. The combinatorial engines take no cut
rows; they solve the LAZY mode like any other connected mode.
"""

from __future__ import annotations

import logging
import time

from .backend import BackendConfig, check_engine, solve_external, solve_in_process
from .formulations import build_m1, lazy_cuts
from .graphs import Graph, induced_edge_count, is_connected
from .solve import Limits, Solution, SolveStatus

logger = logging.getLogger(__name__)

# The named engines whose model holds the pooled cuts (a BackendConfig is
# accepted too); the combinatorial ones solve LAZY mode like any other.
ENGINES = ("milp",)


def solve_lazy(
    g: Graph,
    k: int,
    engine: str | BackendConfig = "milp",
    limits: Limits = Limits(),
) -> Solution:
    """Largest edge count over connected k-vertex sets, via cut rounds.

    engine is "milp" (bundled HiGHS, the default) or a BackendConfig for an
    external process. The returned Solution is either connected-and-optimal,
    infeasible (no connected k-set exists), or a limit status; cut_rounds
    counts the separation rounds that were needed. The time limit spans all
    rounds together.
    """
    check_engine(engine, ENGINES)
    start = time.monotonic()
    model, layout = build_m1(g, k)
    pooled: set[str] = set()
    rounds = 0
    nodes = 0

    def finish(
        vertices: tuple[int, ...], objective: int, status: SolveStatus
    ) -> Solution:
        return Solution(
            vertices=vertices,
            objective=objective,
            status=status,
            elapsed=time.monotonic() - start,
            nodes_explored=nodes,
            cut_rounds=rounds,
        )

    while True:
        remaining = None
        if limits.time_seconds is not None:
            remaining = limits.time_seconds - (time.monotonic() - start)
            if remaining <= 0:
                return finish((), 0, SolveStatus.TIME_LIMIT)
        if engine == "milp":
            status, members, inner = solve_in_process(model, layout, remaining)
        else:
            status, members, inner = solve_external(model, layout, engine, remaining)
        nodes += inner
        if status is SolveStatus.INFEASIBLE:
            return finish((), 0, SolveStatus.INFEASIBLE)
        if status is not SolveStatus.OPTIMAL:
            if members and is_connected(g, members):
                return finish(members, induced_edge_count(g, members), status)
            return finish((), 0, status)
        if is_connected(g, members):
            return finish(members, induced_edge_count(g, members), SolveStatus.OPTIMAL)
        fresh = [cut for cut in lazy_cuts(layout, g, members) if cut.tag not in pooled]
        if not fresh:
            raise AssertionError(
                "separation made no progress on a disconnected solution"
            )
        for cut in fresh:
            model.add_constraint(cut.terms, cut.sense, cut.rhs, tag=cut.tag)
            pooled.add(cut.tag)
        logger.info(
            "round %d: %s is disconnected; adding %d cuts (%d pooled)",
            rounds,
            members,
            len(fresh),
            len(pooled),
        )
        rounds += 1
