"""Solve LinearModel instances with the HiGHS engine bundled in scipy.

The bridge hands HiGHS each number of the model as its float. The builders
make only ints, so HiGHS reads the numbers that were built, the same ones a
solver child reads from the model's exact LP or MPS text. Assignments come
back exact: an int for each whole float HiGHS reports and the float's binary
Fraction otherwise. The caller validates them; they are never trusted.

The module doubles as a command-line solver so it can serve as an external
backend process. It reads a .mps file with parse_mps and any other with
parse_lp, so only what export_mps or export_lp writes:

    python -m qclique.highs MODEL.lp OUT.sol [TIME_LIMIT_SECONDS]

The output file holds a "# nodes N" line (HiGHS's node count) and then one
"name value" line per variable, or a single INFEASIBLE / TIMELIMIT marker.
Once main() has closed it, the child ends with os._exit and skips the
interpreter's teardown of numpy, scipy and HiGHS, which no caller reads. A
failure still exits non-zero with a traceback; main() in process returns.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy import optimize, sparse

from .lpio import parse_lp, parse_mps
from .milp import BINARY, Exact, LinearModel
from .solve import SolveStatus


class HighsError(RuntimeError):
    """Raised when the engine reports neither an optimum nor a clean limit."""


def solve_model(
    model: LinearModel, time_limit: float | None = None
) -> tuple[SolveStatus, dict[str, Exact] | None, int]:
    """Run HiGHS on the model; return its status, raw assignment and nodes.

    The assignment maps every model variable to the float HiGHS reported,
    exactly: an int when it is whole, else its Fraction (so validation
    downstream stays rational). It is None when the engine produced no
    point, as with infeasibility or a limit hit before the first incumbent.
    nodes is the engine's branch-and-bound node count (0 when it reports
    none, as when presolve decides).
    """
    if not model.variables:
        raise HighsError("model has no variables")
    index = {var.name: i for i, var in enumerate(model.variables)}
    n = len(model.variables)

    cost = np.zeros(n)
    for name, coef in model.objective.items():
        cost[index[name]] = -float(coef)
    integrality = np.array(
        [1 if var.kind == BINARY else 0 for var in model.variables]
    )
    lower = np.array(
        [-np.inf if var.lower is None else float(var.lower) for var in model.variables]
    )
    upper = np.array(
        [np.inf if var.upper is None else float(var.upper) for var in model.variables]
    )

    constraints = []
    if model.constraints:
        data, rows, cols = [], [], []
        row_lower = np.full(len(model.constraints), -np.inf)
        row_upper = np.full(len(model.constraints), np.inf)
        for r, row in enumerate(model.constraints):
            for name, value in row.terms.items():
                data.append(float(value))
                rows.append(r)
                cols.append(index[name])
            rhs = float(row.rhs)
            if row.sense in ("<=", "="):
                row_upper[r] = rhs
            if row.sense in (">=", "="):
                row_lower[r] = rhs
        matrix = sparse.csr_matrix(
            (data, (rows, cols)), shape=(len(model.constraints), n)
        )
        constraints.append(optimize.LinearConstraint(matrix, row_lower, row_upper))

    options = {} if time_limit is None else {"time_limit": float(time_limit)}
    result = optimize.milp(
        c=cost,
        constraints=constraints,
        integrality=integrality,
        bounds=optimize.Bounds(lower, upper),
        options=options,
    )
    if result.status == 0:
        status = SolveStatus.OPTIMAL
    elif result.status == 1:
        status = SolveStatus.TIME_LIMIT
    elif result.status == 2:
        status = SolveStatus.INFEASIBLE
    else:
        raise HighsError(f"engine failure: {result.message}")
    nodes = int(result.mip_node_count or 0)
    if result.x is None:
        return status, None, nodes
    assignment = {
        var.name: int(value) if value.is_integer() else Fraction(value)
        for var, value in zip(model.variables, result.x.tolist())
    }
    return status, assignment, nodes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m qclique.highs",
        description="Solve an LP/MPS model file and write a solution file. The "
        "file must be as qclique.lpio's export_lp or export_mps writes it.",
    )
    parser.add_argument("model", help="model file (.mps for MPS, else LP)")
    parser.add_argument("solution", help="output solution file")
    parser.add_argument(
        "timelimit", nargs="?", type=float, default=None, help="seconds"
    )
    args = parser.parse_args(argv)

    parse = parse_mps if args.model.lower().endswith(".mps") else parse_lp
    model = parse(Path(args.model).read_text(encoding="utf-8"))
    status, assignment, nodes = solve_model(model, time_limit=args.timelimit)

    if status is SolveStatus.INFEASIBLE:
        lines = ["INFEASIBLE"]
    elif status is SolveStatus.TIME_LIMIT:
        lines = ["TIMELIMIT"]
    else:
        lines = [f"# nodes {nodes}"]
        lines += (f"{name} {float(v)!r}" for name, v in sorted(assignment.items()))
    Path(args.solution).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
