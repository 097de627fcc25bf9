"""Reference optima for every grid-bnb cell, made by a different method.

grid-bnb solves its cells with branch and bound. This command solves the
same cells with the in-process HiGHS engine on static encodings (mqc as is,
mcqc through the mpr rows, dcks through the cflow rows) and writes the table
that every grid-bnb round is compared against:

    python3 bench/reference.py            # rewrite bench/grid_reference.json

The table records a digest of the instance's edges; a run refuses a table
made for another instance.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import instances

HERE = Path(__file__).resolve().parent
TABLE = HERE / "grid_reference.json"

# grid-bnb sweep name -> (problem, mode solved by branch and bound, mode
# solved here by HiGHS)
SWEEPS = {
    "mqc": ("mqc", "none", "none"),
    "mcqc": ("mqc", "cstree", "mpr"),
    "dcks": ("dks", "lazy", "cflow"),
}


def digest(inst: instances.Instance) -> str:
    text = "".join(f"{i} {j}\n" for i, j in inst.edges)
    return hashlib.sha256(f"{inst.n}\n{text}".encode()).hexdigest()


def load(inst: instances.Instance) -> dict[str, list]:
    """The table's cells as {'sweep:param': [status, objective]}."""
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    if table["digest"] != digest(inst):
        raise SystemExit(f"{TABLE.name} was made for another instance; rerun bench/reference.py")
    return table["cells"]


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    from qclique import Connectivity, Limits, ProblemSpec, largest_component, solve_problem
    from qclique.graphs import parse_edge_list

    inst = instances.generate("grid")
    graph, _ = largest_component(parse_edge_list(instances.edge_list_text(inst, 0)))
    cells = {}
    started = time.perf_counter()
    for sweep, (problem, _, mode) in SWEEPS.items():
        if problem == "mqc":
            params = [(f"{i / 100:.2f}", Fraction(i, 100)) for i in range(10, 101)]
        else:
            params = [(str(k), k) for k in range(2, graph.n)]
        for rendered, param in params:
            if problem == "mqc":
                spec = ProblemSpec.mqc(param, mode=Connectivity(mode))
            else:
                spec = ProblemSpec.dks(param, mode=Connectivity(mode))
            solution = solve_problem(graph, spec, "milp", Limits(time_seconds=600))
            if solution.status.value not in ("optimal", "infeasible"):
                raise SystemExit(f"{sweep} {rendered}: HiGHS ended {solution.status.value}")
            cells[f"{sweep}:{rendered}"] = [solution.status.value, solution.objective]
        print(f"{sweep}: done at {time.perf_counter() - started:.1f}s", file=sys.stderr)
    head = {
        "instance": "grid",
        "n": inst.n,
        "m": inst.m,
        "digest": digest(inst),
        "method": "solve_problem(engine='milp'); mcqc via mpr, dcks via cflow",
    }
    lines = [f" {json.dumps(k)}: {json.dumps(v)}," for k, v in head.items()]
    rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in cells.items())
    TABLE.write_text("{\n" + "\n".join(lines) + '\n "cells": {\n' + rows + "\n }\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
