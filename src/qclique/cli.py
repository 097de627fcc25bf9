"""Command-line front end: stats, solve, grid, verify, emit.

Exit codes: 0 solved (or report produced), 2 infeasible, 3 limit hit,
4 input error. The external backend command is taken from the
QCLIQUE_BACKEND_CMD environment variable when --engine backend is chosen.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from .backend import BackendConfig, BackendError
from .driver import ENGINES, build_problem_model, solve_problem
from .formulations import (
    Connectivity,
    FormulationError,
    Problem,
    ProblemSpec,
    build_certificate,
)
from .graphs import (
    Graph,
    GraphError,
    check_vertex_set,
    density,
    is_connected,
    largest_component,
    parse_edge_list,
    parse_matrix_market,
)
from .grid import GridError, GridSpec, run_grid
from .lpio import FormatError, export_lp, export_mps
from .milp import ModelError
from .solve import Limits, SolveError, SolveStatus

# The library's engines plus one spelling only the CLI knows: "backend"
# (the QCLIQUE_BACKEND_CMD process).
ENGINE_CHOICES = (*ENGINES, "backend")

EXIT_SOLVED = 0
EXIT_INFEASIBLE = 2
EXIT_LIMIT = 3
EXIT_INPUT = 4

_STATUS_TEXT = {
    SolveStatus.OPTIMAL: "Optimal",
    SolveStatus.TIME_LIMIT: "TimeLimit",
    SolveStatus.INFEASIBLE: "Infeasible",
    SolveStatus.MEMORY_LIMIT: "MemoryLimit",
}

_STATUS_EXIT = {
    SolveStatus.OPTIMAL: EXIT_SOLVED,
    SolveStatus.INFEASIBLE: EXIT_INFEASIBLE,
    SolveStatus.TIME_LIMIT: EXIT_LIMIT,
    SolveStatus.MEMORY_LIMIT: EXIT_LIMIT,
}


class CliError(ValueError):
    """Unusable command line or instance file."""


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors share the input-error exit code."""

    def error(self, message):  # noqa: D401 - argparse contract
        raise CliError(message)


def load_graph(path: str | Path) -> Graph:
    """Read an instance file, sniffing Matrix Market vs plain edge list."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("%%MatrixMarket") or str(path).lower().endswith(".mtx"):
        return parse_matrix_market(text)
    return parse_edge_list(text)


def _density_text(value: Fraction) -> str:
    if value < Fraction(1, 100):
        return "<0.01"
    return f"{float(value):.2f}"


def _graph_density(g: Graph) -> Fraction:
    if g.n < 2:
        return Fraction(1)
    return density(g, range(g.n))


def _parse_gamma(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"cannot read {text!r} as a density threshold") from None


def _problem_spec(args, mode: Connectivity) -> ProblemSpec:
    if args.gamma is not None and args.k is not None:
        raise CliError("pass either --gamma or --k, not both")
    if args.gamma is not None:
        return ProblemSpec.mqc(_parse_gamma(args.gamma), mode=mode)
    if args.k is not None:
        return ProblemSpec.dks(args.k, mode=mode)
    raise CliError("pass --gamma (threshold problem) or --k (cardinality problem)")


def _resolve_engine(args):
    """The engine --engine names, with "backend" made a BackendConfig."""
    if args.engine == "backend":
        command = os.environ.get("QCLIQUE_BACKEND_CMD", "")
        if not command.strip():
            raise CliError(
                "--engine backend needs the QCLIQUE_BACKEND_CMD environment "
                "variable (a command template with {model}/{solution}/"
                "{timelimit} placeholders)"
            )
        return BackendConfig(command=command, time_limit=args.time_limit)
    return args.engine


def _certificate_line(g: Graph, vertices: tuple[int, ...]) -> str:
    """Re-verify a vertex set by building and checking a spanning witness."""
    if not vertices:
        return "certificate: none (empty set)"
    size = len(vertices)
    if size == 1:
        spec = ProblemSpec.mqc(1, mode=Connectivity.CSTREE)
    else:
        spec = ProblemSpec.dks(size, mode=Connectivity.CSTREE)
    model, layout = build_problem_model(g, spec)
    point = build_certificate(layout, g, vertices)
    if point is None:
        return "certificate: none (disconnected)"
    report = model.evaluate(point)
    if report.feasible and report.integral:
        return "certificate: verified"
    return "certificate: FAILED"


def cmd_stats(args) -> int:
    g = load_graph(args.instance)
    core, _ = largest_component(g)
    print(f"{g.n} {g.m} {_density_text(_graph_density(g))}")
    print(f"largest component {core.n} of {g.n}")
    return EXIT_SOLVED


def cmd_solve(args) -> int:
    g = load_graph(args.instance)
    engine = _resolve_engine(args)
    spec = _problem_spec(args, Connectivity(args.mode))
    limits = Limits(time_seconds=args.time_limit, memory_bytes=args.mem_limit)
    solution = solve_problem(g, spec, engine=engine, limits=limits)

    if solution.status is SolveStatus.INFEASIBLE:
        print(f"infeasible ({spec.label()})")
    else:
        noun = (
            f"size {solution.objective}"
            if spec.problem is Problem.MQC
            else f"{solution.objective} edges"
        )
        connected = bool(solution.vertices) and is_connected(g, solution.vertices)
        word = "connected" if connected else "disconnected"
        print(f"{noun}, {word}, {_STATUS_TEXT[solution.status]}")
        labels = " ".join(g.label(v) for v in solution.vertices)
        print(f"vertices: {labels if labels else '-'}")
        if solution.vertices:
            dens = density(g, solution.vertices)
            print(f"density: {dens} ({_density_text(dens)})")
    print(f"elapsed: {solution.elapsed:.3f}s")
    if solution.cut_rounds is not None:
        print(f"cut rounds: {solution.cut_rounds}")
    if args.certify and solution.status is SolveStatus.OPTIMAL:
        line = _certificate_line(g, solution.vertices)
        print(line)
        if line.endswith("FAILED"):
            return EXIT_INPUT
    return _STATUS_EXIT[solution.status]


def cmd_grid(args) -> int:
    g = load_graph(args.instance)
    name = Path(args.instance).stem
    engine = _resolve_engine(args)
    spec = GridSpec(
        name=name,
        family=Problem(args.family),
        mode=Connectivity(args.mode),
        engine=engine,
        time_limit=args.time_limit,
        memory_bytes=args.mem_limit,
    )
    csv_path = args.csv if args.csv else f"{name}-{args.family}.csv"
    row = run_grid(g, spec, csv_path, workers=args.workers)
    print(
        f"{row.name}: cells={row.cells} pct_succ={row.pct_succ:.1f} "
        f"pct_disc={row.pct_disc:.1f} runtime_mean={row.runtime_mean:.6f} "
        f"runtime_sd={row.runtime_sd:.6f}"
    )
    print(f"cells in {csv_path}")
    return EXIT_SOLVED


def _parse_vertices(g: Graph, text: str) -> tuple[int, ...]:
    """The vertices named by a list of labels, as solve prints them."""
    tokens = [tok for tok in re.split(r"[,\s]+", text.strip()) if tok]
    if not tokens:
        raise CliError("empty vertex list")
    ids = {g.label(v): v for v in range(g.n)}
    try:
        return check_vertex_set(g, [ids[tok] for tok in tokens])
    except KeyError as exc:
        raise CliError(f"no vertex is labelled {exc.args[0]!r}") from None


def cmd_verify(args) -> int:
    g = load_graph(args.instance)
    mode = Connectivity(args.mode)
    spec = _problem_spec(args, mode)
    vertices = _parse_vertices(g, args.vertices)
    dens = density(g, vertices)
    print(f"density {dens}")
    if spec.problem is Problem.MQC:
        feasible = dens >= spec.gamma
        relation = ">=" if feasible else "<"
        print(
            ("feasible" if feasible else "infeasible")
            + f" (density {relation} {spec.gamma})"
        )
    else:
        feasible = len(vertices) == spec.k
        print(
            f"cardinality {len(vertices)} "
            + ("=" if feasible else "!=")
            + f" k={spec.k}"
        )
    connected = is_connected(g, vertices)
    print("connected" if connected else "disconnected")
    if mode in (Connectivity.CSTREE, Connectivity.CFLOW, Connectivity.MPR):
        if mode is Connectivity.MPR:
            print("certificate: no explicit form for this mode")
        else:
            print(_certificate_line(g, vertices))
    if spec.connected:
        feasible = feasible and connected
    return EXIT_SOLVED if feasible else EXIT_INFEASIBLE


def cmd_emit(args) -> int:
    g = load_graph(args.instance)
    spec = _problem_spec(args, Connectivity(args.mode))
    if not args.lp and not args.mps:
        raise CliError("pass --lp and/or --mps output paths")
    model, _ = build_problem_model(g, spec)
    for path, renderer in ((args.lp, export_lp), (args.mps, export_mps)):
        if path is None:
            continue
        Path(path).write_text(renderer(model), encoding="utf-8")
        print(
            f"wrote {path} ({len(model.variables)} variables, "
            f"{len(model.constraints)} rows)"
        )
    return EXIT_SOLVED


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gamma", help="density threshold, e.g. 0.5 or 3/7")
    parser.add_argument("--k", type=int, help="target cardinality")
    _add_mode_flag(parser)


def _add_mode_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode",
        choices=[m.value for m in Connectivity],
        default=Connectivity.NONE.value,
        help="connectivity handling (default: none)",
    )


def _add_engine_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default="bnb",
        help="optimizer (default: bnb)",
    )


def _add_limit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--time-limit", type=float, default=3600.0, help="seconds (default 3600)"
    )
    parser.add_argument(
        "--mem-limit",
        type=int,
        default=10 * 10**9,
        help="bytes (default 10GB)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qclique",
        description=(
            "Exact solvers and MILP formulations for densest-subgraph and "
            "quasi-clique problems, with optional connectivity."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    stats = commands.add_parser("stats", help="instance summary")
    stats.add_argument("instance")
    stats.set_defaults(run=cmd_stats)

    solve = commands.add_parser("solve", help="solve one instance")
    solve.add_argument("instance")
    _add_spec_flags(solve)
    _add_engine_flag(solve)
    _add_limit_flags(solve)
    solve.add_argument(
        "--certify",
        action="store_true",
        help="re-verify a connected optimum via an explicit witness",
    )
    solve.set_defaults(run=cmd_solve)

    grid = commands.add_parser("grid", help="parameter sweep with CSV output")
    grid.add_argument("instance")
    grid.add_argument(
        "--family", choices=[p.value for p in Problem], required=True
    )
    _add_mode_flag(grid)
    _add_engine_flag(grid)
    _add_limit_flags(grid)
    grid.add_argument("--workers", type=int, default=1)
    grid.add_argument("--csv", metavar="PATH", help="cell CSV (resumable)")
    grid.set_defaults(run=cmd_grid)

    verify = commands.add_parser("verify", help="check a vertex set")
    verify.add_argument("instance")
    verify.add_argument(
        "--vertices", required=True, help="comma- or space-separated vertex labels"
    )
    _add_spec_flags(verify)
    verify.set_defaults(run=cmd_verify)

    emit = commands.add_parser("emit", help="write LP/MPS model files")
    emit.add_argument("instance")
    _add_spec_flags(emit)
    emit.add_argument("--lp", metavar="PATH")
    emit.add_argument("--mps", metavar="PATH")
    emit.set_defaults(run=cmd_emit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except (
        CliError,
        GraphError,
        FormatError,
        ModelError,
        FormulationError,
        SolveError,
        GridError,
        BackendError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
