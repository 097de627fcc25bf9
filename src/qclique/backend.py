"""Bridge to external MILP solver processes.

A backend is any executable that accepts a model file and writes a solution
file: the command is a template whose {model}, {solution} and {timelimit}
placeholders are substituted per token. The solution file carries one
"name value" line per variable (missing names default to zero), optionally
after a first line "# nodes N" with the solver's node count, or a single
INFEASIBLE / TIMELIMIT marker as its first token.

Nothing a backend reports is trusted: assignments are re-checked against
the exact model within a fixed tolerance, and objectives are recomputed
from the graph by callers. Validation failures and process failures are
distinct errors so that a wrong answer is never mistaken for a crash.

Both HiGHS routes, the solver process (solve_external) and the bundled
engine in process (solve_in_process), take a built model, its layout and
the cell's time limit, and answer (status, vertices, nodes): the vertex set
of the checked assignment, empty without one. The engine registry
(ENGINES, check_engine) lives here too.
"""

from __future__ import annotations

import shlex
import subprocess
import tempfile
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path

from .lpio import FormatError, export_lp, export_mps, parse_solution_file
from .milp import Exact, LinearModel
from .solve import SolveError, SolveStatus, positive_finite

TOLERANCE = Fraction(1, 10**6)

ENGINES = ("bnb", "brute", "milp")


def check_engine(engine, names: tuple[str, ...] = ENGINES) -> None:
    """Reject an engine that is neither one of names nor a BackendConfig."""
    if engine not in names and not isinstance(engine, BackendConfig):
        raise SolveError(
            f"unknown engine {engine!r}: expected one of {names} "
            "or a BackendConfig"
        )


class BackendError(RuntimeError):
    """Base class for backend bridge failures."""


class BackendProcessError(BackendError):
    """The process failed: bad template, crash, or unusable output file."""


class BackendValidationError(BackendError):
    """The process answered, but the answer violates the model."""


class ModelFormat(str, Enum):
    LP = "lp"
    MPS = "mps"


@dataclass(frozen=True)
class BackendConfig:
    """How to invoke one external solver process.

    command is a template such as "highs {model} {solution} {timelimit}";
    solution_path overrides where the output file is expected (default: next
    to the model file); a file already there is deleted before the process
    starts. The time limit is passed to the process and also enforced as a
    hard wall-clock kill.
    """

    command: str
    model_format: ModelFormat = ModelFormat.LP
    time_limit: float = 3600.0
    solution_path: str | None = None

    def __post_init__(self) -> None:
        if not self.command.strip():
            raise BackendError("backend command is empty")
        if not positive_finite(self.time_limit):
            raise BackendError(
                f"time limit must be positive and finite, got {self.time_limit!r}"
            )


def _substitute(command: str, mapping: dict[str, str]) -> list[str]:
    tokens = shlex.split(command)
    if not tokens:
        raise BackendProcessError("backend command is empty after splitting")
    substituted = []
    for token in tokens:
        try:
            substituted.append(token.format(**mapping))
        except (KeyError, IndexError, ValueError) as exc:
            raise BackendProcessError(
                f"bad placeholder in backend command token {token!r}: {exc}"
            ) from None
    return substituted


def solve_external(
    model: LinearModel, layout, cfg: BackendConfig, time_limit: float | None = None
) -> tuple[SolveStatus, tuple[int, ...], int]:
    """Export the model, run the backend, and check what it wrote: (status,
    vertices, nodes), as solve_in_process answers.

    The process gets the smaller of cfg.time_limit and time_limit, both as
    {timelimit} and as the hard kill. OPTIMAL comes with the vertex set of
    the checked assignment; INFEASIBLE and TIME_LIMIT, from a marker or a
    kill, come with none. nodes is the N of an answer's leading "# nodes N"
    line, 0 without one. Raises BackendProcessError for crashes and unusable
    files, BackendValidationError for assignments that violate the model
    beyond the fixed tolerance.
    """
    limit = cfg.time_limit if time_limit is None else min(cfg.time_limit, time_limit)
    with tempfile.TemporaryDirectory(prefix="qclique-backend-") as scratch:
        model_path = Path(scratch) / f"model.{cfg.model_format.value}"
        if cfg.model_format is ModelFormat.MPS:
            model_path.write_text(export_mps(model), encoding="utf-8")
        else:
            model_path.write_text(export_lp(model), encoding="utf-8")
        solution_path = (
            Path(cfg.solution_path)
            if cfg.solution_path is not None
            else Path(scratch) / "model.sol"
        )
        argv = _substitute(
            cfg.command,
            {
                "model": str(model_path),
                "solution": str(solution_path),
                "timelimit": str(limit),
            },
        )
        # A file left from an earlier run must not pass for this run's answer.
        try:
            solution_path.unlink(missing_ok=True)
        except OSError as exc:
            raise BackendProcessError(f"cannot clear the solution path: {exc}") from None
        try:
            run = subprocess.run(argv, capture_output=True, text=True, timeout=limit)
        except subprocess.TimeoutExpired:
            return SolveStatus.TIME_LIMIT, (), 0
        except OSError as exc:
            raise BackendProcessError(f"cannot run backend {argv[0]!r}: {exc}")
        if run.returncode != 0:
            tail = run.stderr.strip().splitlines()[-3:]
            raise BackendProcessError(
                f"backend exited with code {run.returncode}: "
                + (" / ".join(tail) if tail else "no diagnostics")
            )
        if not solution_path.exists():
            raise BackendProcessError(
                f"backend wrote no solution file at {solution_path}"
            )
        text = solution_path.read_text(encoding="utf-8")

    head = text.split(None, 1)
    marker = head[0].upper() if head else ""
    if marker == "INFEASIBLE":
        return SolveStatus.INFEASIBLE, (), 0
    if marker == "TIMELIMIT":
        return SolveStatus.TIME_LIMIT, (), 0
    words = text.partition("\n")[0].split()
    nodes = 0
    if len(words) == 3 and words[:2] == ["#", "nodes"] and words[2].isdecimal():
        nodes = int(words[2])
    try:
        assignment = parse_solution_file(model, text)
    except FormatError as exc:
        raise BackendProcessError(f"unusable solution file: {exc}") from None
    return _answer(model, layout, SolveStatus.OPTIMAL, assignment, nodes)


def check_assignment(model: LinearModel, assignment: dict[str, Exact]) -> None:
    """Re-check a solver's assignment against the exact model.

    Every row and bound must hold and every binary must be integral, each
    within TOLERANCE; otherwise BackendValidationError names the worst
    violations. Used for every solver answer, in process or not.
    """
    report = model.evaluate(assignment, tol=TOLERANCE)
    if not report.feasible or not report.integral:
        worst = ", ".join(
            f"{name} by {float(amount):.3g}"
            for name, amount in report.violations[:3]
        )
        kind = "constraint violations" if not report.feasible else "fractional binaries"
        raise BackendValidationError(
            f"backend assignment rejected ({kind}"
            + (f": {worst})" if worst else ")")
        )


def extract_vertex_set(layout, assignment: dict[str, Exact]) -> tuple[int, ...]:
    """Selected vertices from an assignment's indicator variables.

    Each indicator must be integral within TOLERANCE; vertices with value at
    least one half are selected. Objectives are for the caller to recompute
    from the graph, never to read off the assignment.
    """
    chosen = []
    for vertex, name in enumerate(layout.x):
        value = assignment[name]
        if min(abs(value), abs(value - 1)) > TOLERANCE:
            raise BackendValidationError(
                f"indicator {name} is fractional: {float(value):.6f}"
            )
        if 2 * value >= 1:
            chosen.append(vertex)
    return tuple(chosen)


def solve_in_process(
    model: LinearModel, layout, time_limit: float | None
) -> tuple[SolveStatus, tuple[int, ...], int]:
    """Solve a built model with the bundled HiGHS engine: (status, vertices,
    nodes), as solve_external answers."""
    from .highs import solve_model

    return _answer(model, layout, *solve_model(model, time_limit=time_limit))


def _answer(
    model: LinearModel, layout, status: SolveStatus, assignment, nodes: int
) -> tuple[SolveStatus, tuple[int, ...], int]:
    """Either route's answer: the vertex set of the assignment, which passes
    check_assignment first; empty when there is none or the model is
    infeasible."""
    if assignment is None or status is SolveStatus.INFEASIBLE:
        return status, (), nodes
    check_assignment(model, assignment)
    return status, extract_vertex_set(layout, assignment), nodes
