"""Parameter-sweep harness with CSV persistence and resumable runs.

A grid solves one instance across a whole parameter range: the density
threshold swept from 0.10 to 1.00 in hundredths (91 cells) or the target
cardinality swept from 2 to n-1. The instance is reduced to its largest
connected component first, every cell is solved under the same per-cell
limits, and each outcome is appended to a CSV that doubles as the resume
state: cells already present are never recomputed, and an interrupted run
continued later yields a byte-identical file.

Aggregation follows the reporting convention of the summary tables:
pct_succ counts cells resolved within the limits (optimal or proven
infeasible), pct_disc counts disconnected optima among optimal cells only,
and runtimes are averaged over resolved cells with a population standard
deviation.
"""

from __future__ import annotations

import csv
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import fmean, pstdev
from typing import Callable

from .backend import BackendConfig, check_engine
from .driver import solve_problem
from .formulations import Connectivity, FormulationError, Problem, ProblemSpec
from .graphs import Graph, is_connected, largest_component
from .solve import Limits, SolveError, SolveStatus

logger = logging.getLogger(__name__)

CSV_COLUMNS = ("param", "status", "objective", "connected", "elapsed", "nodes")

ERROR_STATUS = "error"
OPTIMAL = SolveStatus.OPTIMAL.value
STATUSES = frozenset(status.value for status in SolveStatus) | {ERROR_STATUS}


class GridError(ValueError):
    """Raised for unusable grid specifications or target files."""


@dataclass(frozen=True)
class GridSpec:
    """One instance swept over one parameter range.

    family picks the range: MQC sweeps gamma over {0.10, 0.11, ..., 1.00},
    DKS sweeps k over {2, ..., n-1} of the preprocessed instance.
    """

    name: str
    family: Problem
    mode: Connectivity = Connectivity.NONE
    engine: str | BackendConfig = "bnb"
    time_limit: float = 3600.0
    memory_bytes: int = 10 * 10**9

    def __post_init__(self) -> None:
        if not self.name.strip():
            raise GridError("grid needs a nonempty instance name")
        try:
            check_engine(self.engine)
            Limits(time_seconds=self.time_limit, memory_bytes=self.memory_bytes)
            self.cell_spec(self.probe_param())
        except (FormulationError, SolveError) as exc:
            raise GridError(str(exc)) from None

    def probe_param(self):
        return Fraction(1, 2) if self.family is Problem.MQC else 2

    def parameters(self, n: int) -> list:
        """The sweep values for an instance with n vertices."""
        if self.family is Problem.MQC:
            return [Fraction(i, 100) for i in range(10, 101)]
        return list(range(2, n))

    def cell_spec(self, param) -> ProblemSpec:
        if self.family is Problem.MQC:
            return ProblemSpec.mqc(param, mode=self.mode)
        return ProblemSpec.dks(param, mode=self.mode)

    def render_param(self, param) -> str:
        if self.family is Problem.MQC:
            return f"{float(param):.2f}"
        return str(param)


@dataclass(frozen=True)
class GridCell:
    """One solved (or failed) parameter cell, as persisted to CSV: elapsed
    is kept as to_csv writes it, and values no row may hold raise GridError."""

    param: str
    status: str
    objective: int
    connected: bool
    elapsed: float
    nodes: int

    def __post_init__(self) -> None:
        elapsed = float(f"{self.elapsed:.6f}")
        low = min(self.objective, self.nodes, elapsed)
        if self.status not in STATUSES or low < 0 or not elapsed < math.inf:
            raise GridError(f"invalid grid cell: {self!r}")
        object.__setattr__(self, "elapsed", elapsed)

    def to_csv(self) -> list[str]:
        return [
            self.param,
            self.status,
            str(self.objective),
            "true" if self.connected else "false",
            f"{self.elapsed:.6f}",
            str(self.nodes),
        ]

    @classmethod
    def from_csv(cls, row: list[str]) -> "GridCell":
        """The cell of a row as to_csv writes it; any other row raises
        GridError."""
        try:
            param, status, objective, connected, elapsed, nodes = row
            flag = ("false", "true").index(connected) == 1  # else ValueError
            return cls(param, status, int(objective), flag, float(elapsed), int(nodes))
        except ValueError:  # GridError, from the cell's own checks, is one
            raise GridError(f"malformed grid CSV row: {row!r}") from None


@dataclass(frozen=True)
class GridRow:
    """Summary of one grid: the table-shaped aggregate over its cells."""

    name: str
    cells: int
    pct_succ: float
    pct_disc: float
    runtime_mean: float
    runtime_sd: float


def read_cells(path: str | Path) -> list[GridCell]:
    """Load previously computed cells; an absent file is an empty grid."""
    return _read(Path(path))[0]


def _read(path: Path) -> tuple[list[GridCell], int, str | None]:
    """The cells, the byte length of the terminated lines, and the header's
    tag (None for the six-column header, which has no tag); a last line
    without its newline (only an interrupted write leaves one) is skipped."""
    data = path.read_bytes() if path.exists() else b""
    intact = data.rfind(b"\n") + 1
    columns = ",".join(CSV_COLUMNS) + ",v2:"
    if intact < len(data):
        torn = data[intact:].decode("utf-8", "replace")
        if not intact and not (columns.startswith(torn) or torn.startswith(columns)):
            raise GridError(f"unexpected grid CSV header: {torn!r}")
        logger.warning("%s: dropping the unterminated last line %r", path, torn)
    rows = list(csv.reader(data[:intact].decode("utf-8").splitlines()))
    if not rows:
        return [], intact, None
    header = tuple(rows[0])
    tag = header[6] if len(header) == 7 and header[6].startswith("v2:") else None
    if header[:6] != CSV_COLUMNS or len(header) != 6 + (tag is not None):
        raise GridError(f"unexpected grid CSV header: {rows[0]!r}")
    return [GridCell.from_csv(row) for row in rows[1:]], intact, tag


def aggregate(name: str, cells: list[GridCell]) -> GridRow:
    """Fold cells into the summary row; empty grids aggregate to zeros."""
    total = len(cells)
    resolved = [
        c
        for c in cells
        if c.status in (SolveStatus.OPTIMAL.value, SolveStatus.INFEASIBLE.value)
    ]
    optimal = [c for c in cells if c.status == SolveStatus.OPTIMAL.value]
    disconnected = [c for c in optimal if not c.connected]
    pct_succ = 100.0 * len(resolved) / total if total else 0.0
    pct_disc = 100.0 * len(disconnected) / len(optimal) if optimal else 0.0
    times = [c.elapsed for c in resolved]
    return GridRow(
        name=name,
        cells=total,
        pct_succ=pct_succ,
        pct_disc=pct_disc,
        runtime_mean=fmean(times) if times else 0.0,
        runtime_sd=pstdev(times) if times else 0.0,
    )


def _solve_cell(
    g: Graph,
    spec: GridSpec,
    param,
    label: str,
    clock: Callable[[], float],
    ceiling: int | None = None,
) -> GridCell:
    """Run the cell of param, rendered as label; engine failures become an
    error-status cell. elapsed runs from building the cell's ProblemSpec to
    solve_problem's return.

    The CSV has no room for the failure, so its type, message and traceback
    go to this module's logger at WARNING.
    """
    limits = Limits(spec.time_limit, spec.memory_bytes, ceiling)
    started = clock()
    try:
        solution = solve_problem(g, spec.cell_spec(param), spec.engine, limits)
    except Exception as exc:
        logger.warning(
            "%s cell %s failed: %s: %s",
            spec.name,
            label,
            type(exc).__name__,
            exc,
            exc_info=True,
        )
        return GridCell(label, ERROR_STATUS, 0, False, clock() - started, 0)
    elapsed = clock() - started
    connected = bool(solution.vertices) and is_connected(g, solution.vertices)
    status, nodes = solution.status.value, solution.nodes_explored
    return GridCell(label, status, solution.objective, connected, elapsed, nodes)


def run_grid(
    g: Graph,
    spec: GridSpec,
    csv_path: str | Path,
    workers: int = 1,
    clock: Callable[[], float] = time.monotonic,
) -> GridRow:
    """Sweep the grid, persisting each cell, and return the summary.

    The instance is reduced to its largest connected component before
    solving. Cells already present in the CSV are kept as-is; missing ones
    are computed and appended in deterministic parameter order, each flushed
    as it lands, so an interrupted sweep keeps every cell written so far
    (and recomputes a last line it left unterminated). An MQC cell's node
    count, not its answer, depends on the cells at a lower gamma, which cap
    its objective. A file whose header names another reduced instance,
    family or mode raises GridError; the rows of a six-column header cap
    nothing. The clock is injectable so tests can pin elapsed values.
    """
    if workers < 1:
        raise GridError(f"worker count must be at least 1, got {workers}")
    core, _ = largest_component(g)
    params = spec.parameters(core.n)
    if not params:
        raise GridError(
            f"empty parameter range for {spec.family.value} on n={core.n}"
        )
    path = Path(csv_path)
    existing, intact, tag = _read(path)
    mine = f"v2:{core.fingerprint()}:{spec.family.value}:{spec.mode.value}"
    if tag is not None and tag != mine:
        raise GridError(f"{path} holds cells of {tag}, not of {mine}")
    labels = [spec.render_param(p) for p in params]
    done = {cell.param for cell in existing}
    pending = [(p, label) for p, label in zip(params, labels) if label not in done]

    if not pending:
        return aggregate(spec.name, existing)
    # A gamma'-quasi-clique is a gamma-quasi-clique for gamma < gamma',
    # connected or not, so the optima at a lower gamma cap an MQC cell's:
    # those of the rows present now (all a pool reads, which keeps it
    # deterministic) and, in a sequential sweep, of the cells solved since.
    # Only a tagged file is known to hold cells of this instance.
    optima = {c.param: c.objective for c in existing if tag and c.status == OPTIMAL}
    below, low, solved = {}, math.inf, math.inf
    for label in labels:
        below[label], low = low, min(low, optima.get(label, math.inf))

    def solve(item: tuple) -> GridCell:
        param, label = item
        ceiling = min(below[label], solved)
        capped = spec.family is Problem.MQC and ceiling < math.inf
        return _solve_cell(core, spec, param, label, clock, ceiling if capped else None)

    with path.open("a", newline="", encoding="utf-8") as handle:
        handle.truncate(intact)
        writer = csv.writer(handle, lineterminator="\n")
        if not intact:
            writer.writerow(CSV_COLUMNS + (mine,))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # Both maps yield in parameter order, so a cell reaches the file
            # as soon as it and every cell before it are done.
            for cell in (map if workers == 1 else pool.map)(solve, pending):
                writer.writerow(cell.to_csv())
                handle.flush()
                existing.append(cell)
                if workers == 1 and cell.status == OPTIMAL:
                    solved = min(solved, cell.objective)
    return aggregate(spec.name, existing)
