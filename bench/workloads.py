"""The workloads: their instances, cells, and one round of each.

A round solves every cell of the workload once, one cell at a time, and
returns one Outcome per cell with its wall time and the answer as the
program reported it. The benchmark repeats whole rounds, so every run
attempts the same operations in the same proportions.
"""

from __future__ import annotations

import csv
import shlex
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checker
import instances
import reference

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Outcome:
    key: str
    seconds: float
    answer: checker.Answer | None
    error: str | None = None


def _answer(spec, solution, tag: str = "") -> checker.Answer:
    return checker.Answer(
        problem=spec.problem.value,
        param=spec.gamma if spec.gamma is not None else spec.k,
        mode=spec.mode.value,
        status=solution.status.value,
        vertices=tuple(solution.vertices),
        objective=solution.objective,
        tag=tag,
    )


class Workload:
    """Set-up and rounds of one workload; subclasses name the cells."""

    instance: str
    cell_limit: float
    # Set during traced rounds: where solver children append their spans.
    child_spans: Path | None = None

    def __init__(self, q, seed: int, out: Path) -> None:
        self.q = q
        self.seed = seed
        self.out = out
        self.inst = instances.generate(self.instance)
        self.adj = checker.adjacency(self.inst.n, self.inst.edges)
        # Answers come back in the ids of the largest component, which are
        # the generated ids only when the whole instance is one component.
        if not checker.connected(self.adj, range(self.inst.n)):
            raise SystemExit(f"instance {self.instance} is not connected")

    def setup(self) -> None:
        """Generate and parse the instance, take its largest component, and
        solve one untimed warm-up cell."""
        inst = instances.generate(self.instance)
        text = instances.edge_list_text(inst, self.seed)
        graph = self.q.graphs.parse_edge_list(text)
        self.graph, _ = self.q.graphs.largest_component(graph)
        self.warm_up()

    def warm_up(self) -> None:
        raise NotImplementedError

    def round(self) -> list[Outcome]:
        raise NotImplementedError

    def limits(self):
        return self.q.Limits(time_seconds=self.cell_limit)


class GridBnb(Workload):
    """run_grid sweeps with the branch-and-bound engine."""

    instance = "grid"
    cell_limit = 30.0
    SWEEPS = (("mqc", "mqc", "none"), ("mcqc", "mqc", "cstree"), ("dcks", "dks", "lazy"))

    def __init__(self, q, seed: int, out: Path) -> None:
        super().__init__(q, seed, out)
        self.captured: list = []
        dispatch = q.grid.solve_problem

        def capture(g, spec, engine="bnb", limits=q.Limits()):
            try:
                solution = dispatch(g, spec, engine, limits)
            except Exception as exc:
                self.captured.append((spec, exc))
                raise
            self.captured.append((spec, solution))
            return solution

        # Installed once, below any tracing span: it only keeps the answer,
        # which the grid CSV does not record.
        q.grid.solve_problem = capture
        self.reference = reference.load(self.inst)

    def specs(self):
        q = self.q
        for name, family, mode in self.SWEEPS:
            yield name, q.GridSpec(
                name=name,
                family=q.Problem(family),
                mode=q.Connectivity(mode),
                engine="bnb",
                time_limit=self.cell_limit,
            )

    def warm_up(self) -> None:
        spec = self.q.ProblemSpec.mqc(Fraction(1, 2))
        self.q.driver.solve_problem(self.graph, spec, "bnb", self.limits())

    def round(self) -> list[Outcome]:
        outcomes = []
        for name, spec in self.specs():
            path = self.out / f"{name}.csv"
            path.unlink(missing_ok=True)
            self.captured.clear()
            self.q.grid.run_grid(self.graph, spec, path, clock=time.perf_counter)
            with path.open(newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))[1:]
            if len(rows) != len(self.captured):
                raise SystemExit(f"{name}: {len(rows)} CSV rows for {len(self.captured)} cells")
            for row, (cell, solution) in zip(rows, self.captured):
                param, status, objective, _, elapsed, _ = row
                key = f"{name}:{param}"
                if isinstance(solution, Exception):
                    error = f"{type(solution).__name__}: {solution}"
                    outcomes.append(Outcome(key, float(elapsed), None, error))
                    continue
                answer = _answer(cell, solution)
                error = None
                if (status, int(objective)) != (answer.status, answer.objective):
                    error = f"CSV row {row} disagrees with the returned answer"
                elif self.reference.get(key) != [answer.status, answer.objective]:
                    error = f"reference optimum is {self.reference.get(key)}"
                outcomes.append(Outcome(key, float(elapsed), answer, error))
        return outcomes


class BackendIo(Workload):
    """The external-solver path: each model goes out as LP and as MPS text
    to a child process and its answer comes back through a file. Cells are
    solved one by one through solve_problem, in a fixed order."""

    instance = "large"
    cell_limit = 60.0
    CELLS = (
        ("mqc", "1", "cstree"),
        ("dks", 9, "cflow"),
    )
    WARM_UP = ("mqc", "1", "none")

    def spec(self, problem: str, param, mode: str):
        q = self.q
        if problem == "mqc":
            return q.ProblemSpec.mqc(Fraction(param), mode=q.Connectivity(mode))
        return q.ProblemSpec.dks(param, mode=q.Connectivity(mode))

    def solve(self, cell) -> list[Outcome]:
        spec = self.spec(*cell)
        outcomes = []
        for tag, engine in self.engines():
            key = f"{spec.problem.value}:{cell[1]}:{spec.mode.value}{tag}"
            start = time.perf_counter()
            try:
                solution = self.q.driver.solve_problem(self.graph, spec, engine, self.limits())
            except Exception as exc:  # a failed cell is counted, not fatal
                seconds = time.perf_counter() - start
                outcomes.append(Outcome(key, seconds, None, f"{type(exc).__name__}: {exc}"))
                continue
            seconds = time.perf_counter() - start
            outcomes.append(Outcome(key, seconds, _answer(spec, solution, tag)))
        return outcomes

    def warm_up(self) -> None:
        spec = self.spec(*self.WARM_UP)
        self.q.driver.solve_problem(self.graph, spec, self.engines()[0][1], self.limits())

    def round(self) -> list[Outcome]:
        return [o for cell in self.CELLS for o in self.solve(cell)]

    def engines(self) -> list[tuple[str, object]]:
        """(key tag, BackendConfig) for the LP and the MPS route."""
        python = shlex.quote(sys.executable)
        if self.child_spans is None:
            command = f"{python} -m qclique.highs {{model}} {{solution}} {{timelimit}}"
        else:
            shim = shlex.join([str(HERE / "highs_shim.py"), str(self.child_spans)])
            command = f"{python} {shim} {{model}} {{solution}} {{timelimit}}"
        fmt = self.q.ModelFormat
        return [
            (f"@{f.value}", self.q.BackendConfig(command, model_format=f, time_limit=self.cell_limit))
            for f in (fmt.LP, fmt.MPS)
        ]


WORKLOADS = {"grid-bnb": GridBnb, "backend-io": BackendIo}
