"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 6 and 7 need the Polbooks instance, which cannot be fetched in this
environment; they print a SKIP line with the reason instead of faking a
result (see conftest.polbooks_path for how to supply the file).
"""

from __future__ import annotations

import logging
import random
from fractions import Fraction

import pytest

import flowcheck
from conftest import polbooks_path, random_graph
from qclique.cli import main as cli_main
from qclique.driver import solve_problem
from qclique.formulations import (
    Connectivity,
    Problem,
    ProblemSpec,
    add_cflow,
    add_cstree,
    add_mpr,
    build_certificate,
    build_f3,
    build_m1,
)
from qclique.graphs import Graph, induced_edge_count, is_connected
from qclique.grid import GridSpec, run_grid
from qclique.lazy import solve_lazy
from qclique.solve import (
    SolveStatus,
    branch_and_bound,
    brute_force,
    meets_density,
)

GAMMAS = (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10), Fraction(9, 10))


@pytest.fixture
def announce(capsys):
    """Print one [criterion-N] line straight to the terminal, then assert."""

    def _announce(
        num: int,
        text: str,
        ok: bool = True,
        *,
        detail: str = "",
        skip: str | None = None,
    ) -> None:
        if skip is not None:
            with capsys.disabled():
                print(f"[criterion-{num}] {text}: SKIP ({skip})")
            pytest.skip(skip)
        word = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[criterion-{num}] {text}: {word}")
        assert ok, f"criterion {num} failed: {text}\n{detail}"

    return _announce


def seeded_suite() -> list[Graph]:
    """The 200 deterministic random instances shared by criteria 1 and 5."""
    suite = []
    for index in range(200):
        rng = random.Random(7000 + index)
        n = 5 + index % 8
        p = (0.2, 0.4, 0.6)[index % 3]
        suite.append(random_graph(rng, n, p))
    return suite


def _solution_is_feasible(g: Graph, spec: ProblemSpec, solution) -> bool:
    vertices = solution.vertices
    if spec.problem is Problem.MQC:
        if len(vertices) != solution.objective:
            return False
        edges = induced_edge_count(g, vertices)
        if not meets_density(edges, len(vertices), spec.gamma):
            return False
    else:
        if len(vertices) != spec.k:
            return False
        if induced_edge_count(g, vertices) != solution.objective:
            return False
    if spec.connected and not is_connected(g, vertices):
        return False
    return True


def test_criterion_1_oracle_equivalence(announce):
    problems: list[str] = []
    for index, g in enumerate(seeded_suite()):
        specs = []
        for gamma in GAMMAS:
            specs.append(ProblemSpec.mqc(gamma))
            specs.append(ProblemSpec.mqc(gamma, mode=Connectivity.CSTREE))
        for k in range(2, g.n + 1):
            specs.append(ProblemSpec.dks(k))
            specs.append(ProblemSpec.dks(k, mode=Connectivity.CSTREE))
        for spec in specs:
            expected = brute_force(g, spec)
            got = branch_and_bound(g, spec)
            if (got.status, got.objective) != (expected.status, expected.objective):
                problems.append(
                    f"graph {index} ({g.fingerprint()}) {spec.label()}: "
                    f"bnb {got.status}/{got.objective} vs "
                    f"brute {expected.status}/{expected.objective}"
                )
            elif got.status is SolveStatus.OPTIMAL and not _solution_is_feasible(
                g, spec, got
            ):
                problems.append(
                    f"graph {index} {spec.label()}: infeasible witness {got.vertices}"
                )
    announce(
        1,
        "branch and bound matches brute force on 200 seeded graphs",
        not problems,
        detail="\n".join(problems[:10]),
    )


def _certificate_feasible(model, layout, g, members) -> bool:
    report = model.evaluate(build_certificate(layout, g, members))
    return report.feasible and report.integral


def test_criterion_2_rows_satisfiable_iff_connected(announce):
    pairs = tuple((i, j) for i in range(5) for j in range(i + 1, 5))
    problems: list[str] = []
    for mask in range(1 << 10):
        edges = tuple(pairs[b] for b in range(10) if (mask >> b) & 1)
        g = Graph.build(5, edges)
        cache: dict[tuple[str, int], tuple] = {}
        for subset in range(1, 1 << 5):
            members = tuple(v for v in range(5) if (subset >> v) & 1)
            size = len(members)
            connected = flowcheck.is_connected_subset(edges, members)
            if connected:
                if ("cstree", size) not in cache:
                    if size == 1:
                        model, layout = build_f3(g, Fraction(1), 1, 1)
                    else:
                        model, layout = build_m1(g, size)
                    cache[("cstree", size)] = add_cstree(model, layout, g)
                model, layout = cache[("cstree", size)]
                if not _certificate_feasible(model, layout, g, members):
                    problems.append(f"cstree witness rejected: {mask=} {members=}")
                if size >= 2:
                    if ("cflow", size) not in cache:
                        model, layout = build_m1(g, size)
                        cache[("cflow", size)] = add_cflow(model, layout, g)
                    model, layout = cache[("cflow", size)]
                    if not _certificate_feasible(model, layout, g, members):
                        problems.append(
                            f"cflow witness rejected: {mask=} {members=}"
                        )
                if mask % 97 == 0:
                    # Spot-check the independent enumerator on the positive
                    # side too, so it is trusted for the negative side.
                    if not flowcheck.cstree_satisfiable(5, edges, members, size):
                        problems.append(
                            f"enumerator misses cstree pattern: {mask=} {members=}"
                        )
                    if size >= 2 and not flowcheck.cflow_satisfiable(
                        5, edges, members, size
                    ):
                        problems.append(
                            f"enumerator misses cflow pattern: {mask=} {members=}"
                        )
            else:
                if flowcheck.cstree_satisfiable(5, edges, members, size):
                    problems.append(
                        f"cstree rows satisfied disconnected: {mask=} {members=}"
                    )
                if flowcheck.cflow_satisfiable(5, edges, members, size):
                    problems.append(
                        f"cflow rows satisfied disconnected: {mask=} {members=}"
                    )
        if problems:
            break
    announce(
        2,
        "connectivity rows satisfiable exactly for connected subsets",
        not problems,
        detail="\n".join(problems[:10]),
    )


def test_criterion_3_disconnected_optima(announce, two_k4s):
    g = two_k4s
    problems: list[str] = []

    def check(label: str, solution, objective: int, connected: bool) -> None:
        ok = (
            solution.status is SolveStatus.OPTIMAL
            and solution.objective == objective
            and is_connected(g, solution.vertices) == connected
        )
        if not ok:
            problems.append(
                f"{label}: {solution.status}/{solution.objective} "
                f"{solution.vertices}"
            )

    dks = ProblemSpec.dks(8)
    check("dks bnb", branch_and_bound(g, dks), 12, connected=False)
    check("dks milp", solve_problem(g, dks, engine="milp"), 12, connected=False)

    check(
        "dcks cflow milp",
        solve_problem(g, ProblemSpec.dks(8, mode=Connectivity.CFLOW), engine="milp"),
        10,
        connected=True,
    )
    check(
        "dcks cstree milp",
        solve_problem(g, ProblemSpec.dks(8, mode=Connectivity.CSTREE), engine="milp"),
        10,
        connected=True,
    )
    check("dcks lazy", solve_lazy(g, 8), 10, connected=True)
    check(
        "dcks bnb",
        branch_and_bound(g, ProblemSpec.dks(8, mode=Connectivity.CFLOW)),
        10,
        connected=True,
    )

    gamma = Fraction(3, 7)
    mqc = ProblemSpec.mqc(gamma)
    check("mqc bnb", branch_and_bound(g, mqc), 8, connected=False)
    check("mqc milp", solve_problem(g, mqc, engine="milp"), 8, connected=False)

    check(
        "mcqc mpr milp",
        solve_problem(g, ProblemSpec.mqc(gamma, mode=Connectivity.MPR), engine="milp"),
        7,
        connected=True,
    )
    check(
        "mcqc cstree milp",
        solve_problem(
            g, ProblemSpec.mqc(gamma, mode=Connectivity.CSTREE), engine="milp"
        ),
        7,
        connected=True,
    )
    check(
        "mcqc bnb",
        branch_and_bound(g, ProblemSpec.mqc(gamma, mode=Connectivity.MPR)),
        7,
        connected=True,
    )

    announce(
        3,
        "two-K4s landmarks: 12/10 edges and sizes 8/7 across engines",
        not problems,
        detail="\n".join(problems),
    )


def test_criterion_4_model_size_audits(announce):
    rng = random.Random(9090)
    problems: list[str] = []

    def expect(label: str, model, variables: int, rows: int) -> None:
        got = (len(model.variables), len(model.constraints))
        if got != (variables, rows):
            problems.append(f"{label}: expected {(variables, rows)}, got {got}")

    for index in range(50):
        n = rng.randint(5, 12)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6]))
        m = g.m
        k = max(2, n // 2)
        tag = f"graph {index} (n={n}, m={m})"

        model, layout = build_m1(g, k)
        expect(f"{tag} m1", model, n + m, 1 + 2 * m)
        model, layout = add_cstree(model, layout, g)
        expect(
            f"{tag} m1+cstree",
            model,
            n + m + 2 * (2 * m + n),
            1 + 2 * m + (4 * n + 5 * m + 2),
        )

        model, layout = build_m1(g, k)
        model, layout = add_cflow(model, layout, g)
        expect(
            f"{tag} m1+cflow",
            model,
            n + m + (n + 2 * m),
            1 + 2 * m + (1 + 2 * n + 2 * m),
        )

        lower, upper = 1, g.n
        model, layout = build_f3(g, Fraction(1, 2), lower, upper)
        expect(f"{tag} f3", model, n + m + (upper - lower + 1), 3 + 2 * m)
        model, layout = add_mpr(model, layout, g)
        expect(
            f"{tag} f3+mpr",
            model,
            n + m + (upper - lower + 1) + (n + m),
            3 + 2 * m + (1 + 5 * n + 2 * m),
        )

        model, layout = build_f3(g, Fraction(1, 2), lower, upper)
        model, layout = add_cstree(model, layout, g)
        expect(
            f"{tag} f3+cstree",
            model,
            n + m + (upper - lower + 1) + 2 * (2 * m + n),
            3 + 2 * m + (4 * n + 5 * m + 2),
        )
    announce(
        4,
        "variable and row counts match their closed forms on 50 graphs",
        not problems,
        detail="\n".join(problems[:10]),
    )


def test_criterion_5_lazy_loop_convergence(announce, caplog):
    problems: list[str] = []
    total_rounds = 0
    with caplog.at_level(logging.INFO, logger="qclique.lazy"):
        for index, g in enumerate(seeded_suite()):
            for k in range(2, g.n + 1):
                expected = brute_force(g, ProblemSpec.dks(k, mode=Connectivity.LAZY))
                got = solve_lazy(g, k)
                if (got.status, got.objective) != (
                    expected.status,
                    expected.objective,
                ):
                    problems.append(
                        f"graph {index} k={k}: lazy {got.status}/{got.objective} "
                        f"vs brute {expected.status}/{expected.objective}"
                    )
                    continue
                if got.cut_rounds is None:
                    problems.append(f"graph {index} k={k}: missing round count")
                    continue
                total_rounds += got.cut_rounds
                if got.status is SolveStatus.OPTIMAL and not is_connected(
                    g, got.vertices
                ):
                    problems.append(
                        f"graph {index} k={k}: disconnected answer {got.vertices}"
                    )
    logged = [r for r in caplog.records if "disconnected; adding" in r.getMessage()]
    if total_rounds == 0:
        problems.append("suite never exercised a separation round")
    if len(logged) != total_rounds:
        problems.append(
            f"saw {len(logged)} round log records for {total_rounds} rounds"
        )
    announce(
        5,
        "cut separation matches brute force with finite, logged rounds",
        not problems,
        detail="\n".join(problems[:10]),
    )


def test_criterion_6_dataset_stats_line(announce, capsys):
    path = polbooks_path()
    if path is None:
        announce(
            6,
            "stats line for the 105-vertex co-purchase network",
            skip="dataset file not available in this environment",
        )
    code = cli_main(["stats", str(path)])
    out = capsys.readouterr().out.splitlines()
    announce(
        6,
        "stats line for the 105-vertex co-purchase network",
        code == 0 and out[0] == "105 441 0.08",
        detail=f"exit {code}, output {out!r}",
    )


def test_criterion_7_dataset_grid_disconnected_rates(announce, tmp_path):
    path = polbooks_path()
    if path is None:
        announce(
            7,
            "grid disconnected-optimum rates on the co-purchase network",
            skip="dataset file not available in this environment",
        )
    from qclique.cli import load_graph

    g = load_graph(path)
    dks_row = run_grid(
        g,
        GridSpec(
            name="polbooks-dks", family=Problem.DKS, engine="milp", time_limit=600.0
        ),
        tmp_path / "polbooks-dks.csv",
    )
    mqc_row = run_grid(
        g,
        GridSpec(
            name="polbooks-mqc", family=Problem.MQC, engine="milp", time_limit=600.0
        ),
        tmp_path / "polbooks-mqc.csv",
    )
    ok = abs(dks_row.pct_disc - 6.8) <= 1.0 and abs(mqc_row.pct_disc - 2.2) <= 1.0
    announce(
        7,
        "grid disconnected-optimum rates on the co-purchase network",
        ok,
        detail=f"dks pct_disc={dks_row.pct_disc}, mqc pct_disc={mqc_row.pct_disc}",
    )
