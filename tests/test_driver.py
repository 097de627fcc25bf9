"""Tests for the unified solve dispatch."""

from __future__ import annotations

import re
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclique.backend import (
    TOLERANCE,
    BackendConfig,
    BackendValidationError,
    ModelFormat,
)
from qclique.driver import build_problem_model, solve_problem
from qclique.formulations import Connectivity, ProblemSpec
from qclique.graphs import Graph, induced_edge_count, is_connected
from qclique.milp import Evaluation, LinearModel
from qclique.solve import Limits, SolveError, SolveStatus, brute_force

from conftest import graphs

HIGHS_BACKEND = f"{sys.executable} -m qclique.highs {{model}} {{solution}} {{timelimit}}"


class TestBuildProblemModel:
    @pytest.mark.parametrize(
        "mode, extra_rows",
        [
            (Connectivity.NONE, 0),
            (Connectivity.CSTREE, 4 * 3 + 5 * 3 + 2),
            (Connectivity.CFLOW, 1 + 2 * 3 + 2 * 3),
        ],
    )
    def test_fixed_cardinality_row_counts(self, triangle, mode, extra_rows):
        spec = ProblemSpec.dks(2, mode=mode)
        model, layout = build_problem_model(triangle, spec)
        assert len(model.constraints) == 1 + 2 * 3 + extra_rows
        assert layout.k == 2

    @pytest.mark.parametrize(
        "mode, extra_rows",
        [
            (Connectivity.NONE, 0),
            (Connectivity.MPR, 1 + 5 * 3 + 2 * 3),
            (Connectivity.CSTREE, 4 * 3 + 5 * 3 + 2),
        ],
    )
    def test_threshold_row_counts(self, triangle, mode, extra_rows):
        spec = ProblemSpec.mqc(Fraction(1, 2), mode=mode)
        model, layout = build_problem_model(triangle, spec)
        assert len(model.constraints) == 3 + 2 * 3 + extra_rows
        assert layout.bounds == (1, 3)

    def test_separation_mode_has_no_static_model(self, triangle):
        spec = ProblemSpec.dks(2, mode=Connectivity.LAZY)
        with pytest.raises(SolveError, match="no static model"):
            build_problem_model(triangle, spec)


class TestSolveProblem:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            (ProblemSpec.dks(8), 12),
            (ProblemSpec.dks(8, mode=Connectivity.CSTREE), 10),
            (ProblemSpec.dks(8, mode=Connectivity.CFLOW), 10),
            (ProblemSpec.dks(8, mode=Connectivity.LAZY), 10),
            (ProblemSpec.mqc(Fraction(3, 7)), 8),
            (ProblemSpec.mqc(Fraction(3, 7), mode=Connectivity.MPR), 7),
            (ProblemSpec.mqc(Fraction(3, 7), mode=Connectivity.CSTREE), 7),
        ],
    )
    @pytest.mark.parametrize("engine", ["bnb", "milp"])
    def test_landmarks_through_every_route(self, two_k4s, spec, expected, engine):
        solution = solve_problem(two_k4s, spec, engine=engine)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == expected
        if spec.connected:
            assert is_connected(two_k4s, solution.vertices)

    def test_brute_engine(self, two_k4s):
        solution = solve_problem(two_k4s, ProblemSpec.dks(8), engine="brute")
        assert solution.objective == 12
        assert solution.vertices == (0, 1, 2, 3, 4, 5, 6, 7)

    def test_brute_engine_enumerates_lazy_mode(self, two_k4s):
        # Separation has no oracle of its own: LAZY is one more connected mode.
        spec = ProblemSpec.dks(8, mode=Connectivity.LAZY)
        solution = solve_problem(two_k4s, spec, engine="brute")
        exact = brute_force(two_k4s, ProblemSpec.dks(8, mode=Connectivity.CFLOW))
        assert replace(solution, elapsed=0.0) == replace(exact, elapsed=0.0)
        assert solution.objective == 10
        assert solution.cut_rounds is None

    def test_external_backend_route(self, two_k4s):
        cfg = BackendConfig(command=HIGHS_BACKEND)
        spec = ProblemSpec.dks(8, mode=Connectivity.CSTREE)
        solution = solve_problem(two_k4s, spec, engine=cfg)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == 10

    # MPS keeps the built column order, so the child solves the very
    # matrix the in-process engine does.
    @pytest.mark.parametrize("mode", [Connectivity.CFLOW, Connectivity.LAZY])
    def test_external_backend_reports_the_solver_nodes(self, two_k4s, mode):
        spec = ProblemSpec.dks(8, mode=mode)
        cfg = BackendConfig(HIGHS_BACKEND, model_format=ModelFormat.MPS)
        external = solve_problem(two_k4s, spec, engine=cfg)
        in_process = solve_problem(two_k4s, spec, engine="milp")
        assert external.vertices == in_process.vertices
        assert external.nodes_explored == in_process.nodes_explored >= 1

    def test_model_route_reports_infeasibility(self):
        g = Graph.build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        spec = ProblemSpec.dks(5, mode=Connectivity.CFLOW)
        solution = solve_problem(g, spec, engine="milp")
        assert solution.status is SolveStatus.INFEASIBLE
        assert solution.vertices == ()

    def test_model_route_respects_time_limit(self, two_k4s):
        spec = ProblemSpec.dks(8, mode=Connectivity.CSTREE)
        solution = solve_problem(
            two_k4s, spec, engine="milp", limits=Limits(time_seconds=1e-9)
        )
        assert solution.status is SolveStatus.TIME_LIMIT

    def test_unknown_engine_rejected(self, triangle):
        with pytest.raises(SolveError, match="unknown engine"):
            solve_problem(triangle, ProblemSpec.dks(2), engine="gurobi")

    @pytest.mark.parametrize("engine", [5, None, 2.5, b"milp", ["milp"]])
    def test_engine_of_another_type_rejected(self, two_k4s, engine):
        # Neither a listed name nor a BackendConfig: refused before any
        # solving, as an unknown name is.
        spec = ProblemSpec.dks(3, mode=Connectivity.CFLOW)
        message = re.escape(f"unknown engine {engine!r}")
        with pytest.raises(SolveError, match=message):
            solve_problem(two_k4s, spec, engine)

    def test_in_process_milp_reports_nodes(self, two_k4s):
        spec = ProblemSpec.dks(8, mode=Connectivity.CFLOW)
        solution = solve_problem(two_k4s, spec, engine="milp")
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.nodes_explored >= 1

    def test_lazy_milp_sums_nodes_over_rounds(self, two_k4s, monkeypatch):
        import qclique.highs

        real = qclique.highs.solve_model
        counts = []

        def solve_model(model, time_limit=None):
            result = real(model, time_limit=time_limit)
            counts.append(result[2])
            return result

        monkeypatch.setattr(qclique.highs, "solve_model", solve_model)
        spec = ProblemSpec.dks(8, mode=Connectivity.LAZY)
        solution = solve_problem(two_k4s, spec, engine="milp")
        assert solution.cut_rounds >= 1
        assert len(counts) == solution.cut_rounds + 1
        assert solution.nodes_explored == sum(counts) >= 1

    @given(data=st.data())
    @settings(deadline=None, max_examples=20)
    def test_model_route_matches_oracle(self, data):
        g = data.draw(graphs(min_n=2, max_n=6))
        k = data.draw(st.integers(min_value=2, max_value=g.n))
        connected = data.draw(st.booleans())
        mode = Connectivity.CFLOW if connected else Connectivity.NONE
        spec = ProblemSpec.dks(k, mode=mode)
        exact = brute_force(g, spec)
        routed = solve_problem(g, spec, engine="milp")
        assert routed.status is exact.status
        assert routed.objective == exact.objective
        if routed.status is SolveStatus.OPTIMAL:
            assert induced_edge_count(g, routed.vertices) == routed.objective


class TestChildTimeLimit:
    """The cell's time limit caps the {timelimit} a solver child gets."""

    def recording_backend(self, tmp_path) -> tuple[BackendConfig, Path]:
        """The bundled HiGHS backend, logging each call's {timelimit} first."""
        log = tmp_path / "limits.txt"
        script = tmp_path / "recording_backend.py"
        script.write_text(
            textwrap.dedent(
                f"""\
                import sys
                from qclique.highs import main
                with open({str(log)!r}, "a", encoding="utf-8") as handle:
                    handle.write(sys.argv[3] + "\\n")
                sys.exit(main(sys.argv[1:]))
                """
            ),
            encoding="utf-8",
        )
        command = f"{sys.executable} {script} {{model}} {{solution}} {{timelimit}}"
        return BackendConfig(command, time_limit=3600.0), log

    @pytest.mark.parametrize("seconds, passed", [(5, "5"), (None, "3600.0")])
    def test_static_cell(self, tmp_path, two_k4s, seconds, passed):
        cfg, log = self.recording_backend(tmp_path)
        spec = ProblemSpec.dks(8, mode=Connectivity.CFLOW)
        solution = solve_problem(two_k4s, spec, cfg, Limits(time_seconds=seconds))
        assert solution.status is SolveStatus.OPTIMAL
        assert log.read_text(encoding="utf-8").split() == [passed]

    def test_every_lazy_round(self, tmp_path, two_k4s):
        cfg, log = self.recording_backend(tmp_path)
        spec = ProblemSpec.dks(8, mode=Connectivity.LAZY)
        solution = solve_problem(two_k4s, spec, cfg, Limits(time_seconds=5))
        assert solution.status is SolveStatus.OPTIMAL
        passed = [float(word) for word in log.read_text(encoding="utf-8").split()]
        assert len(passed) == solution.cut_rounds + 1 >= 2
        assert all(0 < seconds <= 5 for seconds in passed)


class TestOneProblemPerSpec:
    """Every engine solves the same problem for the same spec."""

    @pytest.mark.parametrize(
        "mode, expected", [(Connectivity.NONE, 8), (Connectivity.CSTREE, 7)]
    )
    @pytest.mark.parametrize(
        "engine", ["bnb", "brute", "milp", BackendConfig(command=HIGHS_BACKEND)]
    )
    def test_engines_agree(self, two_k4s, mode, expected, engine):
        spec = ProblemSpec.mqc(Fraction(3, 7), mode=mode)
        solution = solve_problem(two_k4s, spec, engine=engine)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == expected

    def test_spec_has_no_size_window(self):
        with pytest.raises(TypeError):
            ProblemSpec.mqc(Fraction(3, 7), bounds=(1, 3))


class TestAnswerGate:
    """In-process HiGHS answers pass the same exact check as external ones."""

    @pytest.mark.parametrize(
        "spec, honest_calls",
        [
            (ProblemSpec.mqc(Fraction(3, 7), mode=Connectivity.CSTREE), 0),
            # The first lazy round is disconnected and adds cuts; the forged
            # report hits the second round's answer.
            (ProblemSpec.dks(8, mode=Connectivity.LAZY), 1),
        ],
    )
    def test_rejected_evaluation_raises(self, two_k4s, monkeypatch, spec, honest_calls):
        real = LinearModel.evaluate
        tolerances = []

        def evaluate(self, assignment, tol=0):
            tolerances.append(tol)
            if len(tolerances) <= honest_calls:
                return real(self, assignment, tol)
            return Evaluation(Fraction(0), False, True, (("forged", Fraction(1)),))

        monkeypatch.setattr(LinearModel, "evaluate", evaluate)
        with pytest.raises(BackendValidationError, match="forged"):
            solve_problem(two_k4s, spec, engine="milp")
        assert tolerances == [TOLERANCE] * (honest_calls + 1)
