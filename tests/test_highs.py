"""Tests for the bundled HiGHS bridge and its command-line entry point."""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclique.backend import check_assignment
from qclique.formulations import (
    Connectivity,
    ProblemSpec,
    add_cstree,
    add_mpr,
    build_f3,
    build_m1,
)
from qclique.graphs import Graph, is_connected
from qclique.highs import HighsError, main, solve_model
from qclique.lpio import export_lp, export_mps, parse_solution_file
from qclique.milp import LinearModel
from qclique.solve import SolveStatus, brute_force

from conftest import graphs

TOL = Fraction(1, 10**6)


def selected_vertices(layout, assignment) -> tuple[int, ...]:
    return tuple(
        i for i, name in enumerate(layout.x) if assignment[name] >= Fraction(1, 2)
    )


class TestSolveModel:
    def test_triangle_full_selection(self, triangle):
        model, layout = build_m1(triangle, 3)
        status, assignment, _ = solve_model(model)
        assert status is SolveStatus.OPTIMAL
        report = model.evaluate(assignment, tol=TOL)
        assert report.feasible and report.integral
        assert abs(report.objective - 3) <= TOL
        assert selected_vertices(layout, assignment) == (0, 1, 2)

    def test_two_blocks_prefer_disconnected_edges(self, two_k4s):
        model, layout = build_m1(two_k4s, 8)
        status, assignment, _ = solve_model(model)
        assert status is SolveStatus.OPTIMAL
        assert abs(model.evaluate(assignment, tol=TOL).objective - 12) <= TOL
        assert not is_connected(two_k4s, selected_vertices(layout, assignment))

    def test_spanning_rows_force_connectivity(self, two_k4s):
        model, layout = build_m1(two_k4s, 8)
        model, layout = add_cstree(model, layout, two_k4s)
        status, assignment, _ = solve_model(model)
        assert status is SolveStatus.OPTIMAL
        assert abs(model.evaluate(assignment, tol=TOL).objective - 10) <= TOL
        assert is_connected(two_k4s, selected_vertices(layout, assignment))

    def test_threshold_formulation_with_flow_rows(self, two_k4s):
        gamma = Fraction(3, 7)
        model, layout = build_f3(two_k4s, gamma, 1, two_k4s.n)
        model, layout = add_mpr(model, layout, two_k4s)
        status, assignment, _ = solve_model(model)
        assert status is SolveStatus.OPTIMAL
        chosen = selected_vertices(layout, assignment)
        assert len(chosen) == 7
        assert is_connected(two_k4s, chosen)

    def test_infeasible_model(self, triangle):
        model, layout = build_f3(triangle, Fraction(1, 2), 1, 3)
        model.add_constraint({layout.x[0]: 1}, "=", -1, tag="impossible")
        status, assignment, _ = solve_model(model)
        assert status is SolveStatus.INFEASIBLE
        assert assignment is None

    def test_tiny_time_limit(self, two_k4s):
        model, layout = build_m1(two_k4s, 8)
        model, _ = add_cstree(model, layout, two_k4s)
        status, _, _ = solve_model(model, time_limit=1e-9)
        assert status is SolveStatus.TIME_LIMIT

    def test_empty_model_is_rejected(self):
        with pytest.raises(HighsError, match="no variables"):
            solve_model(LinearModel())

    @given(data=st.data())
    @settings(deadline=None, max_examples=25)
    def test_agrees_with_enumeration(self, data):
        g = data.draw(graphs(min_n=2, max_n=7))
        k = data.draw(st.integers(min_value=2, max_value=g.n))
        model, layout = build_m1(g, k)
        status, assignment, _ = solve_model(model)
        assert status is SolveStatus.OPTIMAL
        report = model.evaluate(assignment, tol=TOL)
        assert report.feasible and report.integral
        oracle = brute_force(g, ProblemSpec.dks(k))
        assert abs(report.objective - oracle.objective) <= TOL


class TestCommandLine:
    def run(self, tmp_path, model, suffix, timelimit=None):
        model_path = tmp_path / f"model.{suffix}"
        text = export_mps(model) if suffix == "mps" else export_lp(model)
        model_path.write_text(text, encoding="utf-8")
        out_path = tmp_path / "answer.sol"
        argv = [str(model_path), str(out_path)]
        if timelimit is not None:
            argv.append(str(timelimit))
        assert main(argv) == 0
        return out_path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("suffix", ["lp", "mps"])
    def test_round_trip_solution_file(self, tmp_path, triangle, suffix):
        model, _ = build_m1(triangle, 3)
        text = self.run(tmp_path, model, suffix)
        assignment = parse_solution_file(model, text)
        report = model.evaluate(assignment, tol=TOL)
        assert report.feasible
        assert abs(report.objective - 3) <= TOL

    def test_infeasible_marker(self, tmp_path, triangle):
        model, layout = build_f3(triangle, Fraction(1, 2), 1, 3)
        model.add_constraint({layout.x[0]: 1}, "=", -1, tag="impossible")
        text = self.run(tmp_path, model, "lp")
        assert text.split()[0] == "INFEASIBLE"

    def test_time_limit_marker(self, tmp_path, two_k4s):
        model, layout = build_m1(two_k4s, 8)
        model, _ = add_cstree(model, layout, two_k4s)
        text = self.run(tmp_path, model, "lp", timelimit=1e-9)
        assert text.split()[0] == "TIMELIMIT"


def run_child(*args):
    """`python -m qclique.highs` in a child process, as backends run it."""
    return subprocess.run(
        [sys.executable, "-m", "qclique.highs", *map(str, args)],
        capture_output=True, text=True, timeout=120,
    )


class TestChildProcess:
    """The child ends with os._exit once its answer file is closed; these
    check what its parent sees of that."""

    @pytest.mark.parametrize("suffix", ["lp", "mps"])
    def test_answer_file_matches_in_process_main(self, tmp_path, two_k4s, suffix):
        model, layout = build_m1(two_k4s, 8)
        model, _ = add_cstree(model, layout, two_k4s)
        model_path = tmp_path / f"model.{suffix}"
        text = export_mps(model) if suffix == "mps" else export_lp(model)
        model_path.write_text(text, encoding="utf-8")
        child_path, main_path = tmp_path / "child.sol", tmp_path / "main.sol"

        result = run_child(model_path, child_path)
        assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
        assert main([str(model_path), str(main_path)]) == 0
        assert child_path.read_bytes() == main_path.read_bytes()
        assignment = parse_solution_file(model, child_path.read_text(encoding="utf-8"))
        check_assignment(model, assignment)
        assert abs(model.evaluate(assignment, tol=TOL).objective - 10) <= TOL

    def test_refused_text_fails_with_traceback(self, tmp_path):
        model_path = tmp_path / "model.lp"
        model_path.write_text(
            "Maximize\n obj: + 1/0 x\nSubject To\n c: + 1 x <= 1\nEnd\n",
            encoding="utf-8",
        )
        out_path = tmp_path / "answer.sol"
        result = run_child(model_path, out_path)
        assert result.returncode != 0
        assert "Traceback" in result.stderr
        assert "FormatError: objective: cannot parse number '1/0'" in result.stderr
        assert not out_path.exists()

    def test_missing_argument_exits_2(self, tmp_path):
        result = run_child(tmp_path / "model.lp")
        assert result.returncode == 2
        assert "solution" in result.stderr
