"""Tests for the external-backend bridge, using small scripted backends."""

from __future__ import annotations

import sys
import textwrap
import time
from fractions import Fraction

import pytest

from qclique.backend import (
    BackendConfig,
    BackendError,
    BackendProcessError,
    BackendValidationError,
    ModelFormat,
    extract_vertex_set,
    solve_external,
)
from qclique.driver import solve_problem
from qclique.formulations import Connectivity, ProblemSpec, build_m1
from qclique.solve import SolveStatus

from conftest import HIGHS_BACKEND


def scripted(tmp_path, body: str) -> str:
    """Command template for a throwaway python backend script."""
    path = tmp_path / "fake_backend.py"
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return f"{sys.executable} {path} {{model}} {{solution}} {{timelimit}}"


class TestBackendConfig:
    def test_defaults(self):
        cfg = BackendConfig(command="solver {model} {solution}")
        assert cfg.model_format is ModelFormat.LP
        assert cfg.time_limit == 3600.0
        assert cfg.solution_path is None

    def test_empty_command_rejected(self):
        with pytest.raises(BackendError, match="empty"):
            BackendConfig(command="   ")

    # An infinite limit would reach solve_external and die converting the
    # subprocess timeout; a NaN one would disable the kill.
    @pytest.mark.parametrize("bad", [0, -2.5, float("nan"), float("inf"), "5"])
    def test_time_limit_must_be_positive(self, bad):
        with pytest.raises(BackendError, match="time limit"):
            BackendConfig(command="solver", time_limit=bad)

    @pytest.mark.parametrize("bad", [True, False])
    def test_time_limit_refuses_bools(self, bad):
        with pytest.raises(BackendError, match=f"time limit .* got {bad}"):
            BackendConfig(command="solver", time_limit=bad)


class TestSolveExternal:
    @pytest.mark.parametrize("fmt", [ModelFormat.LP, ModelFormat.MPS])
    def test_real_solver_round_trip(self, triangle, fmt):
        model, layout = build_m1(triangle, 3)
        cfg = BackendConfig(command=HIGHS_BACKEND, model_format=fmt)
        status, vertices, nodes = solve_external(model, layout, cfg)
        assert status is SolveStatus.OPTIMAL
        assert vertices == (0, 1, 2)
        assert nodes >= 0

    def test_solution_path_override(self, tmp_path, triangle):
        model, layout = build_m1(triangle, 2)
        target = tmp_path / "answers" / "out.sol"
        target.parent.mkdir()
        cfg = BackendConfig(
            command=HIGHS_BACKEND, solution_path=str(target)
        )
        status, vertices, _ = solve_external(model, layout, cfg)
        assert status is SolveStatus.OPTIMAL
        assert target.exists()
        assert len(vertices) == 2

    def test_all_zero_answer_fails_validation(self, tmp_path, triangle):
        model, layout = build_m1(triangle, 3)
        command = scripted(
            tmp_path,
            """\
            import sys
            open(sys.argv[2], "w").write("# no assignments\\n")
            """,
        )
        with pytest.raises(BackendValidationError, match="constraint violations"):
            solve_external(model, layout, BackendConfig(command=command))

    def test_feasible_but_fractional_answer(self, tmp_path, triangle):
        # x = (2/3, 2/3, 2/3) with every y at 0 meets each row of m1 at k = 2.
        model, layout = build_m1(triangle, 2)
        command = scripted(
            tmp_path,
            f"""\
            import sys
            text = "".join(name + " {2 / 3!r}\\n" for name in {layout.x!r})
            open(sys.argv[2], "w").write(text)
            """,
        )
        with pytest.raises(BackendValidationError, match="fractional binaries"):
            solve_external(model, layout, BackendConfig(command=command))

    def test_infeasible_marker(self, tmp_path, triangle):
        model, layout = build_m1(triangle, 3)
        command = scripted(
            tmp_path,
            """\
            import sys
            open(sys.argv[2], "w").write("INFEASIBLE\\n")
            """,
        )
        answer = solve_external(model, layout, BackendConfig(command=command))
        assert answer == (SolveStatus.INFEASIBLE, (), 0)

    def test_time_limit_marker(self, tmp_path, triangle):
        model, layout = build_m1(triangle, 3)
        command = scripted(
            tmp_path,
            """\
            import sys
            open(sys.argv[2], "w").write("TIMELIMIT incumbent ignored\\n")
            """,
        )
        answer = solve_external(model, layout, BackendConfig(command=command))
        assert answer == (SolveStatus.TIME_LIMIT, (), 0)

    @pytest.mark.parametrize("head, nodes", [("# nodes 7\n", 7), ("", 0)])
    def test_node_count_line(self, tmp_path, triangle, head, nodes):
        model, layout = build_m1(triangle, 3)
        command = scripted(
            tmp_path,
            f"""\
            import sys
            names = ["x_0", "x_1", "x_2", "y_0_1", "y_0_2", "y_1_2"]
            text = {head!r} + "".join(name + " 1\\n" for name in names)
            open(sys.argv[2], "w").write(text)
            """,
        )
        answer = solve_external(model, layout, BackendConfig(command=command))
        assert answer == (SolveStatus.OPTIMAL, (0, 1, 2), nodes)

    def test_overrunning_process_is_killed(self, tmp_path, triangle):
        model, layout = build_m1(triangle, 3)
        command = scripted(
            tmp_path,
            """\
            import time
            time.sleep(30)
            """,
        )
        cfg = BackendConfig(command=command, time_limit=0.5)
        started = time.monotonic()
        answer = solve_external(model, layout, cfg)
        assert time.monotonic() - started < 10
        assert answer == (SolveStatus.TIME_LIMIT, (), 0)

    def test_crash_is_a_process_error(self, tmp_path, triangle):
        model, layout = build_m1(triangle, 3)
        command = scripted(
            tmp_path,
            """\
            import sys
            print("exploded", file=sys.stderr)
            sys.exit(3)
            """,
        )
        with pytest.raises(BackendProcessError, match="code 3.*exploded"):
            solve_external(model, layout, BackendConfig(command=command))

    def test_missing_solution_file(self, tmp_path, triangle):
        model, layout = build_m1(triangle, 3)
        command = scripted(tmp_path, "pass\n")
        with pytest.raises(BackendProcessError, match="no solution file"):
            solve_external(model, layout, BackendConfig(command=command))

    def test_stale_solution_file_is_not_an_answer(self, tmp_path, triangle):
        model, layout = build_m1(triangle, 3)
        target = tmp_path / "out.sol"
        cfg = BackendConfig(command=HIGHS_BACKEND, solution_path=str(target))
        status, _, _ = solve_external(model, layout, cfg)
        assert status is SolveStatus.OPTIMAL
        assert target.exists()
        silent = f"{sys.executable} -c pass {{model}} {{solution}} {{timelimit}}"
        with pytest.raises(BackendProcessError, match="no solution file"):
            solve_external(
                model, layout, BackendConfig(command=silent, solution_path=str(target))
            )

    def test_solution_path_that_cannot_be_cleared(self, tmp_path, triangle):
        model, layout = build_m1(triangle, 3)
        cfg = BackendConfig(command=HIGHS_BACKEND, solution_path=str(tmp_path))
        with pytest.raises(BackendProcessError):
            solve_external(model, layout, cfg)

    def test_unusable_solution_file(self, tmp_path, triangle):
        model, layout = build_m1(triangle, 3)
        command = scripted(
            tmp_path,
            """\
            import sys
            open(sys.argv[2], "w").write("one two three\\n")
            """,
        )
        with pytest.raises(BackendProcessError, match="unusable"):
            solve_external(model, layout, BackendConfig(command=command))

    def test_unknown_placeholder(self, triangle):
        model, layout = build_m1(triangle, 3)
        cfg = BackendConfig(command="solver {modle}")
        with pytest.raises(BackendProcessError, match="placeholder"):
            solve_external(model, layout, cfg)

    def test_unrunnable_command(self, triangle):
        model, layout = build_m1(triangle, 3)
        cfg = BackendConfig(command="/no/such/binary {model} {solution}")
        with pytest.raises(BackendProcessError, match="cannot run"):
            solve_external(model, layout, cfg)


class TestSameMatrix:
    """An MPS child solves the matrix the in-process engine solves: the
    same answer and the same HiGHS node count, cell for cell."""

    @pytest.mark.parametrize(
        "mode", [Connectivity.NONE, Connectivity.MPR, Connectivity.CSTREE]
    )
    @pytest.mark.parametrize(
        "gamma",
        [Fraction(3, 7), Fraction(1, 3), Fraction(3, 4), Fraction(29, 100)],
        ids=str,
    )
    def test_mps_child_matches_in_process(self, two_k4s, gamma, mode):
        spec = ProblemSpec.mqc(gamma, mode=mode)
        cfg = BackendConfig(command=HIGHS_BACKEND, model_format=ModelFormat.MPS)
        child = solve_problem(two_k4s, spec, engine=cfg)
        own = solve_problem(two_k4s, spec, engine="milp")
        assert child.status is own.status is SolveStatus.OPTIMAL
        assert child.vertices == own.vertices
        assert child.objective == own.objective
        assert child.nodes_explored == own.nodes_explored


class TestExtractVertexSet:
    def layout(self, triangle):
        _, layout = build_m1(triangle, 2)
        return layout

    def base_assignment(self, layout) -> dict[str, Fraction]:
        values = {name: Fraction(0) for name in layout.x}
        for name in layout.y.values():
            values[name] = Fraction(0)
        return values

    def test_selects_by_majority(self, triangle):
        layout = self.layout(triangle)
        values = self.base_assignment(layout)
        values[layout.x[0]] = Fraction(1)
        values[layout.x[1]] = Fraction(1)
        assert extract_vertex_set(layout, values) == (0, 1)

    def test_fractional_indicator_rejected(self, triangle):
        layout = self.layout(triangle)
        values = self.base_assignment(layout)
        values[layout.x[0]] = Fraction(2, 5)
        with pytest.raises(BackendValidationError, match="fractional"):
            extract_vertex_set(layout, values)

    def test_tolerance_forgives_float_noise(self, triangle):
        layout = self.layout(triangle)
        values = self.base_assignment(layout)
        values[layout.x[0]] = 1 - Fraction(1, 10**9)
        values[layout.x[2]] = Fraction(1, 10**9)
        assert extract_vertex_set(layout, values) == (0,)
