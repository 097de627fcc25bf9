"""Tests for the parameter-sweep harness."""

from __future__ import annotations

import logging
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qclique import grid, solve
from qclique.backend import BackendConfig
from qclique.formulations import Connectivity, Problem, ProblemSpec
from qclique.graphs import Graph
from qclique.driver import solve_problem
from qclique.grid import (
    CSV_COLUMNS,
    GridCell,
    GridError,
    GridSpec,
    aggregate,
    read_cells,
    run_grid,
)


class FakeClock:
    """Monotonic stub advancing half a second per reading."""

    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        self.now += 0.5
        return self.now


class TestGridSpec:
    def test_gamma_sweep_has_ninety_one_values(self):
        spec = GridSpec(name="toy", family=Problem.MQC)
        values = spec.parameters(5)
        assert len(values) == 91
        assert values[0] == Fraction(10, 100)
        assert values[-1] == Fraction(1)
        assert spec.render_param(values[27]) == "0.37"

    def test_cardinality_sweep_stops_below_n(self):
        spec = GridSpec(name="toy", family=Problem.DKS)
        assert spec.parameters(6) == [2, 3, 4, 5]
        assert spec.render_param(4) == "4"

    def test_blank_name_rejected(self):
        with pytest.raises(GridError, match="name"):
            GridSpec(name="  ", family=Problem.DKS)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"time_limit": 0},
            {"memory_bytes": -1},
            {"time_limit": float("nan")},
            {"memory_bytes": float("inf")},
            {"time_limit": "3"},
        ],
    )
    def test_limits_must_be_positive(self, kwargs):
        with pytest.raises(GridError, match="positive"):
            GridSpec(name="toy", family=Problem.DKS, **kwargs)

    @pytest.mark.parametrize(
        "kwargs", [{"time_limit": True}, {"time_limit": False}, {"memory_bytes": True}]
    )
    def test_limits_refuse_bools(self, kwargs):
        with pytest.raises(GridError, match="limit .* got (True|False)"):
            GridSpec(name="toy", family=Problem.DKS, **kwargs)

    def test_incompatible_mode_rejected(self):
        with pytest.raises(GridError, match="fixed-cardinality"):
            GridSpec(name="toy", family=Problem.MQC, mode=Connectivity.CFLOW)

    def test_unknown_engine_rejected_before_any_cell(self, tmp_path, triangle):
        target = tmp_path / "cells.csv"
        with pytest.raises(GridError, match="unknown engine 'bbn'"):
            run_grid(triangle, GridSpec("t", Problem.DKS, engine="bbn"), target)
        assert not target.exists()

    @pytest.mark.parametrize("engine", [None, 5])
    def test_engine_of_another_type_rejected(self, engine):
        message = re.escape(f"unknown engine {engine!r}")
        with pytest.raises(GridError, match=message):
            GridSpec(name="x", family=Problem.DKS, engine=engine)


class TestAggregate:
    def cell(self, status="optimal", connected=True, elapsed=1.0):
        return GridCell("2", status, 1, connected, elapsed, 10)

    def test_empty_grid_is_all_zero(self):
        row = aggregate("toy", [])
        assert row.cells == 0
        assert row.pct_succ == 0.0
        assert row.pct_disc == 0.0

    def test_resolution_and_disconnection_percentages(self):
        cells = [
            self.cell(connected=True, elapsed=1.0),
            self.cell(connected=False, elapsed=3.0),
            self.cell(status="infeasible", elapsed=2.0),
            self.cell(status="time_limit", elapsed=9.0),
        ]
        row = aggregate("toy", cells)
        assert row.cells == 4
        assert row.pct_succ == 75.0
        assert row.pct_disc == 50.0
        assert row.runtime_mean == 2.0
        assert row.runtime_sd == pytest.approx((2 / 3) ** 0.5)

    def test_limit_cells_do_not_join_runtime_stats(self):
        cells = [self.cell(elapsed=1.0), self.cell(status="error", elapsed=50.0)]
        row = aggregate("toy", cells)
        assert row.runtime_mean == 1.0
        assert row.runtime_sd == 0.0


class TestRunGrid:
    def test_single_cell_triangle(self, tmp_path, triangle):
        spec = GridSpec(name="triangle", family=Problem.DKS)
        row = run_grid(triangle, spec, tmp_path / "grid.csv", clock=FakeClock())
        assert row.cells == 1
        assert row.pct_succ == 100.0
        assert row.pct_disc == 0.0
        assert row.runtime_mean == 0.5

    def test_csv_shape_and_content(self, tmp_path, triangle):
        target = tmp_path / "grid.csv"
        spec = GridSpec(name="triangle", family=Problem.DKS)
        run_grid(triangle, spec, target, clock=FakeClock())
        lines = target.read_text(encoding="utf-8").splitlines()
        tag = f"v2:{triangle.fingerprint()}:dks:none"
        assert lines[0] == ",".join(CSV_COLUMNS) + "," + tag
        assert lines[1] == "2,optimal,1,true,0.500000,1"

    def test_two_blocks_sweep_sees_disconnection(self, tmp_path, two_k4s):
        spec = GridSpec(name="blocks", family=Problem.DKS)
        row = run_grid(two_k4s, spec, tmp_path / "grid.csv", clock=FakeClock())
        assert row.cells == 9
        assert row.pct_succ == 100.0
        assert row.pct_disc > 0.0

    def test_threshold_sweep_full_grid(self, tmp_path, triangle):
        spec = GridSpec(name="triangle", family=Problem.MQC)
        row = run_grid(triangle, spec, tmp_path / "grid.csv", clock=FakeClock())
        assert row.cells == 91
        assert row.pct_succ == 100.0
        assert row.pct_disc == 0.0
        cells = read_cells(tmp_path / "grid.csv")
        assert all(cell.objective == 3 for cell in cells)

    def test_instance_reduced_to_largest_component(self, tmp_path):
        g = Graph.build(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        spec = GridSpec(name="split", family=Problem.DKS)
        row = run_grid(g, spec, tmp_path / "grid.csv", clock=FakeClock())
        assert row.cells == 1
        assert row.pct_disc == 0.0

    def test_later_sweeps_reuse_the_component_object(self, tmp_path, monkeypatch):
        # Every sweep of one disconnected input solves on the same component
        # object, so the solver memos find it by identity.
        g = Graph.build(7, [(0, 1), (1, 2), (0, 2), (2, 3), (4, 5), (5, 6)])
        seen = []
        dispatch = grid.solve_problem

        def recorded(core, *args):
            seen.append(core)
            return dispatch(core, *args)

        monkeypatch.setattr(grid, "solve_problem", recorded)
        _clear_memos()
        spec = GridSpec(name="split", family=Problem.MQC)
        run_grid(g, spec, tmp_path / "first.csv", clock=FakeClock())
        misses = solve._ranking.cache_info().misses
        run_grid(g, spec, tmp_path / "second.csv", clock=FakeClock())
        assert solve._ranking.cache_info().misses == misses
        assert len(seen) == 2 * 91
        assert all(core is seen[0] for core in seen)

    def test_read_cells_takes_a_str_path(self, tmp_path, two_k4s):
        target = tmp_path / "grid.csv"
        spec = GridSpec(name="blocks", family=Problem.DKS)
        run_grid(two_k4s, spec, str(target), clock=FakeClock())
        assert read_cells(str(target)) == read_cells(target) != []
        assert read_cells(str(tmp_path / "absent.csv")) == []

    def test_reaggregation_reproduces_summary(self, tmp_path, two_k4s):
        target = tmp_path / "grid.csv"
        spec = GridSpec(name="blocks", family=Problem.DKS)
        row = run_grid(two_k4s, spec, target, clock=FakeClock())
        again = aggregate("blocks", read_cells(target))
        assert again == row

    def test_resume_is_byte_identical(self, tmp_path, two_k4s):
        spec = GridSpec(name="blocks", family=Problem.DKS)
        full_path = tmp_path / "full.csv"
        full_row = run_grid(two_k4s, spec, full_path, clock=FakeClock())
        full_bytes = full_path.read_bytes()

        resumed_path = tmp_path / "resumed.csv"
        prefix = b"".join(full_bytes.splitlines(keepends=True)[:4])
        resumed_path.write_bytes(prefix)
        resumed_row = run_grid(two_k4s, spec, resumed_path, clock=FakeClock())
        assert resumed_path.read_bytes() == full_bytes
        assert resumed_row == full_row

    @pytest.mark.parametrize("workers", [1, 3])
    def test_interrupted_sweep_keeps_finished_cells(
        self, tmp_path, two_k4s, monkeypatch, workers
    ):
        spec = GridSpec(name="blocks", family=Problem.DKS)
        fresh_path = tmp_path / "fresh.csv"
        run_grid(two_k4s, spec, fresh_path, clock=FakeClock())
        solve = grid.solve_problem

        def interrupted(g, cell, engine, limits):
            if cell.k == 6:  # the fifth cell of k = 2 .. 10
                raise KeyboardInterrupt
            return solve(g, cell, engine, limits)

        monkeypatch.setattr(grid, "solve_problem", interrupted)
        path = tmp_path / "grid.csv"
        with pytest.raises(KeyboardInterrupt):
            run_grid(two_k4s, spec, path, workers=workers, clock=FakeClock())
        assert [cell.param for cell in read_cells(path)] == ["2", "3", "4", "5"]

        monkeypatch.setattr(grid, "solve_problem", solve)
        run_grid(two_k4s, spec, path, workers=workers, clock=FakeClock())
        assert path.read_bytes() == fresh_path.read_bytes()

    def test_completed_grid_recomputes_nothing(self, tmp_path, triangle):
        target = tmp_path / "grid.csv"
        spec = GridSpec(name="triangle", family=Problem.DKS)
        first = run_grid(triangle, spec, target, clock=FakeClock())
        stamp = target.stat().st_mtime_ns
        second = run_grid(triangle, spec, target, clock=FakeClock())
        assert second == first
        assert target.stat().st_mtime_ns == stamp

    def test_cell_failures_are_recorded_not_raised(self, tmp_path, triangle):
        spec = GridSpec(
            name="triangle",
            family=Problem.DKS,
            engine=BackendConfig(command="/no/such/solver {model} {solution}"),
        )
        row = run_grid(triangle, spec, tmp_path / "grid.csv", clock=FakeClock())
        assert row.cells == 1
        assert row.pct_succ == 0.0
        cells = read_cells(tmp_path / "grid.csv")
        assert cells[0].status == "error"

    def test_error_cells_log_their_exception(self, tmp_path, triangle, caplog):
        spec = GridSpec(
            name="triangle",
            family=Problem.DKS,
            engine=BackendConfig(command="/no/such/solver {model} {solution}"),
        )
        with caplog.at_level(logging.WARNING, logger="qclique.grid"):
            run_grid(triangle, spec, tmp_path / "grid.csv", clock=FakeClock())
        (record,) = [r for r in caplog.records if r.name == "qclique.grid"]
        assert record.levelno == logging.WARNING
        assert "triangle cell 2 failed: BackendProcessError: " in record.getMessage()
        assert "/no/such/solver" in record.getMessage()
        assert record.exc_info is not None
        assert "Traceback" in caplog.text

    def test_worker_pool_matches_sequential(self, tmp_path, two_k4s):
        spec = GridSpec(name="blocks", family=Problem.DKS)
        solo = run_grid(two_k4s, spec, tmp_path / "solo.csv", clock=FakeClock())
        pooled = run_grid(
            two_k4s, spec, tmp_path / "pooled.csv", workers=3, clock=FakeClock()
        )
        assert pooled.cells == solo.cells
        assert pooled.pct_succ == solo.pct_succ
        assert pooled.pct_disc == solo.pct_disc
        by_param = {
            c.param: (c.status, c.objective)
            for c in read_cells(tmp_path / "pooled.csv")
        }
        for cell in read_cells(tmp_path / "solo.csv"):
            assert by_param[cell.param] == (cell.status, cell.objective)

    def test_invalid_worker_count(self, tmp_path, triangle):
        spec = GridSpec(name="triangle", family=Problem.DKS)
        with pytest.raises(GridError, match="worker count"):
            run_grid(triangle, spec, tmp_path / "grid.csv", workers=0)

    def test_empty_parameter_range(self, tmp_path):
        lone = Graph.build(2, [(0, 1)])
        spec = GridSpec(name="edge", family=Problem.DKS)
        with pytest.raises(GridError, match="empty parameter range"):
            run_grid(lone, spec, tmp_path / "grid.csv")

    def test_torn_csv_row_rejected(self, tmp_path, two_k4s, caplog):
        # An interrupted write can leave a last row without its node count
        # and newline: the rerun cuts it and recomputes that cell.
        fresh = tmp_path / "fresh.csv"
        spec = GridSpec(name="blocks", family=Problem.DKS)
        run_grid(two_k4s, spec, fresh, clock=FakeClock())
        lines = fresh.read_text(encoding="utf-8").splitlines(keepends=True)
        torn = lines[-1].rsplit(",", 1)[0] + ","
        target = tmp_path / "grid.csv"
        target.write_text("".join(lines[:-1]) + torn, encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="qclique.grid"):
            run_grid(two_k4s, spec, target, clock=FakeClock())
        assert target.read_bytes() == fresh.read_bytes()
        (record,) = [r for r in caplog.records if r.name == "qclique.grid"]
        assert record.levelno == logging.WARNING
        assert f"unterminated last line {torn!r}" in record.getMessage()
        # A malformed row that ends in a newline was not torn: it raises.
        target.write_text("".join(lines[:-1]) + torn + "\n", encoding="utf-8")
        with pytest.raises(GridError, match="malformed grid CSV row"):
            run_grid(two_k4s, spec, target)
        for row in (["0.10", "optimal", "3", "true", "0.001", ""], ["0.10", "optimal"]):
            with pytest.raises(GridError, match="malformed grid CSV row"):
                GridCell.from_csv(row)

    @pytest.mark.parametrize(
        "row",
        [
            ["0.10", "bogus", "3", "true", "0.100000", "1"],
            ["0.10", "optimal", "3", "yes", "0.100000", "1"],
            ["0.10", "optimal", "-3", "true", "0.100000", "1"],
            ["0.10", "optimal", "3", "true", "0.100000", "-1"],
            ["0.10", "optimal", "3", "true", "nan", "1"],
            ["0.10", "optimal", "3", "true", "inf", "1"],
            ["0.10", "optimal", "3", "true", "-0.100000", "1"],
        ],
    )
    def test_rows_the_writer_never_writes_are_refused(self, row):
        with pytest.raises(GridError, match="malformed grid CSV row"):
            GridCell.from_csv(row)

    @pytest.mark.parametrize(
        "status", [status.value for status in solve.SolveStatus] + ["error"]
    )
    def test_every_written_status_reads_back(self, status):
        for connected in (True, False):
            cell = GridCell("0.10", status, 0, connected, 0.0, 0)
            assert GridCell.from_csv(cell.to_csv()) == cell

    def test_negative_optimum_in_a_tagged_file_is_refused(self, tmp_path, two_k4s):
        # Read as an optimum, the row would hand the next cell a ceiling of -3.
        header = ",".join(CSV_COLUMNS) + f",v2:{two_k4s.fingerprint()}:mqc:none"
        target = tmp_path / "grid.csv"
        text = header + "\n0.10,optimal,-3,true,0.1,1\n"
        target.write_text(text, encoding="utf-8")
        with pytest.raises(GridError, match="malformed grid CSV row"):
            run_grid(two_k4s, GridSpec("blocks", Problem.MQC), target)
        assert target.read_text(encoding="utf-8") == text

    def test_torn_header_is_rewritten(self, tmp_path, triangle):
        fresh = tmp_path / "fresh.csv"
        spec = GridSpec(name="triangle", family=Problem.DKS)
        run_grid(triangle, spec, fresh, clock=FakeClock())
        target = tmp_path / "grid.csv"
        target.write_text("param,sta", encoding="utf-8")
        run_grid(triangle, spec, target, clock=FakeClock())
        assert target.read_bytes() == fresh.read_bytes()

    def test_unterminated_foreign_line_rejected(self, tmp_path, triangle):
        target = tmp_path / "notes.txt"
        target.write_text("alpha,beta", encoding="utf-8")
        spec = GridSpec(name="triangle", family=Problem.DKS)
        with pytest.raises(GridError, match="header"):
            run_grid(triangle, spec, target)
        assert target.read_text(encoding="utf-8") == "alpha,beta"

    def test_foreign_csv_rejected(self, tmp_path, triangle):
        target = tmp_path / "grid.csv"
        target.write_text("alpha,beta\n1,2\n", encoding="utf-8")
        spec = GridSpec(name="triangle", family=Problem.DKS)
        with pytest.raises(GridError, match="header"):
            run_grid(triangle, spec, target)


class TestCellGate:
    """Fresh cells and cells read back from the CSV pass one gate, so a
    fresh cell is the cell its row reads back as."""

    @given(
        status=st.sampled_from(sorted(grid.STATUSES)),
        objective=st.integers(min_value=0),
        connected=st.booleans(),
        elapsed=st.floats(min_value=0, allow_nan=False, allow_infinity=False),
        nodes=st.integers(min_value=0),
    )
    def test_a_fresh_cell_equals_its_row_read_back(
        self, status, objective, connected, elapsed, nodes
    ):
        cell = GridCell("0.37", status, objective, connected, elapsed, nodes)
        assert GridCell.from_csv(cell.to_csv()) == cell

    def test_a_clock_running_backwards_is_refused(self, tmp_path, triangle):
        class BackwardsClock:
            def __init__(self) -> None:
                self.now = 1000.0

            def __call__(self) -> float:
                self.now -= 0.5
                return self.now

        spec = GridSpec(name="triangle", family=Problem.DKS)
        with pytest.raises(GridError, match="elapsed=-0.5"):
            run_grid(triangle, spec, tmp_path / "grid.csv", clock=BackwardsClock())

    @pytest.mark.parametrize(
        "family, mode",
        [(Problem.MQC, Connectivity.NONE), (Problem.DKS, Connectivity.CSTREE)],
    )
    def test_the_summary_now_is_the_summary_from_the_file(
        self, tmp_path, two_k4s, family, mode
    ):
        path = tmp_path / "grid.csv"
        spec = GridSpec(name="blocks", family=family, mode=mode)
        row = run_grid(two_k4s, spec, path, clock=time.perf_counter)
        assert row.runtime_mean > 0
        assert vars(row) == vars(aggregate("blocks", read_cells(path)))


class TestCeilings:
    """Each MQC cell is capped by the optima at lower gamma in its CSV: the
    answers are those of cells solved alone, and the CSV stays a pure
    function of the sweep."""

    @staticmethod
    def record_ceilings(monkeypatch) -> list:
        """Patch the grid's dispatch to record each cell's ceiling."""
        ceilings = []
        solve = grid.solve_problem

        def capture(g, cell, engine, limits):
            ceilings.append(limits.ceiling)
            return solve(g, cell, engine, limits)

        monkeypatch.setattr(grid, "solve_problem", capture)
        return ceilings

    def test_later_cell_with_a_repeated_optimum_takes_fewer_nodes(
        self, tmp_path, two_k4s
    ):
        target = tmp_path / "grid.csv"
        run_grid(two_k4s, GridSpec("blocks", Problem.MQC), target, clock=FakeClock())
        cells = {cell.param: cell for cell in read_cells(target)}
        alone = {
            param: solve_problem(two_k4s, ProblemSpec.mqc(Fraction(param)))
            for param in cells
        }
        for param, cell in cells.items():
            answer = (alone[param].status.value, alone[param].objective)
            assert (cell.status, cell.objective) == answer
            assert cell.nodes <= alone[param].nodes_explored
        assert cells["0.32"].objective == cells["0.33"].objective == 9
        assert cells["0.33"].nodes < alone["0.33"].nodes_explored

    @pytest.mark.parametrize("mode", [Connectivity.NONE, Connectivity.CSTREE])
    def test_interrupted_threshold_sweep_resumes_byte_identical(
        self, tmp_path, two_k4s, monkeypatch, mode
    ):
        spec = GridSpec(name="blocks", family=Problem.MQC, mode=mode)
        fresh_path = tmp_path / "fresh.csv"
        run_grid(two_k4s, spec, fresh_path, clock=FakeClock())
        solve = grid.solve_problem

        def interrupted(g, cell, engine, limits):
            if cell.gamma == Fraction(1, 2):
                raise KeyboardInterrupt
            return solve(g, cell, engine, limits)

        monkeypatch.setattr(grid, "solve_problem", interrupted)
        path = tmp_path / "grid.csv"
        with pytest.raises(KeyboardInterrupt):
            run_grid(two_k4s, spec, path, clock=FakeClock())
        assert len(read_cells(path)) == 40
        monkeypatch.setattr(grid, "solve_problem", solve)
        run_grid(two_k4s, spec, path, clock=FakeClock())
        assert path.read_bytes() == fresh_path.read_bytes()

    def test_pooled_sweeps_write_identical_files(self, tmp_path, two_k4s):
        spec = GridSpec(name="blocks", family=Problem.MQC)
        paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
        for path in paths:
            # A constant clock leaves the node counts as the only variable.
            run_grid(two_k4s, spec, path, workers=3, clock=lambda: 0.0)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_pooled_resume_reads_only_the_rows_already_written(
        self, tmp_path, two_k4s, monkeypatch
    ):
        spec = GridSpec(name="blocks", family=Problem.MQC)
        path = tmp_path / "grid.csv"
        run_grid(two_k4s, spec, path, clock=FakeClock())
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:3]), encoding="utf-8")
        ceilings = self.record_ceilings(monkeypatch)
        run_grid(two_k4s, spec, path, workers=3, clock=FakeClock())
        assert len(ceilings) == 89
        # Every pending cell sees only the first two rows, 0.10 and 0.11.
        assert set(ceilings) == {min(c.objective for c in read_cells(path)[:2])}

    def test_cardinality_sweeps_get_no_ceiling(self, tmp_path, two_k4s, monkeypatch):
        ceilings = self.record_ceilings(monkeypatch)
        run_grid(two_k4s, GridSpec("blocks", Problem.DKS), tmp_path / "grid.csv")
        assert ceilings == [None] * 9

    @pytest.mark.parametrize(
        "graph, tag",
        [("triangle", "mqc:none"), ("two_k4s", "dks:none"), ("two_k4s", "mqc:cstree")],
    )
    def test_foreign_file_is_refused(self, tmp_path, two_k4s, triangle, graph, tag):
        # One row of another instance, family or mode would cap every later
        # cell of this MQC sweep at 2 vertices.
        owner = {"triangle": triangle, "two_k4s": two_k4s}[graph]
        header = ",".join(CSV_COLUMNS) + f",v2:{owner.fingerprint()}:{tag}"
        target = tmp_path / "grid.csv"
        text = header + "\n0.10,optimal,2,true,0.100000,1\n"
        target.write_text(text, encoding="utf-8")
        with pytest.raises(GridError, match="holds cells of"):
            run_grid(two_k4s, GridSpec("blocks", Problem.MQC), target)
        assert target.read_text(encoding="utf-8") == text

    def test_six_column_file_resumes_without_ceilings(
        self, tmp_path, two_k4s, monkeypatch
    ):
        fresh = tmp_path / "fresh.csv"
        run_grid(two_k4s, GridSpec("blocks", Problem.MQC), fresh, clock=FakeClock())
        target = tmp_path / "grid.csv"
        header = ",".join(CSV_COLUMNS)
        row = "0.10,optimal,2,true,0.100000,1"
        target.write_text(f"{header}\n{row}\n", encoding="utf-8")
        ceilings = self.record_ceilings(monkeypatch)
        run_grid(two_k4s, GridSpec("blocks", Problem.MQC), target, clock=FakeClock())
        # The row cannot be trusted, so the first cell solved has no ceiling;
        # the later ones take the optima this call proved.
        assert ceilings[0] is None
        assert target.read_text(encoding="utf-8").splitlines()[0] == header
        answers = [(c.param, c.status, c.objective) for c in read_cells(target)]
        assert answers[1:] == [
            (c.param, c.status, c.objective) for c in read_cells(fresh)
        ][1:]


def _clear_memos() -> None:
    solve._seeds.cache_clear()
    solve._peeling_sequence.cache_clear()
    solve._ranking.cache_clear()


class TestSeedMemo:
    """Gamma-free solver inputs are worked out once per graph and flavor,
    and sharing them leaves every cell's result as a fresh solve gives."""

    @pytest.mark.parametrize(
        "mode, connected",
        [(Connectivity.NONE, False), (Connectivity.CSTREE, True)],
    )
    def test_threshold_sweep_prepares_each_flavor_once(
        self, tmp_path, two_k4s, monkeypatch, mode, connected
    ):
        _clear_memos()
        calls = []
        greedy = solve._greedy_sequence

        def counted_greedy(g, flavor):
            calls.append(("greedy", flavor))
            return greedy(g, flavor)

        monkeypatch.setattr(solve, "_greedy_sequence", counted_greedy)
        spec = GridSpec(name="blocks", family=Problem.MQC, mode=mode)
        row = run_grid(two_k4s, spec, tmp_path / "grid.csv", clock=FakeClock())
        assert row.cells == 91
        # The connected sweep's first cell has no ceiling, so it bounds its
        # scan by the optimum without connectivity: both flavors, once each,
        # from one peeling of the graph, which is memoised itself.
        flavors = [False, True] if connected else [False]
        assert sorted(calls) == [("greedy", f) for f in flavors]
        assert solve._peeling_sequence.cache_info().misses == 1

    @pytest.mark.parametrize(
        "family, mode",
        [
            (Problem.MQC, Connectivity.NONE),
            (Problem.MQC, Connectivity.CSTREE),
            (Problem.DKS, Connectivity.CFLOW),
            (Problem.DKS, Connectivity.LAZY),
        ],
    )
    def test_shared_seeds_match_fresh_ones(
        self, tmp_path, two_k4s, monkeypatch, family, mode
    ):
        spec = GridSpec(name="blocks", family=family, mode=mode)
        _clear_memos()
        shared = tmp_path / "shared.csv"
        run_grid(two_k4s, spec, shared, clock=FakeClock())

        def fresh(g, cell, engine, limits):
            _clear_memos()
            return solve_problem(g, cell, engine, limits)

        monkeypatch.setattr(grid, "solve_problem", fresh)
        cleared = tmp_path / "cleared.csv"
        run_grid(two_k4s, spec, cleared, clock=FakeClock())
        assert shared.read_bytes() == cleared.read_bytes()
