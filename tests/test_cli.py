"""End-to-end tests for the command-line front end."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import pytest

from qclique import driver
from qclique.cli import (
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_LIMIT,
    EXIT_SOLVED,
    build_parser,
    main,
)
from qclique.graphs import Graph, serialize_edge_list
from qclique.lpio import parse_lp, parse_mps
from qclique.milp import BINARY

from conftest import HIGHS_BACKEND

TRIANGLE_MM = """%%MatrixMarket matrix coordinate pattern symmetric
3 3 3
1 2
2 3
1 3
"""


def write_graph(tmp_path: Path, g: Graph, name: str = "instance.txt") -> str:
    path = tmp_path / name
    path.write_text(serialize_edge_list(g), encoding="utf-8")
    return str(path)


class TestStats:
    def test_triangle(self, tmp_path, capsys, triangle):
        code = main(["stats", write_graph(tmp_path, triangle)])
        out = capsys.readouterr().out.splitlines()
        assert code == EXIT_SOLVED
        assert out == ["3 3 1.00", "largest component 3 of 3"]

    def test_two_disjoint_triangles(self, tmp_path, capsys):
        g = Graph.build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        code = main(["stats", write_graph(tmp_path, g)])
        out = capsys.readouterr().out.splitlines()
        assert code == EXIT_SOLVED
        assert out == ["6 6 0.40", "largest component 3 of 6"]

    def test_matrix_market_sniffing(self, tmp_path, capsys):
        path = tmp_path / "triangle.mtx"
        path.write_text(TRIANGLE_MM, encoding="utf-8")
        code = main(["stats", str(path)])
        out = capsys.readouterr().out.splitlines()
        assert code == EXIT_SOLVED
        assert out[0] == "3 3 1.00"

    def test_sparse_density_floor(self, tmp_path, capsys):
        g = Graph.build(20, [(0, 1)])
        code = main(["stats", write_graph(tmp_path, g)])
        out = capsys.readouterr().out.splitlines()
        assert code == EXIT_SOLVED
        assert out[0] == "20 1 <0.01"

    def test_missing_file(self, tmp_path, capsys):
        code = main(["stats", str(tmp_path / "nope.txt")])
        assert code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err


class TestSolve:
    def test_triangle_threshold(self, tmp_path, capsys, triangle):
        code = main(["solve", write_graph(tmp_path, triangle), "--gamma", "1"])
        out = capsys.readouterr().out
        assert code == EXIT_SOLVED
        assert "size 3, connected, Optimal" in out
        assert "vertices: 0 1 2" in out
        assert "density: 1 (1.00)" in out
        assert "elapsed:" in out

    def test_fixed_cardinality_ignores_connectivity(
        self, tmp_path, capsys, two_k4s
    ):
        code = main(["solve", write_graph(tmp_path, two_k4s), "--k", "8"])
        out = capsys.readouterr().out
        assert code == EXIT_SOLVED
        assert "12 edges, disconnected, Optimal" in out

    @pytest.mark.parametrize("mode", ["cflow", "cstree"])
    def test_connected_cardinality(self, tmp_path, capsys, two_k4s, mode):
        code = main(
            ["solve", write_graph(tmp_path, two_k4s), "--k", "8", "--mode", mode]
        )
        out = capsys.readouterr().out
        assert code == EXIT_SOLVED
        assert "10 edges, connected, Optimal" in out

    def test_threshold_with_fraction_gamma(self, tmp_path, capsys, two_k4s):
        code = main(["solve", write_graph(tmp_path, two_k4s), "--gamma", "3/7"])
        out = capsys.readouterr().out
        assert code == EXIT_SOLVED
        assert "size 8, disconnected, Optimal" in out

    def test_connected_threshold(self, tmp_path, capsys, two_k4s):
        code = main(
            [
                "solve",
                write_graph(tmp_path, two_k4s),
                "--gamma",
                "3/7",
                "--mode",
                "mpr",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_SOLVED
        assert "size 7, connected, Optimal" in out

    def test_lazy_engine_reports_rounds(self, tmp_path, capsys, two_k4s):
        code = main(
            [
                "solve",
                write_graph(tmp_path, two_k4s),
                "--k",
                "8",
                "--engine",
                "milp",
                "--mode",
                "lazy",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_SOLVED
        assert "10 edges, connected, Optimal" in out
        assert "cut rounds:" in out

    def test_gamma_and_k_are_exclusive(self, tmp_path, capsys, triangle):
        path = write_graph(tmp_path, triangle)
        assert main(["solve", path, "--gamma", "1", "--k", "2"]) == EXIT_INPUT
        assert main(["solve", path]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "not both" in err
        assert "--gamma" in err

    def test_bad_gamma_values(self, tmp_path, capsys, triangle):
        path = write_graph(tmp_path, triangle)
        assert main(["solve", path, "--gamma", "abc"]) == EXIT_INPUT
        assert main(["solve", path, "--gamma", "0"]) == EXIT_INPUT
        assert main(["solve", path, "--gamma", "2"]) == EXIT_INPUT
        capsys.readouterr()

    def test_infeasible_connected_cardinality(self, tmp_path, capsys):
        g = Graph.build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        code = main(
            ["solve", write_graph(tmp_path, g), "--k", "5", "--mode", "cflow"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in out

    def test_time_limit_exit_code(self, tmp_path, capsys, two_k4s):
        code = main(
            [
                "solve",
                write_graph(tmp_path, two_k4s),
                "--k",
                "8",
                "--mode",
                "cstree",
                "--engine",
                "milp",
                "--time-limit",
                "1e-9",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_LIMIT
        assert "TimeLimit" in out

    @pytest.mark.parametrize("engine", ["bnb", "backend"])
    def test_time_limit_must_be_finite(
        self, tmp_path, capsys, triangle, engine, monkeypatch
    ):
        monkeypatch.setenv("QCLIQUE_BACKEND_CMD", HIGHS_BACKEND)
        instance = write_graph(tmp_path, triangle)
        code = main(
            ["solve", instance, "--k", "2", "--engine", engine, "--time-limit", "nan"]
        )
        assert code == EXIT_INPUT
        assert "positive and finite" in capsys.readouterr().err

    def test_certify_connected_optimum(self, tmp_path, capsys, two_k4s):
        code = main(
            [
                "solve",
                write_graph(tmp_path, two_k4s),
                "--k",
                "8",
                "--mode",
                "cstree",
                "--certify",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_SOLVED
        assert "certificate: verified" in out

    def test_certify_disconnected_optimum(self, tmp_path, capsys, two_k4s):
        code = main(
            ["solve", write_graph(tmp_path, two_k4s), "--k", "8", "--certify"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_SOLVED
        assert "certificate: none (disconnected)" in out

    def test_certify_singleton(self, tmp_path, capsys):
        g = Graph.build(2, [])
        code = main(
            ["solve", write_graph(tmp_path, g), "--gamma", "1", "--certify"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_SOLVED
        assert "size 1, connected, Optimal" in out
        assert "certificate: verified" in out

    def test_backend_engine_needs_environment(
        self, tmp_path, capsys, two_k4s, monkeypatch
    ):
        monkeypatch.delenv("QCLIQUE_BACKEND_CMD", raising=False)
        code = main(
            ["solve", write_graph(tmp_path, two_k4s), "--k", "8", "--engine", "backend"]
        )
        assert code == EXIT_INPUT
        assert "QCLIQUE_BACKEND_CMD" in capsys.readouterr().err

    def test_backend_engine_round_trip(
        self, tmp_path, capsys, two_k4s, monkeypatch
    ):
        monkeypatch.setenv("QCLIQUE_BACKEND_CMD", HIGHS_BACKEND)
        code = main(
            [
                "solve",
                write_graph(tmp_path, two_k4s),
                "--k",
                "8",
                "--mode",
                "cstree",
                "--engine",
                "backend",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_SOLVED
        assert "10 edges, connected, Optimal" in out


class TestGrid:
    def test_fixed_cardinality_sweep(self, tmp_path, capsys, triangle):
        csv_path = tmp_path / "tri.csv"
        code = main(
            [
                "grid",
                write_graph(tmp_path, triangle),
                "--family",
                "dks",
                "--csv",
                str(csv_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_SOLVED
        assert "cells=1" in out
        assert "pct_succ=100.0" in out
        assert csv_path.read_text(encoding="utf-8").startswith("param,")

    def test_threshold_sweep(self, tmp_path, capsys, triangle):
        csv_path = tmp_path / "tri-mqc.csv"
        code = main(
            [
                "grid",
                write_graph(tmp_path, triangle),
                "--family",
                "mqc",
                "--csv",
                str(csv_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_SOLVED
        assert "cells=91" in out
        assert "pct_disc=0.0" in out

    def test_default_csv_name(self, tmp_path, capsys, triangle, monkeypatch):
        instance = write_graph(tmp_path, triangle, name="tri.txt")
        monkeypatch.chdir(tmp_path)
        code = main(["grid", instance, "--family", "dks"])
        assert code == EXIT_SOLVED
        assert (tmp_path / "tri-dks.csv").exists()
        capsys.readouterr()

    def test_time_limit_must_be_finite(self, tmp_path, capsys, triangle):
        instance = write_graph(tmp_path, triangle)
        code = main(["grid", instance, "--family", "dks", "--time-limit", "inf"])
        assert code == EXIT_INPUT
        assert "positive and finite" in capsys.readouterr().err

    def test_torn_csv_row_exits_cleanly(self, tmp_path, caplog, triangle):
        # An unterminated last row is what an interrupted write leaves: the
        # sweep cuts it and recomputes its cell.
        csv_path = tmp_path / "tri.csv"
        csv_path.write_text(
            "param,status,objective,connected,elapsed,nodes\n2,optimal,1,true,0.001,",
            encoding="utf-8",
        )
        instance = write_graph(tmp_path, triangle)
        code = main(["grid", instance, "--family", "dks", "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("2,optimal,1,true,")
        assert "unterminated last line" in caplog.text

    def test_malformed_terminated_csv_row_exits_4(self, tmp_path, capsys, triangle):
        csv_path = tmp_path / "tri.csv"
        csv_path.write_text(
            "param,status,objective,connected,elapsed,nodes\n2,optimal,1,true,0.001,\n",
            encoding="utf-8",
        )
        instance = write_graph(tmp_path, triangle)
        code = main(["grid", instance, "--family", "dks", "--csv", str(csv_path)])
        assert code == EXIT_INPUT
        assert "malformed grid CSV row" in capsys.readouterr().err

    def test_bad_worker_count(self, tmp_path, capsys, triangle):
        code = main(
            [
                "grid",
                write_graph(tmp_path, triangle),
                "--family",
                "dks",
                "--workers",
                "0",
                "--csv",
                str(tmp_path / "w.csv"),
            ]
        )
        assert code == EXIT_INPUT
        assert "worker" in capsys.readouterr().err


class TestVerify:
    def test_feasible_connected(self, tmp_path, capsys, triangle):
        code = main(
            [
                "verify",
                write_graph(tmp_path, triangle),
                "--vertices",
                "0,1,2",
                "--gamma",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_SOLVED
        assert "density 1" in out
        assert "feasible" in out
        assert "connected" in out

    def test_zero_density_pair(self, tmp_path, capsys, path3):
        code = main(
            ["verify", write_graph(tmp_path, path3), "--vertices", "0 2", "--k", "2"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_SOLVED
        assert "density 0" in out
        assert "cardinality 2 = k=2" in out
        assert "disconnected" in out

    def test_exact_fraction_density(self, tmp_path, capsys, two_k4s):
        code = main(
            [
                "verify",
                write_graph(tmp_path, two_k4s),
                "--vertices",
                "0,1,2,3,4,5,6,7",
                "--gamma",
                "3/7",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_SOLVED
        assert "density 3/7" in out
        assert "feasible" in out
        assert "disconnected" in out

    def test_connected_mode_rejects_disconnected_set(
        self, tmp_path, capsys, two_k4s
    ):
        code = main(
            [
                "verify",
                write_graph(tmp_path, two_k4s),
                "--vertices",
                "0,1,2,3,4,5,6,7",
                "--gamma",
                "3/7",
                "--mode",
                "cstree",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_INFEASIBLE
        assert "certificate: none (disconnected)" in out

    def test_certificate_for_connected_set(self, tmp_path, capsys, two_k4s):
        code = main(
            [
                "verify",
                write_graph(tmp_path, two_k4s),
                "--vertices",
                "0,1,2,3",
                "--gamma",
                "1",
                "--mode",
                "cstree",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_SOLVED
        assert "certificate: verified" in out

    def test_no_certificate_form_for_penalty_mode(
        self, tmp_path, capsys, triangle
    ):
        code = main(
            [
                "verify",
                write_graph(tmp_path, triangle),
                "--vertices",
                "0,1,2",
                "--gamma",
                "1",
                "--mode",
                "mpr",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_SOLVED
        assert "certificate: no explicit form" in out

    def test_density_below_threshold(self, tmp_path, capsys, path3):
        code = main(
            [
                "verify",
                write_graph(tmp_path, path3),
                "--vertices",
                "0,2",
                "--gamma",
                "1/2",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_INFEASIBLE
        assert "infeasible (density < 1/2)" in out

    def test_cardinality_mismatch(self, tmp_path, capsys, triangle):
        code = main(
            ["verify", write_graph(tmp_path, triangle), "--vertices", "0,1", "--k", "3"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_INFEASIBLE
        assert "cardinality 2 != k=3" in out

    def test_invalid_vertex_labels(self, tmp_path, capsys, triangle):
        path = write_graph(tmp_path, triangle)
        assert main(["verify", path, "--vertices", "0,9", "--k", "2"]) == EXIT_INPUT
        assert main(["verify", path, "--vertices", "a,b", "--k", "2"]) == EXIT_INPUT
        assert main(["verify", path, "--vertices", " ", "--k", "2"]) == EXIT_INPUT
        capsys.readouterr()

    def test_reads_the_labels_solve_prints(self, tmp_path, capsys):
        # MatrixMarket labels are 1-based: vertex 0 is labelled "1".
        path = tmp_path / "t.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "4 4 4\n2 1\n3 1\n3 2\n4 3\n",
            encoding="utf-8",
        )
        assert main(["solve", str(path), "--k", "3"]) == EXIT_SOLVED
        out = capsys.readouterr().out
        assert "vertices: 1 2 3" in out
        assert "density: 1 " in out
        assert main(["verify", str(path), "--k", "3", "--vertices", "1,2,3"]) == EXIT_SOLVED
        out = capsys.readouterr().out
        assert "density 1\n" in out
        assert main(["verify", str(path), "--k", "3", "--vertices", "0,1,2"]) == EXIT_INPUT
        assert "no vertex is labelled '0'" in capsys.readouterr().err


class TestEmit:
    def test_both_formats(self, tmp_path, capsys, triangle):
        lp_path = tmp_path / "model.lp"
        mps_path = tmp_path / "model.mps"
        code = main(
            [
                "emit",
                write_graph(tmp_path, triangle),
                "--k",
                "2",
                "--lp",
                str(lp_path),
                "--mps",
                str(mps_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_SOLVED
        assert out.count("wrote") == 2
        assert len(parse_lp(lp_path.read_text(encoding="utf-8")).constraints) == 7
        parsed = parse_mps(mps_path.read_text(encoding="utf-8"))
        assert any(var.kind == BINARY for var in parsed.variables)

    def test_requires_an_output_path(self, tmp_path, capsys, triangle):
        code = main(["emit", write_graph(tmp_path, triangle), "--k", "2"])
        assert code == EXIT_INPUT
        assert "--lp" in capsys.readouterr().err

    def test_emit_lp_skips_solving(self, tmp_path, capsys, triangle):
        target = tmp_path / "model.lp"
        code = main(
            [
                "emit",
                write_graph(tmp_path, triangle),
                "--k",
                "2",
                "--lp",
                str(target),
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_SOLVED
        assert f"wrote {target}" in out
        assert "elapsed:" not in out
        model = parse_lp(target.read_text(encoding="utf-8"))
        assert len(model.constraints) == 7

    def test_emit_mps(self, tmp_path, capsys, triangle):
        target = tmp_path / "model.mps"
        code = main(
            [
                "emit",
                write_graph(tmp_path, triangle),
                "--gamma",
                "1/2",
                "--mode",
                "cstree",
                "--mps",
                str(target),
            ]
        )
        assert code == EXIT_SOLVED
        parsed = parse_mps(target.read_text(encoding="utf-8"))
        assert any(var.kind == BINARY for var in parsed.variables)
        capsys.readouterr()

    def test_emit_rejects_lazy_mode(self, tmp_path, capsys, triangle):
        code = main(
            [
                "emit",
                write_graph(tmp_path, triangle),
                "--k",
                "2",
                "--mode",
                "lazy",
                "--lp",
                str(tmp_path / "x.lp"),
            ]
        )
        assert code == EXIT_INPUT
        assert "no static model" in capsys.readouterr().err


class TestParser:
    def test_unknown_subcommand(self, capsys):
        assert main(["optimize"]) == EXIT_INPUT
        assert "invalid choice" in capsys.readouterr().err

    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_INPUT
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert "stats" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["solve", "grid"])
    def test_engine_choices_follow_the_library(self, command):
        commands = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        engine = next(
            action
            for action in commands.choices[command]._actions
            if "--engine" in action.option_strings
        )
        assert tuple(engine.choices) == (*driver.ENGINES, "backend")
