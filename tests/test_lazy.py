"""Tests for the cut-separation solve loop."""

from __future__ import annotations

import logging
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclique import driver, lazy
from qclique.backend import BackendConfig
from qclique.formulations import Connectivity, FormulationError, ProblemSpec
from qclique.graphs import Graph, induced_edge_count, is_connected
from qclique.lazy import solve_lazy
from qclique.solve import Limits, SolveError, SolveStatus, brute_force

from conftest import HIGHS_BACKEND, graphs

ENGINES = ["milp"]


def two_triangles() -> Graph:
    return Graph.build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


class TestSolveLazy:
    def test_connected_first_try_needs_no_cuts(self, path3):
        solution = solve_lazy(path3, 2)
        assert solution.status is SolveStatus.OPTIMAL
        # Both edges are optimal; HiGHS picks either.
        assert solution.vertices in ((0, 1), (1, 2))
        assert solution.objective == 1
        assert solution.cut_rounds == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_two_blocks_converge_to_connected_optimum(self, two_k4s, engine):
        solution = solve_lazy(two_k4s, 8, engine=engine)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == 10
        assert is_connected(two_k4s, solution.vertices)
        assert solution.cut_rounds >= 1

    def test_external_backend_engine(self, two_k4s):
        cfg = BackendConfig(command=HIGHS_BACKEND)
        solution = solve_lazy(two_k4s, 8, engine=cfg)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == 10
        assert is_connected(two_k4s, solution.vertices)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_split_graph_is_infeasible(self, engine):
        solution = solve_lazy(two_triangles(), 5, engine=engine)
        assert solution.status is SolveStatus.INFEASIBLE
        assert solution.vertices == ()
        assert solution.cut_rounds >= 1

    def test_rounds_are_logged(self, two_k4s, caplog):
        with caplog.at_level(logging.INFO, logger="qclique.lazy"):
            solve_lazy(two_k4s, 8)
        assert any("disconnected" in record.message for record in caplog.records)

    def test_unknown_engine_rejected(self, path3):
        with pytest.raises(SolveError, match="unknown engine"):
            solve_lazy(path3, 2, engine="simplex")

    @pytest.mark.parametrize("engine", [5, None])
    def test_engine_of_another_type_rejected(self, path3, engine):
        message = re.escape(f"unknown engine {engine!r}")
        with pytest.raises(SolveError, match=message):
            solve_lazy(path3, 2, engine=engine)

    @pytest.mark.parametrize("engine", ["bnb", "brute"])
    def test_engines_are_the_model_engines(self, path3, engine):
        # The combinatorial engines read no cut rows; bnb solves LAZY mode
        # without the loop.
        assert lazy.ENGINES == ("milp",)
        assert set(lazy.ENGINES) < set(driver.ENGINES)
        expected = rf"unknown engine '{engine}': expected one of \('milp',\)"
        with pytest.raises(SolveError, match=expected):
            solve_lazy(path3, 2, engine=engine)

    @pytest.mark.parametrize(
        "engine, mode",
        [
            ("bnb", Connectivity.NONE),
            ("brute", Connectivity.NONE),
            ("milp", Connectivity.NONE),
            ("milp", Connectivity.LAZY),
        ],
    )
    def test_oversized_k_rejected(self, path3, engine, mode):
        # Each engine checks k itself; the dispatcher adds no check.
        spec = ProblemSpec.dks(4, mode=mode)
        with pytest.raises(FormulationError, match="exceeds vertex count"):
            driver.solve_problem(path3, spec, engine=engine)

    def test_global_time_limit(self, two_k4s):
        solution = solve_lazy(
            two_k4s, 8, limits=Limits(time_seconds=1e-9)
        )
        assert solution.status is SolveStatus.TIME_LIMIT
        assert solution.vertices == ()
        assert solution.cut_rounds is not None

    @given(data=st.data())
    @settings(deadline=None, max_examples=50)
    def test_matches_connected_enumeration(self, data):
        g = data.draw(graphs(min_n=2, max_n=8))
        k = data.draw(st.integers(min_value=2, max_value=g.n))
        oracle = brute_force(g, ProblemSpec.dks(k, mode=Connectivity.CSTREE))
        answer = solve_lazy(g, k)
        assert answer.status is oracle.status
        assert answer.objective == oracle.objective
        if answer.status is SolveStatus.OPTIMAL:
            assert is_connected(g, answer.vertices)
            assert len(answer.vertices) == k
            assert induced_edge_count(g, answer.vertices) == answer.objective
        assert answer.cut_rounds is not None and answer.cut_rounds >= 0
