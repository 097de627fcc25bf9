"""Tests for the model builders, connectivity rows, cuts, and certificates."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from qclique.formulations import (
    Connectivity,
    FormulationError,
    Problem,
    ProblemSpec,
    add_cflow,
    add_cstree,
    add_mpr,
    build_certificate,
    build_f3,
    build_m1,
    indicator_assignment,
    lazy_cuts,
)
from qclique.driver import build_problem_model
from qclique.graphs import Graph, is_connected
from qclique.lpio import export_lp
from qclique.milp import BINARY


def subsets(n: int, min_size: int = 0):
    for size in range(min_size, n + 1):
        yield from itertools.combinations(range(n), size)


def row_by_tag(model, tag):
    (row,) = (c for c in model.constraints if c.tag == tag)
    return row


def best_feasible(model, layout, g, min_size=0, require_connected=False):
    """Model optimum over integral selections, by exhaustive evaluation.

    Sweeps every vertex subset, evaluates the induced assignment (pair
    indicators at their best completion, size indicator matching the subset),
    and returns the best objective among feasible ones. None if none is
    feasible.
    """
    best = None
    for s in subsets(g.n, min_size):
        if require_connected and not is_connected(g, s):
            continue
        if layout.z is not None and s and len(s) not in layout.z:
            continue
        report = model.evaluate(indicator_assignment(layout, s))
        if report.feasible and (best is None or report.objective > best):
            best = report.objective
    return best


class TestProblemSpec:
    def test_mqc_requires_rational_gamma_in_range(self):
        spec = ProblemSpec.mqc(Fraction(1, 2))
        assert spec.gamma == Fraction(1, 2)
        assert spec.label() == "mqc"
        with pytest.raises(FormulationError, match="requires gamma"):
            ProblemSpec(Problem.MQC)
        with pytest.raises(FormulationError, match="outside"):
            ProblemSpec.mqc(Fraction(0))
        with pytest.raises(FormulationError, match="outside"):
            ProblemSpec.mqc(Fraction(3, 2))
        with pytest.raises(FormulationError, match="float"):
            ProblemSpec.mqc(0.5)

    @pytest.mark.parametrize("bad", [True, False])
    def test_gamma_refuses_bools(self, bad):
        with pytest.raises(FormulationError, match="Fraction or int, got"):
            ProblemSpec.mqc(bad)

    def test_dks_requires_integer_k(self):
        spec = ProblemSpec.dks(3)
        assert spec.k == 3
        assert spec.label() == "dks"
        with pytest.raises(FormulationError, match="requires k"):
            ProblemSpec(Problem.DKS)
        with pytest.raises(FormulationError, match="at least 2"):
            ProblemSpec.dks(1)
        with pytest.raises(FormulationError, match="integer"):
            ProblemSpec.dks(True)

    def test_cross_parameters_rejected(self):
        with pytest.raises(FormulationError, match="not k"):
            ProblemSpec(Problem.MQC, gamma=Fraction(1, 2), k=3)
        with pytest.raises(FormulationError, match="not gamma"):
            ProblemSpec(Problem.DKS, k=3, gamma=Fraction(1, 2))

    def test_mode_compatibility(self):
        assert ProblemSpec.mqc(Fraction(1, 2), Connectivity.MPR).label() == "mcqc"
        assert ProblemSpec.dks(3, Connectivity.CFLOW).label() == "dcks"
        assert ProblemSpec.dks(3, Connectivity.LAZY).connected
        with pytest.raises(FormulationError, match="fixed-cardinality"):
            ProblemSpec.mqc(Fraction(1, 2), Connectivity.CFLOW)
        with pytest.raises(FormulationError, match="fixed-cardinality"):
            ProblemSpec.mqc(Fraction(1, 2), Connectivity.LAZY)
        with pytest.raises(FormulationError, match="density-threshold"):
            ProblemSpec.dks(3, Connectivity.MPR)

    def test_validate_for_checks_graph_sizes(self, triangle):
        ProblemSpec.dks(3).validate_for(triangle)
        with pytest.raises(FormulationError, match="exceeds vertex count"):
            ProblemSpec.dks(4).validate_for(triangle)

    @pytest.mark.parametrize("k", [True, 2.0, "3", 1, 0, -2, 4])
    def test_k_refused_as_build_m1_refuses_it(self, triangle, k):
        with pytest.raises(FormulationError) as built:
            build_m1(triangle, k)
        with pytest.raises(FormulationError) as stated:
            ProblemSpec.dks(k).validate_for(triangle)
        assert str(stated.value) == str(built.value)

    @pytest.mark.parametrize(
        "gamma", [Fraction(0), Fraction(3, 2), -1, 2, 0.5, True, "1/2"]
    )
    def test_gamma_refused_as_build_f3_refuses_it(self, triangle, gamma):
        with pytest.raises(FormulationError) as built:
            build_f3(triangle, gamma, 1, 3)
        with pytest.raises(FormulationError) as stated:
            ProblemSpec.mqc(gamma)
        assert str(stated.value) == str(built.value)


class TestBuildM1:
    def test_shapes_on_triangle(self, triangle):
        model, layout = build_m1(triangle, 2)
        assert len(model.variables) == 3 + 3
        assert len(model.constraints) == 1 + 2 * 3
        binaries = [var.name for var in model.variables if var.kind == BINARY]
        assert binaries == ["x_0", "x_1", "x_2"]
        assert layout.kind == "m1" and layout.k == 2
        assert model.metadata["formulation"] == "m1"

    def test_k_out_of_range_rejected(self, triangle):
        with pytest.raises(FormulationError, match="at least 2"):
            build_m1(triangle, 1)
        with pytest.raises(FormulationError, match="exceeds vertex count 3"):
            build_m1(triangle, 4)
        with pytest.raises(FormulationError, match="integer"):
            build_m1(triangle, Fraction(2))

    def test_triangle_optima(self, triangle):
        model, layout = build_m1(triangle, 3)
        assert best_feasible(model, layout, triangle) == 3
        model, layout = build_m1(triangle, 2)
        assert best_feasible(model, layout, triangle) == 1

    def test_path_k2_optimum(self, path3):
        model, layout = build_m1(path3, 2)
        assert best_feasible(model, layout, path3) == 1

    def test_cardinality_row_enforced(self, triangle):
        model, layout = build_m1(triangle, 2)
        report = model.evaluate(indicator_assignment(layout, (0, 1, 2)))
        assert not report.feasible
        assert dict(report.violations)["Eq1a"] == 1

    @given(graphs(min_n=2, max_n=8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_counts_match_closed_forms(self, g, data):
        k = data.draw(st.integers(2, g.n), label="k")
        model, _ = build_m1(g, k)
        assert len(model.variables) == g.n + g.m
        assert len(model.constraints) == 1 + 2 * g.m


class TestBuildF3:
    def test_shapes_and_bounds(self, triangle):
        model, layout = build_f3(triangle, Fraction(1, 2), 1, 3)
        assert len(model.variables) == 3 + 3 + 3
        assert len(model.constraints) == 3 + 2 * 3
        assert layout.bounds == (1, 3)
        assert [v.name for v in model.variables if v.kind != BINARY] == [
            "y_0_1",
            "y_0_2",
            "y_1_2",
            "z_1",
            "z_2",
            "z_3",
        ]

    def test_parameter_validation(self, triangle):
        with pytest.raises(FormulationError, match="outside"):
            build_f3(triangle, Fraction(2), 1, 3)
        with pytest.raises(FormulationError, match="float"):
            build_f3(triangle, 0.5, 1, 3)
        with pytest.raises(FormulationError, match="bounds"):
            build_f3(triangle, Fraction(1, 2), 2, 1)
        with pytest.raises(FormulationError, match="bounds"):
            build_f3(triangle, Fraction(1, 2), 1, 4)

    def test_triangle_gamma_1_optimum_3(self, triangle):
        model, layout = build_f3(triangle, Fraction(1), 1, 3)
        assert best_feasible(model, layout, triangle) == 3

    def test_path_gamma_1_optimum_2(self, path3):
        model, layout = build_f3(path3, Fraction(1), 1, 3)
        assert best_feasible(model, layout, path3) == 2

    def test_path_binding_threshold_optimum_3(self, path3):
        # Density of the full path is exactly 2/3; the threshold must accept
        # the boundary case, which only exact rational coefficients guarantee.
        model, layout = build_f3(path3, Fraction(2, 3), 1, 3)
        assert best_feasible(model, layout, path3) == 3

    def test_singleton_always_feasible(self, path3):
        model, layout = build_f3(path3, Fraction(1), 1, 3)
        report = model.evaluate(indicator_assignment(layout, (1,)))
        assert report.feasible
        assert report.objective == 1

    def test_problem_model_bounds_are_one_to_n(self, triangle):
        for g in (triangle, Graph.build(1, [])):
            spec = ProblemSpec.mqc(Fraction(1, 2), mode=Connectivity.MPR)
            model, layout = build_problem_model(g, spec)
            assert layout.bounds == (1, g.n)
            assert model.metadata["bounds"] == f"1_{g.n}"
            assert sorted(layout.z) == list(range(1, g.n + 1))

    @given(graphs(min_n=1, max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_counts_match_closed_forms(self, g):
        model, _ = build_f3(g, Fraction(1, 2), 1, g.n)
        assert len(model.variables) == g.n + g.m + g.n
        assert len(model.constraints) == 3 + 2 * g.m


class TestAddMpr:
    def test_counts(self, path3):
        model, layout = build_f3(path3, Fraction(2, 3), 1, 3)
        base_vars, base_rows = len(model.variables), len(model.constraints)
        model, layout = add_mpr(model, layout, path3)
        assert len(model.variables) == base_vars + path3.n + path3.m
        assert len(model.constraints) == base_rows + 1 + 5 * path3.n + 2 * path3.m
        assert layout.connectivity is Connectivity.MPR

    def test_middle_source_with_signed_flows_feasible(self, path3):
        model, layout = add_mpr(*build_f3(path3, Fraction(2, 3), 1, 3), path3)
        values = indicator_assignment(layout, (0, 1, 2))
        values.update({"c_0": 0, "c_1": 1, "c_2": 0})
        values.update({"fe_0_1": -1, "fe_1_2": 1})
        report = model.evaluate(values)
        assert report.feasible, report.violations
        assert report.integral

    def test_no_source_violates_choice_row(self, path3):
        model, layout = add_mpr(*build_f3(path3, Fraction(2, 3), 1, 3), path3)
        values = indicator_assignment(layout, (0, 1, 2))
        values.update({"c_0": 0, "c_1": 0, "c_2": 0, "fe_0_1": 0, "fe_1_2": 0})
        report = model.evaluate(values)
        assert dict(report.violations)["Eq3a"] == 1

    def test_unselected_source_violates_support_row(self, path3):
        model, layout = add_mpr(*build_f3(path3, Fraction(1), 1, 3), path3)
        values = indicator_assignment(layout, (0, 1))
        values.update({"c_0": 0, "c_1": 0, "c_2": 1, "fe_0_1": 1, "fe_1_2": 0})
        report = model.evaluate(values)
        assert dict(report.violations)["Eq3b:i=2"] == 1

    def test_disconnected_selection_has_no_flow_completion(self, path3):
        # Selection {0, 2} leaves both flows clamped to zero; every candidate
        # source then violates some balance row.
        model, layout = add_mpr(*build_f3(path3, Fraction(1), 1, 3), path3)
        base = indicator_assignment(layout, (0, 2))
        for src in range(3):
            values = dict(base)
            values.update({f"c_{i}": int(i == src) for i in range(3)})
            values.update({"fe_0_1": 0, "fe_1_2": 0})
            report = model.evaluate(values)
            assert not report.feasible

    def test_constant_is_the_upper_size_bound(self, path3):
        model, layout = add_mpr(*build_f3(path3, Fraction(1), 1, 2), path3)
        row = row_by_tag(model, "Eq3c:i=1")
        assert row.terms["c_1"] == -2
        assert row.rhs == -3

    def test_requires_threshold_model(self, path3):
        model, layout = build_m1(path3, 2)
        with pytest.raises(FormulationError, match="requires a f3 model"):
            add_mpr(model, layout, path3)

    def test_double_add_rejected(self, path3):
        model, layout = add_mpr(*build_f3(path3, Fraction(1), 1, 3), path3)
        with pytest.raises(FormulationError, match="already carries"):
            add_mpr(model, layout, path3)

    def test_wrong_graph_rejected(self, path3, triangle):
        model, layout = build_f3(path3, Fraction(1), 1, 3)
        with pytest.raises(FormulationError, match="different graph"):
            add_mpr(model, layout, triangle)


class TestAddCstree:
    def test_counts_on_triangle(self, triangle):
        model, layout = build_f3(triangle, Fraction(1), 1, 3)
        base_vars, base_rows = len(model.variables), len(model.constraints)
        model, layout = add_cstree(model, layout, triangle)
        # 2|E| + n arcs, one use binary and one flow each.
        assert len(model.variables) == base_vars + 2 * (2 * 3 + 3)
        assert (
            len(model.constraints)
            == base_rows + 4 * triangle.n + 5 * triangle.m + 2
        )

    def test_path_witness_assignment_feasible(self, path3):
        model, layout = add_cstree(*build_f3(path3, Fraction(2, 3), 1, 3), path3)
        values = indicator_assignment(layout, (0, 1, 2))
        for arc, name in layout.arc_use.items():
            values[name] = 0
            values[layout.arc_flow[arc]] = 0
        root = path3.n
        values["v_r_0"] = 1
        values["fa_r_0"] = 3
        values["v_0_1"] = 1
        values["fa_0_1"] = 2
        values["v_1_2"] = 1
        values["fa_1_2"] = 1
        report = model.evaluate(values)
        assert report.feasible, report.violations
        assert report.integral

    def test_works_on_cardinality_model_with_u_equal_k(self, path3):
        model, layout = add_cstree(*build_m1(path3, 2), path3)
        assert model.evaluate(build_certificate(layout, path3, (0, 1))).feasible

    def test_constant_is_the_upper_size_bound(self, path3):
        model, _ = add_cstree(*build_f3(path3, Fraction(1), 1, 2), path3)
        assert row_by_tag(model, "Eq5f:j=1").terms["v_r_1"] == -2

    def test_disconnected_pair_has_no_tree_completion(self, path3):
        # Exhaustive check over all binary arc-use patterns for S = {0, 2}:
        # flows are forced to zero on unused arcs, and used arcs must respect
        # the per-selection in-degree rows, so no pattern survives.
        model, layout = add_cstree(*build_f3(path3, Fraction(1), 1, 3), path3)
        base = indicator_assignment(layout, (0, 2))
        arcs = list(layout.arc_use)
        feasible_found = False
        for pattern in itertools.product((0, 1), repeat=len(arcs)):
            values = dict(base)
            use = dict(zip(arcs, pattern))
            for arc, bit in use.items():
                values[layout.arc_use[arc]] = bit
            # Flow completion: the only candidate respecting lower bounds
            # f >= v and balance is determined bottom-up on trees; brute-try
            # integral flows 0..3 on used arcs instead (tiny model).
            used = [a for a, bit in use.items() if bit]
            for flows in itertools.product(range(4), repeat=len(used)):
                for arc in arcs:
                    values[layout.arc_flow[arc]] = 0
                for arc, f in zip(used, flows):
                    values[layout.arc_flow[arc]] = f
                if model.evaluate(values).feasible:
                    feasible_found = True
        assert not feasible_found

    @given(graphs(min_n=1, max_n=7), st.data())
    @settings(max_examples=40, deadline=None)
    def test_counts_match_closed_forms(self, g, data):
        model, _ = add_cstree(*build_f3(g, Fraction(1, 2), 1, g.n), g)
        assert len(model.variables) == (g.n + g.m + g.n) + 2 * (2 * g.m + g.n)
        assert len(model.constraints) == (3 + 2 * g.m) + (
            4 * g.n + 5 * g.m + 2
        )


class TestAddCflow:
    def test_counts(self, path3):
        model, layout = build_m1(path3, 3)
        base_vars, base_rows = len(model.variables), len(model.constraints)
        model, layout = add_cflow(model, layout, path3)
        assert len(model.variables) == base_vars + path3.n + 2 * path3.m
        assert len(model.constraints) == base_rows + 1 + 2 * path3.n + 2 * path3.m

    def test_path_witness_feasible(self, path3):
        model, layout = add_cflow(*build_m1(path3, 3), path3)
        values = indicator_assignment(layout, (0, 1, 2))
        values.update({"s_0": 1, "s_1": 0, "s_2": 0})
        values.update({"fd_0_1": 2, "fd_1_0": 0, "fd_1_2": 1, "fd_2_1": 0})
        report = model.evaluate(values)
        assert report.feasible, report.violations

    def test_no_source_violated(self, path3):
        model, layout = add_cflow(*build_m1(path3, 2), path3)
        values = indicator_assignment(layout, (0, 1))
        values.update({"s_0": 0, "s_1": 0, "s_2": 0})
        values.update({"fd_0_1": 0, "fd_1_0": 0, "fd_1_2": 0, "fd_2_1": 0})
        assert dict(model.evaluate(values).violations)["Eq6a"] == 1

    def test_flow_without_edge_indicator_violated(self, path3):
        model, layout = add_cflow(*build_m1(path3, 2), path3)
        values = indicator_assignment(layout, (0, 2))
        values.update({"s_0": 1, "s_1": 0, "s_2": 0})
        values.update({"fd_0_1": 1, "fd_1_0": 0, "fd_1_2": 0, "fd_2_1": 0})
        report = model.evaluate(values)
        assert dict(report.violations)["Eq6c:e=0_1"] == 1

    def test_requires_cardinality_model(self, path3):
        model, layout = build_f3(path3, Fraction(1), 1, 3)
        with pytest.raises(FormulationError, match="requires a m1 model"):
            add_cflow(model, layout, path3)

    def test_constant_is_the_cardinality(self, path3):
        model, _ = add_cflow(*build_m1(path3, 2), path3)
        assert row_by_tag(model, "Eq6c:e=0_1").terms["y_0_1"] == -2

    @given(graphs(min_n=2, max_n=7), st.data())
    @settings(max_examples=40, deadline=None)
    def test_counts_match_closed_forms(self, g, data):
        k = data.draw(st.integers(2, g.n), label="k")
        model, _ = add_cflow(*build_m1(g, k), g)
        assert len(model.variables) == (g.n + g.m) + (g.n + 2 * g.m)
        assert len(model.constraints) == (1 + 2 * g.m) + (
            1 + 2 * g.n + 2 * g.m
        )


def two_triangles_bridge() -> Graph:
    return Graph.build(
        6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
    )


def m1_layout(g: Graph, k: int):
    return build_m1(g, k)[1]


class TestLazyCuts:
    def test_connected_selection_yields_nothing(self, path3):
        assert lazy_cuts(m1_layout(path3, 3), path3, (0, 1, 2)) == []
        assert lazy_cuts(m1_layout(path3, 2), path3, (1,)) == []

    def test_bridge_example_cut_terms(self):
        g = two_triangles_bridge()
        cuts = lazy_cuts(m1_layout(g, 5), g, (0, 1, 2, 4, 5))
        by_tag = {c.tag: c for c in cuts}
        assert len(cuts) == 5
        assert by_tag["Eq4a:C=4.5:j=4"].terms == {
            "x_3": Fraction(1),
            "x_4": Fraction(-1),
        }
        assert by_tag["Eq4a:C=4.5:j=5"].terms == {
            "x_3": Fraction(1),
            "x_5": Fraction(-1),
        }
        for j in (0, 1, 2):
            cut = by_tag[f"Eq4a:C=0.1.2:j={j}"]
            assert cut.terms == {"x_3": Fraction(1), f"x_{j}": Fraction(-1)}
            assert cut.sense == ">=" and cut.rhs == 0

    def test_singleton_components(self):
        g = Graph.build(5, [(0, 3), (1, 3), (2, 3)])
        cuts = lazy_cuts(m1_layout(g, 3), g, (0, 1, 2))
        assert len(cuts) == 3
        for cut in cuts:
            assert cut.sense == ">=" and cut.rhs == 0

    def test_isolated_fragment_forces_exclusion(self):
        g = Graph.build(4, [(0, 1), (2, 3)])
        # Vertex 2's fragment has no outside neighbors beyond 3, which is
        # inside; the cut says a connected 3-set cannot keep either.
        cuts = lazy_cuts(m1_layout(g, 3), g, (0, 2, 3))
        tags = {c.tag for c in cuts}
        assert "Eq4a:C=0:j=0" in tags
        assert "Eq4a:C=2.3:j=2" in tags

    def test_large_fragments_skipped(self):
        # Two disjoint triangles, whole vertex set, k = 3: both fragments
        # have size >= k, and cutting either would exclude a connected
        # triangle, so nothing may be emitted.
        g = Graph.build(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        assert lazy_cuts(m1_layout(g, 3), g, range(6)) == []

    def test_requires_cardinality_model(self, path3):
        _, layout = build_f3(path3, Fraction(1, 2), 1, 3)
        with pytest.raises(FormulationError, match="requires a m1 model"):
            lazy_cuts(layout, path3, (0, 2))

    @given(graphs(min_n=2, max_n=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_cuts_sound_for_connected_k_sets(self, g, data):
        s = data.draw(
            st.lists(st.integers(0, g.n - 1), unique=True, min_size=1), label="s"
        )
        k = data.draw(st.integers(2, g.n), label="k")
        cuts = lazy_cuts(m1_layout(g, k), g, s)
        for t in itertools.combinations(range(g.n), k):
            if not is_connected(g, t):
                continue
            x = {f"x_{i}": Fraction(1 if i in t else 0) for i in range(g.n)}
            for cut in cuts:
                lhs = sum(coef * x[name] for name, coef in cut.terms.items())
                assert lhs >= cut.rhs, (cut.tag, t)


def _nonzero(point):
    return {name: value for name, value in point.items() if value != 0}


class TestBuildCertificate:
    def test_path_cstree_witness_matches_expected(self, path3):
        _, layout = add_cstree(*build_m1(path3, 3), path3)
        point = build_certificate(layout, path3, (0, 1, 2))
        assert _nonzero(point) == {
            "x_0": 1,
            "x_1": 1,
            "x_2": 1,
            "y_0_1": 1,
            "y_1_2": 1,
            "v_r_0": 1,
            "fa_r_0": 3,
            "v_0_1": 1,
            "fa_0_1": 2,
            "v_1_2": 1,
            "fa_1_2": 1,
        }

    def test_star_cflow_witness(self):
        star = Graph.build(4, [(0, 1), (0, 2), (0, 3)])
        _, layout = add_cflow(*build_m1(star, 4), star)
        point = build_certificate(layout, star, range(4))
        assert _nonzero(point) == {
            **{f"x_{i}": 1 for i in range(4)},
            **{f"y_0_{i}": 1 for i in (1, 2, 3)},
            "s_0": 1,
            "fd_0_1": 1,
            "fd_0_2": 1,
            "fd_0_3": 1,
        }

    def test_disconnected_reported(self, path3):
        for add in (add_cstree, add_cflow):
            _, layout = add(*build_m1(path3, 2), path3)
            assert build_certificate(layout, path3, (0, 2)) is None

    def test_parameter_validation(self, path3):
        _, layout = add_cstree(*build_m1(path3, 2), path3)
        with pytest.raises(FormulationError, match="empty"):
            build_certificate(layout, path3, ())
        _, layout = add_mpr(*build_f3(path3, Fraction(1), 1, 3), path3)
        with pytest.raises(FormulationError, match="no certificate form"):
            build_certificate(layout, path3, (0, 1))

    def test_refuses_a_layout_over_another_graph(self, path3, triangle):
        _, layout = add_cstree(*build_m1(triangle, 2), triangle)
        with pytest.raises(FormulationError, match="different graph"):
            build_certificate(layout, path3, (0, 1))

    @given(graphs(min_n=1, max_n=7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_cstree_certificates_verify_on_full_model(self, g, data):
        members = data.draw(
            st.lists(st.integers(0, g.n - 1), unique=True, min_size=1),
            label="members",
        )
        model, layout = add_cstree(*build_f3(g, Fraction(1, 100), 1, g.n), g)
        point = build_certificate(layout, g, members)
        if not is_connected(g, members):
            assert point is None
            return
        report = model.evaluate(point)
        assert report.feasible, report.violations
        assert report.integral

    @given(graphs(min_n=2, max_n=7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_cflow_certificates_verify_on_full_model(self, g, data):
        members = data.draw(
            st.lists(st.integers(0, g.n - 1), unique=True, min_size=2),
            label="members",
        )
        model, layout = add_cflow(*build_m1(g, len(members)), g)
        point = build_certificate(layout, g, members)
        if not is_connected(g, members):
            assert point is None
            return
        report = model.evaluate(point)
        assert report.feasible, report.violations
        assert report.integral

    @given(graphs(min_n=2, max_n=7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_point_names_exactly_the_model_variables(self, g, data):
        # evaluate() ignores names the model lacks, so only this catches a
        # misnamed certificate variable.
        members = data.draw(
            st.lists(st.integers(0, g.n - 1), unique=True, min_size=2),
            label="members",
        )
        k = len(members)
        for model, layout in (
            add_cstree(*build_f3(g, Fraction(1, 100), 1, g.n), g),
            add_cstree(*build_m1(g, k), g),
            add_cflow(*build_m1(g, k), g),
        ):
            point = build_certificate(layout, g, members)
            if point is None:
                assert not is_connected(g, members)
                continue
            assert set(point) == {var.name for var in model.variables}


class TestOptimaThroughModels:
    def test_two_k4s_threshold_optimum_disconnected(self, two_k4s):
        # Both cliques together: 12 edges over 28 pairs = exactly 3/7.
        model, layout = build_f3(two_k4s, Fraction(3, 7), 1, two_k4s.n)
        assert best_feasible(model, layout, two_k4s) == 8

    def test_two_k4s_connected_threshold_optimum(self, two_k4s):
        # The best connected selection at the same threshold has 7 vertices.
        model, layout = build_f3(two_k4s, Fraction(3, 7), 1, two_k4s.n)
        assert best_feasible(model, layout, two_k4s, require_connected=True) == 7

    @given(graphs(min_n=1, max_n=6), st.data())
    @settings(max_examples=30, deadline=None)
    def test_connected_optimum_never_beats_unrestricted(self, g, data):
        denominator = data.draw(st.integers(1, 10), label="den")
        numerator = data.draw(st.integers(1, denominator), label="num")
        gamma = Fraction(numerator, denominator)
        model, layout = build_f3(g, gamma, 1, g.n)
        free = best_feasible(model, layout, g)
        tied = best_feasible(model, layout, g, require_connected=True)
        assert free is not None and tied is not None  # singletons feasible
        assert tied <= free

    def test_indicator_rejects_out_of_bounds_size(self, path3):
        _, layout = build_f3(path3, Fraction(1), 1, 2)
        with pytest.raises(FormulationError, match="outside the layout's bounds"):
            indicator_assignment(layout, (0, 1, 2))

    def test_indicator_rejects_ids_outside_the_layout(self, path3):
        _, layout = build_f3(path3, Fraction(1, 2), 1, 3)
        with pytest.raises(FormulationError, match="out of range"):
            indicator_assignment(layout, {7})
        _, layout = build_m1(path3, 2)
        with pytest.raises(FormulationError, match="out of range"):
            indicator_assignment(layout, [-1, 1])

    def test_indicator_rejects_repeated_ids(self, path3):
        _, layout = build_m1(path3, 2)
        with pytest.raises(FormulationError, match="duplicate vertex 1"):
            indicator_assignment(layout, [1, 1])


# The exact LP text of each builder and add-on on path3 (m1 at k=2, f3 at
# gamma=1/2 with bounds (1, 3)): variable order, row order and term order.
PATH3_LP = {
    "m1": r"""\ linear model
\ meta formulation=m1
\ meta k=2
\ meta graph=n3m2-2557abffc2ed
Maximize
 obj: + 1 y_0_1 + 1 y_1_2
Subject To
 c_Eq1a: + 1 x_0 + 1 x_1 + 1 x_2 = 2
 c_Eq1b_e_0_1: + 1 y_0_1 - 1 x_0 <= 0
 c_Eq1c_e_0_1: + 1 y_0_1 - 1 x_1 <= 0
 c_Eq1b_e_1_2: + 1 y_1_2 - 1 x_1 <= 0
 c_Eq1c_e_1_2: + 1 y_1_2 - 1 x_2 <= 0
Bounds
 0 <= y_0_1 <= 1
 0 <= y_1_2 <= 1
Binaries
 x_0
 x_1
 x_2
End
""",
    "m1+cstree": r"""\ linear model
\ meta formulation=m1
\ meta k=2
\ meta graph=n3m2-2557abffc2ed
Maximize
 obj: + 1 y_0_1 + 1 y_1_2
Subject To
 c_Eq1a: + 1 x_0 + 1 x_1 + 1 x_2 = 2
 c_Eq1b_e_0_1: + 1 y_0_1 - 1 x_0 <= 0
 c_Eq1c_e_0_1: + 1 y_0_1 - 1 x_1 <= 0
 c_Eq1b_e_1_2: + 1 y_1_2 - 1 x_1 <= 0
 c_Eq1c_e_1_2: + 1 y_1_2 - 1 x_2 <= 0
 c_Eq5a_j_0: + 1 v_1_0 + 1 v_r_0 - 1 x_0 = 0
 c_Eq5a_j_1: + 1 v_0_1 + 1 v_2_1 + 1 v_r_1 - 1 x_1 = 0
 c_Eq5a_j_2: + 1 v_1_2 + 1 v_r_2 - 1 x_2 = 0
 c_Eq5b: + 1 v_r_0 + 1 v_r_1 + 1 v_r_2 = 1
 c_Eq5c_j_0: + 1 fa_1_0 + 1 fa_r_0 - 1 fa_0_1 - 1 x_0 = 0
 c_Eq5c_j_1: + 1 fa_0_1 + 1 fa_2_1 + 1 fa_r_1 - 1 fa_1_0 - 1 fa_1_2 - 1 x_1 = 0
 c_Eq5c_j_2: + 1 fa_1_2 + 1 fa_r_2 - 1 fa_2_1 - 1 x_2 = 0
 c_Eq5d_a_0_1: + 1 fa_0_1 - 1 v_0_1 >= 0
 c_Eq5d_a_1_0: + 1 fa_1_0 - 1 v_1_0 >= 0
 c_Eq5d_a_1_2: + 1 fa_1_2 - 1 v_1_2 >= 0
 c_Eq5d_a_2_1: + 1 fa_2_1 - 1 v_2_1 >= 0
 c_Eq5d_a_r_0: + 1 fa_r_0 - 1 v_r_0 >= 0
 c_Eq5d_a_r_1: + 1 fa_r_1 - 1 v_r_1 >= 0
 c_Eq5d_a_r_2: + 1 fa_r_2 - 1 v_r_2 >= 0
 c_Eq5e_a_0_1: + 1 fa_0_1 - 1 v_0_1 <= 0
 c_Eq5e_a_1_0: + 1 fa_1_0 - 1 v_1_0 <= 0
 c_Eq5e_a_1_2: + 1 fa_1_2 - 1 v_1_2 <= 0
 c_Eq5e_a_2_1: + 1 fa_2_1 - 1 v_2_1 <= 0
 c_Eq5f_j_0: + 1 fa_r_0 - 2 v_r_0 <= 0
 c_Eq5f_j_1: + 1 fa_r_1 - 2 v_r_1 <= 0
 c_Eq5f_j_2: + 1 fa_r_2 - 2 v_r_2 <= 0
 c_Eq5g: + 1 fa_r_0 + 1 fa_r_1 + 1 fa_r_2 - 1 x_0 - 1 x_1 - 1 x_2 = 0
 c_Eq5h_e_0_1: + 1 v_0_1 + 1 v_1_0 - 1 y_0_1 <= 0
 c_Eq5h_e_1_2: + 1 v_1_2 + 1 v_2_1 - 1 y_1_2 <= 0
Bounds
 0 <= y_0_1 <= 1
 0 <= y_1_2 <= 1
 fa_0_1 >= 0
 fa_1_0 >= 0
 fa_1_2 >= 0
 fa_2_1 >= 0
 fa_r_0 >= 0
 fa_r_1 >= 0
 fa_r_2 >= 0
Binaries
 x_0
 x_1
 x_2
 v_0_1
 v_1_0
 v_1_2
 v_2_1
 v_r_0
 v_r_1
 v_r_2
End
""",
    "m1+cflow": r"""\ linear model
\ meta formulation=m1
\ meta k=2
\ meta graph=n3m2-2557abffc2ed
Maximize
 obj: + 1 y_0_1 + 1 y_1_2
Subject To
 c_Eq1a: + 1 x_0 + 1 x_1 + 1 x_2 = 2
 c_Eq1b_e_0_1: + 1 y_0_1 - 1 x_0 <= 0
 c_Eq1c_e_0_1: + 1 y_0_1 - 1 x_1 <= 0
 c_Eq1b_e_1_2: + 1 y_1_2 - 1 x_1 <= 0
 c_Eq1c_e_1_2: + 1 y_1_2 - 1 x_2 <= 0
 c_Eq6a: + 1 s_0 + 1 s_1 + 1 s_2 = 1
 c_Eq6b_i_0: + 1 s_0 - 1 x_0 <= 0
 c_Eq6b_i_1: + 1 s_1 - 1 x_1 <= 0
 c_Eq6b_i_2: + 1 s_2 - 1 x_2 <= 0
 c_Eq6c_e_0_1: + 1 fd_0_1 - 2 y_0_1 <= 0
 c_Eq6d_e_0_1: + 1 fd_1_0 - 2 y_0_1 <= 0
 c_Eq6c_e_1_2: + 1 fd_1_2 - 2 y_1_2 <= 0
 c_Eq6d_e_1_2: + 1 fd_2_1 - 2 y_1_2 <= 0
 c_Eq6e_i_0: + 1 fd_1_0 - 1 fd_0_1 - 1 x_0 + 2 s_0 = 0
 c_Eq6e_i_1: + 1 fd_0_1 - 1 fd_1_0 + 1 fd_2_1 - 1 fd_1_2 - 1 x_1 + 2 s_1 = 0
 c_Eq6e_i_2: + 1 fd_1_2 - 1 fd_2_1 - 1 x_2 + 2 s_2 = 0
Bounds
 0 <= y_0_1 <= 1
 0 <= y_1_2 <= 1
 fd_0_1 >= 0
 fd_1_0 >= 0
 fd_1_2 >= 0
 fd_2_1 >= 0
Binaries
 x_0
 x_1
 x_2
 s_0
 s_1
 s_2
End
""",
    "f3": r"""\ linear model
\ meta formulation=f3
\ meta gamma=1/2
\ meta bounds=1_3
\ meta graph=n3m2-2557abffc2ed
Maximize
 obj: + 1 x_0 + 1 x_1 + 1 x_2
Subject To
 c_Eq2a: + 2 y_0_1 + 2 y_1_2 - 1 z_2 - 3 z_3 >= 0
 c_Eq2b: + 1 x_0 + 1 x_1 + 1 x_2 - 1 z_1 - 2 z_2 - 3 z_3 = 0
 c_Eq2c: + 1 z_1 + 1 z_2 + 1 z_3 = 1
 c_Eq2d_e_0_1: + 1 y_0_1 - 1 x_0 <= 0
 c_Eq2e_e_0_1: + 1 y_0_1 - 1 x_1 <= 0
 c_Eq2d_e_1_2: + 1 y_1_2 - 1 x_1 <= 0
 c_Eq2e_e_1_2: + 1 y_1_2 - 1 x_2 <= 0
Bounds
 0 <= y_0_1 <= 1
 0 <= y_1_2 <= 1
 0 <= z_1 <= 1
 0 <= z_2 <= 1
 0 <= z_3 <= 1
Binaries
 x_0
 x_1
 x_2
End
""",
    "f3+mpr": r"""\ linear model
\ meta formulation=f3
\ meta gamma=1/2
\ meta bounds=1_3
\ meta graph=n3m2-2557abffc2ed
Maximize
 obj: + 1 x_0 + 1 x_1 + 1 x_2
Subject To
 c_Eq2a: + 2 y_0_1 + 2 y_1_2 - 1 z_2 - 3 z_3 >= 0
 c_Eq2b: + 1 x_0 + 1 x_1 + 1 x_2 - 1 z_1 - 2 z_2 - 3 z_3 = 0
 c_Eq2c: + 1 z_1 + 1 z_2 + 1 z_3 = 1
 c_Eq2d_e_0_1: + 1 y_0_1 - 1 x_0 <= 0
 c_Eq2e_e_0_1: + 1 y_0_1 - 1 x_1 <= 0
 c_Eq2d_e_1_2: + 1 y_1_2 - 1 x_1 <= 0
 c_Eq2e_e_1_2: + 1 y_1_2 - 1 x_2 <= 0
 c_Eq3a: + 1 c_0 + 1 c_1 + 1 c_2 = 1
 c_Eq3b_i_0: + 1 c_0 - 1 x_0 <= 0
 c_Eq3b_i_1: + 1 c_1 - 1 x_1 <= 0
 c_Eq3b_i_2: + 1 c_2 - 1 x_2 <= 0
 c_Eq3c_i_0: + 1 fe_0_1 - 1 x_0 - 1 x_1 - 1 x_2 - 3 c_0 >= -4
 c_Eq3d_i_0: + 1 fe_0_1 - 1 x_0 - 1 x_1 - 1 x_2 + 3 c_0 <= 2
 c_Eq3e_i_0: + 1 fe_0_1 + 3 c_0 - 3 x_0 >= -4
 c_Eq3f_i_0: + 1 fe_0_1 - 3 c_0 + 3 x_0 <= 2
 c_Eq3c_i_1: - 1 fe_0_1 + 1 fe_1_2 - 1 x_0 - 1 x_1 - 1 x_2 - 3 c_1 >= -4
 c_Eq3d_i_1: - 1 fe_0_1 + 1 fe_1_2 - 1 x_0 - 1 x_1 - 1 x_2 + 3 c_1 <= 2
 c_Eq3e_i_1: - 1 fe_0_1 + 1 fe_1_2 + 3 c_1 - 3 x_1 >= -4
 c_Eq3f_i_1: - 1 fe_0_1 + 1 fe_1_2 - 3 c_1 + 3 x_1 <= 2
 c_Eq3c_i_2: - 1 fe_1_2 - 1 x_0 - 1 x_1 - 1 x_2 - 3 c_2 >= -4
 c_Eq3d_i_2: - 1 fe_1_2 - 1 x_0 - 1 x_1 - 1 x_2 + 3 c_2 <= 2
 c_Eq3e_i_2: - 1 fe_1_2 + 3 c_2 - 3 x_2 >= -4
 c_Eq3f_i_2: - 1 fe_1_2 - 3 c_2 + 3 x_2 <= 2
 c_Eq3g_e_0_1: + 1 fe_0_1 + 2 y_0_1 >= 0
 c_Eq3h_e_0_1: + 1 fe_0_1 - 2 y_0_1 <= 0
 c_Eq3g_e_1_2: + 1 fe_1_2 + 2 y_1_2 >= 0
 c_Eq3h_e_1_2: + 1 fe_1_2 - 2 y_1_2 <= 0
Bounds
 0 <= y_0_1 <= 1
 0 <= y_1_2 <= 1
 0 <= z_1 <= 1
 0 <= z_2 <= 1
 0 <= z_3 <= 1
 fe_0_1 free
 fe_1_2 free
Binaries
 x_0
 x_1
 x_2
 c_0
 c_1
 c_2
End
""",
    "f3+cstree": r"""\ linear model
\ meta formulation=f3
\ meta gamma=1/2
\ meta bounds=1_3
\ meta graph=n3m2-2557abffc2ed
Maximize
 obj: + 1 x_0 + 1 x_1 + 1 x_2
Subject To
 c_Eq2a: + 2 y_0_1 + 2 y_1_2 - 1 z_2 - 3 z_3 >= 0
 c_Eq2b: + 1 x_0 + 1 x_1 + 1 x_2 - 1 z_1 - 2 z_2 - 3 z_3 = 0
 c_Eq2c: + 1 z_1 + 1 z_2 + 1 z_3 = 1
 c_Eq2d_e_0_1: + 1 y_0_1 - 1 x_0 <= 0
 c_Eq2e_e_0_1: + 1 y_0_1 - 1 x_1 <= 0
 c_Eq2d_e_1_2: + 1 y_1_2 - 1 x_1 <= 0
 c_Eq2e_e_1_2: + 1 y_1_2 - 1 x_2 <= 0
 c_Eq5a_j_0: + 1 v_1_0 + 1 v_r_0 - 1 x_0 = 0
 c_Eq5a_j_1: + 1 v_0_1 + 1 v_2_1 + 1 v_r_1 - 1 x_1 = 0
 c_Eq5a_j_2: + 1 v_1_2 + 1 v_r_2 - 1 x_2 = 0
 c_Eq5b: + 1 v_r_0 + 1 v_r_1 + 1 v_r_2 = 1
 c_Eq5c_j_0: + 1 fa_1_0 + 1 fa_r_0 - 1 fa_0_1 - 1 x_0 = 0
 c_Eq5c_j_1: + 1 fa_0_1 + 1 fa_2_1 + 1 fa_r_1 - 1 fa_1_0 - 1 fa_1_2 - 1 x_1 = 0
 c_Eq5c_j_2: + 1 fa_1_2 + 1 fa_r_2 - 1 fa_2_1 - 1 x_2 = 0
 c_Eq5d_a_0_1: + 1 fa_0_1 - 1 v_0_1 >= 0
 c_Eq5d_a_1_0: + 1 fa_1_0 - 1 v_1_0 >= 0
 c_Eq5d_a_1_2: + 1 fa_1_2 - 1 v_1_2 >= 0
 c_Eq5d_a_2_1: + 1 fa_2_1 - 1 v_2_1 >= 0
 c_Eq5d_a_r_0: + 1 fa_r_0 - 1 v_r_0 >= 0
 c_Eq5d_a_r_1: + 1 fa_r_1 - 1 v_r_1 >= 0
 c_Eq5d_a_r_2: + 1 fa_r_2 - 1 v_r_2 >= 0
 c_Eq5e_a_0_1: + 1 fa_0_1 - 2 v_0_1 <= 0
 c_Eq5e_a_1_0: + 1 fa_1_0 - 2 v_1_0 <= 0
 c_Eq5e_a_1_2: + 1 fa_1_2 - 2 v_1_2 <= 0
 c_Eq5e_a_2_1: + 1 fa_2_1 - 2 v_2_1 <= 0
 c_Eq5f_j_0: + 1 fa_r_0 - 3 v_r_0 <= 0
 c_Eq5f_j_1: + 1 fa_r_1 - 3 v_r_1 <= 0
 c_Eq5f_j_2: + 1 fa_r_2 - 3 v_r_2 <= 0
 c_Eq5g: + 1 fa_r_0 + 1 fa_r_1 + 1 fa_r_2 - 1 x_0 - 1 x_1 - 1 x_2 = 0
 c_Eq5h_e_0_1: + 1 v_0_1 + 1 v_1_0 - 1 y_0_1 <= 0
 c_Eq5h_e_1_2: + 1 v_1_2 + 1 v_2_1 - 1 y_1_2 <= 0
Bounds
 0 <= y_0_1 <= 1
 0 <= y_1_2 <= 1
 0 <= z_1 <= 1
 0 <= z_2 <= 1
 0 <= z_3 <= 1
 fa_0_1 >= 0
 fa_1_0 >= 0
 fa_1_2 >= 0
 fa_2_1 >= 0
 fa_r_0 >= 0
 fa_r_1 >= 0
 fa_r_2 >= 0
Binaries
 x_0
 x_1
 x_2
 v_0_1
 v_1_0
 v_1_2
 v_2_1
 v_r_0
 v_r_1
 v_r_2
End
""",
}


class TestModelText:
    @pytest.mark.parametrize("case", sorted(PATH3_LP))
    def test_lp_text_is_pinned(self, path3, case):
        base, _, addon = case.partition("+")
        if base == "m1":
            model, layout = build_m1(path3, 2)
        else:
            model, layout = build_f3(path3, Fraction(1, 2), 1, 3)
        if addon:
            add = {"cstree": add_cstree, "cflow": add_cflow, "mpr": add_mpr}[addon]
            model, layout = add(model, layout, path3)
        assert export_lp(model) == PATH3_LP[case]
