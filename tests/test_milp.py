"""Tests for the exact-rational model container."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qclique.milp import BINARY, CONTINUOUS, LinearModel, ModelError


def simple_model() -> LinearModel:
    m = LinearModel()
    m.add_variable("x", BINARY)
    m.set_objective({"x": 1})
    m.add_constraint({"x": 1}, "<=", 1, "cap")
    return m


class TestVariables:
    def test_duplicate_name_rejected(self):
        m = LinearModel()
        m.add_variable("x_0", BINARY)
        with pytest.raises(ModelError, match="duplicate"):
            m.add_variable("x_0", BINARY)

    def test_whitespace_name_rejected(self):
        m = LinearModel()
        with pytest.raises(ModelError, match="invalid variable name"):
            m.add_variable("x 1", BINARY)
        with pytest.raises(ModelError, match="invalid variable name"):
            m.add_variable("", BINARY)
        m.add_variable("x", BINARY)
        # Every Unicode whitespace counts, as str.isspace() has it.
        for space in ("\u00a0", "\u2003", "\u001f"):
            with pytest.raises(ModelError, match="invalid variable name"):
                m.add_variable(f"x{space}1", BINARY)
            with pytest.raises(ModelError, match="invalid constraint tag"):
                m.add_constraint({"x": 1}, "<=", 1, f"c{space}1")
        with pytest.raises(ModelError, match="invalid constraint tag"):
            m.add_constraint({"x": 1}, "<=", 1, "")

    def test_binary_defaults_to_unit_bounds(self):
        m = LinearModel()
        m.add_variable("x", BINARY)
        (var,) = m.variables
        assert (var.lower, var.upper) == (0, 1)

    def test_binary_bounds_must_stay_within_unit(self):
        m = LinearModel()
        m.add_variable("x", BINARY, 1, 1)  # fixing is fine
        with pytest.raises(ModelError, match="outside"):
            m.add_variable("y", BINARY, 0, 2)

    def test_crossing_bounds_rejected(self):
        m = LinearModel()
        with pytest.raises(ModelError, match="cross"):
            m.add_variable("f", CONTINUOUS, 3, 2)

    def test_float_bounds_rejected(self):
        m = LinearModel()
        with pytest.raises(ModelError, match="float"):
            m.add_variable("f", CONTINUOUS, 0.5, 1)

    def test_unknown_kind_rejected(self):
        m = LinearModel()
        with pytest.raises(ModelError, match="kind"):
            m.add_variable("x", "integer")


class TestConstraints:
    def test_empty_terms_row_accepted(self):
        m = LinearModel()
        m.add_variable("x", BINARY)
        m.add_constraint({}, "=", 0, "void")
        assert m.constraints[0].terms == {}
        report = m.evaluate({"x": 0})
        assert report.feasible

    def test_zero_coefficients_dropped(self):
        m = LinearModel()
        m.add_variable("x", BINARY)
        m.add_variable("y", BINARY)
        m.add_constraint({"x": 0, "y": 2}, "<=", 2, "row")
        assert m.constraints[0].terms == {"y": Fraction(2)}

    def test_duplicate_tag_rejected(self):
        m = simple_model()
        with pytest.raises(ModelError, match="duplicate constraint tag"):
            m.add_constraint({"x": 1}, "<=", 1, "cap")

    def test_unknown_variable_in_terms_rejected(self):
        m = LinearModel()
        m.add_variable("x", BINARY)
        with pytest.raises(ModelError, match="unknown variable"):
            m.add_constraint({"z": 1}, "<=", 1, "row")

    def test_float_coefficient_rejected(self):
        m = LinearModel()
        m.add_variable("x", BINARY)
        with pytest.raises(ModelError, match="float"):
            m.add_constraint({"x": 0.29}, "<=", 1, "row")
        with pytest.raises(ModelError, match="float"):
            m.add_constraint({"x": 1}, "<=", 0.5, "row")

    @pytest.mark.parametrize("bad", [True, False])
    def test_bool_numbers_rejected(self, bad):
        m = LinearModel()
        m.add_variable("x", BINARY)
        with pytest.raises(ModelError, match=f"coefficient of x .* got {bad}"):
            m.add_constraint({"x": bad}, "<=", 1, "row")
        with pytest.raises(ModelError, match=f"rhs of row .* got {bad}"):
            m.add_constraint({"x": 1}, "<=", bad, "row")
        with pytest.raises(ModelError, match=f"bound of y .* got {bad}"):
            m.add_variable("y", CONTINUOUS, 0, bad)
        with pytest.raises(ModelError, match=f"value of x .* got {bad}"):
            m.evaluate({"x": bad})

    def test_whole_numbers_are_stored_as_ints(self):
        m = LinearModel()
        m.add_variable("x", BINARY)
        m.add_variable("y", CONTINUOUS, Fraction(-4, 2), Fraction(7, 2))
        terms = {"x": Fraction(6, 3), "y": Fraction(1, 3)}
        m.add_constraint(terms, "<=", Fraction(5), "row")
        row = m.constraints[0]
        assert [type(v) for v in row.terms.values()] == [int, Fraction]
        assert type(row.rhs) is int and row.rhs == 5
        x, y = m.variables
        assert type(y.lower) is int and y.lower == -2
        assert [type(x.lower), type(x.upper)] == [int, int]
        assert type(m.evaluate({"x": 1, "y": Fraction(3)}).objective) is int

    def test_bad_sense_rejected(self):
        m = simple_model()
        with pytest.raises(ModelError, match="sense"):
            m.add_constraint({"x": 1}, "<", 1, "strict")


class TestEvaluate:
    def test_simple_feasible(self):
        report = simple_model().evaluate({"x": 1})
        assert report.feasible
        assert report.integral
        assert report.objective == 1
        assert report.violations == ()

    def test_fractional_value_flagged_nonintegral(self):
        report = simple_model().evaluate({"x": Fraction(1, 2)})
        assert report.feasible  # linearly fine
        assert not report.integral
        assert report.objective == Fraction(1, 2)

    def test_bound_violation_reported_with_slack(self):
        report = simple_model().evaluate({"x": 2})
        assert not report.feasible
        tags = dict(report.violations)
        assert tags["bound:x"] == 1
        assert tags["cap"] == 1

    def test_missing_values_rejected(self):
        m = LinearModel()
        for i in range(8):
            m.add_variable(f"x_{i}", BINARY)
        with pytest.raises(ModelError, match="missing 8 variables"):
            m.evaluate({})

    def test_extra_keys_ignored(self):
        report = simple_model().evaluate({"x": 1, "ghost": 7})
        assert report.feasible

    def test_float_assignment_rejected(self):
        with pytest.raises(ModelError, match="float"):
            simple_model().evaluate({"x": 0.5})

    def test_equality_row_uses_absolute_excess(self):
        m = LinearModel()
        m.add_variable("x", CONTINUOUS, 0, 10)
        m.add_constraint({"x": 1}, "=", 4, "pin")
        low = m.evaluate({"x": 3})
        high = m.evaluate({"x": 5})
        assert dict(low.violations)["pin"] == 1
        assert dict(high.violations)["pin"] == 1

    def test_tolerance_loosens_rows_and_bounds(self):
        m = LinearModel()
        m.add_variable("x", BINARY)
        m.add_constraint({"x": 1}, "<=", 1, "cap")
        near = {"x": Fraction(1) + Fraction(1, 10**9)}
        strict = m.evaluate(near)
        assert not strict.feasible
        loose = m.evaluate(near, tol=Fraction(1, 10**6))
        assert loose.feasible
        assert loose.integral

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ModelError, match="negative tolerance"):
            simple_model().evaluate({"x": 1}, tol=-1)

    def test_pair_selection_model_on_triangle(self):
        # Maximize selected pairs among three mutually adjacent items with
        # exactly two picked: the optimum picks one adjacent pair.
        m = LinearModel()
        for i in range(3):
            m.add_variable(f"x_{i}", BINARY)
        edges = [(0, 1), (0, 2), (1, 2)]
        for i, j in edges:
            m.add_variable(f"y_{i}_{j}", CONTINUOUS, 0, 1)
        m.add_constraint({f"x_{i}": 1 for i in range(3)}, "=", 2, "size")
        for i, j in edges:
            m.add_constraint({f"y_{i}_{j}": 1, f"x_{i}": -1}, "<=", 0, f"left_{i}_{j}")
            m.add_constraint({f"y_{i}_{j}": 1, f"x_{j}": -1}, "<=", 0, f"right_{i}_{j}")
        m.set_objective({f"y_{i}_{j}": 1 for i, j in edges})
        good = {"x_0": 1, "x_1": 1, "x_2": 0, "y_0_1": 1, "y_0_2": 0, "y_1_2": 0}
        report = m.evaluate(good)
        assert report.feasible and report.integral and report.objective == 1
        cheat = dict(good, y_0_2=1)
        report = m.evaluate(cheat)
        assert not report.feasible
        assert dict(report.violations)["right_0_2"] == 1

    @given(st.integers(-3, 3), st.integers(1, 6))
    def test_slack_flips_exactly_at_rhs(self, lhs_value, denominator):
        # An inequality's violation must flip exactly when the rhs crosses
        # the lhs, with the reported excess equal to the gap.
        m = LinearModel()
        m.add_variable("x", CONTINUOUS, -5, 5)
        value = Fraction(lhs_value, denominator)
        gap = Fraction(1, denominator + 1)
        m.add_constraint({"x": 1}, "<=", value - gap, "below")
        m.add_constraint({"x": 1}, "<=", value, "tight")
        m.add_constraint({"x": 1}, "<=", value + gap, "above")
        report = m.evaluate({"x": value})
        violated = dict(report.violations)
        assert violated == {"below": gap}


class TestObjective:
    def test_objective_zero_coefficients_dropped(self):
        m = LinearModel()
        m.add_variable("x", BINARY)
        m.add_variable("y", BINARY)
        m.set_objective({"x": 0, "y": 3})
        assert m.objective == {"y": Fraction(3)}

    def test_objective_unknown_variable_rejected(self):
        m = LinearModel()
        m.add_variable("x", BINARY)
        with pytest.raises(ModelError, match="unknown variable"):
            m.set_objective({"w": 1})
