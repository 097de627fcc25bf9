"""Tests for LP/MPS export, the readers of its grammar, and solution files."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclique.driver import build_problem_model
from qclique.formulations import Connectivity, ProblemSpec
from qclique.lpio import (
    FormatError,
    export_lp,
    export_mps,
    format_rational,
    parse_lp,
    parse_mps,
    parse_solution_file,
    sanitize_name,
)
from qclique.milp import BINARY, CONTINUOUS, LinearModel

from conftest import make_two_k4s


def pair_selection_model() -> LinearModel:
    """Pick 2 of 3 mutually adjacent items, maximizing selected pairs."""
    m = LinearModel(metadata={"problem": "demo", "size": "2"})
    edges = [(0, 1), (0, 2), (1, 2)]
    for i in range(3):
        m.add_variable(f"x_{i}", BINARY)
    for i, j in edges:
        m.add_variable(f"y_{i}_{j}", CONTINUOUS, 0, 1)
    m.add_constraint({f"x_{i}": 1 for i in range(3)}, "=", 2, "size")
    for i, j in edges:
        m.add_constraint({f"y_{i}_{j}": 1, f"x_{i}": -1}, "<=", 0, f"left:{i}_{j}")
        m.add_constraint({f"y_{i}_{j}": 1, f"x_{j}": -1}, "<=", 0, f"right:{i}_{j}")
    m.set_objective({f"y_{i}_{j}": 1 for i, j in edges})
    return m


class TestFormatRational:
    @pytest.mark.parametrize(
        "value, text",
        [
            (Fraction(3), "3"),
            (Fraction(-17), "-17"),
            (Fraction(0), "0"),
            (Fraction(1, 2), "0.5"),
            (Fraction(29, 100), "0.29"),
            (Fraction(-7, 20), "-0.35"),
            (Fraction(1, 8), "0.125"),
            (Fraction(25, 2), "12.5"),
            (Fraction(1, 5), "0.2"),
            (Fraction(3, 1000), "0.003"),
        ],
    )
    def test_terminating_decimals_exact(self, value, text):
        rendered = format_rational(value, "here")
        assert rendered == text
        assert Fraction(rendered) == value

    def test_nonterminating_is_refused(self):
        with pytest.raises(FormatError, match="^row c: 1/3 has no exact decimal form$"):
            format_rational(Fraction(1, 3), "row c")

    def test_nonterminating_negative(self):
        with pytest.raises(FormatError, match="^here: -2/3 has no exact"):
            format_rational(Fraction(-2, 3), "here")

    @given(
        st.integers(-10**6, 10**6),
        st.integers(0, 20),
        st.integers(0, 20),
    )
    def test_power_of_ten_denominators_round_trip(self, num, twos, fives):
        value = Fraction(num, 2**twos * 5**fives)
        assert Fraction(format_rational(value, "here")) == value


class TestSanitizeName:
    def test_legal_names_unchanged(self):
        assert sanitize_name("x_0", "v_") == "x_0"
        assert sanitize_name("size", "c_") == "size"

    def test_illegal_characters_replaced(self):
        assert sanitize_name("left:0_1", "c_") == "left_0_1"
        assert sanitize_name("a=b", "c_") == "a_b"

    def test_risky_leading_characters_prefixed(self):
        assert sanitize_name("0start", "v_") == "v_0start"
        assert sanitize_name("e12", "c_") == "c_e12"
        assert sanitize_name("Edge:3", "c_") == "c_Edge_3"

    @given(st.text(min_size=1, max_size=20))
    def test_idempotent(self, name):
        once = sanitize_name(name, "c_")
        assert sanitize_name(once, "c_") == once


class TestExportLp:
    def test_canonical_text(self):
        text = export_lp(pair_selection_model())
        assert text == (
            "\\ linear model\n"
            "\\ meta problem=demo\n"
            "\\ meta size=2\n"
            "Maximize\n"
            " obj: + 1 y_0_1 + 1 y_0_2 + 1 y_1_2\n"
            "Subject To\n"
            " size: + 1 x_0 + 1 x_1 + 1 x_2 = 2\n"
            " left_0_1: + 1 y_0_1 - 1 x_0 <= 0\n"
            " right_0_1: + 1 y_0_1 - 1 x_1 <= 0\n"
            " left_0_2: + 1 y_0_2 - 1 x_0 <= 0\n"
            " right_0_2: + 1 y_0_2 - 1 x_2 <= 0\n"
            " left_1_2: + 1 y_1_2 - 1 x_1 <= 0\n"
            " right_1_2: + 1 y_1_2 - 1 x_2 <= 0\n"
            "Bounds\n"
            " 0 <= y_0_1 <= 1\n"
            " 0 <= y_0_2 <= 1\n"
            " 0 <= y_1_2 <= 1\n"
            "Binaries\n"
            " x_0\n"
            " x_1\n"
            " x_2\n"
            "End\n"
        )

    def test_deterministic_across_rebuilds(self):
        assert export_lp(pair_selection_model()) == export_lp(pair_selection_model())

    def test_name_maps_recorded(self):
        model = pair_selection_model()
        var_names, row_names = name_maps(model)
        assert row_names["left:0_1"] == "left_0_1"
        assert var_names["x_0"] == "x_0"
        text = export_lp(model)
        assert " left_0_1: + 1 y_0_1 - 1 x_0 <= 0\n" in text
        assert " left_0_1  " in export_mps(model)

    def test_free_and_unbounded_bounds(self):
        m = LinearModel()
        m.add_variable("x", BINARY)
        m.add_variable("flow", CONTINUOUS, None, None)
        m.add_variable("load", CONTINUOUS, 0, None)
        m.add_variable("drop", CONTINUOUS, None, 4)
        m.set_objective({"x": 1})
        text = export_lp(m)
        assert " flow free\n" in text
        assert " load >= 0\n" in text
        assert " -inf <= drop <= 4\n" in text

    def test_fixed_binary_gets_bound_line(self):
        m = LinearModel()
        m.add_variable("x", BINARY, 1, 1)
        m.set_objective({"x": 1})
        text = export_lp(m)
        assert " 1 <= x <= 1\n" in text
        assert "Binaries\n x\n" in text

    def test_empty_objective_and_row_use_zero_term(self):
        m = LinearModel()
        m.add_variable("x", BINARY)
        m.add_constraint({}, "=", 0, "void")
        text = export_lp(m)
        assert " obj: + 0 x\n" in text
        assert " void: + 0 x = 0\n" in text

    def test_model_without_variables_rejected(self):
        with pytest.raises(FormatError, match="no variables"):
            export_lp(LinearModel())

    def test_sanitized_collision_rejected(self):
        m = LinearModel()
        m.add_variable("x", BINARY)
        m.add_constraint({"x": 1}, "<=", 1, "a:b")
        m.add_constraint({"x": 1}, "<=", 1, "a=b")
        with pytest.raises(FormatError, match="collision"):
            export_lp(m)


class TestExportRefusals:
    """A number with no exact decimal form is refused, never rounded: the
    error names where the number sits."""

    @staticmethod
    def model_with(coef=1, rhs=1, upper=1) -> LinearModel:
        m = LinearModel()
        m.add_variable("x", BINARY)
        m.add_variable("f", CONTINUOUS, 0, upper)
        m.add_constraint({"x": coef, "f": 1}, "<=", rhs, "c")
        m.set_objective({"x": 1})
        return m

    @pytest.mark.parametrize("export", [export_lp, export_mps])
    @pytest.mark.parametrize(
        "place, where, text",
        [
            ({"coef": Fraction(3, 7)}, "row c", "3/7"),
            ({"rhs": Fraction(1, 3)}, "rhs of c", "1/3"),
            ({"upper": Fraction(5, 3)}, "bound of f", "5/3"),
        ],
        ids=["row", "rhs", "bound"],
    )
    def test_inexact_number_is_refused(self, export, place, where, text):
        model = self.model_with(**place)
        with pytest.raises(FormatError, match=f"^{where}: {text} has no exact"):
            export(model)


class TestNamesAndMetadata:
    """The writers refuse what their readers would read back as something
    else."""

    @pytest.mark.parametrize("export", [export_lp, export_mps])
    @pytest.mark.parametrize("name", ["Maximize", "Bounds", "Binaries"])
    def test_lp_heading_name_is_refused(self, export, name):
        """As "obj" is. ("End" is written as "v_End" or "c_End".)"""
        m = LinearModel()
        m.add_variable(name, BINARY)
        m.set_objective({name: 1})
        with pytest.raises(FormatError, match=f"variable name collision at '{name}'"):
            export(m)
        m = pair_selection_model()
        m.add_constraint({"x_0": 1}, "<=", 1, name)
        with pytest.raises(FormatError, match=f"row name collision at '{name}'"):
            export(m)

    @pytest.mark.parametrize(
        "name", ["bin", "max", "st", "s.t.", "MAX", "bounds", "Generals", "end", "free"]
    )
    def test_heading_like_binary_reads_back_binary(self, name):
        m = LinearModel()
        m.add_variable("f", CONTINUOUS, 0, 2)
        m.add_variable(name, BINARY)
        m.add_constraint({name: 1, "f": 1}, "<=", 2, "c")
        m.set_objective({name: 1})
        for export, parse, order in FORMATS:
            assert_equivalent(m, parse(export(m)), order(m))

    @pytest.mark.parametrize("export", [export_lp, export_mps])
    @pytest.mark.parametrize(
        "value", ["a\rb", "a\u2028b", "a\x85b", "a\nb", "tail ", "tail\t", " "]
    )
    def test_metadata_value_that_would_not_read_back_is_refused(self, export, value):
        m = pair_selection_model()
        m.metadata["note"] = value
        with pytest.raises(FormatError, match="value for 'note' would not read back"):
            export(m)

    @pytest.mark.parametrize("value", ["", " lead", "a = b", "x\\y", "\u00fcn\u00efcode"])
    def test_metadata_value_reads_back(self, value):
        m = pair_selection_model()
        m.metadata["note"] = value
        for export, parse, _ in FORMATS:
            assert parse(export(m)).metadata == m.metadata


class TestExportMps:
    def test_canonical_text(self):
        m = LinearModel(metadata={"case": "tiny"})
        m.add_variable("x", BINARY)
        m.add_variable("f", CONTINUOUS, 0, None)
        m.add_constraint({"x": 1, "f": -2}, "<=", 1, "cap")
        m.set_objective({"x": 1})
        assert export_mps(m) == (
            "* linear model\n"
            "* meta case=tiny\n"
            "NAME model\n"
            "OBJSENSE\n"
            "    MAX\n"
            "ROWS\n"
            " N obj\n"
            " L cap\n"
            "COLUMNS\n"
            "    MARKER0  'MARKER'  'INTORG'\n"
            "    x  obj  1\n"
            "    x  cap  1\n"
            "    MARKER1  'MARKER'  'INTEND'\n"
            "    f  cap  -2\n"
            "RHS\n"
            "    RHS  cap  1\n"
            "BOUNDS\n"
            " LO BND x 0\n"
            " UP BND x 1\n"
            " LO BND f 0\n"
            "ENDATA\n"
        )

    def test_variable_outside_all_rows_still_listed(self):
        m = LinearModel()
        m.add_variable("ghost", CONTINUOUS, 0, 5)
        text = export_mps(m)
        assert "    ghost  obj  0\n" in text

    def test_reexport_is_byte_identical(self):
        text = export_mps(pair_selection_model())
        assert export_mps(parse_mps(text)) == text


def name_maps(model: LinearModel) -> tuple[dict[str, str], dict[str, str]]:
    """The names export_lp and export_mps write for each variable and row."""
    return (
        {v.name: sanitize_name(v.name, "v_") for v in model.variables},
        {r.tag: sanitize_name(r.tag, "c_") for r in model.constraints},
    )


def lp_column_order(model: LinearModel) -> list[str]:
    """The variables in order of first use in the model's LP text: the
    objective, the rows, then Bounds and Binaries, which keep model order."""
    used = [*model.objective, *(name for row in model.constraints for name in row.terms)]
    used += [
        v.name
        for v in model.variables
        if not (v.kind == BINARY and (v.lower, v.upper) == (0, 1))
    ]
    used += [v.name for v in model.variables if v.kind == BINARY]
    return list(dict.fromkeys(used))


def model_order(model: LinearModel) -> list[str]:
    return [v.name for v in model.variables]


FORMATS = [(export_lp, parse_lp, lp_column_order), (export_mps, parse_mps, model_order)]


def assert_equivalent(original: LinearModel, parsed: LinearModel, order: list[str]):
    """parsed is original read back, with its variables in the given order
    of original's names."""
    vmap, row_names = name_maps(original)
    variables = {v.name: v for v in original.variables}
    assert [(v.name, v.kind, v.lower, v.upper) for v in parsed.variables] == [
        (vmap[n], variables[n].kind, variables[n].lower, variables[n].upper)
        for n in order
    ]
    assert len(original.constraints) == len(parsed.constraints)
    for row_a, row_b in zip(original.constraints, parsed.constraints):
        assert row_names[row_a.tag] == row_b.tag
        assert {vmap[n]: c for n, c in row_a.terms.items()} == dict(row_b.terms)
        assert row_a.sense == row_b.sense
        assert row_a.rhs == row_b.rhs
    assert {vmap[n]: c for n, c in original.objective.items()} == dict(
        parsed.objective
    )
    assert original.metadata == parsed.metadata


def mapped_violations(report, model: LinearModel):
    var_names, row_names = name_maps(model)
    out = []
    for tag, excess in report.violations:
        if tag.startswith("bound:"):
            out.append(("bound:" + var_names[tag[6:]], excess))
        else:
            out.append((row_names[tag], excess))
    return sorted(out)


EXACT_DENOMINATORS = [1, 2, 4, 5, 8, 10, 16, 20, 25, 100]


@st.composite
def exact_fractions(draw, lo=-6, hi=6):
    return Fraction(
        draw(st.integers(lo * 4, hi * 4)), draw(st.sampled_from(EXACT_DENOMINATORS))
    )


@st.composite
def models(draw, isolated=False):
    """Random models; isolated=True adds a variable in no row and not in
    the objective, and one that appears only in the objective, each at a
    random place in the column order."""
    coefficients = exact_fractions()
    count = draw(st.integers(1, 5))
    names = [f"{draw(st.sampled_from('vwxyz'))}_{i}" for i in range(count)]
    model = LinearModel(
        metadata={"case": "prop"} if draw(st.booleans()) else None
    )
    order = list(names)
    if isolated:
        for extra in ("lone", "goal"):
            order.insert(draw(st.integers(0, len(order))), extra)
    for name in order:
        if draw(st.booleans()):
            if draw(st.integers(0, 9)) == 0:
                model.add_variable(name, BINARY, 1, 1)
            else:
                model.add_variable(name, BINARY)
        else:
            lower = draw(st.one_of(st.none(), exact_fractions()))
            upper = draw(st.one_of(st.none(), exact_fractions()))
            if lower is not None and upper is not None and lower > upper:
                lower, upper = upper, lower
            model.add_variable(name, CONTINUOUS, lower, upper)
    objective = draw(
        st.dictionaries(st.sampled_from(names), coefficients, max_size=count)
    )
    if isolated:
        objective["goal"] = draw(coefficients.filter(bool))
    model.set_objective(objective)
    for index in range(draw(st.integers(0, 4))):
        terms = draw(
            st.dictionaries(st.sampled_from(names), coefficients, max_size=count)
        )
        sense = draw(st.sampled_from(["<=", ">=", "="]))
        model.add_constraint(terms, sense, draw(coefficients), f"Eq{index}:t")
    return model


class TestRoundTrip:
    @given(models(isolated=True))
    @settings(max_examples=60, deadline=None)
    def test_lp_structural(self, model):
        assert_equivalent(model, parse_lp(export_lp(model)), lp_column_order(model))

    @given(models(isolated=True))
    @settings(max_examples=60, deadline=None)
    def test_mps_structural(self, model):
        assert_equivalent(model, parse_mps(export_mps(model)), model_order(model))

    @pytest.mark.parametrize(
        "spec",
        [
            ProblemSpec.mqc(Fraction(1, 2), mode=Connectivity.NONE),
            ProblemSpec.mqc(Fraction(3, 4), mode=Connectivity.MPR),
            ProblemSpec.mqc(Fraction(1, 3), mode=Connectivity.CSTREE),
            ProblemSpec.dks(4, mode=Connectivity.NONE),
            ProblemSpec.dks(4, mode=Connectivity.CSTREE),
            ProblemSpec.dks(5, mode=Connectivity.CFLOW),
        ],
        ids=lambda spec: f"{spec.problem.value}-{spec.mode.value}",
    )
    def test_built_models_keep_column_order(self, spec):
        """MPS keeps the built order; LP gives first use, which puts the
        objective's edge columns before the vertex ones."""
        model, _ = build_problem_model(make_two_k4s(), spec)
        for export, parse, order in FORMATS:
            assert_equivalent(model, parse(export(model)), order(model))
        assert lp_column_order(model) != model_order(model)

    @given(models(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_evaluations_agree_on_both_formats(self, model, data):
        assignment = {
            v.name: data.draw(exact_fractions(), label=v.name)
            for v in model.variables
        }
        base = model.evaluate(assignment)
        var_names, _ = name_maps(model)
        for export, parser in ((export_lp, parse_lp), (export_mps, parse_mps)):
            parsed = parser(export(model))
            echoed = parsed.evaluate(
                {var_names[k]: v for k, v in assignment.items()}
            )
            assert echoed.objective == base.objective
            assert echoed.feasible == base.feasible
            assert echoed.integral == base.integral
            assert mapped_violations(echoed, parsed) == (
                mapped_violations(base, model)
            )

    def test_pair_model_round_trips_both_formats(self):
        model = pair_selection_model()
        for export, parse, order in FORMATS:
            assert_equivalent(model, parse(export(model)), order(model))


class TestMpsColumns:
    """The column-indexed writer against the plain column-major scan."""

    @given(models(isolated=True))
    @settings(max_examples=80, deadline=None)
    def test_matches_column_major_reference(self, model):
        assert export_mps(model) == reference_mps(model)


def reference_mps(model: LinearModel) -> str:
    """MPS text by the plain column-major scan: every row is searched for
    every column."""
    var_names, row_names = name_maps(model)

    lines = ["* linear model"]
    lines += [f"* meta {key}={value}" for key, value in model.metadata.items()]
    lines += ["NAME model", "OBJSENSE", "    MAX", "ROWS", " N obj"]
    codes = {"<=": "L", ">=": "G", "=": "E"}
    lines += [f" {codes[r.sense]} {row_names[r.tag]}" for r in model.constraints]
    lines.append("COLUMNS")
    marker, integer_mode = 0, False
    for var in model.variables:
        if (var.kind == BINARY) != integer_mode:
            integer_mode = not integer_mode
            state = "INTORG" if integer_mode else "INTEND"
            lines.append(f"    MARKER{marker}  'MARKER'  '{state}'")
            marker += 1
        name = var_names[var.name]
        entries = []
        if var.name in model.objective:
            entries.append(("obj", model.objective[var.name]))
        for row in model.constraints:
            if var.name in row.terms:
                entries.append((row_names[row.tag], row.terms[var.name]))
        for rname, coef in entries or [("obj", Fraction(0))]:
            lines.append(f"    {name}  {rname}  {format_rational(coef, name)}")
    if integer_mode:
        lines.append(f"    MARKER{marker}  'MARKER'  'INTEND'")
    lines.append("RHS")
    for row in model.constraints:
        rname = row_names[row.tag]
        lines.append(f"    RHS  {rname}  {format_rational(row.rhs, rname)}")
    lines.append("BOUNDS")
    for var in model.variables:
        name = var_names[var.name]
        if var.lower is None and var.upper is None:
            lines.append(f" FR BND {name}")
            continue
        if var.lower is None:
            lines.append(f" MI BND {name}")
        else:
            lines.append(f" LO BND {name} {format_rational(var.lower, name)}")
        if var.upper is not None:
            lines.append(f" UP BND {name} {format_rational(var.upper, name)}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


class TestParseLpDialect:
    def test_section_spellings_and_implicit_coefficients(self):
        """Only the writer's headings, "+|- number name" terms, named rows
        and the senses <=, >= and = are read; any other spelling is
        refused."""
        text = lp_model_text(" c1: + 1 x + 1 y <= 3", " 0 <= y <= 2", " x")
        assert [v.name for v in parse_lp(text).variables] == ["x", "y"]
        for written, other in [
            ("Maximize", "MAX"),
            ("Maximize", "maximize"),
            ("Subject To", "s.t."),
            ("Bounds", "BOUNDS"),
            ("Binaries", "bin"),
            ("obj: + 1 x", "obj: x"),
            ("+ 1 x + 1 y", "x + y"),
            ("+ 1 y <=", "+ 1 y <"),
            (" c1: ", " "),
        ]:
            with pytest.raises(FormatError):
                parse_lp(text.replace(written, other, 1))

    def test_unnamed_row_refused(self):
        with pytest.raises(FormatError, match="line 4: expected 'name: terms sense rhs'"):
            parse_lp(lp_model_text(" + 1 x <= 1"))

    def test_minimize_rejected(self):
        with pytest.raises(FormatError, match="line 1: unexpected line 'Minimize'"):
            parse_lp("Minimize\n obj: + 1 x\nSubject To\nEnd\n")

    def test_general_integers_rejected(self):
        text = "Maximize\n obj: + 1 x\nSubject To\nGenerals\n x\nEnd\n"
        with pytest.raises(FormatError, match="line 4: unexpected line 'Generals'"):
            parse_lp(text)

    def test_content_before_sections_rejected(self):
        with pytest.raises(FormatError, match="line 1: unexpected line"):
            parse_lp(" obj: + 1 x\nMaximize\n obj: + 1 x\nSubject To\nEnd\n")

    def test_row_missing_rhs_rejected(self):
        with pytest.raises(FormatError, match="line 4: expected 'name: terms sense rhs'"):
            parse_lp("Maximize\n obj: + 1 x\nSubject To\n c: + 1 x <=\nEnd\n")

    @pytest.mark.parametrize(
        "bound",
        [" +inf <= x <= 5", " inf <= x <= 5", " x <= -inf", " x >= -inf", " -inf <= x <= inf"],
    )
    def test_infinite_bound_other_than_lower_minus_inf_refused(self, bound):
        """-inf is read only as a lower bound; +inf or inf is no bound."""
        with pytest.raises(FormatError):
            parse_lp(lp_model_text(" c: + 1 x <= 1", bound))

    # The ids name each case in shorthand: objective-row-bounds-check.
    @pytest.mark.parametrize(
        "objective, rows, bounds, message",
        [
            pytest.param(
                "+ 1 x", " c: + 1 x <= 1/0", "", "row c rhs: cannot parse number '1/0'",
                id="x- c: x <= 1/0--row c rhs: cannot parse number '1/0'",
            ),
            pytest.param(
                "+ 1 x", " c: + 1 x <= abc", "", "row c rhs: cannot parse number 'abc'",
                id="x- c: x <= abc--row c rhs: cannot parse number 'abc'",
            ),
            pytest.param(
                "+ 1 x + 3", " c: + 1 x <= 1", "", "objective: terms are not sign, number",
                id="x + 3- c: x <= 1--objective: trailing number",
            ),
            pytest.param(
                "+ 1 x", " c: + 1 x + 3 <= 1", "", "row c: terms are not sign, number",
                id="x- c: x + 3 <= 1--row c: trailing number",
            ),
            pytest.param(
                "+ 3 3 x", " c: + 1 x <= 1", "", "objective: terms are not sign, number",
                id="3 3 x- c: x <= 1--two consecutive numbers near '3'",
            ),
            pytest.param(
                "+ 1 x", " c: + 1 x <= 1", " 0 <= x <= 1/0\n",
                "bounds: cannot parse number '1/0'",
                id="x- c: x <= 1- x <= 1/0\n-bounds: cannot parse number '1/0'",
            ),
            pytest.param(
                "+ 1 x", " c: + 1 x <= 1", " 0 <= x <= abc\n",
                "bounds: cannot parse number 'abc'",
                id="x- c: x <= 1- x <= abc\n-bounds: cannot parse number 'abc'",
            ),
            # The same bad token twice: the second use must fail as well,
            # also after the token was first read as a variable name.
            pytest.param(
                "+ 1 x", " c1: + 1 x <= abc\n c2: + 1 x <= abc", "", "row c1 rhs",
                id="x- c1: x <= abc\n c2: x <= abc--row c1 rhs",
            ),
            pytest.param(
                "+ 1 x", " c1: + 1 abc <= 1\n c2: + 1 x <= abc", "", "row c2 rhs: .*'abc'",
                id="x- c1: abc <= 1\n c2: x <= abc--row c2 rhs: .*'abc'",
            ),
            pytest.param(
                "+ 1 x", " c1: + 1 1/0 <= 1\n c2: + 1 x <= 1/0", "", "row c1: .*'1/0'",
                id="x- c1: 1/0 <= 1\n c2: x <= 1/0--row c1: .*'1/0'",
            ),
            pytest.param(
                "+ 1 x + 3", " c: + 1 x + 3 <= 1", "", "objective: terms are not sign",
                id="x + 3- c: x + 3 <= 1--objective: trailing number",
            ),
            pytest.param(
                "+ 1 x", " c: + 1 x <= 1", " 0 <= x <= abc\n 0 <= y <= abc\n",
                "bounds: .*'abc'",
                id="x- c: x <= 1- x <= abc\n y <= abc\n-bounds: .*'abc'",
            ),
            # A malformed number before a name is no variable name, and
            # each term needs its sign.
            pytest.param(
                "+ 1/0 x", " c: + 1 x <= 1", "", "objective: cannot parse number '1/0'",
                id="1/0 x- c: x <= 1--objective: cannot parse number '1/0'",
            ),
            pytest.param(
                "+ .5x y", " c: + 1 x <= 1", "", "objective: cannot parse number '.5x'",
                id=".5x + y- c: x <= 1--objective: cannot parse number '.5x'",
            ),
            pytest.param(
                "+ 2e x", " c: + 1 x <= 1", "", "objective: cannot parse number '2e'",
                id="2e x- c: x <= 1--objective: cannot parse number '2e'",
            ),
            pytest.param(
                "+ 1 abc x 1 y", " c: + 1 x <= 1", "", "objective: missing \\+ or - before 'x'",
                id="abc x- c: x <= 1--objective: missing \\+ or - before 'x'",
            ),
            pytest.param(
                "+ 1 x", " c: + 1 x 3 1 y <= 1", "", "row c: missing \\+ or - before '3'",
                id="x- c: x 3 y <= 1--row c: missing \\+ or - before '3'",
            ),
            pytest.param(
                "+ 1 x", " c: + 1/0 x <= 1", "", "row c: cannot parse number '1/0'",
                id="x- c: 1/0 x <= 1--row c: cannot parse number '1/0'",
            ),
        ],
    )
    def test_bad_numbers_rejected(self, objective, rows, bounds, message):
        text = f"Maximize\n obj: {objective}\nSubject To\n{rows}\n"
        if bounds:
            text += f"Bounds\n{bounds}"
        with pytest.raises(FormatError, match=message):
            parse_lp(text + "End\n")

    def test_number_is_no_variable_name(self):
        text = "Maximize\n obj: + 1 x\nSubject To\n c: + 1 x <= 3\nBinaries\n 3\nEnd\n"
        with pytest.raises(FormatError, match="line 6: invalid variable name '3'"):
            parse_lp(text)


class TestParseMpsDialect:
    def test_missing_objsense_rejected(self):
        text = mps_model_text(" L c", "    x  c  1").replace("OBJSENSE\n    MAX\n", "")
        with pytest.raises(FormatError, match="line 2: expected 'OBJSENSE', not 'ROWS'"):
            parse_mps(text)

    def test_ranges_rejected(self):
        text = mps_model_text(" L c", "    x  c  1").replace("BOUNDS", "RANGES")
        with pytest.raises(FormatError, match="unexpected line 'RANGES'"):
            parse_mps(text)

    def test_general_integer_bounds_rejected(self):
        text = mps_model_text(" L c", INTORG_X, " LO BND x 0\n UP BND x 9")
        with pytest.raises(FormatError, match="binary x bounds \\[0, 9\\] outside"):
            parse_mps(text)

    @pytest.mark.parametrize(
        "columns, rhs, message",
        [
            ("    x  obj  1/0", "    RHS  c  1", "line 8: cannot parse number '1/0'"),
            ("    x  obj  abc", "    RHS  c  1", "line 8: cannot parse number 'abc'"),
            ("    x  obj  1  2", "    RHS  c  1", "line 8: malformed column entry"),
            ("    x  c  1", "    RHS  c  1/0", "line 10: cannot parse number '1/0'"),
            ("    x  c  1", "    RHS  c  abc", "line 10: cannot parse number 'abc'"),
            ("    x  obj  abc\n    y  obj  abc", "    RHS  c  1", "line 8: .*'abc'"),
            pytest.param(
                "    x  c  1", "    RHS  c  1/0\n    RHS  c  1/0", "line 10: .*'1/0'",
                id="rhs-bad-twice",
            ),
            # A malformed number is no column name.
            pytest.param(
                "    1/0  c  1", "    RHS  c  1/0", "line 8: invalid variable name '1/0'",
                id="column-name-bad-number",
            ),
        ],
    )
    def test_bad_numbers_rejected(self, columns, rhs, message):
        text = mps_model_text(" L c", columns, rhs=rhs)
        with pytest.raises(FormatError, match=message):
            parse_mps(text)

    @pytest.mark.parametrize("code", ["BV", "UI", "LI", "PL", "FX"])
    def test_bv_bound_refused(self, code):
        """Only the FR, MI, LO and UP bounds the writer writes are read."""
        with pytest.raises(FormatError, match="line 12: malformed bound line"):
            parse_mps(mps_model_text(" L c", "    x  c  1", f" {code} BND x 1"))

    @pytest.mark.parametrize("code", ["UP", "LO", "FX"])
    def test_bound_without_value_refused(self, code):
        """A bound line that needs a value and has none is no infinite bound."""
        bounds = f" LO BND x 0\n {code} BND x"
        with pytest.raises(FormatError, match="line 13: malformed bound line"):
            parse_mps(mps_model_text(" L c", "    x  c  1", bounds))


def lp_model_text(rows: str, bounds: str = "", binaries: str = "") -> str:
    text = f"Maximize\n obj: + 1 x\nSubject To\n{rows}\n"
    if bounds:
        text += f"Bounds\n{bounds}\n"
    if binaries:
        text += f"Binaries\n{binaries}\n"
    return text + "End\n"


def mps_model_text(
    rows: str, columns: str, bounds: str = " LO BND x 0", rhs: str = "    RHS  c  1"
) -> str:
    return (
        "NAME model\nOBJSENSE\n    MAX\nROWS\n N obj\n"
        f"{rows}\nCOLUMNS\n{columns}\nRHS\n{rhs}\nBOUNDS\n{bounds}\nENDATA\n"
    )


INTORG_X = "    M0  'MARKER'  'INTORG'\n    x  c  1\n    M1  'MARKER'  'INTEND'"


class TestReaderContract:
    """Both readers raise FormatError, never ModelError, for every text that
    is no valid model."""

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            pytest.param(
                parse_lp,
                lp_model_text(" c: + 1 x <= 1\n c: + 1 x <= 2"),
                "duplicate constraint tag 'c'",
                id="lp-duplicate-row",
            ),
            pytest.param(
                parse_mps,
                mps_model_text(" L c\n G c", "    x  c  1"),
                "line 7: duplicate row 'c'",
                id="mps-duplicate-rows-line",
            ),
            pytest.param(
                parse_mps,
                " x obj 1\n" + mps_model_text(" L c", "    x  c  1"),
                "line 1: unexpected line ' x obj 1'",
                id="mps-data-before-header",
            ),
            pytest.param(
                parse_mps,
                mps_model_text(" L obj", "    x  obj  1"),
                "line 6: duplicate row 'obj'",
                id="mps-row-named-like-objective",
            ),
            pytest.param(
                parse_mps,
                mps_model_text(" L c\n N c", "    x  c  1"),
                "line 7: duplicate row 'c'",
                id="mps-objective-named-like-row",
            ),
            pytest.param(
                parse_lp,
                lp_model_text(" c: + 1 x <= 1", " 3 <= x <= 2"),
                "x bounds cross",
                id="lp-crossing-bounds",
            ),
            pytest.param(
                parse_mps,
                mps_model_text(" L c", "    x  c  1", " LO BND x 3\n UP BND x 2"),
                "x bounds cross",
                id="mps-crossing-bounds",
            ),
            pytest.param(
                parse_lp,
                lp_model_text(" c: + 1 x <= 1", " 0 <= x <= 2", " x"),
                "binary x bounds \\[0, 2\\] outside \\[0, 1\\]",
                id="lp-binary-above-one",
            ),
            pytest.param(
                parse_lp,
                lp_model_text(" c: + 1 x <= 1", " -1 <= x <= 1", " x"),
                "binary x bounds \\[-1, 1\\] outside \\[0, 1\\]",
                id="lp-binary-below-zero",
            ),
            pytest.param(
                parse_mps,
                mps_model_text(" L c", INTORG_X, " LO BND x -1\n UP BND x 1"),
                "binary x bounds \\[-1, 1\\] outside \\[0, 1\\]",
                id="mps-intorg-below-zero",
            ),
            pytest.param(
                parse_mps,
                mps_model_text(" L c", INTORG_X, " FR BND x"),
                "binary x has an infinite bound",
                id="mps-intorg-free",
            ),
            # An UP bound after MI leaves a binary column without a finite
            # lower bound.
            pytest.param(
                parse_mps,
                mps_model_text(" L c", INTORG_X, " MI BND x\n UP BND x 1"),
                "binary x has an infinite bound",
                id="mps-bv-then-free",
            ),
        ],
    )
    def test_invalid_model_raises_format_error(self, parse, text, message):
        with pytest.raises(FormatError, match=message):
            parse(text)

    @pytest.mark.parametrize(
        "bounds",
        [" x free", " -inf <= x <= 1", " x >= 0"],
        ids=["free", "minus-inf-lower", "lower-only"],
    )
    def test_lp_binary_declared_free_refused(self, bounds):
        """A Binaries entry whose bound line leaves a side infinite is no
        binary in [0, 1]."""
        with pytest.raises(FormatError, match="binary x has an infinite bound"):
            parse_lp(lp_model_text(" c: + 1 x <= 1", bounds, " x"))


class TestGrammarRefusals:
    """Text the writers never write is refused, so no repeated, missing or
    misplaced line is read as something it does not say."""

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            pytest.param(
                parse_lp,
                lp_model_text(" c: + 1 x + 1 x <= 1"),
                "row c: 'x' appears twice",
                id="lp-term-twice",
            ),
            pytest.param(
                parse_lp,
                lp_model_text(" c: + 1 x <= 1").replace(" obj: + 1 x", " obj: + 1 x\n obj: + 2 x"),
                "line 3: expected the one 'obj:' line",
                id="lp-second-objective",
            ),
            pytest.param(
                parse_lp,
                lp_model_text(" c: + 1 x <= 1").replace(" obj: + 1 x\n", ""),
                "no objective line",
                id="lp-no-objective",
            ),
            pytest.param(
                parse_lp,
                lp_model_text(" c: + 1 x <= 1", " x >= 1\n x >= 2"),
                "line 7: second bound line for 'x'",
                id="lp-second-bound-line",
            ),
            pytest.param(
                parse_lp,
                lp_model_text(" c: + 1 x <= 1", binaries=" x").replace("Binaries", "Bounds", 1)
                .replace("Subject To", "Binaries"),
                "line 3: expected 'Subject To', not 'Binaries'",
                id="lp-headings-out-of-order",
            ),
            pytest.param(
                parse_lp,
                lp_model_text(" c: + 1 x <= 1") + " c2: + 1 x <= 1\n",
                "line 6: unexpected line",
                id="lp-data-after-end",
            ),
            pytest.param(
                parse_lp,
                lp_model_text(" c: + 1 x <= 1")[: -len("End\n")],
                "no 'End' line",
                id="lp-no-end",
            ),
            pytest.param(
                parse_lp,
                lp_model_text(" c: + 1 x <= 1\n\n c2: + 1 x <= 1"),
                "line 5: unexpected line ''",
                id="lp-blank-line",
            ),
            pytest.param(
                parse_lp,
                lp_model_text(" c: + 1 x <= 1", binaries=" x y"),
                "line 6: expected one name",
                id="lp-two-binaries-a-line",
            ),
            pytest.param(
                parse_lp,
                lp_model_text(" c: + 0 q <= 1"),
                "unknown variable 'q'",
                id="lp-zero-term-of-no-column",
            ),
            pytest.param(
                parse_mps,
                mps_model_text(" N c", "    x  c  1"),
                "line 6: the first row, and only it, is N",
                id="mps-second-n-row",
            ),
            pytest.param(
                parse_mps,
                mps_model_text(" L c", "    x  c  1\n    y  c  1\n    x  obj  1"),
                "line 10: entries of 'x' are apart",
                id="mps-column-entries-apart",
            ),
            pytest.param(
                parse_mps,
                mps_model_text(
                    " L c", "    x  c  1\n    M0  'MARKER'  'INTORG'\n    x  obj  1"
                ),
                "line 10: entries of 'x' are apart",
                id="mps-column-across-marker",
            ),
            pytest.param(
                parse_mps,
                mps_model_text(" L c", "    x  c  1\n    x  c  2"),
                "line 9: second entry for 'x' in 'c'",
                id="mps-second-entry",
            ),
            pytest.param(
                parse_mps,
                mps_model_text(" L c", "    x  d  1"),
                "line 8: unknown row 'd'",
                id="mps-unknown-row",
            ),
            pytest.param(
                parse_mps,
                mps_model_text(" L c", "    x  c  1", rhs="    RHS  obj  1"),
                "line 10: no constraint row 'obj'",
                id="mps-rhs-of-objective",
            ),
            pytest.param(
                parse_mps,
                mps_model_text(" L c", "    x  c  1", rhs="    RHS  c  1\n    RHS  c  2"),
                "line 11: second RHS line for 'c'",
                id="mps-second-rhs",
            ),
            pytest.param(
                parse_mps,
                mps_model_text(" L c", "    x  c  1").replace("    RHS  c  1\n", ""),
                "rhs of c must be rational",
                id="mps-row-without-rhs",
            ),
            pytest.param(
                parse_mps,
                mps_model_text(" L c", "    x  c  1\n    y  c  1", " LO BND y 0\n LO BND x 0"),
                "line 13: bound line for 'y' out of order",
                id="mps-bounds-out-of-column-order",
            ),
            pytest.param(
                parse_mps,
                mps_model_text(" L c", "    x  c  1", " LO BND x 0\n LO BND z 0"),
                "line 13: bound line for 'z' out of order",
                id="mps-bound-of-no-column",
            ),
            pytest.param(
                parse_mps,
                mps_model_text(" L c", "    x  c  1\n    y  c  1"),
                "no bound line for 'y'",
                id="mps-missing-bound-line",
            ),
            pytest.param(
                parse_mps,
                mps_model_text(" L c", "    x  c  1", " FR BND x\n UP BND x 1"),
                "line 13: bound line for 'x' out of order",
                id="mps-up-after-fr",
            ),
            pytest.param(
                parse_mps,
                mps_model_text(" L c", "    x  c  1", " LO BND x 0\n UP BND x 1\n UP BND x 2"),
                "line 14: bound line for 'x' out of order",
                id="mps-second-up",
            ),
            pytest.param(
                parse_mps,
                mps_model_text(" L c", "    x  c  1").replace("NAME model", "NAME other"),
                "line 1: unexpected line 'NAME other'",
                id="mps-other-name",
            ),
            pytest.param(
                parse_mps,
                mps_model_text(" L c", "    x  c  1").replace("    MAX", "    MIN"),
                "line 3: unexpected line under 'OBJSENSE'",
                id="mps-min",
            ),
        ],
    )
    def test_refused(self, parse, text, message):
        with pytest.raises(FormatError, match=message):
            parse(text)


class TestParseSolutionFile:
    def test_values_comments_and_defaults(self):
        model = pair_selection_model()
        text = (
            "# nodes 7\n"
            "# solver log line\n"
            "x_0 1\n"
            "x_1 0.5\n"
            "y_0_1 1e-09\n"
            "\n"
        )
        values = parse_solution_file(model, text)
        assert values["x_0"] == 1
        assert values["x_1"] == Fraction(1, 2)
        assert values["y_0_1"] == Fraction(1, 10**9)
        assert values["x_2"] == 0
        assert values["y_1_2"] == 0
        assert set(values) == {v.name for v in model.variables}

    def test_sanitized_aliases_accepted(self):
        model = LinearModel()
        model.add_variable("0weird", CONTINUOUS, 0, 1)
        model.set_objective({"0weird": 1})
        values = parse_solution_file(model, "v_0weird 0.25\n")
        assert values["0weird"] == Fraction(1, 4)

    def test_unknown_name_rejected(self):
        with pytest.raises(FormatError, match="unknown variable"):
            parse_solution_file(pair_selection_model(), "bogus 1\n")

    def test_duplicate_rejected_even_via_alias(self):
        model = LinearModel()
        model.add_variable("0weird", CONTINUOUS, 0, 1)
        with pytest.raises(FormatError, match="duplicate"):
            parse_solution_file(model, "0weird 1\nv_0weird 1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(FormatError, match="expected 'name value'"):
            parse_solution_file(pair_selection_model(), "x_0 1 extra\n")

    def test_unparsable_number_rejected(self):
        with pytest.raises(FormatError, match="cannot parse number"):
            parse_solution_file(pair_selection_model(), "x_0 one\n")
