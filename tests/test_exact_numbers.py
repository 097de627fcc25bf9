"""Pins for the model's number rule and for the bytes of its exports.

Every number in a model is an int when it is whole and a Fraction with a
denominator above 1 otherwise: in a built model, in the LP/MPS re-read of
its export, and in an assignment from the HiGHS bridge. The export digests
below were taken before that rule existed, so they also pin that the rule
changed no byte of any export.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclique.driver import build_problem_model
from qclique.formulations import Connectivity, ProblemSpec
from qclique.highs import solve_model
from qclique.lpio import export_lp, export_mps, parse_lp, parse_mps
from qclique.milp import LinearModel

from conftest import graphs, make_two_k4s

C = Connectivity
GAMMAS = [Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), 1]


def is_exact(value) -> bool:
    """An int, or a Fraction that is not whole."""
    return type(value) is int or (type(value) is Fraction and value.denominator > 1)


def model_numbers(model: LinearModel):
    yield from model.objective.values()
    for row in model.constraints:
        yield row.rhs
        yield from row.terms.values()
    for var in model.variables:
        yield from (b for b in (var.lower, var.upper) if b is not None)


@st.composite
def specs(draw):
    g = draw(graphs(min_n=2, max_n=7))
    if draw(st.booleans()):
        gamma = draw(st.sampled_from(GAMMAS))
        mode = draw(st.sampled_from([C.NONE, C.MPR, C.CSTREE]))
        return g, ProblemSpec.mqc(gamma, mode=mode)
    k = draw(st.integers(min_value=2, max_value=g.n))
    mode = draw(st.sampled_from([C.NONE, C.CSTREE, C.CFLOW]))
    return g, ProblemSpec.dks(k, mode=mode)


@given(case=specs())
@settings(deadline=None, max_examples=40)
def test_every_number_is_an_int_when_whole(case):
    g, spec = case
    model, _ = build_problem_model(g, spec)
    assert all(is_exact(q) for q in model_numbers(model))
    for reread in (parse_lp(export_lp(model)), parse_mps(export_mps(model))):
        assert all(is_exact(q) for q in model_numbers(reread))
    _, assignment, _ = solve_model(model)
    if assignment is not None:
        assert all(is_exact(q) for q in assignment.values())
        report = model.evaluate(assignment, tol=Fraction(1, 10**6))
        assert is_exact(report.objective)


def test_the_density_row_keeps_its_fractions():
    model, _ = build_problem_model(make_two_k4s(), ProblemSpec.mqc(Fraction(3, 4)))
    density = next(row for row in model.constraints if row.tag == "Eq2a")
    assert "z_1" not in density.terms  # -3/4 * 0 pairs
    assert density.terms["z_2"] == Fraction(-3, 4)
    assert density.terms["z_5"] == Fraction(-15, 2)
    assert type(density.terms["z_8"]) is int and density.terms["z_8"] == -21


# SHA-256 of the exports of two_k4s, taken from the code that stored every
# number as a Fraction: mqc at gamma 3/4 and dks at k 5, per static mode.
DIGESTS = {
    ("mqc", "none"): (
        "2c7acf99395993cad20a5ae06bc8a36e0c7c6dc8929addfd8f16d19411444b82",
        "b1114a2d5abdacb2c3368a0d0767ce78fb00c586c5e529a626d3f397c65112af",
    ),
    ("mqc", "mpr"): (
        "9e9d1489611882b03c41376c15c0ea8a59db047f56f39eb35c8fdcd35e742b71",
        "0af77340c24a93358d6800de82158cae50ef1fa1434c6ba549b96a173955e783",
    ),
    ("mqc", "cstree"): (
        "9b2d20975ae7fe97530f7b18566d1507b5b960ec701446b937946d4fef1f5d62",
        "de9015c3b6733cedb8ce92c076eb0d8a1356a82f4d3793f2961ce2512d07363d",
    ),
    ("dks", "none"): (
        "2b83fbefeef0d4ca3afa6d66aff4bca308a5340386f24131dc9eb1f06f40431c",
        "60acb8c0b78973757ac609c473fcb56aaa337c2639ddb395bd3dbb70e0a45983",
    ),
    ("dks", "cstree"): (
        "798a50a14b1ce797e22147e19da843f3d234ec6b71f89b4added6496dbafe2d5",
        "8ca6880136ba1f785d1e38858530acf65f564b721c9e1e573faca1c43c9d5074",
    ),
    ("dks", "cflow"): (
        "bc62286a8462417a9001369aa7e7a8ae634ef6ec5707f639c75e94011b7b6560",
        "de4a03a0de195897a0df94134a7406887baabada6a45fdd689bc98ff9e90c8f0",
    ),
}


@pytest.mark.parametrize("problem, mode", list(DIGESTS))
def test_export_bytes_are_pinned(problem, mode):
    if problem == "mqc":
        spec = ProblemSpec.mqc(Fraction(3, 4), mode=Connectivity(mode))
    else:
        spec = ProblemSpec.dks(5, mode=Connectivity(mode))
    model, _ = build_problem_model(make_two_k4s(), spec)
    digests = tuple(
        hashlib.sha256(export(model).encode()).hexdigest()
        for export in (export_lp, export_mps)
    )
    assert digests == DIGESTS[(problem, mode)]
