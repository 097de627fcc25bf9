"""Pins for the model's number rule and for the bytes of its exports.

Every number in a model is an int when it is whole and a Fraction with a
denominator above 1 otherwise: in an LP/MPS re-read and in an assignment
from the HiGHS bridge. Every number of a built model is whole, so it is an
int: the threshold model writes its density row scaled by gamma's
denominator. The export digests below pin the bytes of both formats.
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
    assert all(type(q) is int for q in model_numbers(model))
    for reread in (parse_lp(export_lp(model)), parse_mps(export_mps(model))):
        assert all(is_exact(q) for q in model_numbers(reread))
    _, assignment, _ = solve_model(model)
    if assignment is not None:
        assert all(is_exact(q) for q in assignment.values())
        report = model.evaluate(assignment, tol=Fraction(1, 10**6))
        assert is_exact(report.objective)


def test_the_density_row_is_integral():
    # gamma = 3/4: each y term is 4 and each z_t is -3 * C(t, 2).
    model, _ = build_problem_model(make_two_k4s(), ProblemSpec.mqc(Fraction(3, 4)))
    density = next(row for row in model.constraints if row.tag == "Eq2a")
    assert (density.sense, density.rhs) == (">=", 0)
    assert {density.terms[name] for name in density.terms if name[0] == "y"} == {4}
    assert "z_1" not in density.terms  # 0 pairs
    assert density.terms["z_2"] == -3
    assert density.terms["z_5"] == -30
    assert density.terms["z_8"] == -84
    assert all(type(coef) is int for coef in density.terms.values())


# SHA-256 of the exports of two_k4s: mqc at gamma 3/4 (its density row in
# ints) and dks at k 5, per static mode.
DIGESTS = {
    ("mqc", "none"): (
        "efb6eb7f153ed3e895194694be94cfbc9cb74546012b0a911f95264ace308d15",
        "2b0527a12d14314132e900435fe1a2079a61e2191a814fd81adab23f96a7a4ea",
    ),
    ("mqc", "mpr"): (
        "10a3a3c6806b4fa4d1e344c4db67449f2dbe1b399c41dd395b381576ee31f50f",
        "ccd300c200d423d30a1540492a2a3196b5c578d6e932b9ca1c4cdce130ec5b75",
    ),
    ("mqc", "cstree"): (
        "0b7dfad442e1fdde1876b99605fda3c2b1ace5fb1ec6999a1fbbdf707a47d32a",
        "8f691cd4d700574b2a88f6bd128dc938afdb5dd9158a29ffd098e2ec93d1d4f5",
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
