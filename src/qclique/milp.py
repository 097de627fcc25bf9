"""Solver-agnostic MILP container with exact rational arithmetic.

Models hold variables (binary or bounded continuous), sparse linear rows, and
a maximization objective. A model is plain mutable data with no sealed state:
builders and the LP/MPS readers fill it, and the cut loop appends rows to the
model it re-solves. Numbers are ints for whole values and Fractions
otherwise (denominator above 1); the builders make only whole ones, and an
int is far cheaper than a Fraction to build, compare and multiply.
evaluate() is the ground-truth feasibility check used throughout the test
suite, so it applies zero tolerance unless the caller passes one explicitly
(only done when judging float assignments returned by external solvers).

Floats and bools are rejected at the model boundary: a coefficient like 0.29
is not the rational 29/100, and silently converting would move binding
thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Mapping


class ModelError(ValueError):
    """Raised for invalid model construction or evaluation inputs."""


Number = Rational  # ints and Fractions; floats and bools are refused
Exact = int | Fraction  # what the model stores: an int when whole


def _rational(value, what: str) -> Exact:
    """value as the model stores it: an int when whole, else a Fraction."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        if isinstance(value, bool):
            raise ModelError(f"{what} must be a Fraction or int, got {value!r}")
        if isinstance(value, float):
            raise ModelError(
                f"{what} is a float ({value!r}); pass a Fraction or int for exactness"
            )
        if not isinstance(value, Rational):
            raise ModelError(f"{what} must be rational, got {type(value).__name__}")
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


BINARY = "binary"
CONTINUOUS = "continuous"


@dataclass(frozen=True)
class Variable:
    """A model variable. None bounds mean unbounded on that side."""

    name: str
    kind: str
    lower: Exact | None  # an int when whole, else a Fraction
    upper: Exact | None


@dataclass(frozen=True)
class LinearConstraint:
    """A sparse row: terms (name -> coefficient), sense, rhs, and a tag.

    The tag names the row's origin (which constraint family, which graph
    entity) and doubles as the exported row name.
    """

    terms: Mapping[str, Exact]  # each an int when whole, else a Fraction
    sense: str
    rhs: Exact
    tag: str


@dataclass(frozen=True)
class Evaluation:
    objective: Exact  # an int when whole, else a Fraction
    feasible: bool
    integral: bool
    violations: tuple[tuple[str, Exact], ...]


SENSES = ("<=", ">=", "=")


class LinearModel:
    """Variables in insertion order, tagged rows, and a maximization
    objective. Variable names and row tags are unique, checked as each is
    added; no variable or row is ever removed."""

    def __init__(self, metadata: Mapping[str, str] | None = None) -> None:
        self.variables: list[Variable] = []
        self.constraints: list[LinearConstraint] = []
        self.objective: dict[str, Exact] = {}
        self.metadata: dict[str, str] = dict(metadata or {})
        self._names: set[str] = set()
        self._tags: set[str] = set()

    def add_variable(
        self,
        name: str,
        kind: str = CONTINUOUS,
        lower: Number | None = None,
        upper: Number | None = None,
    ) -> None:
        """Append a variable. Binary variables default to bounds [0, 1] and
        any explicit bounds must stay within them.
        """
        if name.split() != [name]:  # empty, or holding any Unicode whitespace
            raise ModelError(f"invalid variable name {name!r}")
        if name in self._names:
            raise ModelError(f"duplicate variable name {name!r}")
        if kind not in (BINARY, CONTINUOUS):
            raise ModelError(f"unknown variable kind {kind!r}")
        lo = None if lower is None else _rational(lower, f"lower bound of {name}")
        up = None if upper is None else _rational(upper, f"upper bound of {name}")
        if kind == BINARY:
            lo = 0 if lo is None else lo
            up = 1 if up is None else up
            if not (0 <= lo <= up <= 1):
                raise ModelError(f"binary {name} bounds [{lo}, {up}] outside [0, 1]")
        elif lo is not None and up is not None and lo > up:
            raise ModelError(f"{name} bounds cross: {lo} > {up}")
        self.variables.append(Variable(name, kind, lo, up))
        self._names.add(name)

    def _check_terms(self, terms: Mapping[str, Number]) -> dict[str, Exact]:
        out: dict[str, Exact] = {}
        for name, coef in terms.items():
            if name not in self._names:
                raise ModelError(f"unknown variable {name!r} in terms")
            value = _rational(coef, f"coefficient of {name}")
            if value != 0:
                out[name] = value
        return out

    def add_constraint(
        self,
        terms: Mapping[str, Number],
        sense: str,
        rhs: Number,
        tag: str,
    ) -> None:
        """Append a row; zero coefficients are dropped."""
        if sense not in SENSES:
            raise ModelError(f"unknown sense {sense!r}")
        if tag.split() != [tag]:
            raise ModelError(f"invalid constraint tag {tag!r}")
        if tag in self._tags:
            raise ModelError(f"duplicate constraint tag {tag!r}")
        row = LinearConstraint(
            self._check_terms(terms), sense, _rational(rhs, f"rhs of {tag}"), tag
        )
        self.constraints.append(row)
        self._tags.add(tag)

    def set_objective(self, terms: Mapping[str, Number]) -> None:
        """Set the maximization objective (the only supported sense)."""
        self.objective = self._check_terms(terms)

    def evaluate(
        self, assignment: Mapping[str, Number], tol: Number = 0
    ) -> Evaluation:
        """Exact feasibility/objective report for a full assignment.

        Checks every row, every variable bound, and binary integrality with
        rational arithmetic. tol loosens row and bound checks symmetrically
        (used only for float assignments from external solvers); the default 0
        is the oracle mode. Extra assignment keys are ignored; missing ones
        are an error.
        """
        tol_q = _rational(tol, "tolerance")
        if tol_q < 0:
            raise ModelError(f"negative tolerance {tol_q}")
        values: dict[str, Exact] = {}
        missing = []
        for var in self.variables:
            if var.name not in assignment:
                missing.append(var.name)
            elif len(missing) == 0:
                values[var.name] = _rational(
                    assignment[var.name], f"value of {var.name}"
                )
        if missing:
            shown = ", ".join(missing[:5])
            raise ModelError(f"assignment missing {len(missing)} variables: {shown}")
        violations: list[tuple[str, Exact]] = []
        for var in self.variables:
            v = values[var.name]
            if var.lower is not None and var.lower - v > tol_q:
                violations.append((f"bound:{var.name}", var.lower - v))
            if var.upper is not None and v - var.upper > tol_q:
                violations.append((f"bound:{var.name}", v - var.upper))
        # Zero-valued terms add nothing to a row sum, and in a solver's
        # answer most variables are zero.
        nonzero = {name: v for name, v in values.items() if v}
        for row in self.constraints:
            lhs = sum(
                coef * nonzero[name]
                for name, coef in row.terms.items()
                if name in nonzero
            )
            if row.sense == "<=":
                excess = lhs - row.rhs
            elif row.sense == ">=":
                excess = row.rhs - lhs
            else:
                excess = abs(lhs - row.rhs)
            if excess > tol_q:
                violations.append((row.tag, excess))
        integral = all(
            min(abs(values[var.name]), abs(values[var.name] - 1)) <= tol_q
            for var in self.variables
            if var.kind == BINARY
        )
        objective = sum(coef * values[name] for name, coef in self.objective.items())
        return Evaluation(
            objective=_rational(objective, "objective"),
            feasible=not violations,
            integral=integral,
            violations=tuple(violations),
        )
