"""MILP builders for dense-subgraph search, plus connectivity row families.

Two base models:

- build_m1: pick exactly k vertices, maximize the number of induced edges
  (the fixed-cardinality model; its optimum answers the densest-k-subgraph
  question).
- build_f3: maximize the number of picked vertices subject to an exact
  density threshold gamma, with size indicators z_t for each admissible
  cardinality t (the quasi-clique model).

Four add-on families force the selected set to be connected:

- add_mpr: a source indicator plus signed flows on undirected edges; flow
  balance pins the source's net outflow to (size - 1) and every other
  selected vertex's to -1.
- add_cstree: an in-tree rooted at an artificial vertex; arc-use binaries
  form a spanning arborescence of the selection and flows count the vertices
  they feed.
- add_cflow: a source indicator plus nonnegative flows on bi-directed arcs,
  sized for the fixed-cardinality model only.
- lazy_cuts: separation rows generated from a disconnected candidate, stating
  that each of its fragments must recruit one of its outside neighbors.

Each add-on takes (model, layout, g) and reads its size constant from the
layout: the threshold model's upper size bound, or the fixed cardinality k.

The layout is the one source of variable names: only _base, build_f3 and
the add_* builders make names, and everything that completes a built model
reads them from its layout. build_certificate(layout, g, s) turns a
connected vertex set into a full point of a tree or flow model, so
connectivity claims can be re-verified through LinearModel.evaluate alone;
lazy_cuts(layout, g, s) reads the x names and k of a fixed-cardinality
model.

Constraint tags follow the fixed scheme "Eq<family>:<entity>" (for example
"Eq1b:e=0_2"), which downstream tooling relies on for cut deduplication and
reporting; the tag alphabet is chosen to survive LP/MPS name sanitization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping

from .graphs import (
    Graph,
    check_vertex_set,
    components,
    boundary_neighbors,
    is_connected,
    oriented_arcs,
)
from .milp import (
    BINARY,
    CONTINUOUS,
    LinearConstraint,
    LinearModel,
    ModelError,
    _rational,
)


class FormulationError(ValueError):
    """Raised for invalid problem parameters or mismatched builder inputs."""


def _check_gamma(value) -> Fraction:
    """gamma as a Fraction in (0, 1]; anything else raises FormulationError."""
    try:
        gamma = _rational(value, "gamma")
    except ModelError as exc:
        raise FormulationError(str(exc)) from None
    gamma = Fraction(gamma) if type(gamma) is int else gamma
    if not 0 < gamma.numerator <= gamma.denominator:
        raise FormulationError(f"gamma {gamma} outside (0, 1]")
    return gamma


def _check_k(k, n: int | None = None) -> None:
    """Refuse a cardinality that is no integer >= 2, or above n when given."""
    if isinstance(k, bool) or not isinstance(k, int):
        raise FormulationError(f"k must be an integer, got {k!r}")
    if k < 2:
        raise FormulationError(f"k must be at least 2, got {k}")
    if n is not None and k > n:
        raise FormulationError(f"k={k} exceeds vertex count {n}")


class Problem(str, Enum):
    """Base objective family."""

    MQC = "mqc"  # maximize size at a density threshold
    DKS = "dks"  # maximize edges at a fixed size

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Connectivity(str, Enum):
    """How connectedness of the selected set is enforced (NONE: not at all)."""

    NONE = "none"
    MPR = "mpr"
    CSTREE = "cstree"
    CFLOW = "cflow"
    LAZY = "lazy"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ProblemSpec:
    """A fully validated problem statement.

    MQC carries an exact rational gamma in (0, 1]; DKS carries an integer
    k >= 2. Any mode other than NONE asks for the connected variant of the
    base problem. A spec has no size window: every engine searches all
    sizes, and build_problem_model gives the threshold model the size bounds
    (1, n). gamma and k pass the same checks build_f3 and build_m1 run.
    """

    problem: Problem
    gamma: Fraction | None = None
    k: int | None = None
    mode: Connectivity = Connectivity.NONE

    def __post_init__(self) -> None:
        if not isinstance(self.problem, Problem):
            raise FormulationError(f"unknown problem {self.problem!r}")
        if not isinstance(self.mode, Connectivity):
            raise FormulationError(f"unknown connectivity mode {self.mode!r}")
        if self.problem is Problem.MQC:
            if self.gamma is None:
                raise FormulationError("mqc requires gamma")
            object.__setattr__(self, "gamma", _check_gamma(self.gamma))
            if self.k is not None:
                raise FormulationError("mqc takes gamma, not k")
            if self.mode in (Connectivity.CFLOW, Connectivity.LAZY):
                raise FormulationError(
                    f"mode {self.mode.value} applies to fixed-cardinality "
                    "problems only"
                )
        else:
            if self.k is None:
                raise FormulationError("dks requires k")
            _check_k(self.k)
            if self.gamma is not None:
                raise FormulationError("dks takes k, not gamma")
            if self.mode is Connectivity.MPR:
                raise FormulationError(
                    "mode mpr applies to density-threshold problems only"
                )

    @classmethod
    def mqc(cls, gamma, mode: Connectivity = Connectivity.NONE) -> "ProblemSpec":
        return cls(Problem.MQC, gamma=gamma, mode=mode)

    @classmethod
    def dks(cls, k: int, mode: Connectivity = Connectivity.NONE) -> "ProblemSpec":
        return cls(Problem.DKS, k=k, mode=mode)

    @property
    def connected(self) -> bool:
        return self.mode is not Connectivity.NONE

    def label(self) -> str:
        """Problem family name: mqc / mcqc / dks / dcks."""
        if self.problem is Problem.MQC:
            return "mcqc" if self.connected else "mqc"
        return "dcks" if self.connected else "dks"

    def validate_for(self, g: Graph) -> None:
        """Check the graph-dependent parts (sizes against n)."""
        if self.problem is Problem.DKS:
            _check_k(self.k, g.n)


@dataclass(frozen=True)
class VariableLayout:
    """Maps graph entities to the variable names of one built model.

    x is indexed by vertex, y by edge (i, j) with i < j, z (threshold model
    only) by admissible cardinality. k (fixed-cardinality model) and bounds
    (threshold model) are the size constants the add-ons read; the threshold
    itself lives in the model's metadata and its density row. The
    connectivity fields are filled by the add_* builders: source holds the
    per-vertex source indicator names (mpr and cflow), arc_use (cstree) and
    arc_flow (cstree and cflow) the per-arc binaries and nonnegative flows
    (arc keys may use the artificial root id, which is the vertex count).
    The signed edge flows of mpr get no field: nothing completes them.
    """

    graph_fingerprint: str
    kind: str  # "m1" | "f3"
    k: int | None
    bounds: tuple[int, int] | None
    x: tuple[str, ...]
    y: Mapping[tuple[int, int], str]
    z: Mapping[int, str] | None
    connectivity: Connectivity = Connectivity.NONE
    source: Mapping[int, str] | None = None
    arc_use: Mapping[tuple[int, int], str] | None = None
    arc_flow: Mapping[tuple[int, int], str] | None = None


def _edge_upper_bound(count: int) -> int:
    """Number of vertex pairs among `count` vertices."""
    return count * (count - 1) // 2


def _base(
    g: Graph, metadata: dict[str, str]
) -> tuple[LinearModel, tuple[str, ...], dict[tuple[int, int], str]]:
    """A model holding the binary x_i per vertex and the y_i_j in [0, 1] per
    edge that both base formulations share."""
    model = LinearModel({**metadata, "graph": g.fingerprint()})
    x = tuple(f"x_{i}" for i in range(g.n))
    for name in x:
        model.add_variable(name, BINARY)
    y: dict[tuple[int, int], str] = {}
    for i, j in g.edges:
        name = f"y_{i}_{j}"
        y[(i, j)] = name
        model.add_variable(name, CONTINUOUS, 0, 1)
    return model, x, y


def _cap_rows(
    model: LinearModel,
    g: Graph,
    x: tuple[str, ...],
    y: Mapping[tuple[int, int], str],
    first: str,
    second: str,
) -> None:
    """Cap each edge indicator by both endpoints: y_ij <= x_i and y_ij <= x_j."""
    for i, j in g.edges:
        model.add_constraint({y[(i, j)]: 1, x[i]: -1}, "<=", 0, f"{first}:e={i}_{j}")
        model.add_constraint({y[(i, j)]: 1, x[j]: -1}, "<=", 0, f"{second}:e={i}_{j}")


def build_m1(g: Graph, k: int) -> tuple[LinearModel, VariableLayout]:
    """Fixed-cardinality model: pick exactly k vertices, maximize edges.

    Variables: one binary x_i per vertex, one continuous y_ij in [0, 1] per
    edge (linearized pair indicator, capped by both endpoints). Rows: one
    cardinality row plus two cap rows per edge. The selection can never be
    empty (k >= 2), which the connectivity add-ons rely on.
    """
    _check_k(k, g.n)
    model, x, y = _base(g, {"formulation": "m1", "k": str(k)})
    model.set_objective({name: 1 for name in y.values()})
    model.add_constraint({name: 1 for name in x}, "=", k, "Eq1a")
    _cap_rows(model, g, x, y, "Eq1b", "Eq1c")
    layout = VariableLayout(
        graph_fingerprint=g.fingerprint(),
        kind="m1",
        k=k,
        bounds=None,
        x=x,
        y=y,
        z=None,
    )
    return model, layout


def build_f3(
    g: Graph, gamma, lower: int, upper: int
) -> tuple[LinearModel, VariableLayout]:
    """Density-threshold model: maximize size at exact density >= gamma.

    Variables: binary x_i per vertex, continuous y_ij in [0, 1] per edge, and
    one continuous size indicator z_t in [0, 1] per admissible cardinality
    t in [lower, upper] (integrality of z is implied at optima, so the
    indicators stay continuous). Rows: the density row compares the selected
    edge count against gamma times the pair count of the selected size, the
    size row ties x to z, the choice row makes z a convex choice, and two cap
    rows per edge bound y by its endpoints. With gamma = num/den in lowest
    terms the density row reads den*sum(y) - num*sum(C(t, 2)*z_t) >= 0, so
    every number of the model is an int: the exports write it exactly, and
    HiGHS reads the matrix it is given.
    """
    gamma = _check_gamma(gamma)
    for name, value in (("lower", lower), ("upper", upper)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise FormulationError(f"{name} bound must be an integer, got {value!r}")
    if not 1 <= lower <= upper <= g.n:
        raise FormulationError(
            f"bounds ({lower}, {upper}) outside 1 <= lower <= upper <= {g.n}"
        )
    model, x, y = _base(
        g, {"formulation": "f3", "gamma": str(gamma), "bounds": f"{lower}_{upper}"}
    )
    z: dict[int, str] = {}
    for t in range(lower, upper + 1):
        name = f"z_{t}"
        z[t] = name
        model.add_variable(name, CONTINUOUS, 0, 1)
    model.set_objective({name: 1 for name in x})
    density_terms = {name: gamma.denominator for name in y.values()}
    for t, name in z.items():
        density_terms[name] = -gamma.numerator * _edge_upper_bound(t)
    model.add_constraint(density_terms, ">=", 0, "Eq2a")
    size_terms = {name: 1 for name in x}
    for t, name in z.items():
        size_terms[name] = -t
    model.add_constraint(size_terms, "=", 0, "Eq2b")
    model.add_constraint({name: 1 for name in z.values()}, "=", 1, "Eq2c")
    _cap_rows(model, g, x, y, "Eq2d", "Eq2e")
    layout = VariableLayout(
        graph_fingerprint=g.fingerprint(),
        kind="f3",
        k=None,
        bounds=(lower, upper),
        x=x,
        y=y,
        z=z,
    )
    return model, layout


def _require_base(
    layout: VariableLayout, g: Graph, kinds: tuple[str, ...], op: str
) -> None:
    if layout.connectivity is not Connectivity.NONE:
        raise FormulationError(
            f"{op}: model already carries {layout.connectivity.value} rows"
        )
    if layout.kind not in kinds:
        raise FormulationError(
            f"{op} requires a {' or '.join(kinds)} model, got {layout.kind}"
        )
    _require_graph(layout, g, op)


def _require_graph(layout: VariableLayout, g: Graph, op: str) -> None:
    if layout.graph_fingerprint != g.fingerprint():
        raise FormulationError(f"{op}: model was built over a different graph")


def _source_rows(
    model: LinearModel, g: Graph, x: tuple[str, ...], prefix: str, family: str
) -> dict[int, str]:
    """One binary source indicator per vertex: exactly one is set (row
    <family>a), and only on a selected vertex (rows <family>b)."""
    source = {i: f"{prefix}_{i}" for i in range(g.n)}
    for name in source.values():
        model.add_variable(name, BINARY)
    model.add_constraint({name: 1 for name in source.values()}, "=", 1, f"{family}a")
    for i in range(g.n):
        model.add_constraint({source[i]: 1, x[i]: -1}, "<=", 0, f"{family}b:i={i}")
    return source


def add_mpr(
    model: LinearModel, layout: VariableLayout, g: Graph
) -> tuple[LinearModel, VariableLayout]:
    """Add source-plus-signed-flow connectivity rows to a threshold model.

    One binary c_i marks the source; one free continuous flow per edge,
    oriented from the smaller to the larger endpoint, may run negative. The
    balance rows force the source's net outflow to (selected size - 1) and
    every other selected vertex's to -1, with the model's upper size bound u
    as the deactivation constant; the per-edge bound rows cap |flow| by
    (u - 1) times the edge indicator.
    """
    _require_base(layout, g, ("f3",), "add_mpr")
    u = layout.bounds[1]
    x = layout.x
    source = _source_rows(model, g, x, "c", "Eq3")
    edge_flow: dict[tuple[int, int], str] = {}
    for i, j in g.edges:
        name = f"fe_{i}_{j}"
        edge_flow[(i, j)] = name
        model.add_variable(name, CONTINUOUS, None, None)
    minus_x = {name: -1 for name in x}
    for i in range(g.n):
        net: dict[str, int] = {}
        for j in g.neighbors[i]:
            if i < j:
                net[edge_flow[(i, j)]] = 1
            else:
                net[edge_flow[(j, i)]] = -1
        c = source[i]
        model.add_constraint({**net, **minus_x, c: -u}, ">=", -1 - u, f"Eq3c:i={i}")
        model.add_constraint({**net, **minus_x, c: u}, "<=", u - 1, f"Eq3d:i={i}")
        model.add_constraint({**net, c: u, x[i]: -u}, ">=", -1 - u, f"Eq3e:i={i}")
        model.add_constraint({**net, c: -u, x[i]: u}, "<=", u - 1, f"Eq3f:i={i}")
    cap = u - 1
    for i, j in g.edges:
        flow, y = edge_flow[(i, j)], layout.y[(i, j)]
        model.add_constraint({flow: 1, y: cap}, ">=", 0, f"Eq3g:e={i}_{j}")
        model.add_constraint({flow: 1, y: -cap}, "<=", 0, f"Eq3h:e={i}_{j}")
    return model, replace(layout, connectivity=Connectivity.MPR, source=source)


def _arc_name(prefix: str, arc: tuple[int, int], root: int) -> str:
    return f"{prefix}_{_arc_tag(arc, root)}"


def _arc_tag(arc: tuple[int, int], root: int) -> str:
    """Arc (a, b) as "a_b", with the artificial root id rendered "r"; only
    the rooted arc set starts an arc at the root id."""
    a, b = arc
    return f"{'r' if a == root else a}_{b}"


def add_cstree(
    model: LinearModel, layout: VariableLayout, g: Graph
) -> tuple[LinearModel, VariableLayout]:
    """Add rooted in-tree connectivity rows (works on both base models).

    An artificial root (id n, rendered "r" in names) gets one arc to every
    vertex; every edge contributes both directions. Binary arc-use variables
    form an in-tree covering exactly the selected vertices: each selected
    vertex has one incoming used arc, the root uses exactly one arc, and per
    edge at most one direction is used and only if the edge is selected.
    Nonnegative arc flows carry (subtree size) units, bounded per arc by
    (u - 1) times its use variable (u for root arcs), with unit lower bounds
    tying flow to use; the root ships exactly the selected size. An empty
    selection is infeasible under these rows, which both base models already
    rule out. u is k on the fixed-cardinality model and the upper size bound
    on the threshold model.
    """
    _require_base(layout, g, ("m1", "f3"), "add_cstree")
    u = layout.k if layout.kind == "m1" else layout.bounds[1]
    arcs = oriented_arcs(g, rooted=True)
    root = g.n
    x = layout.x
    arc_use: dict[tuple[int, int], str] = {}
    arc_flow: dict[tuple[int, int], str] = {}
    for arc in arcs:
        name = _arc_name("v", arc, root)
        arc_use[arc] = name
        model.add_variable(name, BINARY)
    for arc in arcs:
        name = _arc_name("fa", arc, root)
        arc_flow[arc] = name
        model.add_variable(name, CONTINUOUS, 0, None)
    for j in range(g.n):
        in_arcs = [(i, j) for i in g.neighbors[j]] + [(root, j)]
        model.add_constraint(
            {arc_use[arc]: 1 for arc in in_arcs} | {x[j]: -1},
            "=",
            0,
            f"Eq5a:j={j}",
        )
    model.add_constraint(
        {arc_use[(root, j)]: 1 for j in range(g.n)}, "=", 1, "Eq5b"
    )
    for j in range(g.n):
        balance: dict[str, int] = {}
        for i in g.neighbors[j]:
            balance[arc_flow[(i, j)]] = 1
        balance[arc_flow[(root, j)]] = 1
        for i in g.neighbors[j]:
            balance[arc_flow[(j, i)]] = -1
        balance[x[j]] = -1
        model.add_constraint(balance, "=", 0, f"Eq5c:j={j}")
    for arc in arcs:
        tag = _arc_tag(arc, root)
        model.add_constraint(
            {arc_flow[arc]: 1, arc_use[arc]: -1}, ">=", 0, f"Eq5d:a={tag}"
        )
    for arc in arcs:
        if arc[0] == root:
            continue
        tag = _arc_tag(arc, root)
        model.add_constraint(
            {arc_flow[arc]: 1, arc_use[arc]: -(u - 1)},
            "<=",
            0,
            f"Eq5e:a={tag}",
        )
    for j in range(g.n):
        arc = (root, j)
        model.add_constraint(
            {arc_flow[arc]: 1, arc_use[arc]: -u}, "<=", 0, f"Eq5f:j={j}"
        )
    root_terms = {arc_flow[(root, j)]: 1 for j in range(g.n)}
    for name in x:
        root_terms[name] = -1
    model.add_constraint(root_terms, "=", 0, "Eq5g")
    for i, j in g.edges:
        model.add_constraint(
            {
                arc_use[(i, j)]: 1,
                arc_use[(j, i)]: 1,
                layout.y[(i, j)]: -1,
            },
            "<=",
            0,
            f"Eq5h:e={i}_{j}",
        )
    new_layout = replace(
        layout,
        connectivity=Connectivity.CSTREE,
        arc_use=arc_use,
        arc_flow=arc_flow,
    )
    return model, new_layout


def add_cflow(
    model: LinearModel, layout: VariableLayout, g: Graph
) -> tuple[LinearModel, VariableLayout]:
    """Add source-plus-flow connectivity rows to a fixed-cardinality model.

    One binary s_i marks the source (which must be selected); one nonnegative
    flow per arc direction, capped by k times the edge indicator. Balance
    rows make the source emit k - 1 net units and every other selected vertex
    absorb one, so all k selected vertices must be reachable from the source.
    k is the model's cardinality; an empty selection is infeasible under these
    rows, which the base model already rules out.
    """
    _require_base(layout, g, ("m1",), "add_cflow")
    k = layout.k
    source = _source_rows(model, g, layout.x, "s", "Eq6")
    arc_flow: dict[tuple[int, int], str] = {}
    for arc in oriented_arcs(g, rooted=False):
        name = _arc_name("fd", arc, g.n)
        arc_flow[arc] = name
        model.add_variable(name, CONTINUOUS, 0, None)
    for i, j in g.edges:
        y = layout.y[(i, j)]
        model.add_constraint({arc_flow[(i, j)]: 1, y: -k}, "<=", 0, f"Eq6c:e={i}_{j}")
        model.add_constraint({arc_flow[(j, i)]: 1, y: -k}, "<=", 0, f"Eq6d:e={i}_{j}")
    for i in range(g.n):
        balance: dict[str, int] = {}
        for j in g.neighbors[i]:
            balance[arc_flow[(j, i)]] = 1
            balance[arc_flow[(i, j)]] = -1
        balance[layout.x[i]] = -1
        balance[source[i]] = k
        model.add_constraint(balance, "=", 0, f"Eq6e:i={i}")
    new_layout = replace(
        layout,
        connectivity=Connectivity.CFLOW,
        source=source,
        arc_flow=arc_flow,
    )
    return model, new_layout


def lazy_cuts(
    layout: VariableLayout, g: Graph, s: Iterable[int]
) -> list[LinearConstraint]:
    """Separation rows of a fixed-cardinality model for a disconnected
    candidate selection.

    For each connected fragment C of the selection with |C| < k, and each
    vertex j in C, emit: sum of x over C's outside neighbors >= x_j. Any
    connected set of size k that keeps j must then also recruit a neighbor
    of C. Fragments of size >= k are skipped: a connected k-set could lie
    entirely inside one, and a cut built from it would wrongly exclude that
    set. When the candidate has exactly k vertices (the only case the solve
    loop produces), every fragment of a disconnected candidate is smaller
    than k, so nothing is skipped. The x names and k are the layout's.
    Returns [] iff the selection is connected.
    """
    if layout.kind != "m1":
        raise FormulationError(f"lazy_cuts requires a m1 model, got {layout.kind}")
    parts = components(g, check_vertex_set(g, s))
    if len(parts) <= 1:
        return []
    x = layout.x
    cuts: list[LinearConstraint] = []
    for part in parts:
        if len(part) >= layout.k:
            continue
        lhs = {x[i]: 1 for i in boundary_neighbors(g, part)}
        label = ".".join(str(v) for v in part)
        for j in part:
            cuts.append(
                LinearConstraint({**lhs, x[j]: -1}, ">=", 0, f"Eq4a:C={label}:j={j}")
            )
    return cuts


def _tree_arcs(g: Graph, members: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """The arcs of a deterministic spanning tree of a connected selection,
    each with the size of the subtree it feeds. The tree is grown breadth
    first from the smallest member, neighbors in ascending order; in reverse
    discovery order every child is finished before its parent gathers it."""
    inside = set(members)
    parent = {members[0]: members[0]}
    order = [members[0]]
    for vertex in order:
        for nxt in g.neighbors[vertex]:
            if nxt in inside and nxt not in parent:
                parent[nxt] = vertex
                order.append(nxt)
    sizes = dict.fromkeys(order, 1)
    for v in reversed(order[1:]):
        sizes[parent[v]] += sizes[v]
    return {(parent[v], v): sizes[v] for v in order[1:]}


def build_certificate(
    layout: VariableLayout, g: Graph, s: Iterable[int]
) -> dict[str, int] | None:
    """The full model point of a connected vertex set, or None for a
    disconnected one.

    The layout must carry cstree or cflow rows. The point is
    indicator_assignment(layout, s) plus every connectivity variable of the
    layout, zeros included: a spanning tree grown from the smallest member
    carries subtree sizes on its arcs, and the root arc (cstree) or the
    source (cflow) ships the selection size. Names come from the layout, so
    the point's keys are exactly the model's variables. Whether the
    selection fits the model's cardinality is left to LinearModel.evaluate.
    """
    mode = layout.connectivity
    if mode not in (Connectivity.CSTREE, Connectivity.CFLOW):
        raise FormulationError(f"no certificate form for mode {mode.value}")
    _require_graph(layout, g, "build_certificate")
    members = check_vertex_set(g, s)
    if not members:
        raise FormulationError("cannot certify an empty selection")
    if not is_connected(g, members):
        return None
    point = indicator_assignment(layout, members)
    tree = _tree_arcs(g, members)
    source = members[0]
    if mode is Connectivity.CSTREE:
        tree[(g.n, source)] = len(members)
        point.update({name: int(arc in tree) for arc, name in layout.arc_use.items()})
    else:
        point.update({name: int(i == source) for i, name in layout.source.items()})
    point.update({name: tree.get(arc, 0) for arc, name in layout.arc_flow.items()})
    return point


def indicator_assignment(layout: VariableLayout, s: Iterable[int]) -> dict[str, int]:
    """Base-model assignment induced by a vertex set: x, y, and z if present.

    x is the 0/1 indicator, each y_ij is the product of its endpoints, and
    the size indicator matching |s| is set when the layout has one (the size
    must then lie within the layout's bounds). Ids outside the layout's
    vertex range and repeated ids are refused.
    """
    members = sorted(s)
    for v in members:
        if not 0 <= v < len(layout.x):
            raise FormulationError(f"vertex {v} out of range for n={len(layout.x)}")
    for a, b in zip(members, members[1:]):
        if a == b:
            raise FormulationError(f"duplicate vertex {a} in set")
    chosen = set(members)
    values: dict[str, int] = {}
    for i, name in enumerate(layout.x):
        values[name] = int(i in chosen)
    for (i, j), name in layout.y.items():
        values[name] = int(i in chosen and j in chosen)
    if layout.z is not None:
        size = len(chosen)
        if size not in layout.z and size != 0:
            raise FormulationError(
                f"selection size {size} outside the layout's bounds "
                f"{layout.bounds}"
            )
        for t, name in layout.z.items():
            values[name] = int(t == size)
    return values
