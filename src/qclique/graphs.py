"""Simple undirected graphs and the combinatorial primitives built on them.

Vertices are dense 0-based integers. Edges are stored once as sorted pairs
(i, j) with i < j. Parsers keep the original file labels in a side table so
results can be reported in the input's own naming scheme; everything else in
the package works on the repacked ids.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable


class GraphError(ValueError):
    """Raised for malformed graph files and invalid vertex sets."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph.

    Attributes:
        n: vertex count; ids are 0..n-1.
        edges: sorted tuple of (i, j) pairs with i < j, no loops, no duplicates.
        labels: original per-vertex labels for reporting, or None for str(id).
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] | None = field(default=None, compare=False)
    # Solver memos look graphs up by hash; the edge tuple is hashed once.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError(f"negative vertex count {self.n}")
        prev = None
        for i, j in self.edges:
            if not (0 <= i < j < self.n):
                raise GraphError(f"edge ({i}, {j}) invalid for n={self.n}")
            if prev is not None and (i, j) <= prev:
                raise GraphError(f"edges not sorted/deduplicated at ({i}, {j})")
            prev = (i, j)
        if self.labels is not None and len(self.labels) != self.n:
            raise GraphError(
                f"{len(self.labels)} labels for {self.n} vertices"
            )
        object.__setattr__(self, "_hash", hash((self.n, self.edges)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def build(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Iterable[str] | None = None,
    ) -> "Graph":
        """Canonicalize pair order and drop duplicates; loops are an error."""
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            seen.add((u, v) if u < v else (v, u))
        return cls(
            n,
            tuple(sorted(seen)),
            None if labels is None else tuple(labels),
        )

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor list per vertex."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Neighbor sets as bitmasks, for the combinatorial solvers."""
        out = [0] * self.n
        for i, j in self.edges:
            out[i] |= 1 << j
            out[j] |= 1 << i
        return tuple(out)

    @cached_property
    def _component(self) -> tuple["Graph | None", tuple[int, ...]]:
        """largest_component's graph (None for this one) and kept ids, found
        once per object."""
        return _largest_component(self)

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def label(self, v: int) -> str:
        if self.labels is None:
            return str(v)
        return self.labels[v]

    def fingerprint(self) -> str:
        """Stable digest of the structure (labels excluded)."""
        digest = hashlib.sha256(serialize_edge_list(self).encode()).hexdigest()
        return f"n{self.n}m{self.m}-{digest[:12]}"


def check_vertex_set(g: Graph, s: Iterable[int]) -> tuple[int, ...]:
    """Validate a vertex set and return it sorted; an error names the
    smallest offending vertex."""
    out = sorted(s)
    if out and not (0 <= out[0] and out[-1] < g.n):
        v = next(v for v in out if not 0 <= v < g.n)
        raise GraphError(f"vertex {v} out of range for n={g.n}")
    if len(set(out)) < len(out):
        v = next(a for a, b in zip(out, out[1:]) if a == b)
        raise GraphError(f"duplicate vertex {v} in set")
    return tuple(out)


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphError(f"line {lineno}: expected integer, got {token!r}") from None


def parse_edge_list(text: str, base: int = 0) -> Graph:
    """Parse a DIMACS-like edge list.

    Lines starting with "c", "#" or "%" are comments. An optional
    "p edge n m" line declares the vertex count (needed to keep isolated
    vertices). Edge lines are two integer tokens with an optional leading "e".
    Loops and duplicate edges are dropped.
    """
    if base not in (0, 1):
        raise GraphError(f"base must be 0 or 1, got {base}")
    declared_n: int | None = None
    pairs: set[tuple[int, int]] = set()
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] in ("c", "#", "%"):
            continue
        if tokens[0] == "p":
            if declared_n is not None:
                raise GraphError(f"line {lineno}: duplicate problem line")
            if len(tokens) != 4 or tokens[1] != "edge":
                raise GraphError(f"line {lineno}: malformed problem line {raw!r}")
            declared_n = _parse_int(tokens[2], lineno)
            continue
        if tokens[0] == "e":
            tokens = tokens[1:]
        if len(tokens) != 2:
            raise GraphError(
                f"line {lineno}: expected two vertex ids, got {raw!r}"
            )
        u = _parse_int(tokens[0], lineno)
        v = _parse_int(tokens[1], lineno)
        if u < base or v < base:
            raise GraphError(f"line {lineno}: vertex id below base {base}")
        u -= base
        v -= base
        max_id = max(max_id, u, v)
        if u != v:
            pairs.add((u, v) if u < v else (v, u))
    if declared_n is None and max_id < 0:
        raise GraphError("no edges")
    n = max_id + 1 if declared_n is None else declared_n
    if max_id >= n:
        raise GraphError(f"vertex id {max_id + base} outside declared count {n}")
    labels = tuple(str(i + base) for i in range(n))
    return Graph(n, tuple(sorted(pairs)), labels)


def parse_matrix_market(text: str) -> Graph:
    """Parse a MatrixMarket coordinate file as an undirected simple graph.

    Entry values are ignored; direction is ignored; loops and duplicates are
    dropped. Vertex count comes from the size line, so isolated vertices
    survive.
    """
    lines = text.splitlines()
    if not lines:
        raise GraphError("line 1: empty input")
    header = lines[0].split()
    if len(header) < 4 or header[0].lower() != "%%matrixmarket":
        raise GraphError(f"line 1: malformed header {lines[0]!r}")
    obj, fmt = header[1].lower(), header[2].lower()
    fields = [t.lower() for t in header[3:]]
    if obj != "matrix":
        raise GraphError(f"line 1: unsupported object {header[1]!r}")
    if fmt != "coordinate":
        raise GraphError(f"line 1: non-coordinate format {header[2]!r}")
    if fields[0] not in ("pattern", "real", "integer"):
        raise GraphError(f"line 1: unsupported field type {header[3]!r}")
    rows = cols = None
    pairs: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        tokens = stripped.split()
        if rows is None:
            if len(tokens) != 3:
                raise GraphError(f"line {lineno}: malformed size line {raw!r}")
            rows = _parse_int(tokens[0], lineno)
            cols = _parse_int(tokens[1], lineno)
            _parse_int(tokens[2], lineno)
            continue
        if len(tokens) < 2:
            raise GraphError(f"line {lineno}: malformed entry {raw!r}")
        i = _parse_int(tokens[0], lineno)
        j = _parse_int(tokens[1], lineno)
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise GraphError(
                f"line {lineno}: entry ({i}, {j}) outside {rows} x {cols} matrix"
            )
        if i != j:
            a, b = i - 1, j - 1
            pairs.add((a, b) if a < b else (b, a))
    if rows is None:
        raise GraphError("missing size line")
    n = max(rows, cols)
    labels = tuple(str(i + 1) for i in range(n))
    return Graph(n, tuple(sorted(pairs)), labels)


def serialize_edge_list(g: Graph) -> str:
    """Canonical 0-based edge list; parses back to an identical Graph."""
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"{i} {j}" for i, j in g.edges)
    return "\n".join(lines) + "\n"


def mask_members(mask: int) -> tuple[int, ...]:
    """The vertices of a bitmask, ascending."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return tuple(members)


def reach(masks: tuple[int, ...], within: int, seed: int, stop: int = -1) -> int:
    """Vertices reachable from the seed bits inside the `within` mask, given
    each vertex's neighbor mask.

    The walk ends early, with part of the reachable set, as soon as it has
    seen every vertex of the stop mask; the default, every vertex, never
    ends it early. So the stop vertices are all in the result exactly when
    they are all reachable, and when they are not, the result is the whole
    reachable set.
    """
    seen = seed
    frontier = seed
    while frontier and stop & ~seen:
        grown = 0
        rest = frontier
        while rest:
            low = rest & -rest
            grown |= masks[low.bit_length() - 1]
            rest ^= low
        frontier = grown & within & ~seen
        seen |= frontier
    return seen


def _set_mask(g: Graph, s: Iterable[int]) -> int:
    """A validated vertex set as a bitmask."""
    return sum(1 << v for v in check_vertex_set(g, s))


def components(g: Graph, s: Iterable[int] | None = None) -> list[tuple[int, ...]]:
    """Connected components of the subgraph induced by s (default: all).

    Returns sorted tuples ordered by their smallest member. The empty set has
    no components.
    """
    rest = _set_mask(g, range(g.n) if s is None else s)
    out: list[tuple[int, ...]] = []
    while rest:
        part = reach(g.masks, rest, rest & -rest)
        out.append(mask_members(part))
        rest ^= part
    return out


def is_connected(g: Graph, s: Iterable[int] | None = None) -> bool:
    """True when the induced subgraph has at most one component.

    Empty and singleton sets count as connected.
    """
    within = _set_mask(g, range(g.n) if s is None else s)
    return reach(g.masks, within, within & -within) == within


def induced_edge_count(g: Graph, s: Iterable[int]) -> int:
    within = _set_mask(g, s)
    masks = g.masks
    return sum((masks[v] & within).bit_count() for v in mask_members(within)) // 2


def density(g: Graph, s: Iterable[int]) -> Fraction:
    """Exact edge density of the induced subgraph; 1 for singletons."""
    members = check_vertex_set(g, s)
    if not members:
        raise GraphError("density of empty vertex set")
    size = len(members)
    if size == 1:
        return Fraction(1)
    return Fraction(2 * induced_edge_count(g, members), size * (size - 1))


def boundary_neighbors(g: Graph, c: Iterable[int]) -> tuple[int, ...]:
    """Vertices outside c adjacent to at least one member of c."""
    inside = _set_mask(g, c)
    hood = 0
    for v in mask_members(inside):
        hood |= g.masks[v]
    return mask_members(hood & ~inside)


def largest_component(g: Graph) -> tuple[Graph, dict[int, int]]:
    """Largest connected component, vertices repacked to 0..m-1.

    Ties between equal-size components go to the one containing the smallest
    original id. Returns the component graph and a fresh old-id to new-id
    map. The component is found once per graph object and every call on it
    returns that same object (a connected graph is its own), so solver memos
    find it by identity.
    """
    core, best = g._component
    return g if core is None else core, {old: new for new, old in enumerate(best)}


def _largest_component(g: Graph) -> tuple[Graph | None, tuple[int, ...]]:
    """The component graph, or None when g is connected (a graph does not
    hold itself), and the kept ids in ascending order."""
    if g.n == 0:
        return None, ()
    best = max(components(g), key=lambda c: (len(c), -c[0]))
    if len(best) == g.n:
        return None, best
    mapping = {old: new for new, old in enumerate(best)}
    kept = set(best)
    edges = tuple(
        sorted((mapping[i], mapping[j]) for i, j in g.edges if i in kept)
    )
    labels = tuple(g.label(v) for v in best)
    return Graph(len(best), edges, labels), best


def oriented_arcs(g: Graph, rooted: bool = False) -> tuple[tuple[int, int], ...]:
    """Arcs (i, j), (j, i) per edge in edge order; if rooted, then one arc
    (g.n, j) per vertex j from the root sentinel g.n, outside the vertex range."""
    arcs = [arc for i, j in g.edges for arc in ((i, j), (j, i))]
    if rooted:
        arcs.extend((g.n, j) for j in range(g.n))
    return tuple(arcs)
