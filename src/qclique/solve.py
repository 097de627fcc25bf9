"""Exact combinatorial solvers: exhaustive enumeration and branch and bound.

brute_force is the oracle: it enumerates subsets outright and is intended for
desk-scale validation only. branch_and_bound handles the same four problems
(size maximization at a density threshold, edge maximization at a fixed size,
and their connected variants) with admissible pruning, and must agree with
the oracle wherever the oracle can run. Its depth-first loop, search, is the
only one in the package, and fixed-size: a threshold cell runs it as a
sequence of decisions.

Both work in exact integer/rational arithmetic; density thresholds are
compared by cross-multiplication, never through floats.
"""

from __future__ import annotations

import itertools
import math
import os
import resource
import sys
import time
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .formulations import Problem, ProblemSpec
from .graphs import Graph, induced_edge_count, is_connected, mask_members, reach


class SolveError(ValueError):
    """Raised when a solver's preconditions are not met."""


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    TIME_LIMIT = "time_limit"
    INFEASIBLE = "infeasible"
    MEMORY_LIMIT = "memory_limit"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def positive_finite(value) -> bool:
    """True for a positive finite number other than a bool."""
    try:
        return type(value) is not bool and 0 < value < math.inf
    except TypeError:  # not a number
        return False


@dataclass(frozen=True)
class Limits:
    """Effort limits for a single solve: positive finite numbers (not bools),
    or None to disable a limit.

    ceiling, a proven upper bound on the objective, is read by
    branch_and_bound only: it stops there.
    """

    time_seconds: float | None = 3600.0
    memory_bytes: int | None = 10 * 10**9
    ceiling: int | None = None

    def __post_init__(self) -> None:
        for what, v in (("time", self.time_seconds), ("memory", self.memory_bytes)):
            if v is not None and not positive_finite(v):
                raise SolveError(f"{what} limit must be positive and finite, got {v!r}")
        ceiling = self.ceiling
        if ceiling is not None and (type(ceiling) is not int or ceiling < 0):
            raise SolveError(f"ceiling must be a nonnegative int, got {ceiling!r}")


@dataclass(frozen=True)
class Solution:
    """Solver outcome: the vertex set, its recomputed objective, and status.

    objective is the vertex count for density-threshold problems and the
    induced edge count for fixed-cardinality problems; it is always
    recomputed from the graph, never copied from a solver report. cut_rounds
    is filled by the separation loop only.
    """

    vertices: tuple[int, ...]
    objective: int
    status: SolveStatus
    elapsed: float = 0.0
    nodes_explored: int = 0
    cut_rounds: int | None = None


def meets_density(edges: int, size: int, gamma: Fraction) -> bool:
    """Exact check: induced density of (edges, size) is at least gamma."""
    if size <= 1:
        return True
    return 2 * edges * gamma.denominator >= gamma.numerator * size * (size - 1)


class _LimitHit(Exception):
    def __init__(self, status: SolveStatus) -> None:
        self.status = status


class _Budget:
    """Time/memory watchdog, polled every few hundred solver nodes. Only a
    poll that passes re-arms it: once spent, it stops every later search on
    it at its first node."""

    _POLL = 512

    def __init__(self, limits: Limits) -> None:
        self.limits = limits
        self.start = time.monotonic()
        self._countdown = self._POLL

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def tick(self) -> None:
        self._countdown -= 1
        if self._countdown > 0:
            return
        if (
            self.limits.time_seconds is not None
            and self.elapsed() > self.limits.time_seconds
        ):
            raise _LimitHit(SolveStatus.TIME_LIMIT)
        if (
            self.limits.memory_bytes is not None
            and _resident_bytes() > self.limits.memory_bytes
        ):
            raise _LimitHit(SolveStatus.MEMORY_LIMIT)
        self._countdown = self._POLL


def _resident_bytes() -> int:
    """The process's resident set now, read from /proc/self/statm.

    Where that file does not exist, falls back to the process-lifetime peak
    (ru_maxrss), which never falls after a heavy earlier solve.
    """
    try:
        with open("/proc/self/statm", "rb") as statm:
            return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak if sys.platform == "darwin" else peak * 1024


def brute_force(g: Graph, spec: ProblemSpec) -> Solution:
    """Exhaustive optimum with lexicographically smallest tie-breaking.

    Density-threshold problems sweep all subsets in Gray-code order with an
    incremental edge count (requires n <= 25); fixed-cardinality problems
    enumerate k-subsets in lexicographic order (requires C(n, k) <= 10**7).
    The connected fixed-cardinality variant reports infeasibility when no
    connected k-subset exists.
    """
    spec.validate_for(g)
    start = time.monotonic()
    if spec.problem is Problem.MQC:
        if g.n > 25:
            raise SolveError(f"subset enumeration needs n <= 25, got {g.n}")
        solution = _brute_threshold(g, spec)
    else:
        if math.comb(g.n, spec.k) > 10**7:
            raise SolveError(
                f"C({g.n}, {spec.k}) exceeds the enumeration budget of 10**7"
            )
        solution = _brute_fixed(g, spec)
    return replace(solution, elapsed=time.monotonic() - start)


def _brute_threshold(g: Graph, spec: ProblemSpec) -> Solution:
    gamma = spec.gamma
    masks = g.masks
    best_size = 0
    best: tuple[int, ...] = ()
    previous = 0
    edges = 0
    size = 0
    for i in range(1, 1 << g.n):
        current = i ^ (i >> 1)
        flipped = current ^ previous
        vertex = flipped.bit_length() - 1
        if current & flipped:
            edges += (masks[vertex] & previous).bit_count()
            size += 1
        else:
            edges -= (masks[vertex] & current).bit_count()
            size -= 1
        previous = current
        if size < best_size:
            continue
        if not meets_density(edges, size, gamma):
            continue
        members = mask_members(current)
        if size == best_size and members >= best:
            continue
        if spec.connected and not is_connected(g, members):
            continue
        best_size = size
        best = members
    return Solution(best, best_size, SolveStatus.OPTIMAL, nodes_explored=(1 << g.n) - 1)


def _brute_fixed(g: Graph, spec: ProblemSpec) -> Solution:
    best_edges = -1
    best: tuple[int, ...] | None = None
    explored = 0
    for combo in itertools.combinations(range(g.n), spec.k):
        explored += 1
        edges = induced_edge_count(g, combo)
        if edges <= best_edges:
            continue
        if spec.connected and not is_connected(g, combo):
            continue
        best_edges = edges
        best = combo
    if best is None:
        return Solution((), 0, SolveStatus.INFEASIBLE, nodes_explored=explored)
    return Solution(best, best_edges, SolveStatus.OPTIMAL, nodes_explored=explored)


# An objective and the vertices that reach it; None for a bare bound.
_Incumbent = tuple[int, tuple[int, ...] | None]

# Each memo below holds the gamma-free inputs of this many recent graphs. A
# sweep solves one graph many times; Graph equality ignores labels, and so
# do the seeds.
_MEMO_GRAPHS = 8


def _relabel(mask: int, label: Sequence[int]) -> int:
    """The mask with each vertex v moved to bit label[v]."""
    return sum(1 << label[v] for v in mask_members(mask))


@lru_cache(maxsize=_MEMO_GRAPHS)
def _ranking(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The branching order (descending degree, ties by id), the neighbor
    masks relabelled to rank, and the degrees in rank order."""
    order = tuple(sorted(range(g.n), key=lambda v: (-g.degree(v), v)))
    rank = [0] * g.n
    for r, v in enumerate(order):
        rank[v] = r
    masks = tuple(_relabel(g.masks[v], rank) for v in order)
    return order, masks, tuple(g.degree(v) for v in order)


def _greedy_sequence(g: Graph, connected: bool) -> list[int]:
    """Vertices added greedily by edges-into-set (ties to the lowest id).

    The connected flavor only grows through neighbors of the current set, so
    every prefix is connected; it stops at the component boundary.
    """
    if g.n == 0:
        return []
    masks = g.masks
    start = max(range(g.n), key=lambda v: (g.degree(v), -v))
    chosen = [start]
    inside = 1 << start
    reach = masks[start]
    outside = ((1 << g.n) - 1) ^ inside
    while outside:
        pool = outside & reach if connected else outside
        if not pool:
            break
        nxt = max(
            mask_members(pool),
            key=lambda v: ((masks[v] & inside).bit_count(), -v),
        )
        chosen.append(nxt)
        inside |= 1 << nxt
        reach |= masks[nxt]
        outside ^= 1 << nxt
    return chosen


@lru_cache(maxsize=_MEMO_GRAPHS)
def _peeling_sequence(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The order in which repeatedly removing a minimum-degree vertex takes
    the vertices, and the induced edge count before each removal: the i-th
    state, order[i:], has counts[i] edges. Worked out once per graph for
    both flavors of seeds."""
    alive = set(range(g.n))
    degrees = {v: g.degree(v) for v in alive}
    edges = g.m
    order, counts = [], []
    while alive:
        counts.append(edges)
        victim = min(alive, key=lambda v: (degrees[v], v))
        order.append(victim)
        alive.remove(victim)
        edges -= degrees[victim]
        for w in g.neighbors[victim]:
            if w in alive:
                degrees[w] -= 1
    return tuple(order), tuple(counts)


@dataclass(frozen=True)
class _Seeds:
    """The warm-start candidates of one graph and connectedness flavor, as
    (size, edges, sequence, start): the set sequence[start:start + size], a
    slice of the greedy sequence or of the min-degree peeling order.

    prefixes holds the greedy sequence's prefixes, prefixes[i] the first
    i + 1 vertices; the connected greedy sequence grows through neighbors,
    so each of them is connected. The threshold warm start is the first
    candidate, among those prefixes and then the min-degree peeling states
    (in the connected flavor only the connected ones, since the search
    could never record the others) stably sorted by descending size, that
    meets gamma. records keeps only the candidates denser than every one
    before them (a set of at most one vertex meets every gamma, so counts
    as densest): the first that meets gamma meets a gamma that no earlier
    one meets, so it is a record, and the records that meet gamma are a
    suffix.
    """

    prefixes: tuple[tuple[int, int, tuple[int, ...], int], ...]
    records: tuple[tuple[int, int, tuple[int, ...], int], ...]


@lru_cache(maxsize=_MEMO_GRAPHS)
def _seeds(g: Graph, connected: bool) -> _Seeds:
    """The gamma-free seeds of a graph, worked out once for every cell."""
    masks = g.masks
    greedy = tuple(_greedy_sequence(g, connected))
    prefixes = []
    prefix, edges = 0, 0
    for v in greedy:
        edges += (masks[v] & prefix).bit_count()
        prefix |= 1 << v
        prefixes.append((len(prefixes) + 1, edges, greedy, 0))
    order, counts = _peeling_sequence(g)
    peels, state = [], (1 << g.n) - 1
    for i, edges in enumerate(counts):
        if not connected or reach(masks, state, state & -state) == state:
            peels.append((g.n - i, edges, order, i))
        state ^= 1 << order[i]
    records = []
    for candidate in sorted(prefixes + peels, key=lambda c: -c[0]):
        if records:
            top_size, top_edges = records[-1][:2]
            size, edges = candidate[:2]
            # Skip a candidate no denser than the last record, comparing
            # edges / C(size, 2) by cross-multiplication.
            if top_size <= 1 or (
                size > 1
                and edges * top_size * (top_size - 1) <= top_edges * size * (size - 1)
            ):
                continue
        records.append(candidate)
    return _Seeds(tuple(prefixes), tuple(records))


def _warm_threshold(g: Graph, gamma: Fraction, connected: bool) -> _Incumbent:
    records = _seeds(g, connected).records
    num, den = gamma.numerator, gamma.denominator
    # meets_density in ints read once; a size of 1 passes as 0 >= 0.
    first = bisect_left(
        records, True, key=lambda c: 2 * c[1] * den >= num * c[0] * (c[0] - 1)
    )
    if first == len(records):
        return 0, ()
    size, _, sequence, start = records[first]
    return size, tuple(sorted(sequence[start : start + size]))


def _warm_fixed(g: Graph, k: int, connected: bool) -> _Incumbent:
    prefixes = _seeds(g, connected).prefixes
    if len(prefixes) < k:
        return -1, None
    _, edges, greedy, _ = prefixes[k - 1]
    return edges, tuple(sorted(greedy[:k]))


def branch_and_bound(
    g: Graph, spec: ProblemSpec, limits: Limits = Limits()
) -> Solution:
    """Exact solver over include/exclude decisions with admissible bounds.

    A cell is one pass of _cell within one budget, for MQC and DKS alike. A
    connected cell without limits.ceiling first runs a pass without
    connectivity: a connected answer stands; else the connected pass runs,
    stopped at the first pass's optimum, a proven ceiling (a cut-short pass
    proves none). The cell ends as optimal once its incumbent reaches
    limits.ceiling, a proven upper bound; an incumbent above it raises
    SolveError. A limit returns the best set so far with its status; the
    budget stays spent, so after a cut-short first pass the connected pass
    stops at once and answers with its connected warm start.
    """
    spec.validate_for(g)
    budget = _Budget(limits)
    ceiling = limits.ceiling
    top, nodes = ceiling, 0
    if spec.connected and ceiling is None:
        members, objective, status, nodes = _cell(g, spec, False, budget, None)
        if is_connected(g, members):
            return Solution(members, objective, status, budget.elapsed(), nodes)
        if status is SolveStatus.OPTIMAL:
            top = objective
    members, objective, status, more = _cell(g, spec, spec.connected, budget, top)
    if ceiling is not None and objective > ceiling:
        raise SolveError(f"incumbent {objective} exceeds the ceiling {ceiling}")
    return Solution(members, objective, status, budget.elapsed(), nodes + more)


def _cell(
    g: Graph, spec: ProblemSpec, connected: bool, budget: _Budget, top: int | None
) -> tuple[tuple[int, ...], int, SolveStatus, int]:
    """One pass of a cell, connected or not, stopped at top if given: its
    vertices, objective, status and nodes explored."""
    if spec.problem is Problem.MQC:
        return _quasi_clique(g, spec.gamma, connected, budget, top)
    found = search(g, spec.k, connected, budget, _warm_fixed(g, spec.k, connected), top)
    return found.vertices, found.objective, found.status, found.nodes_explored


def _quasi_clique(
    g: Graph, gamma: Fraction, connected: bool, budget: _Budget, top: int | None
) -> tuple[tuple[int, ...], int, SolveStatus, int]:
    """The largest set that meets gamma (connected if asked), by decisions.

    The decision at size t is a search for a t-set with need(t) =
    ceil(gamma C(t, 2)) edges from need(t) - 1 and no set, stopped at the
    first set it finds. Removing a minimum-degree vertex never lowers the
    density, so a set meeting gamma on t + 1 vertices holds one on t
    (Pattillo, Youssef & Butenko, EJOR 2013): going up from the warm start,
    the first t that fails proves t - 1 optimal. Connectivity breaks this,
    so the connected flavor scans down from top; the first t that succeeds
    is optimal, and if none does the warm start is. No decision goes above
    top or n.
    """
    num, den = gamma.numerator, gamma.denominator
    nodes = 0
    status = SolveStatus.OPTIMAL

    def decide(t: int) -> tuple[int, ...]:
        """A t-set with need(t) edges, or () if none or a limit hit first."""
        nonlocal nodes, status
        need = -(-num * t * (t - 1) // (2 * den))
        found = search(g, t, connected, budget, (need - 1, None), need)
        nodes += found.nodes_explored
        if found.status is not SolveStatus.INFEASIBLE:
            status = found.status
        return found.vertices

    top = g.n if top is None else min(top, g.n)
    best, members = _warm_threshold(g, gamma, connected)
    if connected:
        while top > best and status is SolveStatus.OPTIMAL:
            if found := decide(top):
                best, members = top, found
            top -= 1
    else:
        while best < top and status is SolveStatus.OPTIMAL:
            found = decide(best + 1)
            if not found:
                break
            best, members = best + 1, found
    return members, best, status, nodes


def completion_bound(weights: Sequence[int], size: int, edges: int, take: int) -> int:
    """An upper bound on the induced edges of chosen plus `take` pool
    vertices (take is at most the pool's size).

    chosen has `size` vertices and `edges` edges inside. With
    a_v = |N(v) & chosen| and b_v = |N(v) & pool|, a completion T adds
    e(chosen, T) + e(T) = (1/2) * sum over T of (2 a_v + |N(v) & T|) edges,
    so half the sum of the `take` largest weights 2 a_v + b_v bounds it: each
    pool-pool edge is counted once, not twice. weights holds those weights
    and any number of zeros, which change no such sum. The bound is also
    capped by all pairs at the target size minus the pairs already missing
    in chosen.
    """
    t = size + take
    cap = t * (t - 1) // 2 - size * (size - 1) // 2 + edges
    bound = edges + sum(sorted(weights, reverse=True)[:take]) // 2
    return bound if bound < cap else cap


def _drop(weights: list[int], masks: tuple[int, ...], pool: int, dropped: int) -> int:
    """The pool without dropped, whose weights become 0 while each of their
    neighbors left in the pool loses 1."""
    pool ^= dropped
    while dropped:
        low = dropped & -dropped
        r = low.bit_length() - 1
        weights[r] = 0
        hood = masks[r] & pool
        while hood:
            bit = hood & -hood
            weights[bit.bit_length() - 1] -= 1
            hood ^= bit
        dropped ^= low
    return pool


def search(
    g: Graph,
    k: int,
    connected: bool,
    budget: _Budget,
    incumbent: _Incumbent,
    stop: int | None = None,
) -> Solution:
    """The include/exclude depth-first search behind every exact engine: the
    k-set with the most edges, connected if asked, that beats the incumbent.

    A node is (chosen, pool, edges inside chosen, weights, split), kept in
    branching-rank labels: vertices are relabelled by descending degree
    (ties by id), so the pool's lowest set bit is the branching vertex,
    include branch first. weights[r] is 2 |N(r) & chosen| + |N(r) & pool|
    for each pool vertex r and 0 for each vertex _drop took out of the pool
    above its lowest bit, so completion_bound reads the list from there on.
    A child moves the branching vertex out of the pool: each pool neighbor
    loses 1 in the exclude child and gains 1 in the include child.

    split is what the node knows of whether chosen | pool is connected: it
    is, if every vertex of split lies in one component of it, so at
    split = 0 it is. Where that can fail, a connected variant walks from
    chosen's lowest vertex with split as the stop mask (a node with chosen
    empty does not walk). A walk that reaches all of split proves the union
    connected; one that cannot runs to the end and gives chosen's component:
    the node is pruned if chosen spans two, and else the pool shrinks to it.
    Either way the union is then connected and split is 0. The include child
    keeps the union and split. The exclude child loses the branching vertex
    v, and each component of the union without v holds a neighbor of v, so
    it adds v's neighbors in the union to split when there are two or more.
    A vertex the budget filter drops is added itself: it lies outside the
    union from then on, so the next walk runs to the end.

    A chosen k-set is a leaf, and replaces the incumbent only if it has
    more edges and is connected when asked; only then is it mapped back to
    sorted original ids. A better set misses at most C(k, 2) - best - 1
    pairs, so the pool loses every vertex whose non-neighbors in chosen,
    added to the pairs chosen misses, exceed that budget; then a node is
    pruned when completion_bound admits no better completion. Only subtrees
    that hold no better set are cut, so the incumbents found are those of
    the full search. It ends as optimal once the incumbent reaches stop.
    """
    order, masks, degrees = _ranking(g)
    k_pairs = k * (k - 1) // 2
    best, members = incumbent
    goal = math.inf if stop is None else stop
    nodes = 0
    everything = (1 << g.n) - 1
    stack = [] if best >= goal else [(0, everything, 0, list(degrees), everything)]
    status = SolveStatus.OPTIMAL
    try:
        while stack:
            chosen, pool, edges, weights, split = stack.pop()
            nodes += 1
            budget.tick()
            size = chosen.bit_count()
            if size == k and edges > best and (
                not connected or reach(masks, chosen, chosen & -chosen) == chosen
            ):
                best = edges
                members = tuple(sorted(order[r] for r in mask_members(chosen)))
                if best >= goal:
                    break
            if size == k or not pool:
                continue
            if connected and chosen:
                if split:
                    component = reach(masks, chosen | pool, chosen & -chosen, split)
                    if split & ~component:
                        if chosen & ~component:
                            continue
                        pool = _drop(weights, masks, pool, pool & ~component)
                        if not pool:
                            continue
                    split = 0
            allow = k_pairs - best - 1 - (size * (size - 1) // 2 - edges)
            # A vertex has at most size non-neighbors in chosen: at
            # allow >= size none is dropped, at allow < 0 all are.
            if allow < size:
                need = size - allow
                dropped, rest = 0, pool
                while rest:
                    low = rest & -rest
                    if (masks[low.bit_length() - 1] & chosen).bit_count() < need:
                        dropped |= low
                    rest ^= low
                pool = _drop(weights, masks, pool, dropped)
                if not pool:
                    continue
                split |= dropped
            if size + pool.bit_count() < k:
                continue
            lo = (pool & -pool).bit_length() - 1
            if completion_bound(weights[lo:], size, edges, k - size) <= best:
                continue
            bit = pool & -pool
            pool ^= bit
            hood = masks[bit.bit_length() - 1]
            excluded = weights.copy()
            rest = hood & pool
            while rest:
                low = rest & -rest
                r = low.bit_length() - 1
                excluded[r] -= 1
                weights[r] += 1
                rest ^= low
            near = hood & (chosen | pool)
            cut = split | near if near & (near - 1) else split
            stack.append((chosen, pool, edges, excluded, cut))
            gained = (hood & chosen).bit_count()
            stack.append((chosen | bit, pool, edges + gained, weights, split))
    except _LimitHit as hit:
        status = hit.status
    if members is None:
        terminal = SolveStatus.INFEASIBLE if status is SolveStatus.OPTIMAL else status
        return Solution((), 0, terminal, nodes_explored=nodes)
    return Solution(members, best, status, nodes_explored=nodes)
