"""Exact combinatorial solvers: exhaustive enumeration and branch and bound.

brute_force is the oracle: it enumerates subsets outright and is intended for
desk-scale validation only. branch_and_bound handles the same four problems
(size maximization at a density threshold, edge maximization at a fixed size,
and their connected variants) with admissible pruning, and must agree with
the oracle wherever the oracle can run.

Both work in exact integer/rational arithmetic; density thresholds are
compared by cross-multiplication, never through floats.
"""

from __future__ import annotations

import itertools
import math
import resource
import sys
import time
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

from .formulations import Certificate, Problem, ProblemSpec
from .graphs import Graph, boundary_neighbors, induced_edge_count, is_connected


class SolveError(ValueError):
    """Raised when a solver's preconditions are not met."""


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    TIME_LIMIT = "time_limit"
    INFEASIBLE = "infeasible"
    MEMORY_LIMIT = "memory_limit"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Limits:
    """Effort limits for a single solve. None disables a limit."""

    time_seconds: float | None = 3600.0
    memory_bytes: int | None = 10 * 10**9

    def __post_init__(self) -> None:
        if self.time_seconds is not None and self.time_seconds <= 0:
            raise SolveError(f"time limit must be positive, got {self.time_seconds}")
        if self.memory_bytes is not None and self.memory_bytes <= 0:
            raise SolveError(f"memory limit must be positive, got {self.memory_bytes}")


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
    certificate: Certificate | None = None
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
    """Time/memory watchdog, polled every few hundred solver nodes."""

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
        self._countdown = self._POLL
        if (
            self.limits.time_seconds is not None
            and self.elapsed() > self.limits.time_seconds
        ):
            raise _LimitHit(SolveStatus.TIME_LIMIT)
        if self.limits.memory_bytes is not None:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if sys.platform != "darwin":
                peak *= 1024
            if peak > self.limits.memory_bytes:
                raise _LimitHit(SolveStatus.MEMORY_LIMIT)


def _mask_members(mask: int) -> tuple[int, ...]:
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return tuple(members)


def _connected_mask(masks: tuple[int, ...], within: int, seed: int) -> int:
    """Vertices reachable from the seed bit inside the `within` mask."""
    seen = seed
    frontier = seed
    while frontier:
        grown = 0
        rest = frontier
        while rest:
            low = rest & -rest
            grown |= masks[low.bit_length() - 1]
            rest ^= low
        frontier = grown & within & ~seen
        seen |= frontier
    return seen


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
        members = _mask_members(current)
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


def _static_order(g: Graph) -> list[int]:
    return sorted(range(g.n), key=lambda v: (-g.degree(v), v))


def _greedy_sequence(g: Graph, connected: bool) -> list[int]:
    """Vertices added greedily by edges-into-set (ties to the lowest id).

    The connected flavor only grows through neighbors of the current set, so
    every prefix is connected; it stops at the component boundary.
    """
    if g.n == 0:
        return []
    start = max(range(g.n), key=lambda v: (g.degree(v), -v))
    chosen = [start]
    inside = {start}
    while len(chosen) < g.n:
        if connected:
            pool = boundary_neighbors(g, chosen)
        else:
            pool = [v for v in range(g.n) if v not in inside]
        if not pool:
            break
        def gain(v: int) -> tuple[int, int]:
            return (sum(1 for w in g.neighbors[v] if w in inside), -v)

        nxt = max(pool, key=gain)
        chosen.append(nxt)
        inside.add(nxt)
    return chosen


def _peeling_sequence(g: Graph) -> list[tuple[int, ...]]:
    """Sets obtained by repeatedly removing a minimum-degree vertex."""
    alive = set(range(g.n))
    degrees = {v: g.degree(v) for v in alive}
    states = []
    while alive:
        states.append(tuple(sorted(alive)))
        victim = min(alive, key=lambda v: (degrees[v], v))
        alive.remove(victim)
        for w in g.neighbors[victim]:
            if w in alive:
                degrees[w] -= 1
    return states


def _warm_threshold(g: Graph, spec: ProblemSpec) -> tuple[int, tuple[int, ...]]:
    gamma = spec.gamma
    best_size, best = 0, ()

    def offer(members: tuple[int, ...]) -> None:
        nonlocal best_size, best
        if len(members) <= best_size:
            return
        edges = induced_edge_count(g, members)
        if not meets_density(edges, len(members), gamma):
            return
        if spec.connected and not is_connected(g, members):
            return
        best_size, best = len(members), tuple(sorted(members))

    sequence = _greedy_sequence(g, spec.connected)
    for cut in range(1, len(sequence) + 1):
        offer(tuple(sorted(sequence[:cut])))
    # Density is preserved under minimum-degree peeling only from gamma 1/2
    # up, so the peeling states are offered as seeds just in that regime.
    if gamma >= Fraction(1, 2):
        for members in _peeling_sequence(g):
            offer(members)
    return best_size, best


def _warm_fixed(g: Graph, spec: ProblemSpec) -> tuple[int, tuple[int, ...] | None]:
    sequence = _greedy_sequence(g, spec.connected)
    if len(sequence) < spec.k:
        return -1, None
    members = tuple(sorted(sequence[: spec.k]))
    return induced_edge_count(g, members), members


def branch_and_bound(
    g: Graph, spec: ProblemSpec, limits: Limits = Limits()
) -> Solution:
    """Exact solver over include/exclude decisions with admissible bounds.

    Vertices are branched in descending-degree order (ties by id), include
    branch first, from a greedy warm start. A node is pruned when no
    completion can beat the incumbent: for the density threshold this means
    no admissible target size survives an exact upper bound on completable
    edges; for fixed cardinality, the same edge bound at size k. Connected
    variants also prune nodes whose chosen set spans more than one component
    of the remaining graph. Hitting a limit returns the incumbent with the
    corresponding status instead of raising.
    """
    spec.validate_for(g)
    budget = _Budget(limits)
    runner = _bnb_threshold if spec.problem is Problem.MQC else _bnb_fixed
    solution = runner(g, spec, budget)
    return replace(solution, elapsed=budget.elapsed())


def _bnb_threshold(g: Graph, spec: ProblemSpec, budget: _Budget) -> Solution:
    gamma = spec.gamma
    masks = g.masks
    order = _static_order(g)
    best_size, best = _warm_threshold(g, spec)
    nodes = 0
    full = (1 << g.n) - 1
    stack: list[tuple[int, int, int]] = [(0, full, 0)]
    status = SolveStatus.OPTIMAL
    try:
        while stack:
            chosen, pool, edges = stack.pop()
            nodes += 1
            budget.tick()
            size = chosen.bit_count()
            if size > best_size and meets_density(edges, size, gamma):
                members = _mask_members(chosen)
                if not spec.connected or is_connected(g, members):
                    best_size, best = size, members
            if not pool:
                continue
            if spec.connected and chosen:
                component = _connected_mask(
                    masks, chosen | pool, chosen & -chosen
                )
                if chosen & ~component:
                    continue
                pool &= component
                if not pool:
                    continue
            if not _threshold_can_improve(
                g, chosen, pool, edges, best_size, gamma
            ):
                continue
            vertex = next(v for v in order if pool >> v & 1)
            bit = 1 << vertex
            stack.append((chosen, pool ^ bit, edges))
            stack.append(
                (chosen | bit, pool ^ bit, edges + (masks[vertex] & chosen).bit_count())
            )
    except _LimitHit as hit:
        status = hit.status
    return Solution(best, best_size, status, nodes_explored=nodes)


def _threshold_can_improve(
    g: Graph, chosen: int, pool: int, edges: int, best_size: int, gamma: Fraction
) -> bool:
    """Whether any completion of (chosen, pool) can beat best_size.

    For each candidate target size t, the completable edge count is bounded
    by both (current edges + the t largest candidate degrees into the
    region) and (all pairs at size t minus the pairs already missing inside
    the chosen set); the node survives if some t passes the exact density
    comparison.
    """
    size = chosen.bit_count()
    total = size + pool.bit_count()
    if total <= best_size:
        return False
    region = chosen | pool
    weights = sorted(
        ((g.masks[v] & region).bit_count() for v in _mask_members(pool)),
        reverse=True,
    )
    prefix = [0]
    for w in weights:
        prefix.append(prefix[-1] + w)
    missing = size * (size - 1) // 2 - edges
    num, den = gamma.numerator, gamma.denominator
    for t in range(total, max(best_size, size - 1), -1):
        take = max(t - size, 0)
        bound = min(edges + prefix[take], t * (t - 1) // 2 - missing)
        if 2 * bound * den >= num * t * (t - 1):
            return True
    return False


def _bnb_fixed(g: Graph, spec: ProblemSpec, budget: _Budget) -> Solution:
    k = spec.k
    masks = g.masks
    order = _static_order(g)
    best_edges, best = _warm_fixed(g, spec)
    nodes = 0
    full = (1 << g.n) - 1
    stack: list[tuple[int, int, int]] = [(0, full, 0)]
    status = SolveStatus.OPTIMAL
    try:
        while stack:
            chosen, pool, edges = stack.pop()
            nodes += 1
            budget.tick()
            size = chosen.bit_count()
            if size == k:
                if edges > best_edges:
                    members = _mask_members(chosen)
                    if not spec.connected or is_connected(g, members):
                        best_edges, best = edges, members
                continue
            if size + pool.bit_count() < k:
                continue
            if spec.connected and chosen:
                component = _connected_mask(
                    masks, chosen | pool, chosen & -chosen
                )
                if chosen & ~component:
                    continue
                pool &= component
                if size + pool.bit_count() < k:
                    continue
            region = chosen | pool
            weights = sorted(
                ((masks[v] & region).bit_count() for v in _mask_members(pool)),
                reverse=True,
            )
            take = k - size
            bound = min(
                edges + sum(weights[:take]),
                k * (k - 1) // 2 - (size * (size - 1) // 2 - edges),
            )
            if bound <= best_edges:
                continue
            vertex = next(v for v in order if pool >> v & 1)
            bit = 1 << vertex
            stack.append((chosen, pool ^ bit, edges))
            stack.append(
                (chosen | bit, pool ^ bit, edges + (masks[vertex] & chosen).bit_count())
            )
    except _LimitHit as hit:
        status = hit.status
    if best is None:
        terminal = (
            SolveStatus.INFEASIBLE if status is SolveStatus.OPTIMAL else status
        )
        return Solution((), 0, terminal, nodes_explored=nodes)
    return Solution(best, best_edges, status, nodes_explored=nodes)
