"""Answer checks that do not rely on the program under test.

Standard library only, and nothing from qclique: every answer is judged
against adjacency sets rebuilt from the generated edge list.

check_answer judges one cell on its own. The property checks judge a whole
round of cells against each other: the threshold optimum may not grow as
gamma rises, a connected optimum may not beat the unconstrained one, all
encodings of one connected cell agree, LP and MPS agree, and no answer falls
below a planted block that the cell admits.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

OK_STATUSES = ("optimal", "infeasible")


@dataclass(frozen=True)
class Answer:
    """One solved cell as the program reported it.

    problem is "mqc" (param is gamma, objective the set size) or "dks"
    (param is k, objective the induced edge count); mode is the
    connectivity mode's name, "none" for the unconstrained problem. tag
    tells apart answers to the same cell reached by different routes, such
    as the LP and MPS files of one model.
    """

    problem: str
    param: Fraction | int
    mode: str
    status: str
    vertices: tuple[int, ...]
    objective: int
    tag: str = ""

    @property
    def key(self) -> tuple[str, Fraction | int]:
        return (self.problem, self.param)


def adjacency(n: int, edges: Iterable[tuple[int, int]]) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def induced_edges(adj: Sequence[set[int]], members: Iterable[int]) -> int:
    inside = set(members)
    return sum(len(adj[v] & inside) for v in inside) // 2


def connected(adj: Sequence[set[int]], members: Iterable[int]) -> bool:
    """Breadth-first search inside the set; empty and singletons count."""
    inside = set(members)
    if len(inside) <= 1:
        return True
    start = min(inside)
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in adj[v] & inside:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(inside)


def dense_enough(edges: int, size: int, gamma: Fraction) -> bool:
    """2e / (s(s-1)) >= gamma by integer cross-multiplication."""
    if size <= 1:
        return True
    return 2 * edges * gamma.denominator >= gamma.numerator * size * (size - 1)


def check_answer(adj: Sequence[set[int]], answer: Answer) -> list[str]:
    """Everything wrong with one answer; an empty list means it holds."""
    where = f"{answer.problem} {answer.param} {answer.mode}{answer.tag}"
    if answer.status not in OK_STATUSES:
        return [f"{where}: ended {answer.status}"]
    members = answer.vertices
    if answer.status == "infeasible":
        if members or answer.objective != 0:
            return [f"{where}: infeasible but reports {members}"]
        if answer.problem == "mqc":
            return [f"{where}: a threshold problem always has a singleton"]
        return []
    problems = []
    if len(set(members)) != len(members):
        problems.append(f"{where}: repeated vertices in {members}")
    if any(not 0 <= v < len(adj) for v in members):
        problems.append(f"{where}: vertex out of range in {members}")
        return problems
    if not members:
        return problems + [f"{where}: optimal answer with no vertices"]
    size = len(set(members))
    edges = induced_edges(adj, members)
    if answer.problem == "mqc":
        if not dense_enough(edges, size, Fraction(answer.param)):
            problems.append(
                f"{where}: density {edges}/{size * (size - 1) // 2} below gamma"
            )
        value = size
    else:
        if size != answer.param:
            problems.append(f"{where}: {size} vertices, k is {answer.param}")
        value = edges
    if answer.objective != value:
        problems.append(f"{where}: objective {answer.objective}, recomputed {value}")
    if answer.mode != "none" and not connected(adj, members):
        problems.append(f"{where}: disconnected set in a connected mode")
    return problems


def block_value(
    adj: Sequence[set[int]], block: Sequence[int], problem: str, param, need_connected: bool
) -> int | None:
    """The best value a cell can reach inside one planted block, or None
    when the block admits no answer to the cell."""
    if problem == "mqc":
        for size in range(len(block), 0, -1):
            for subset in itertools.combinations(block, size):
                if dense_enough(induced_edges(adj, subset), size, Fraction(param)) and (
                    not need_connected or connected(adj, subset)
                ):
                    return size
        return None
    if param > len(block):
        return None
    values = [
        induced_edges(adj, subset)
        for subset in itertools.combinations(block, param)
        if not need_connected or connected(adj, subset)
    ]
    return max(values) if values else None


def check_properties(
    adj: Sequence[set[int]],
    answers: Sequence[Answer],
    blocks: Sequence[Sequence[int]] = (),
) -> list[str]:
    """Cross-cell checks over the answers that passed check_answer."""
    problems = []
    by_cell: dict[tuple, list[Answer]] = {}
    for a in answers:
        by_cell.setdefault(a.key, []).append(a)

    # All encodings (and routes) of one connected cell give one objective;
    # repeats of the unconstrained cell agree with each other too.
    for key, group in by_cell.items():
        for connected_mode in (False, True):
            values = {
                (a.mode + a.tag): a.objective
                for a in group
                if (a.mode != "none") == connected_mode
            }
            if len(set(values.values())) > 1:
                problems.append(f"{key}: encodings disagree {sorted(values.items())}")
        free = [a for a in group if a.mode == "none"]
        if any(a.status == "infeasible" for a in free):
            problems.append(f"{key}: unconstrained cell infeasible")
        elif free:
            ceiling = max(a.objective for a in free)
            for a in group:
                if a.mode != "none" and a.objective > ceiling:
                    problems.append(
                        f"{key}: connected {a.mode} {a.objective} above unconstrained {ceiling}"
                    )

    # The threshold optimum does not increase as gamma rises.
    series: dict[str, list[tuple[Fraction, int]]] = {}
    for a in answers:
        if a.problem == "mqc":
            series.setdefault(a.mode + a.tag, []).append((Fraction(a.param), a.objective))
    for name, points in series.items():
        points.sort()
        for (g1, v1), (g2, v2) in zip(points, points[1:]):
            if g2 > g1 and v2 > v1:
                problems.append(f"mqc {name}: optimum rises from {v1} at {g1} to {v2} at {g2}")

    # A planted block the cell admits is a lower bound on its answer.
    floors: dict[tuple, int | None] = {}
    for a in answers:
        for b, block in enumerate(blocks):
            key = (b, a.problem, a.param, a.mode != "none")
            if key not in floors:
                floors[key] = block_value(adj, block, *key[1:])
            floor = floors[key]
            if floor is not None and (a.status != "optimal" or a.objective < floor):
                problems.append(
                    f"{a.problem} {a.param} {a.mode}{a.tag}: {a.objective} below block value {floor}"
                )
    return problems
