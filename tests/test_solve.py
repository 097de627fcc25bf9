"""Tests for the exact combinatorial solvers."""

from __future__ import annotations

import itertools
import os
import random
import resource
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclique.driver import solve_problem
from qclique.formulations import Connectivity, FormulationError, ProblemSpec
from qclique.graphs import Graph, density, induced_edge_count, is_connected
from qclique.lazy import solve_lazy
from qclique.solve import (
    Limits,
    SolveError,
    SolveStatus,
    _Budget,
    _resident_bytes,
    _warm_fixed,
    _warm_threshold,
    branch_and_bound,
    brute_force,
    completion_bound,
    meets_density,
    search,
)

from conftest import graphs, make_two_k4s, random_graph

GAMMAS = [
    Fraction(1, 10),
    Fraction(3, 10),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(7, 10),
    Fraction(9, 10),
    Fraction(1),
]


def assert_feasible(g: Graph, spec: ProblemSpec, solution) -> None:
    """Structural checks every optimal solution must satisfy."""
    assert solution.status is SolveStatus.OPTIMAL
    members = solution.vertices
    assert members == tuple(sorted(set(members)))
    edges = induced_edge_count(g, members)
    if spec.problem.value == "mqc":
        assert solution.objective == len(members)
        assert meets_density(edges, len(members), spec.gamma)
        if len(members) >= 2:
            assert density(g, members) >= spec.gamma
    else:
        assert len(members) == spec.k
        assert solution.objective == edges
    if spec.connected:
        assert is_connected(g, members)


class TestLimits:
    def test_defaults(self):
        limits = Limits()
        assert limits.time_seconds == 3600.0
        assert limits.memory_bytes == 10 * 10**9

    @pytest.mark.parametrize("bad", [0, -1.5, float("nan"), float("inf"), "10"])
    def test_time_limit_must_be_positive(self, bad):
        with pytest.raises(SolveError, match="time limit"):
            Limits(time_seconds=bad)

    def test_memory_limit_must_be_positive(self):
        with pytest.raises(SolveError, match="memory limit"):
            Limits(memory_bytes=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "1"])
    def test_memory_limit_must_be_finite(self, bad):
        with pytest.raises(SolveError, match="memory limit .* finite"):
            Limits(memory_bytes=bad)

    def test_none_disables(self):
        limits = Limits(time_seconds=None, memory_bytes=None)
        assert limits.time_seconds is None
        assert limits.ceiling is None

    @pytest.mark.parametrize(
        "kwargs, what",
        [
            ({"time_seconds": True}, "time limit"),
            ({"time_seconds": False}, "time limit"),
            ({"memory_bytes": True}, "memory limit"),
        ],
    )
    def test_bools_are_refused(self, kwargs, what):
        with pytest.raises(SolveError, match=what):
            Limits(**kwargs)

    @pytest.mark.parametrize("bad", [-1, True, 2.0, Fraction(3), "3"])
    def test_ceiling_must_be_a_nonnegative_int(self, bad):
        with pytest.raises(SolveError, match="ceiling"):
            Limits(ceiling=bad)


class TestMeetsDensity:
    def test_small_sets_always_pass(self):
        assert meets_density(0, 0, Fraction(1))
        assert meets_density(0, 1, Fraction(1))

    def test_exact_threshold(self):
        # 9 edges on 7 vertices is exactly density 3/7.
        assert meets_density(9, 7, Fraction(3, 7))
        assert not meets_density(8, 7, Fraction(3, 7))

    @given(
        edges=st.integers(min_value=0, max_value=300),
        size=st.integers(min_value=2, max_value=25),
        num=st.integers(min_value=1, max_value=100),
        den=st.integers(min_value=1, max_value=100),
    )
    def test_matches_rational_comparison(self, edges, size, num, den):
        gamma = Fraction(num, den)
        expected = Fraction(2 * edges, size * (size - 1)) >= gamma
        assert meets_density(edges, size, gamma) == expected


class TestBruteForceThreshold:
    def test_triangle_is_its_own_optimum(self, triangle):
        solution = brute_force(triangle, ProblemSpec.mqc(Fraction(1, 2)))
        assert solution.vertices == (0, 1, 2)
        assert solution.objective == 3
        assert solution.status is SolveStatus.OPTIMAL

    def test_path_at_full_density_picks_an_edge(self, path3):
        solution = brute_force(path3, ProblemSpec.mqc(Fraction(1)))
        assert solution.vertices == (0, 1)
        assert solution.objective == 2

    def test_lexicographic_tie_break(self):
        g = Graph.build(4, [(2, 3), (0, 1)])
        solution = brute_force(g, ProblemSpec.mqc(Fraction(1)))
        assert solution.vertices == (0, 1)

    def test_edgeless_graph_keeps_a_singleton(self):
        g = Graph.build(3, [])
        solution = brute_force(g, ProblemSpec.mqc(Fraction(1, 2)))
        assert solution.vertices == (0,)
        assert solution.objective == 1

    def test_connected_variant_shrinks_two_blocks(self, two_k4s):
        free = brute_force(two_k4s, ProblemSpec.mqc(Fraction(3, 7)))
        tied = brute_force(
            two_k4s, ProblemSpec.mqc(Fraction(3, 7), mode=Connectivity.MPR)
        )
        assert free.objective == 8
        assert not is_connected(two_k4s, free.vertices)
        assert tied.objective == 7
        assert is_connected(two_k4s, tied.vertices)

    def test_enumeration_size_guard(self):
        g = Graph.build(26, [])
        with pytest.raises(SolveError, match="n <= 25"):
            brute_force(g, ProblemSpec.mqc(Fraction(1, 2)))

    @given(data=st.data())
    @settings(deadline=None, max_examples=40)
    def test_monotone_in_gamma(self, data):
        g = data.draw(graphs(min_n=1, max_n=7))
        low = data.draw(st.sampled_from(GAMMAS))
        high = data.draw(st.sampled_from(GAMMAS))
        if low > high:
            low, high = high, low
        loose = brute_force(g, ProblemSpec.mqc(low))
        tight = brute_force(g, ProblemSpec.mqc(high))
        assert loose.objective >= tight.objective


class TestBruteForceFixed:
    def test_two_blocks_without_connectivity(self, two_k4s):
        solution = brute_force(two_k4s, ProblemSpec.dks(8))
        assert solution.vertices == (0, 1, 2, 3, 4, 5, 6, 7)
        assert solution.objective == 12

    def test_two_blocks_with_connectivity(self, two_k4s):
        solution = brute_force(
            two_k4s, ProblemSpec.dks(8, mode=Connectivity.CFLOW)
        )
        assert solution.objective == 10
        assert is_connected(two_k4s, solution.vertices)

    def test_lexicographic_first_winner(self):
        g = Graph.build(4, [(0, 1), (2, 3)])
        solution = brute_force(g, ProblemSpec.dks(2))
        assert solution.vertices == (0, 1)

    def test_connected_variant_reports_infeasibility(self):
        g = Graph.build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        solution = brute_force(g, ProblemSpec.dks(5, mode=Connectivity.CSTREE))
        assert solution.status is SolveStatus.INFEASIBLE
        assert solution.vertices == ()
        assert solution.objective == 0

    def test_size_exceeding_graph_is_rejected(self, triangle):
        with pytest.raises(FormulationError, match="exceeds vertex count"):
            brute_force(triangle, ProblemSpec.dks(4))

    def test_combination_budget_guard(self):
        g = Graph.build(40, [])
        with pytest.raises(SolveError, match="enumeration budget"):
            brute_force(g, ProblemSpec.dks(20))


class TestBranchAndBound:
    def test_triangle_connected_threshold(self, triangle):
        spec = ProblemSpec.mqc(Fraction(1, 2), mode=Connectivity.CSTREE)
        solution = branch_and_bound(triangle, spec)
        assert solution.objective == 3
        assert solution.status is SolveStatus.OPTIMAL

    @pytest.mark.parametrize(
        "spec, expected",
        [
            (ProblemSpec.dks(8), 12),
            (ProblemSpec.dks(8, mode=Connectivity.CFLOW), 10),
            (ProblemSpec.mqc(Fraction(3, 7)), 8),
            (ProblemSpec.mqc(Fraction(3, 7), mode=Connectivity.MPR), 7),
        ],
    )
    def test_two_blocks_landmarks(self, two_k4s, spec, expected):
        solution = branch_and_bound(two_k4s, spec)
        assert solution.objective == expected
        assert_feasible(two_k4s, spec, solution)

    def test_connected_variant_infeasibility(self):
        g = Graph.build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        spec = ProblemSpec.dks(5, mode=Connectivity.CSTREE)
        solution = branch_and_bound(g, spec)
        assert solution.status is SolveStatus.INFEASIBLE
        assert solution.vertices == ()

    def test_deterministic_replay(self, two_k4s):
        half = Fraction(1, 2)
        cells = [
            (branch_and_bound, ProblemSpec.mqc(half, mode=Connectivity.CSTREE)),
            (branch_and_bound, ProblemSpec.dks(8, mode=Connectivity.CFLOW)),
            (solve_problem, ProblemSpec.dks(8, mode=Connectivity.LAZY)),
        ]
        for solve, spec in cells:
            first = solve(two_k4s, spec)
            second = solve(two_k4s, spec)
            assert first.vertices == second.vertices
            assert first.nodes_explored == second.nodes_explored
            assert first.cut_rounds == second.cut_rounds

    def test_counters_are_populated(self, two_k4s):
        solution = branch_and_bound(two_k4s, ProblemSpec.dks(4))
        assert solution.nodes_explored > 0
        assert solution.elapsed >= 0.0
        assert solution.cut_rounds is None

    @given(data=st.data())
    @settings(deadline=None, max_examples=60)
    def test_matches_enumeration_on_threshold(self, data):
        g = data.draw(graphs(min_n=1, max_n=8))
        gamma = data.draw(st.sampled_from(GAMMAS))
        connected = data.draw(st.booleans())
        mode = Connectivity.CSTREE if connected else Connectivity.NONE
        spec = ProblemSpec.mqc(gamma, mode=mode)
        exact = brute_force(g, spec)
        fast = branch_and_bound(g, spec)
        assert fast.objective == exact.objective
        assert_feasible(g, spec, fast)

    @given(data=st.data())
    @settings(deadline=None, max_examples=60)
    def test_matches_enumeration_on_fixed(self, data):
        g = data.draw(graphs(min_n=2, max_n=8))
        k = data.draw(st.integers(min_value=2, max_value=g.n))
        connected = data.draw(st.booleans())
        mode = Connectivity.CSTREE if connected else Connectivity.NONE
        spec = ProblemSpec.dks(k, mode=mode)
        exact = brute_force(g, spec)
        fast = branch_and_bound(g, spec)
        assert fast.status is exact.status
        assert fast.objective == exact.objective
        if fast.status is SolveStatus.OPTIMAL:
            assert_feasible(g, spec, fast)

    @given(data=st.data())
    @settings(deadline=None, max_examples=200)
    def test_completion_bounds_are_admissible(self, data):
        g = data.draw(graphs(min_n=1, max_n=8))
        roles = data.draw(st.lists(st.sampled_from("cpx"), min_size=g.n, max_size=g.n))
        chosen = [v for v, role in enumerate(roles) if role == "c"]
        pool = [v for v, role in enumerate(roles) if role == "p"]
        edges = induced_edge_count(g, chosen)
        size = len(chosen)
        # The weights 2 a_v + b_v from scratch, one per pool vertex, with the
        # zero entries the search leaves for vertices dropped from its pool.
        weights = [
            2 * len(set(g.neighbors[v]) & set(chosen))
            + len(set(g.neighbors[v]) & set(pool))
            for v in pool
        ]
        padding = data.draw(st.integers(min_value=0, max_value=4))
        padded = data.draw(st.permutations(weights + [0] * padding))
        missing = size * (size - 1) // 2 - edges
        # The bound it replaces: the top-`take` degrees into chosen | pool.
        into_region = sorted(
            (len(set(g.neighbors[v]) & set(chosen + pool)) for v in pool),
            reverse=True,
        )
        # The bound as documented: half the top-`take` weights 2 a_v + b_v.
        weights.sort(reverse=True)
        for take in range(len(pool) + 1):
            bound = completion_bound(padded, size, edges, take)
            best = max(
                induced_edge_count(g, chosen + list(extra))
                for extra in itertools.combinations(pool, take)
            )
            t = size + take
            old = min(edges + sum(into_region[:take]), t * (t - 1) // 2 - missing)
            assert best <= bound <= old
            cap = t * (t - 1) // 2 - missing
            assert bound == min(edges + sum(weights[:take]) // 2, cap)

    @given(data=st.data())
    @settings(deadline=None, max_examples=40)
    def test_connectivity_never_helps(self, data):
        g = data.draw(graphs(min_n=1, max_n=8))
        gamma = data.draw(st.sampled_from(GAMMAS))
        free = branch_and_bound(g, ProblemSpec.mqc(gamma))
        tied = branch_and_bound(
            g, ProblemSpec.mqc(gamma, mode=Connectivity.CSTREE)
        )
        assert tied.objective <= free.objective


def reference_greedy(g: Graph, connected: bool) -> list[int]:
    """Greedy sequence from scratch: start at the highest degree, then add
    the vertex with the most edges into the set (the connected flavor only
    takes neighbors of the set); ties go to the lowest id."""
    if g.n == 0:
        return []
    sequence = [max(range(g.n), key=lambda v: (g.degree(v), -v))]
    inside = set(sequence)
    while True:
        pool = [
            v
            for v in range(g.n)
            if v not in inside and (not connected or inside & set(g.neighbors[v]))
        ]
        if not pool:
            return sequence
        best = max(pool, key=lambda v: (len(inside & set(g.neighbors[v])), -v))
        sequence.append(best)
        inside.add(best)


def reference_peeling(g: Graph) -> list[tuple[int, ...]]:
    """Every set left while removing a minimum-degree vertex (lowest id)."""
    alive = set(range(g.n))
    states = []
    while alive:
        states.append(tuple(sorted(alive)))
        alive.remove(
            min(alive, key=lambda v: (len(alive & set(g.neighbors[v])), v))
        )
    return states


def reference_warm_threshold(g: Graph, spec: ProblemSpec):
    """Offer every greedy prefix, then every peeling state; keep each
    larger set that meets gamma and, if asked, is connected."""
    best_size, best = 0, ()
    sequence = reference_greedy(g, spec.connected)
    candidates = [
        tuple(sorted(sequence[:size])) for size in range(1, len(sequence) + 1)
    ]
    candidates += reference_peeling(g)
    for members in candidates:
        if (
            len(members) > best_size
            and meets_density(induced_edge_count(g, members), len(members), spec.gamma)
            and (not spec.connected or is_connected(g, members))
        ):
            best_size, best = len(members), members
    return best_size, best


def reference_warm_fixed(g: Graph, spec: ProblemSpec):
    """The first k vertices of the greedy sequence, if it has k."""
    sequence = reference_greedy(g, spec.connected)
    if len(sequence) < spec.k:
        return -1, None
    members = tuple(sorted(sequence[: spec.k]))
    return induced_edge_count(g, members), members


class TestWarmStarts:
    """The warm starts read memoised per-graph seeds; each call must give
    what a from-scratch computation on that very graph gives."""

    @given(data=st.data())
    @settings(deadline=None, max_examples=80)
    def test_memoised_seeds_match_a_fresh_reference(self, data):
        first = data.draw(graphs(min_n=2, max_n=10))
        second = data.draw(graphs(min_n=2, max_n=10))
        relabelled = Graph(
            first.n, first.edges, tuple(f"v{i}" for i in range(first.n))
        )
        for g in (first, second, relabelled, second, first):
            for mode in (Connectivity.NONE, Connectivity.CSTREE):
                gamma = Fraction(data.draw(st.integers(1, 20)), 20)
                spec = ProblemSpec.mqc(gamma, mode=mode)
                warm = _warm_threshold(g, gamma, spec.connected)
                assert warm == reference_warm_threshold(g, spec)
                k = data.draw(st.integers(min_value=2, max_value=g.n))
                spec = ProblemSpec.dks(k, mode=mode)
                assert _warm_fixed(g, k, spec.connected) == reference_warm_fixed(g, spec)

    def test_connected_flavor_skips_a_disconnected_peeling_state(self):
        # A triangle and a lone vertex: the first peeling state is the whole
        # graph, at density exactly 1/2 but in two pieces.
        g = Graph.build(4, [(0, 1), (0, 2), (1, 2)])
        half = Fraction(1, 2)
        assert _warm_threshold(g, half, False) == (4, (0, 1, 2, 3))
        connected = ProblemSpec.mqc(half, mode=Connectivity.CSTREE)
        assert _warm_threshold(g, half, True) == (3, (0, 1, 2))
        assert reference_warm_threshold(g, connected) == (3, (0, 1, 2))

    def test_equal_structure_shares_seeds_whatever_the_labels(self, two_k4s):
        spec = ProblemSpec.mqc(Fraction(1, 2), mode=Connectivity.CSTREE)
        labelled = Graph(two_k4s.n, two_k4s.edges, tuple("abcdefghijk"))
        warm = _warm_threshold(labelled, spec.gamma, True)
        assert warm == _warm_threshold(two_k4s, spec.gamma, True)
        assert warm == reference_warm_threshold(two_k4s, spec)


@st.composite
def seeded_graphs(draw, max_n: int) -> Graph:
    """G(n, p) from a drawn seed: denser than `graphs` draws, and its
    descending-degree branching order is rarely the id order."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    p = draw(st.sampled_from([0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9]))
    return random_graph(random.Random(draw(st.integers(0, 2**32))), n, p)


def assert_answer(g: Graph, spec: ProblemSpec, solution, exact) -> None:
    """solution agrees with the oracle's status and objective, and is a
    valid answer in original ids, checked from the problem statement."""
    assert solution.status is exact.status
    assert solution.objective == exact.objective
    if exact.status is SolveStatus.OPTIMAL:
        assert all(0 <= v < g.n for v in solution.vertices)
        assert_feasible(g, spec, solution)
    else:
        assert solution.vertices == ()


class TestSearchAgainstEnumeration:
    """Every exact engine that runs the search, on every family, agrees
    with brute force, whatever the branching order."""

    @given(data=st.data())
    @settings(deadline=None, max_examples=300)
    def test_every_family_matches_brute_force(self, data):
        g = data.draw(seeded_graphs(max_n=12))
        gamma = Fraction(data.draw(st.integers(1, 20)), 20)
        k = data.draw(st.integers(min_value=2, max_value=g.n))
        for spec in (
            ProblemSpec.mqc(gamma),
            ProblemSpec.mqc(gamma, mode=Connectivity.CSTREE),
            ProblemSpec.dks(k),
        ):
            assert_answer(g, spec, branch_and_bound(g, spec), brute_force(g, spec))
        # Every connected DKS mode is one problem to bnb, with one answer.
        modes = (Connectivity.CSTREE, Connectivity.CFLOW, Connectivity.LAZY)
        first, *others = (
            replace(solve_problem(g, ProblemSpec.dks(k, mode=mode)), elapsed=0.0)
            for mode in modes
        )
        assert all(other == first for other in others)
        assert first.cut_rounds is None
        spec = ProblemSpec.dks(k, mode=Connectivity.CFLOW)
        assert_answer(g, spec, first, brute_force(g, spec))

    def test_one_cut_round_answers(self):
        # The unconstrained optimum is disconnected, so the connected search
        # runs, stopped at that optimum's edge count, and must answer exactly.
        g = Graph.build(
            9, [(0, 7), (0, 8), (1, 4), (1, 8), (2, 3), (2, 6), (3, 6), (5, 6)]
        )
        exact = brute_force(g, ProblemSpec.dks(5, mode=Connectivity.CFLOW))
        assert exact.objective == 4
        solution = solve_problem(g, ProblemSpec.dks(5, mode=Connectivity.LAZY))
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.vertices == (0, 1, 4, 7, 8)
        assert solution.objective == exact.objective
        assert solution.cut_rounds is None

    def test_cut_rounds_under_a_hub_led_order(self):
        # A triangle on 0, 2, 3 and a star centred on 4: the branching order
        # starts 4, 0, 2, 3, and the densest 4-set (the triangle and a star
        # edge) is disconnected: the cut loop, on HiGHS, must cut it off,
        # and bnb must go on to its connected search.
        g = Graph.build(9, [(0, 2), (0, 3), (2, 3), (4, 5), (4, 7), (4, 8)])
        assert solve_lazy(g, 4).cut_rounds >= 1
        for k in range(2, 10):
            spec = ProblemSpec.dks(k, mode=Connectivity.LAZY)
            exact = brute_force(g, ProblemSpec.dks(k, mode=Connectivity.CFLOW))
            assert_answer(g, spec, solve_problem(g, spec), exact)
        for i in range(1, 21):
            spec = ProblemSpec.mqc(Fraction(i, 20), mode=Connectivity.CSTREE)
            assert_answer(g, spec, branch_and_bound(g, spec), brute_force(g, spec))

    @given(data=st.data())
    @settings(deadline=None, max_examples=100)
    def test_relabelling_keeps_every_answer(self, data):
        # Relabelling moves the degree ties, so the branching order and every
        # weight update along it change; the answers must not.
        g = data.draw(seeded_graphs(max_n=14))
        label = data.draw(st.permutations(range(g.n)))
        twin = Graph.build(g.n, [(label[u], label[v]) for u, v in g.edges])
        gamma = Fraction(data.draw(st.integers(1, 20)), 20)
        k = data.draw(st.integers(min_value=2, max_value=g.n))
        for spec in (
            ProblemSpec.mqc(gamma),
            ProblemSpec.mqc(gamma, mode=Connectivity.CSTREE),
            ProblemSpec.dks(k),
            ProblemSpec.dks(k, mode=Connectivity.CSTREE),
        ):
            first, second = branch_and_bound(g, spec), branch_and_bound(twin, spec)
            assert (first.status, first.objective) == (second.status, second.objective)


class TestCeiling:
    """A ceiling at the optimum only skips the proof after it: answers are
    those of the full search, and the search never takes more nodes."""

    @given(data=st.data())
    @settings(deadline=None, max_examples=150)
    def test_ceiling_at_the_optimum_keeps_every_answer(self, data):
        g = data.draw(seeded_graphs(max_n=12))
        mode = data.draw(st.sampled_from([Connectivity.NONE, Connectivity.CSTREE]))
        specs = [ProblemSpec.mqc(Fraction(i, 10), mode=mode) for i in range(1, 11)]
        specs += [ProblemSpec.dks(k) for k in range(2, g.n + 1)]
        for spec in specs:
            full = branch_and_bound(g, spec)
            ceiling = brute_force(g, spec).objective
            capped = branch_and_bound(g, spec, Limits(ceiling=ceiling))
            assert (capped.status, capped.objective, capped.vertices) == (
                full.status,
                full.objective,
                full.vertices,
            )
            assert capped.nodes_explored <= full.nodes_explored

    def test_ceiling_below_the_warm_start_is_refused(self, two_k4s):
        # The greedy warm start is one K4 at gamma = 1.
        spec = ProblemSpec.mqc(Fraction(1))
        assert branch_and_bound(two_k4s, spec, Limits(ceiling=4)).nodes_explored == 0
        with pytest.raises(SolveError, match="exceeds the ceiling 3"):
            branch_and_bound(two_k4s, spec, Limits(ceiling=3))

    def test_ceiling_below_a_later_record_is_refused(self, two_k4s):
        # The warm start has 10 edges; the search's first record has 12.
        spec = ProblemSpec.dks(8)
        assert _warm_fixed(two_k4s, 8, False)[0] == 10
        with pytest.raises(SolveError, match="incumbent 12 exceeds the ceiling 11"):
            branch_and_bound(two_k4s, spec, Limits(ceiling=11))

    def test_other_engines_ignore_the_ceiling(self, two_k4s):
        spec = ProblemSpec.mqc(Fraction(3, 7))
        assert brute_force(two_k4s, spec).objective == 8
        solution = solve_problem(two_k4s, spec, "brute", Limits(ceiling=1))
        assert solution.objective == 8


def _probe_graph() -> Graph:
    """G(105, 0.08) drawn pair by pair in lexicographic order from seed 4242."""
    g = random_graph(random.Random(4242), 105, 0.08)
    assert g.m == 446
    return g


class TestNodesToProof:
    """Exact node counts, mostly on the probe graph. A threshold cell counts
    the nodes of all its fixed-size decisions; each decision stops at the
    first set that qualifies, so a decision that went on to optimise DKS(t)
    would count more. The weights that travel with each node give the very
    bounds a recount would, so a count that moves means an update drifted."""

    def test_clique_proof(self):
        solution = branch_and_bound(_probe_graph(), ProblemSpec.mqc(Fraction(1)))
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == 4
        assert solution.nodes_explored == 111

    def test_densest_five_proof(self):
        solution = branch_and_bound(_probe_graph(), ProblemSpec.dks(5))
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == 8
        assert solution.nodes_explored == 3_147

    @pytest.mark.parametrize(
        "spec, objective, nodes",
        [
            (ProblemSpec.mqc(Fraction(9, 10)), 4, 3_147),
            (ProblemSpec.mqc(Fraction(9, 10), mode=Connectivity.CSTREE), 4, 3_147),
            (ProblemSpec.mqc(Fraction(3, 4)), 5, 39_221),
            (ProblemSpec.mqc(Fraction(3, 4), mode=Connectivity.CSTREE), 5, 39_221),
            (ProblemSpec.dks(5, mode=Connectivity.CSTREE), 8, 3_147),
        ],
        ids=["mqc-9/10", "mcqc-9/10", "mqc-3/4", "mcqc-3/4", "dcks-5"],
    )
    def test_proof_takes_exactly(self, spec, objective, nodes):
        solution = branch_and_bound(_probe_graph(), spec)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == objective
        assert solution.nodes_explored == nodes

    @pytest.mark.parametrize("mode", [Connectivity.NONE, Connectivity.CSTREE])
    def test_decisions_stop_at_the_first_set(self, mode):
        # On the probe graph every pinned warm start is optimal, so every
        # decision fails. On G(40, 0.2) from seed 1 the warm start has 3
        # vertices and the optimum 5: the decisions at 4 and 5 succeed, and
        # going on to the densest 4- and 5-sets would take 359 nodes.
        g = random_graph(random.Random(1), 40, 0.2)
        solution = branch_and_bound(g, ProblemSpec.mqc(Fraction(9, 10), mode=mode))
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.vertices == (3, 21, 22, 24, 33)
        assert solution.nodes_explored == 310


def test_walk_follows_a_budget_drop():
    """Two planted blocks, 0..6 and 7..13, in a sparse background. Here the
    budget filter drops a vertex whose loss splits chosen | pool; the next
    walk must run to the end and cut the pool, as a walk at every node
    does: 143 nodes, where skipping it takes 145."""
    edges = [
        (0, 2), (0, 3), (0, 4), (0, 6), (0, 9), (0, 14), (1, 2), (1, 3),
        (1, 4), (1, 6), (1, 9), (1, 20), (2, 5), (2, 17), (3, 5), (3, 6),
        (3, 19), (3, 21), (3, 23), (4, 5), (4, 6), (4, 16), (5, 6), (5, 15),
        (5, 16), (5, 21), (6, 20), (6, 21), (7, 8), (7, 9), (7, 11), (7, 13),
        (7, 17), (8, 9), (8, 10), (8, 11), (8, 12), (8, 14), (9, 10), (9, 11),
        (9, 12), (9, 13), (9, 18), (9, 19), (10, 11), (10, 12), (10, 14),
        (11, 12), (11, 13), (11, 15), (11, 18), (12, 13), (12, 19), (12, 20),
        (13, 16), (13, 23), (16, 18), (18, 22), (22, 23),
    ]
    g = Graph.build(24, edges)
    # branch_and_bound answers this cell without connectivity: search here.
    warm = _warm_fixed(g, 7, True)
    solution = search(g, 7, True, _Budget(Limits()), warm)
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.objective == 17
    assert solution.vertices == tuple(range(7, 14))
    assert solution.nodes_explored == 143


def test_lazy_probe_cell():
    """bnb solves LAZY mode as every connected mode: the densest 5-set of
    the probe graph is connected, so the search without connectivity proves
    it, in 3,147 nodes, and no cut round runs."""
    spec = ProblemSpec.dks(5, mode=Connectivity.LAZY)
    solution = solve_problem(_probe_graph(), spec, "bnb")
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.objective == 8
    assert solution.vertices == (5, 7, 14, 44, 48)
    assert solution.cut_rounds is None
    assert solution.nodes_explored == 3_147


def test_lazy_round_cut_short_keeps_its_warm_start():
    # The densest 10-set of the probe graph takes minutes to prove; the
    # search without connectivity ends at the budget's first poll, still
    # holding its greedy 10-set of 21 edges. That set is connected, so it
    # stands as the cell's answer.
    g = _probe_graph()
    spec = ProblemSpec.dks(10, mode=Connectivity.LAZY)
    solution = solve_problem(g, spec, "bnb", Limits(time_seconds=1e-3))
    assert solution.status is SolveStatus.TIME_LIMIT
    assert solution.objective >= 21
    assert len(solution.vertices) == 10 and is_connected(g, solution.vertices)
    assert induced_edge_count(g, solution.vertices) == solution.objective


def _sparse_instance() -> tuple[Graph, int]:
    """G(n, p) with n, p and k drawn from seed 0: n = 32, m = 117, k = 7."""
    rng = random.Random(0)
    n = rng.randint(20, 40)
    p = rng.uniform(0.1, 0.3)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    k = rng.randint(6, 14)
    g = Graph.build(n, edges)
    assert (g.n, g.m, k) == (32, 117, 7)
    return g, k


def test_connected_cell_cut_short_keeps_the_free_pass_set():
    # The pass without connectivity ends at the first poll holding a
    # connected 7-set of 15 edges; the connected greedy 7-set has 14. A
    # limit returns the best set so far, so the 15-edge set answers.
    g, k = _sparse_instance()
    spec = ProblemSpec.dks(k, mode=Connectivity.CSTREE)
    solution = branch_and_bound(g, spec, Limits(time_seconds=1e-9))
    assert solution.status is SolveStatus.TIME_LIMIT
    assert len(solution.vertices) == k and is_connected(g, solution.vertices)
    assert solution.objective == induced_edge_count(g, solution.vertices) == 15
    assert _warm_fixed(g, k, True)[0] == 14


def test_spent_budget_stays_spent():
    # Only a poll that passes re-arms the countdown, so a search after a
    # limit hit polls at its first node and keeps its incumbent.
    g, k = _sparse_instance()
    budget = _Budget(Limits(time_seconds=1e-9))
    first = search(g, k, False, budget, _warm_fixed(g, k, False))
    assert first.status is SolveStatus.TIME_LIMIT
    assert first.nodes_explored == 512
    warm = _warm_fixed(g, k, True)
    second = search(g, k, True, budget, warm)
    assert second.status is SolveStatus.TIME_LIMIT
    assert second.nodes_explored == 1
    assert (second.objective, second.vertices) == warm


def _hard_instance() -> tuple[Graph, ProblemSpec]:
    """A seeded instance whose search tree comfortably exceeds one poll."""
    rng = random.Random(4242)
    g = random_graph(rng, 26, 0.5)
    return g, ProblemSpec.mqc(Fraction(3, 4))


class TestResourceLimits:
    def test_instance_is_actually_hard(self):
        g, spec = _hard_instance()
        solution = branch_and_bound(g, spec)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.nodes_explored > 2000

    def test_time_limit_returns_incumbent(self):
        g, spec = _hard_instance()
        solution = branch_and_bound(g, spec, Limits(time_seconds=1e-9))
        assert solution.status is SolveStatus.TIME_LIMIT
        assert solution.vertices
        assert meets_density(
            induced_edge_count(g, solution.vertices),
            len(solution.vertices),
            spec.gamma,
        )

    def test_connected_cell_cut_short_keeps_a_connected_set(self):
        g, spec = _hard_instance()
        spec = ProblemSpec.mqc(spec.gamma, mode=Connectivity.CSTREE)
        solution = branch_and_bound(g, spec, Limits(time_seconds=1e-9))
        assert solution.status is SolveStatus.TIME_LIMIT
        assert solution.objective == len(solution.vertices) > 0
        assert is_connected(g, solution.vertices)
        edges = induced_edge_count(g, solution.vertices)
        assert meets_density(edges, len(solution.vertices), spec.gamma)

    def test_memory_limit_returns_incumbent(self):
        g, spec = _hard_instance()
        solution = branch_and_bound(g, spec, Limits(memory_bytes=1))
        assert solution.status is SolveStatus.MEMORY_LIMIT
        assert solution.vertices

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/statm"),
        reason="the current resident set is read from /proc/self/statm",
    )
    def test_memory_limit_ignores_an_earlier_peak(self):
        g, spec = _hard_instance()
        buffer = b"\x01" * (64 << 20)
        del buffer
        limit = _resident_bytes() + (32 << 20)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        assert peak > limit
        solution = branch_and_bound(g, spec, Limits(memory_bytes=limit))
        assert solution.nodes_explored > 512
        assert solution.status is SolveStatus.OPTIMAL

    def test_limited_run_does_less_work(self):
        g, spec = _hard_instance()
        full = branch_and_bound(g, spec)
        cut = branch_and_bound(g, spec, Limits(time_seconds=1e-9))
        assert cut.nodes_explored <= full.nodes_explored
