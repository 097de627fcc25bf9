"""Graph container, parsers, and combinatorial primitives."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclique.graphs import (
    Graph,
    GraphError,
    boundary_neighbors,
    check_vertex_set,
    components,
    density,
    induced_edge_count,
    is_connected,
    largest_component,
    oriented_arcs,
    parse_edge_list,
    parse_matrix_market,
    reach,
    serialize_edge_list,
)

from conftest import graphs


class TestGraphConstruction:
    def test_build_canonicalizes_pairs(self):
        g = Graph.build(3, [(2, 1), (0, 1), (1, 2)])
        assert g.edges == ((0, 1), (1, 2))

    def test_build_rejects_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph.build(2, [(1, 1)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(GraphError):
            Graph(2, ((0, 2),))

    def test_rejects_unsorted_edges(self):
        with pytest.raises(GraphError):
            Graph(3, ((1, 2), (0, 1)))

    def test_adjacency_symmetric(self):
        g = Graph.build(4, [(0, 1), (1, 3), (0, 3)])
        for i in range(g.n):
            for j in g.neighbors[i]:
                assert i in g.neighbors[j]
        assert sum(len(a) for a in g.neighbors) == 2 * g.m

    def test_labels_length_checked(self):
        with pytest.raises(GraphError):
            Graph(2, (), labels=("a",))

    def test_equality_and_hash_ignore_labels(self):
        plain = Graph.build(3, [(0, 1), (1, 2)])
        labelled = Graph.build(3, [(1, 2), (0, 1)], labels="abc")
        assert plain == labelled
        assert hash(plain) == hash(labelled)
        assert plain != Graph.build(3, [(0, 1)])
        assert repr(labelled) == (
            "Graph(n=3, edges=((0, 1), (1, 2)), labels=('a', 'b', 'c'))"
        )


class TestParseMatrixMarket:
    def test_single_entry(self):
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n1 2\n"
        g = parse_matrix_market(text)
        assert (g.n, g.edges) == (2, ((0, 1),))

    def test_loop_and_mirror_collapse(self):
        text = (
            "%%MatrixMarket matrix coordinate integer general\n"
            "2 2 3\n1 2 1\n2 1 1\n1 1 1\n"
        )
        g = parse_matrix_market(text)
        assert (g.n, g.edges) == (2, ((0, 1),))

    def test_labels_are_one_based(self):
        text = "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 3\n"
        g = parse_matrix_market(text)
        assert g.labels == ("1", "2", "3")

    def test_rejects_array_format(self):
        with pytest.raises(GraphError, match="line 1.*coordinate"):
            parse_matrix_market("%%MatrixMarket matrix array real general\n2 2\n1\n")

    def test_rejects_bad_header(self):
        with pytest.raises(GraphError, match="line 1"):
            parse_matrix_market("not a header\n1 1 0\n")

    def test_out_of_range_entry_names_line(self):
        text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 3\n"
        with pytest.raises(GraphError, match="line 3"):
            parse_matrix_market(text)

    def test_isolated_vertices_kept(self):
        text = "%%MatrixMarket matrix coordinate pattern general\n5 5 1\n1 2\n"
        g = parse_matrix_market(text)
        assert g.n == 5
        assert g.m == 1


class TestParseEdgeList:
    def test_base0_path(self):
        g = parse_edge_list("0 1\n1 2\n", base=0)
        assert (g.n, g.edges) == (3, ((0, 1), (1, 2)))

    def test_base1_with_e_prefix(self):
        g = parse_edge_list("e 1 2\ne 2 3\n", base=1)
        assert (g.n, g.edges) == (3, ((0, 1), (1, 2)))
        assert g.labels == ("1", "2", "3")

    def test_empty_input_is_error(self):
        with pytest.raises(GraphError, match="no edges"):
            parse_edge_list("", base=0)
        with pytest.raises(GraphError, match="no edges"):
            parse_edge_list("c just a comment\n", base=0)

    def test_token_count_error_names_line(self):
        with pytest.raises(GraphError, match="line 2"):
            parse_edge_list("0 1\n1 2 3\n", base=0)

    def test_negative_id_rejected(self):
        with pytest.raises(GraphError, match="below base"):
            parse_edge_list("-1 0\n", base=0)

    def test_zero_rejected_in_base1(self):
        with pytest.raises(GraphError, match="below base"):
            parse_edge_list("0 1\n", base=1)

    def test_problem_line_sets_n(self):
        g = parse_edge_list("p edge 5 1\n0 1\n", base=0)
        assert g.n == 5

    def test_id_beyond_problem_line_rejected(self):
        with pytest.raises(GraphError, match="declared"):
            parse_edge_list("p edge 2 1\n0 5\n", base=0)

    def test_loops_and_duplicates_dropped(self):
        g = parse_edge_list("1 1\n1 2\n2 1\n", base=1)
        assert g.edges == ((0, 1),)


class TestSerialization:
    def test_round_trip_with_isolated_vertices(self):
        g = Graph.build(6, [(0, 5), (1, 2)])
        assert parse_edge_list(serialize_edge_list(g), base=0) == g

    @settings(max_examples=200)
    @given(graphs())
    def test_round_trip_is_identity(self, g):
        assert parse_edge_list(serialize_edge_list(g), base=0) == g

    @settings(max_examples=100)
    @given(graphs())
    def test_fingerprint_ignores_labels(self, g):
        relabeled = Graph(g.n, g.edges, tuple(f"v{i}" for i in range(g.n)))
        assert relabeled.fingerprint() == g.fingerprint()


class TestDensity:
    def test_complete_graph(self, triangle):
        assert density(triangle, [0, 1, 2]) == 1

    def test_path_two_thirds(self, path3):
        assert density(path3, [0, 1, 2]) == Fraction(2, 3)

    def test_singleton_is_one(self, path3):
        assert density(path3, [2]) == 1

    def test_empty_set_is_error(self, path3):
        with pytest.raises(GraphError, match="empty"):
            density(path3, [])

    def test_out_of_range_vertex(self, path3):
        with pytest.raises(GraphError, match="out of range"):
            density(path3, [0, 7])

    def test_duplicate_vertex(self, path3):
        with pytest.raises(GraphError, match="duplicate"):
            density(path3, [1, 1])

    @settings(max_examples=200)
    @given(graphs(min_n=1), st.data())
    def test_density_in_unit_interval_and_one_iff_complete(self, g, data):
        s = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=g.n - 1),
                min_size=1,
                unique=True,
            )
        )
        d = density(g, s)
        assert 0 <= d <= 1
        size = len(s)
        complete = induced_edge_count(g, s) == size * (size - 1) // 2
        assert (d == 1) == (complete or size == 1)


def reference_check_vertex_set(g: Graph, s) -> tuple[int, ...]:
    """The per-vertex loop check_vertex_set replaced: every vertex against
    the range, then every adjacent sorted pair for a repeat."""
    out = sorted(s)
    for v in out:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} out of range for n={g.n}")
    for a, b in zip(out, out[1:]):
        if a == b:
            raise GraphError(f"duplicate vertex {a} in set")
    return tuple(out)


class TestCheckVertexSet:
    @settings(max_examples=300)
    @given(graphs(), st.data())
    def test_matches_the_loop_version(self, g, data):
        # Unsorted ids from below 0 to above n, repeats allowed.
        s = data.draw(st.lists(st.integers(min_value=-3, max_value=g.n + 3)))
        try:
            expected = reference_check_vertex_set(g, s)
        except GraphError as exc:
            with pytest.raises(GraphError) as caught:
                check_vertex_set(g, s)
            assert type(caught.value) is type(exc)
            assert str(caught.value) == str(exc)
        else:
            assert check_vertex_set(g, s) == expected

    @pytest.mark.parametrize(
        "s, message",
        [
            ([2, 5, -1, 7, 2], "vertex -1 out of range for n=4"),
            ([3, 9, 4, 1, 6], "vertex 4 out of range for n=4"),
            ([3, 1, 3, 1], "duplicate vertex 1 in set"),
        ],
    )
    def test_names_the_smallest_offender(self, s, message):
        g = Graph.build(4, [(0, 1)])
        with pytest.raises(GraphError, match=f"^{message}$"):
            check_vertex_set(g, s)
        with pytest.raises(GraphError, match=f"^{message}$"):
            reference_check_vertex_set(g, s)


class TestConnectivity:
    def test_path_connected(self, path3):
        assert is_connected(path3, [0, 1, 2])

    def test_path_endpoints_disconnected(self, path3):
        assert not is_connected(path3, [0, 2])
        assert components(path3, [0, 2]) == [(0,), (2,)]

    def test_two_triangles_with_bridge(self):
        g = Graph.build(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
        assert not is_connected(g, [0, 1, 2, 4, 5])
        assert components(g, [0, 1, 2, 4, 5]) == [(0, 1, 2), (4, 5)]

    def test_empty_and_singleton_connected(self, path3):
        assert is_connected(path3, [])
        assert is_connected(path3, [1])

    @settings(max_examples=200)
    @given(graphs(min_n=1), st.data())
    def test_components_partition(self, g, data):
        s = data.draw(
            st.lists(st.integers(min_value=0, max_value=g.n - 1), unique=True)
        )
        comps = components(g, s)
        flattened = sorted(v for comp in comps for v in comp)
        assert flattened == sorted(s)
        assert is_connected(g, s) == (len(comps) <= 1)
        # A union-find over the edges inside s, independent of the walk.
        parent = {v: v for v in s}

        def root(v):
            while parent[v] != v:
                v = parent[v]
            return v

        inside = [(i, j) for i, j in g.edges if i in parent and j in parent]
        for i, j in inside:
            parent[root(i)] = root(j)
        parts: dict[int, list[int]] = {}
        for v in sorted(s):
            parts.setdefault(root(v), []).append(v)
        assert sorted(comps) == sorted(tuple(part) for part in parts.values())
        assert all(list(comp) == sorted(comp) for comp in comps)
        assert [comp[0] for comp in comps] == sorted(comp[0] for comp in comps)
        assert induced_edge_count(g, s) == len(inside)

    @settings(max_examples=300)
    @given(graphs(min_n=1, max_n=10), st.data())
    def test_stop_mask_reached_exactly_within_one_component(self, g, data):
        vertex = st.integers(min_value=0, max_value=g.n - 1)
        within = data.draw(st.sets(vertex, min_size=1))
        targets = data.draw(st.sets(st.sampled_from(sorted(within)), min_size=1))
        seed = data.draw(st.sampled_from(sorted(within)))
        home = next(set(c) for c in components(g, within) if seed in c)
        seen = reach(g.masks, _mask(within), 1 << seed, _mask(targets))
        reached = _mask(targets) & ~seen == 0
        # With the seed among the targets: all targets lie in one component.
        assert reached == (targets <= home)
        assert seen & ~_mask(home) == 0 and seen >> seed & 1
        if not reached:
            # A walk that cannot reach every target runs to the end.
            assert seen == _mask(home)


def _mask(vertices) -> int:
    return sum(1 << v for v in vertices)


class TestBoundaryNeighbors:
    def test_triangle_single_vertex(self, triangle):
        assert boundary_neighbors(triangle, [0]) == (1, 2)

    def test_bridge_case(self):
        g = Graph.build(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
        assert boundary_neighbors(g, [4, 5]) == (3,)

    def test_all_vertices_has_empty_boundary(self, triangle):
        assert boundary_neighbors(triangle, [0, 1, 2]) == ()

    @settings(max_examples=200)
    @given(graphs(min_n=1, max_n=10), st.data())
    def test_boundary_disjoint_and_adjacent(self, g, data):
        c = data.draw(
            st.lists(st.integers(min_value=0, max_value=g.n - 1), unique=True)
        )
        inside = set(c)
        bound = boundary_neighbors(g, c)
        for v in bound:
            assert v not in inside
            assert any(w in inside for w in g.neighbors[v])
        for v in range(g.n):
            if v not in inside and any(w in inside for w in g.neighbors[v]):
                assert v in bound


class TestLargestComponent:
    def test_connected_graph_identity(self, triangle):
        sub, mapping = largest_component(triangle)
        assert sub is triangle
        assert mapping == {0: 0, 1: 1, 2: 2}

    def test_triangle_beats_isolated_edge(self):
        g = Graph.build(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
        sub, mapping = largest_component(g)
        assert sub.n == 3 and sub.m == 3
        assert mapping == {0: 0, 1: 1, 2: 2}

    def test_k4_beats_triangle(self):
        edges = [(0, 1), (0, 2), (1, 2)]
        edges += [(3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)]
        sub, mapping = largest_component(Graph.build(7, edges))
        assert sub.n == 4 and sub.m == 6
        assert mapping == {3: 0, 4: 1, 5: 2, 6: 3}

    def test_tie_goes_to_smallest_original_id(self):
        g = Graph.build(4, [(2, 3), (0, 1)])
        sub, mapping = largest_component(g)
        assert mapping == {0: 0, 1: 1}

    def test_empty_graph(self):
        sub, mapping = largest_component(Graph(0, ()))
        assert sub.n == 0 and mapping == {}

    def test_component_found_once_per_graph_object(self):
        g = Graph.build(5, [(0, 1), (1, 2), (3, 4)])
        (sub, first), (again, second) = largest_component(g), largest_component(g)
        assert sub is again
        assert first == second == {0: 0, 1: 1, 2: 2}
        first[0] = 9
        assert largest_component(g)[1] == second
        # An equal graph gets its own component object, with its own labels.
        twin = Graph(5, g.edges, labels=tuple("abcde"))
        assert twin == g and largest_component(twin)[0] is not sub
        assert largest_component(twin)[0].labels == ("a", "b", "c")

    def test_labels_follow_vertices(self):
        g = Graph(4, ((2, 3),), labels=("a", "b", "c", "d"))
        sub, _ = largest_component(g)
        assert sub.labels == ("c", "d")

    @settings(max_examples=200)
    @given(graphs(min_n=1))
    def test_output_is_connected(self, g):
        sub, mapping = largest_component(g)
        assert is_connected(sub)
        assert len(set(mapping.values())) == len(mapping) == sub.n


class TestOrientedArcs:
    def test_unrooted_count(self, triangle):
        arcs = oriented_arcs(triangle)
        assert len(arcs) == 2 * triangle.m
        assert all(a < triangle.n for a, _ in arcs)

    def test_rooted_count_and_sentinel(self, triangle):
        arcs = oriented_arcs(triangle, rooted=True)
        assert len(arcs) == 2 * triangle.m + triangle.n
        root_arcs = [a for a in arcs if a[0] == triangle.n]
        assert root_arcs == [(3, 0), (3, 1), (3, 2)]

    def test_edge_arcs_paired(self, path3):
        arcs = oriented_arcs(path3)
        assert arcs == ((0, 1), (1, 0), (1, 2), (2, 1))
