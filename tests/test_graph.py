"""Graph construction, generators, and file formats."""

import io
import math

import pytest

from polyroute import (
    GraphError,
    build_graph,
    generate_grid,
    generate_random_connected,
    load_dimacs,
    load_edge_list,
    save_dimacs,
    save_edge_list,
    shortest_path_tree,
)


class TestBuildGraph:
    def test_single_edge_symmetry(self):
        g = build_graph(2, [(0, 1, 1)])
        assert g.adjacency[0] == [(1, 1)]
        assert g.adjacency[1] == [(0, 1)]
        assert g.edge_count == 1

    def test_path_fixture(self, p6):
        assert p6.vertex_count == 6
        assert p6.edge_count == 5
        assert p6.adjacency[0] == [(1, 1)]
        assert p6.adjacency[3] == [(2, 1), (4, 1)]
        assert p6.is_connected()

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            build_graph(3, [(0, 1, 1), (0, 1, 2)])

    def test_duplicate_reversed_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            build_graph(3, [(0, 1, 1), (1, 0, 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            build_graph(3, [(1, 1, 1)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(GraphError, match="nonpositive"):
            build_graph(2, [(0, 1, 0)])
        with pytest.raises(GraphError, match="nonpositive"):
            build_graph(2, [(0, 1, -3)])

    def test_infinite_weight_rejected(self):
        with pytest.raises(GraphError, match=r"edge \(0,1\) has non-finite"):
            build_graph(2, [(0, 1, math.inf)])

    def test_huge_int_next_to_float_rejected(self):
        edges = [(0, 1, 2**53 + 1), (1, 2, 0.5), (0, 2, 2**53)]
        with pytest.raises(
            GraphError, match=r"edge \(0,1\) has int weight 9007199254740993"
        ):
            build_graph(3, edges)
        # just below 2**53 every int is a double
        assert build_graph(3, [(0, 1, 2**53 - 1), (1, 2, 0.5)]).edge_count == 2

    def test_huge_int_weights_alone_stay_exact(self):
        g = build_graph(3, [(0, 1, 2**53 + 1), (1, 2, 1), (0, 2, 2**53)])
        assert shortest_path_tree(g, 0).dist[1] == 2**53 + 1

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            build_graph(2, [(0, 2, 1)])

    def test_adjacency_sorted_regardless_of_input_order(self):
        a = build_graph(4, [(0, 3, 1), (0, 1, 2), (0, 2, 3)])
        b = build_graph(4, [(0, 1, 2), (0, 2, 3), (0, 3, 1)])
        assert a == b
        assert a.adjacency[0] == [(1, 2), (2, 3), (3, 1)]

    def test_edges_iterates_each_once(self, grid2):
        assert sorted(grid2.edges()) == [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)]


class TestDimacs:
    def test_reciprocal_merge(self):
        g = load_dimacs("p sp 2 2\na 1 2 3\na 2 1 3")
        assert g.vertex_count == 2
        assert g.edge_count == 1
        assert g.adjacency[0] == [(1, 3)]

    def test_one_directional_arc_is_undirected(self):
        g = load_dimacs("p sp 2 1\na 1 2 4")
        assert g.adjacency[1] == [(0, 4)]

    def test_nonpositive_weight_error(self):
        with pytest.raises(GraphError, match="nonpositive"):
            load_dimacs("p sp 2 1\na 1 2 0")

    @pytest.mark.parametrize("weight", ["inf", "nan", "-inf"])
    def test_non_finite_weight_error(self, weight):
        with pytest.raises(GraphError, match="line 2: non-finite weight"):
            load_dimacs(f"p sp 2 1\na 1 2 {weight}")

    def test_path_file_round_trips_to_fixture(self, p6):
        text = "c six-vertex path\np sp 6 5\n" + "\n".join(
            f"a {i + 1} {i + 2} 1" for i in range(5)
        )
        assert load_dimacs(text) == p6

    def test_arc_count_mismatch(self):
        with pytest.raises(GraphError, match="declares 2 arcs"):
            load_dimacs("p sp 2 2\na 1 2 3")

    def test_reciprocal_weight_disagreement(self):
        with pytest.raises(GraphError, match="disagree"):
            load_dimacs("p sp 2 2\na 1 2 3\na 2 1 4")

    def test_comments_and_blanks_ignored(self):
        g = load_dimacs("c hi\n\np sp 2 1\nc mid\na 1 2 7\n")
        assert g.edge_count == 1

    def test_missing_problem_line(self):
        with pytest.raises(GraphError, match="problem line"):
            load_dimacs("a 1 2 3")

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="not connected"):
            load_dimacs("p sp 4 1\na 1 2 1")

    def test_save_round_trip(self, grid3):
        buf = io.StringIO()
        save_dimacs(grid3, buf)
        assert load_dimacs(buf.getvalue()) == grid3

    def test_float_weights_survive(self):
        g = load_dimacs("p sp 2 1\na 1 2 2.5")
        assert g.adjacency[0] == [(1, 2.5)]


class TestEdgeList:
    def test_basic(self):
        g = load_edge_list("3\n0 1\n1 2 5\n")
        assert g.adjacency[0] == [(1, 1)]
        assert g.adjacency[1] == [(0, 1), (2, 5)]

    def test_round_trip(self, grid3):
        buf = io.StringIO()
        save_edge_list(grid3, buf)
        assert load_edge_list(buf.getvalue()) == grid3

    def test_missing_header(self):
        with pytest.raises(GraphError, match="header"):
            load_edge_list("0 1\n")

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="not connected"):
            load_edge_list("4\n0 1\n")

    # Header on line 1, a comment on line 2, the faulty edge on line 4.
    def test_self_loop_names_line(self):
        with pytest.raises(GraphError, match=r"^line 4: self-loop at vertex 1$"):
            load_edge_list("3\n# c\n0 1\n1 1\n")

    def test_out_of_range_endpoint_names_line(self):
        with pytest.raises(GraphError, match=r"^line 4: edge \(1,3\) endpoint out"):
            load_edge_list("3\n# c\n0 1\n1 3\n")

    @pytest.mark.parametrize("weight", ["0", "-2", "-0.5"])
    def test_nonpositive_weight_names_line(self, weight):
        with pytest.raises(GraphError, match=r"^line 4: edge \(1,2\) has nonpositive"):
            load_edge_list(f"3\n# c\n0 1\n1 2 {weight}\n")

    def test_duplicate_edge_names_line(self):
        with pytest.raises(GraphError, match=r"^line 5: duplicate edge \(2,1\)$"):
            load_edge_list("3\n# c\n0 1\n1 2\n2 1\n")

    def test_graph_wide_error_names_no_line(self):
        # the mix of a huge int and a float is a fault of no single line
        with pytest.raises(GraphError, match=r"^edge \(1,2\) has int weight"):
            load_edge_list(f"3\n0 1 0.5\n1 2 {2**53}\n")


class TestGenerateGrid:
    def test_degenerate_grid_is_path(self, p6):
        assert generate_grid(1, 6) == p6

    def test_2x2_is_4cycle(self, grid2):
        assert grid2.vertex_count == 4
        assert grid2.edge_count == 4
        assert all(grid2.degree(v) == 2 for v in range(4))

    def test_3x3_counts(self, grid3):
        assert grid3.vertex_count == 9
        assert grid3.edge_count == 12

    def test_zero_dimension(self):
        with pytest.raises(GraphError):
            generate_grid(0, 5)

    def test_vertex_numbering_row_major(self, grid3):
        # vertex 4 is the center: neighbors above, left, right, below
        assert [v for v, _ in grid3.adjacency[4]] == [1, 3, 5, 7]


class TestGenerateRandomConnected:
    def test_single_vertex(self):
        g = generate_random_connected(1, 0, 3)
        assert g.vertex_count == 1
        assert g.edge_count == 0

    def test_tree_is_connected(self):
        g = generate_random_connected(50, 0, 7)
        assert g.edge_count == 49
        assert g.is_connected()

    def test_capacity_error(self):
        # n=10: 45 unordered pairs, 9 tree edges, so at most 36 extras
        with pytest.raises(GraphError, match=r"\[0, 36\]"):
            generate_random_connected(10, 50, 3)

    def test_extra_edges_counted(self):
        g = generate_random_connected(10, 36, 0)
        assert g.edge_count == 45  # complete graph

    def test_bit_deterministic(self):
        a = generate_random_connected(80, 40, 11)
        b = generate_random_connected(80, 40, 11)
        assert a == b

    def test_seeds_differ(self):
        a = generate_random_connected(80, 40, 11)
        b = generate_random_connected(80, 40, 12)
        assert a != b

    def test_unit_weights(self):
        g = generate_random_connected(30, 10, 5)
        assert all(w == 1 for _, _, w in g.edges())
