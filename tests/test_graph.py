"""Graph construction, generators, and file formats."""

import io
import math
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

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
from polyroute.cli import load_graph_file


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
        assert build_graph(3, [(0, 1, 2**53 - 1), (1, 2, 4.0)]).edge_count == 2

    @pytest.mark.parametrize("edges, least, total", [
        ([(0, 1, 1e308), (1, 2, 1e308)], "1e+308", "inf"),
        ([(0, 1, 4e307), (1, 2, 1.0)], "1.0", "4e+307"),
        ([(0, 1, 1e17), (1, 2, 2.0), (1, 3, 1.0), (2, 4, 1.0), (3, 4, 1.0)],
         "1.0", "1e+17"),
        ([(0, 1, 2**53 - 1), (1, 2, 0.5)], "0.5", "9007199254740992.0"),
    ])
    def test_absorbing_or_overflowing_float_weights_rejected(
            self, edges, least, total):
        with pytest.raises(GraphError, match=re.escape(
                f"float weights with least {least} and total {total}: a "
                f"double path sum could absorb a weight or overflow")):
            build_graph(5, edges)

    @pytest.mark.parametrize("big, small, error", [
        (2.0**1020, 2.0**1020, None),
        (2.0**1021, 2.0**1021, "overflow"),  # 4 * total is inf
        (2.0**52, 2.0, None),
        (2.0**52, 1.0, "absorb"),  # least == ulp(total)
    ])
    def test_weight_check_boundary(self, big, small, error):
        edges = [(0, 1, big), (1, 2, small)]
        if error is None:
            assert build_graph(3, edges).edge_count == 2
        else:
            with pytest.raises(GraphError, match=error):
                build_graph(3, edges)

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

    # int() and float() take these too; a typo such as 1_5 must not load
    # as another weight
    @pytest.mark.parametrize("text, error", [
        ("p sp 2 1\na 1 2 1_5.2_5", "line 2: bad weight"),
        ("p sp 2 1\na 1 2 +3", "line 2: bad weight"),
        ("p sp 2 1\na 1 2 \u0661", "line 2: bad weight"),
        ("p sp 2 1\na +1 2 3", "line 2: bad vertex id"),
        ("p sp 2 1\na 1 2_0 3", "line 2: bad vertex id"),
        ("p sp 2 1\na 1 \u0662 3", "line 2: bad vertex id"),
        ("p sp +2 1\na 1 2 3", "line 1: bad problem line counts"),
        ("p sp 2 \uff11\na 1 2 3", "line 1: bad problem line counts"),
    ])
    def test_plain_numerals_only(self, text, error):
        with pytest.raises(GraphError, match=f"^{error}"):
            load_dimacs(text)

    def test_exponent_weights_round_trip(self):
        # one graph each: 1e16 and 2.5e-07 together would be absorbed
        for w, token in ((1e16, "1e+16"), (2.5e-07, "2.5e-07")):
            g = build_graph(3, [(0, 1, w), (1, 2, 3.0)])
            buf = io.StringIO()
            save_dimacs(g, buf)
            assert token in buf.getvalue()
            assert load_dimacs(buf.getvalue()) == g

    def test_absorbing_weights_refused_without_a_line(self):
        with pytest.raises(GraphError, match=(
                r"^float weights with least 1e\+308 and total inf: ")):
            load_dimacs("p sp 3 2\na 1 2 1e308\na 2 3 1e308\n")
        with pytest.raises(GraphError, match=r"^float weights with least 1\.0 "):
            load_edge_list("3\n0 1 1e17\n1 2 1.0\n")


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

    def test_negative_vertex_count_names_line(self):
        # once read as "no header yet", so the next line became the header
        with pytest.raises(GraphError, match=r"^line 1: negative vertex count$"):
            load_edge_list("-1\n3\n0 1\n1 2\n")

    @pytest.mark.parametrize("text, error", [
        ("2\n0 1 1_0\n", "line 2: bad weight"),
        ("2\n0 1 +1\n", "line 2: bad weight"),
        ("2\n0 1 \u0661\n", "line 2: bad weight"),
        ("2\n0 +1\n", "line 2: bad vertex id"),
        ("2\n\u0660 1\n", "line 2: bad vertex id"),
        ("+2\n0 1\n", "line 1: bad vertex count"),
        ("1_0\n0 1\n", "line 1: bad vertex count"),
    ])
    def test_plain_numerals_only(self, text, error):
        with pytest.raises(GraphError, match=f"^{error}"):
            load_edge_list(text)

    def test_graph_wide_error_names_no_line(self):
        # the mix of a huge int and a float is a fault of no single line
        with pytest.raises(GraphError, match=r"^edge \(1,2\) has int weight"):
            load_edge_list(f"3\n0 1 0.5\n1 2 {2**53}\n")


# Hand-written texts in both formats: (name, text, what the format's own
# loader gives, what load_graph_file gives for the text saved as a file,
# or None where that is the same). A graph shows as repr(adjacency), an
# error as "GraphError: <message>" with the file's path as {path}.
TEXT_PINS = [
    ('dimacs-basic', 'c hi\np sp 3 4\na 1 2 1\na 2 1 1\na 2 3 2.5\na 3 2 2.5\n',
     '[[(1, 1)], [(0, 1), (2, 2.5)], [(1, 2.5)]]',
     None),
    ('dimacs-crlf', 'c x\r\np sp 2 2\r\na 1 2 3\r\na 2 1 3\r\n',
     '[[(1, 3)], [(0, 3)]]',
     None),
    ('dimacs-tabs-blank', '\n  c comment\n\n\tp\tsp\t2\t1\n\n a 1 2 7 \n\n',
     '[[(1, 7)], [(0, 7)]]',
     None),
    ('dimacs-c-prefix-word', 'copy\np sp 2 1\ncat 1 2\na 1 2 0.125\n',
     '[[(1, 0.125)], [(0, 0.125)]]',
     None),
    ('dimacs-hash-line', '# note\np sp 2 1\na 1 2 1\n',
     "GraphError: line 1: unrecognized line '# note'",
     None),
    ('dimacs-missing-problem', 'c only\n',
     'GraphError: missing problem line',
     'GraphError: {path}: no content lines'),
    ('dimacs-repeated-problem', 'p sp 2 1\np sp 2 1\na 1 2 1\n',
     'GraphError: line 2: repeated problem line',
     None),
    ('dimacs-bad-problem', 'p sp 2\n',
     "GraphError: line 1: expected 'p sp <n> <m>'",
     None),
    ('dimacs-bad-counts', 'p sp x 1\n',
     'GraphError: line 1: bad problem line counts',
     None),
    ('dimacs-negative-counts', 'p sp -2 1\n',
     'GraphError: line 1: negative counts',
     None),
    ('dimacs-arc-first', 'a 1 2 1\np sp 2 1\n',
     'GraphError: line 1: arc before problem line',
     None),
    ('dimacs-arc-arity', 'p sp 2 1\na 1 2\n',
     "GraphError: line 2: expected 'a <u> <v> <w>'",
     None),
    ('dimacs-bad-id', 'p sp 2 1\na 1 b 2\n',
     'GraphError: line 2: bad vertex id',
     None),
    ('dimacs-bad-weight', 'p sp 2 1\na 1 2 +1\n',
     "GraphError: line 2: bad weight '+1'",
     None),
    ('dimacs-nonfinite-weight', 'p sp 2 1\na 1 2 inf\n',
     "GraphError: line 2: non-finite weight 'inf'",
     None),
    ('dimacs-out-of-range', 'p sp 2 1\na 1 5 1\n',
     'GraphError: line 2: vertex id out of range 1..2',
     None),
    ('dimacs-self-loop', 'p sp 2 1\na 2 2 1\n',
     'GraphError: line 2: self-loop arc',
     None),
    ('dimacs-nonpositive', 'p sp 2 1\na 1 2 0\n',
     'GraphError: line 2: nonpositive weight 0',
     None),
    ('dimacs-duplicate-arc', 'p sp 2 2\na 1 2 1\na 1 2 1\n',
     'GraphError: line 3: duplicate arc (1,2)',
     None),
    ('dimacs-disagree', 'p sp 2 2\na 1 2 1\na 2 1 2\n',
     'GraphError: line 3: reciprocal arcs for (1,2) disagree on weight (1 vs 2)',
     None),
    ('dimacs-unrecognized', 'p sp 2 1\nx 1 2\na 1 2 1\n',
     "GraphError: line 2: unrecognized line 'x 1 2'",
     None),
    ('dimacs-count-mismatch', 'p sp 2 3\na 1 2 1\n',
     'GraphError: problem line declares 3 arcs, body has 1',
     None),
    ('dimacs-disconnected', 'p sp 3 1\na 1 2 1\n',
     'GraphError: DIMACS input is not connected',
     None),
    ('dimacs-huge-int-next-to-float', 'p sp 3 2\na 1 2 9007199254740992\na 2 3 0.5\n',
     'GraphError: edge (0,1) has int weight 9007199254740992 >= 2**53 in a graph with float weights; doubles cannot sum it exactly',
     None),
    ('edges-basic', '# c\n3\n0 1\n1 2 2.5\n',
     '[[(1, 1)], [(0, 1), (2, 2.5)], [(1, 2.5)]]',
     None),
    ('edges-crlf', '# x\r\n2\r\n0 1 3\r\n',
     '[[(1, 3)], [(0, 3)]]',
     None),
    ('edges-tabs-blank', '\n  # comment\n\n\t2\t\n\n 0\t1 7 \n\n',
     '[[(1, 7)], [(0, 7)]]',
     None),
    ('edges-c-line', 'c comment\n2\n0 1\n',
     'GraphError: line 1: expected single vertex-count header',
     None),
    ('edges-hash-word', '#2\n2\n#0 1\n1 0 4\n',
     '[[(1, 4)], [(0, 4)]]',
     None),
    ('edges-empty', '',
     'GraphError: missing vertex-count header',
     'GraphError: {path}: no content lines'),
    ('edges-only-comments', '# a\n\n# b\n',
     'GraphError: missing vertex-count header',
     'GraphError: {path}: no content lines'),
    ('edges-two-field-header', '3 4\n',
     'GraphError: line 1: expected single vertex-count header',
     None),
    ('edges-bad-count', 'x\n',
     'GraphError: line 1: bad vertex count',
     None),
    ('edges-negative-count', '-1\n',
     'GraphError: line 1: negative vertex count',
     None),
    ('edges-arity', '2\n0\n',
     "GraphError: line 2: expected 'u v [w]'",
     None),
    ('edges-bad-id', '2\n0 a\n',
     'GraphError: line 2: bad vertex id',
     None),
    ('edges-bad-weight', '2\n0 1 x\n',
     "GraphError: line 2: bad weight 'x'",
     None),
    ('edges-plus-weight', '2\n0 1 +1\n',
     "GraphError: line 2: bad weight '+1'",
     None),
    ('edges-nonfinite', '2\n0 1 1e999\n',
     "GraphError: line 2: non-finite weight '1e999'",
     None),
    ('edges-out-of-range', '2\n0 5\n',
     'GraphError: line 2: edge (0,5) endpoint out of range [0,2)',
     None),
    ('edges-self-loop', '2\n1 1\n',
     'GraphError: line 2: self-loop at vertex 1',
     None),
    ('edges-duplicate', '2\n0 1\n1 0\n',
     'GraphError: line 3: duplicate edge (1,0)',
     None),
    ('edges-nonpositive', '2\n0 1 -0.5\n',
     'GraphError: line 2: edge (0,1) has nonpositive weight -0.5',
     None),
    ('edges-disconnected', '3\n0 1\n',
     'GraphError: edge-list input is not connected',
     None),
    ('edges-huge-int-next-to-float', '3\n0 1 9007199254740992\n1 2 0.5\n',
     'GraphError: edge (0,1) has int weight 9007199254740992 >= 2**53 in a graph with float weights; doubles cannot sum it exactly',
     None),
]


class TestTextPins:
    @staticmethod
    def outcome(load, arg):
        try:
            return repr(load(arg).adjacency)
        except GraphError as exc:
            return f"GraphError: {exc}"

    @pytest.mark.parametrize("name, text, loaded, from_file", TEXT_PINS,
                             ids=[pin[0] for pin in TEXT_PINS])
    def test_loader_and_file_sniffing(self, tmp_path, name, text, loaded,
                                      from_file):
        load = load_dimacs if name.startswith("dimacs") else load_edge_list
        assert self.outcome(load, text) == loaded
        assert self.outcome(load, io.StringIO(text)) == loaded
        path = tmp_path / name
        path.write_bytes(text.encode("ascii"))
        expected = (from_file or loaded).replace("{path}", str(path))
        assert self.outcome(load_graph_file, str(path)) == expected


class TestVertexCountMemory:
    """n vertices need n - 1 edges to be connected, so a loader refuses a
    file with fewer before it spends memory on its vertex count, and after
    every other error the file has."""

    @pytest.mark.parametrize("load, text, what", [
        (load_dimacs, "p sp 1000000 0\n", "DIMACS"),
        (load_edge_list, "1000000\n", "edge-list"),
    ], ids=["dimacs", "edge-list"])
    def test_too_few_edges_fail_in_little_memory(self, load, text, what):
        tracemalloc.start()
        try:
            with pytest.raises(GraphError,
                               match=f"^{what} input is not connected$"):
                load(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("load, text, message", [
        (load_edge_list, "1000000\n0 0\n", "line 2: self-loop at vertex 0"),
        (load_edge_list, "1000000\n0 1 1e308\n1 2 1e308\n",
         "float weights with least 1e+308 and total inf: a double path sum "
         "could absorb a weight or overflow"),
        (load_dimacs, "p sp 1000000 2\na 1 2 1\n",
         "problem line declares 2 arcs, body has 1"),
        (load_dimacs, "p sp 1000000 2\na 1 2 9007199254740992\na 2 3 0.5\n",
         "edge (0,1) has int weight 9007199254740992 >= 2**53 in a graph "
         "with float weights; doubles cannot sum it exactly"),
    ], ids=["self-loop", "absorb", "arc-count", "huge-int"])
    def test_other_errors_come_first(self, load, text, message):
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            load(text)

    @pytest.mark.parametrize("load, text", [
        (load_dimacs, "p sp 4 6\na 1 2 1\na 2 1 1\na 2 3 1\na 3 2 1\n"
         "a 1 3 1\na 3 1 1\n"),
        (load_edge_list, "4\n0 1\n1 2\n0 2\n"),
    ], ids=["dimacs", "edge-list"])
    def test_enough_edges_still_need_connecting(self, load, text):
        with pytest.raises(GraphError, match="input is not connected$"):
            load(text)

    @pytest.mark.parametrize("load, text, n", [
        (load_dimacs, "p sp 1 0\n", 1), (load_dimacs, "p sp 0 0\n", 0),
        (load_edge_list, "0\n", 0), (load_edge_list, "1\n", 1),
    ])
    def test_no_edges_load_up_to_one_vertex(self, load, text, n):
        g = load(text)
        assert (g.vertex_count, g.edge_count) == (n, 0)


class TestGenerateGrid:
    def test_degenerate_grid_is_path(self, p6):
        assert generate_grid(1, 6) == p6

    def test_2x2_is_4cycle(self, grid2):
        assert grid2.vertex_count == 4
        assert grid2.edge_count == 4
        assert all(len(grid2.adjacency[v]) == 2 for v in range(4))

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


# Fuzzing both text formats. Each generated text comes with what it
# means: the edges its lines declare and the numbers of the lines that a
# loader must refuse. A text with such a line must fail with a GraphError
# naming one of them; a text without one must load as build_graph over
# its edges (after the DIMACS merge), or fail with the whole-file error
# it was built to have.
WHOLE_FILE = {
    "header": r"^missing (vertex-count header|problem line)$",
    "count": r"^problem line declares -?\d+ arcs, body has \d+$",
    "disconnected": r"^(edge-list|DIMACS) input is not connected$",
    "huge": r"^edge \(\d+,\d+\) has int weight \d+ >= 2\*\*53 in a graph "
            r"with float weights",
    "absorb": r"^float weights with least \S+ and total \S+: a double path "
              r"sum could absorb a weight or overflow$",
}

# (text, value) of a weight the loaders must take
weights = st.one_of(
    st.integers(1, 40).map(lambda w: (str(w), w)),
    st.integers(1, 80).map(lambda e: (repr(e / 8), e / 8)),
)
huge_weights = st.integers(0, 3).map(lambda j: (str(2**53 + j), 2**53 + j))
# weights whose sums absorb the small ones above, or overflow
wide_weights = st.sampled_from(["1e+17", "3e17", "1e308"]).map(
    lambda t: (t, float(t)))
bad_weights = st.sampled_from(["0", "-2", "0.0", "-0.5", "inf", "-inf", "nan",
                               "1e999", "x", "1/2", "0x10", "1_0", "+3",
                               "\u0661"])
# Most lines are clean; a faulty one has exactly one of these faults.
line_faults = st.sampled_from([None] * 16 + ["id", "range", "loop", "weight",
                                             "fields"])
separators = st.sampled_from([" ", "\t", "  ", " \t "])
line_ends = st.sampled_from(["\n", "\r\n"])


@st.composite
def fuzz_edges(draw, n: int) -> list:
    """(u, v, weight token) with u != v in range(n), often a spanning
    path plus random pairs, which may repeat; sometimes one weight is an
    int of 2**53 or more, and sometimes one is a float that sums with the
    others absorb or overflow."""
    if n < 2:
        return []
    pairs = [(v, v + 1) for v in range(n - 1)] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 6))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 2))
        pairs.append((u, v + (v >= u)))
    edges = [(u, v, draw(weights)) for u, v in draw(st.permutations(pairs))]
    if edges and draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, len(edges) - 1))
        edges[i] = (*edges[i][:2], draw(huge_weights))
    if edges and draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, len(edges) - 1))
        edges[i] = (*edges[i][:2], draw(wide_weights))
    return edges


def corrupt(draw, fields: list, fault, n: int, base: int, sizes: tuple) -> list:
    """fields = [u, v, weight] as text, with the given fault put in; a
    fields fault leaves one of sizes fields, which the format refuses."""
    fields = list(fields)
    at = draw(st.integers(0, 1))
    if fault == "id":
        fields[at] = draw(st.sampled_from(["x", "1.5", "-", "+1", "1_0",
                                           "\u0661"]))
    elif fault == "range":
        fields[at] = str(draw(st.sampled_from([-1, n])) + base)
    elif fault == "loop":
        fields[1] = fields[0]
    elif fault == "weight":
        fields[2:] = [draw(bad_weights)]
    elif fault == "fields":
        fields = (fields[:2] + ["1", "7"])[:draw(st.sampled_from(sizes))]
    return fields


def scatter(draw, lines: list, comment: str) -> list:
    """lines with up to three comment or blank lines put in anywhere."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 3))):
        text = draw(st.sampled_from(["", comment, comment + " ab 1 2"]))
        lines.insert(draw(st.integers(0, len(lines))), ("comment", text, False))
    return lines


def render(draw, lines: list) -> tuple:
    """(text, numbers of the faulty lines) of (kind, fields or text,
    fault) lines, with random field separators and line ends."""
    out = []
    for _, fields, _ in lines:
        if not isinstance(fields, str):
            fields = draw(separators).join(fields)
        out.append(fields + draw(line_ends))
    faults = {i for i, (_, _, bad) in enumerate(lines, start=1) if bad}
    return "".join(out), faults


def huge_next_to_float(edges: list) -> bool:
    ws = [w for _, _, w in edges]
    return (any(isinstance(w, float) for w in ws)
            and any(isinstance(w, int) and w >= 2**53 for w in ws))


def absorbs_or_overflows(edges: list) -> bool:
    ws = [w for _, _, w in edges]
    total = sum(ws)
    return (any(isinstance(w, float) for w in ws)
            and not (math.isfinite(4 * total) and min(ws) > math.ulp(total)))


@st.composite
def edge_list_docs(draw):
    """(text, n, edges, fault lines, whole-file cause or None)."""
    n = draw(st.integers(0, 6))
    header = draw(st.sampled_from([str(n)] * 12 + ["x", f"{n} {n}", "-1", None]))
    lines = [("header", header, header != str(n))] if header else []
    edges, seen = [], set()
    for u, v, (wt, w) in draw(fuzz_edges(n)):
        fields = [str(u), str(v), wt]
        if draw(st.integers(0, 3)) == 0:  # no weight token: weight 1
            fields, w = fields[:2], 1
        fault = draw(line_faults)
        key = (min(u, v), max(u, v))
        bad = fault is not None or key in seen
        if not bad:
            seen.add(key)
            edges.append((u, v, w))
        lines.append(("edge", corrupt(draw, fields, fault, n, 0, (4,)), bad))
    if header is None and lines:  # the first edge is read as the header
        lines[0] = (*lines[0][:2], True)
    text, faults = render(draw, scatter(draw, lines, "#"))
    cause = None
    if header is None:
        cause = "header"
    elif huge_next_to_float(edges):
        cause = "huge"
    elif absorbs_or_overflows(edges):
        cause = "absorb"
    elif not build_graph(n, edges).is_connected():
        cause = "disconnected"
    return text, n, edges, faults, cause


@st.composite
def dimacs_docs(draw):
    """(text, n, merged edges, fault lines, whole-file cause or None)."""
    n = draw(st.integers(0, 6))
    arcs = []
    merged, seen = {}, set()
    for u, v, (wt, w) in draw(fuzz_edges(n)):
        way = draw(st.sampled_from(["forward", "backward", "both"]))
        drafts = [(u, v, wt, w)] if way != "backward" else []
        if way != "forward":
            other = (wt, w) if draw(st.integers(0, 3)) else draw(weights)
            drafts.append((v, u, *other))
        for a, b, ct, c in drafts:
            fault = draw(line_faults)
            key = (min(a, b), max(a, b))
            bad = (fault is not None or (a, b) in seen
                   or merged.get(key, c) != c)
            if not bad:
                seen.add((a, b))
                merged.setdefault(key, c)
            fields = corrupt(draw, [str(a + 1), str(b + 1), ct], fault, n, 1,
                             (2, 4))
            arcs.append(("arc", ["a", *fields], bad))
    declared = len(arcs) + draw(st.sampled_from([0] * 4 + [1, -1]))
    good = ["p", "sp", str(n), str(declared)]
    problem = draw(st.sampled_from(
        [good] * 12 + [good[:3], ["p", "xx", *good[2:]], ["p", "sp", "x", good[3]],
                       ["p", "sp", "-1", good[3]]]
    ))
    where = draw(st.sampled_from([0] * 24 + list(range(len(arcs) + 1))))
    lines = arcs[:where] + [("problem", problem, problem != good or declared < 0)]
    lines += arcs[where:]
    if draw(st.integers(0, 9)) == 0:
        lines.append(("problem", good, True))
    lines = scatter(draw, lines, "c")
    first = next(i for i, line in enumerate(lines) if line[0] == "problem")
    lines = [(kind, fields, bad or kind == "arc" and i < first)
             for i, (kind, fields, bad) in enumerate(lines)]
    text, faults = render(draw, lines)
    edges = [(u, v, w) for (u, v), w in sorted(merged.items())]
    cause = None
    if declared != len(arcs):
        cause = "count"
    elif huge_next_to_float(edges):
        cause = "huge"
    elif absorbs_or_overflows(edges):
        cause = "absorb"
    elif not build_graph(n, edges).is_connected():
        cause = "disconnected"
    return text, n, edges, faults, cause


def check_load(load, doc):
    text, n, edges, faults, cause = doc
    try:
        got = load(text)
    except GraphError as exc:
        message = str(exc)
        line = re.match(r"^line (\d+): ", message)
        if faults:
            assert line and int(line[1]) in faults, (message, faults)
        else:
            assert cause and re.match(WHOLE_FILE[cause], message), message
        return
    assert not faults and cause is None, (faults, cause)
    want = build_graph(n, edges)
    assert got == want
    assert repr(list(got.edges())) == repr(list(want.edges()))


class TestTextFuzz:
    @settings(deadline=None, max_examples=300)
    @given(edge_list_docs())
    def test_edge_list(self, doc):
        check_load(load_edge_list, doc)

    @settings(deadline=None, max_examples=300)
    @given(dimacs_docs())
    def test_dimacs(self, doc):
        check_load(load_dimacs, doc)
