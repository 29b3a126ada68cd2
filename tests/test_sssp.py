"""Shortest-path kernels against the naive relaxation oracle."""

import math
import threading

import pytest
from hypothesis import given, settings, strategies as st

import polyroute
from polyroute import (
    GraphError,
    astar,
    build_graph,
    dijkstra_query,
    generate_random_connected,
    multi_source_spt,
    shortest_path_tree,
    track_kernels,
    truncated_spt,
)
from polyroute.sssp import landmark_matrix

import oracles
from corpusdef import all_pairs_oracle


class TestShortestPathTree:
    def test_path_distances(self, p6):
        assert shortest_path_tree(p6, 0).dist == [0, 1, 2, 3, 4, 5]

    def test_2x2_grid(self, grid2):
        assert shortest_path_tree(grid2, 0).dist == [0, 1, 1, 2]

    def test_single_vertex(self):
        g = build_graph(1, [])
        dm = shortest_path_tree(g, 0)
        assert dm.dist == [0]
        assert dm.owner == [0]
        assert dm.parent == [-1]

    def test_source_out_of_range(self, p6):
        with pytest.raises(ValueError, match="out of range"):
            shortest_path_tree(p6, 6)

    def test_matches_relaxation_oracle_weighted(self):
        edges = [(0, 1, 2), (1, 2, 3), (0, 2, 10), (2, 3, 1), (1, 3, 7)]
        g = build_graph(4, edges)
        for s in range(4):
            assert shortest_path_tree(g, s).dist == oracles.bellman_ford(4, edges, s)

    def test_unreached_marked_inf(self):
        g = build_graph(3, [(0, 1, 1)])  # vertex 2 isolated
        dm = shortest_path_tree(g, 0)
        assert dm.dist[2] == math.inf
        assert dm.owner[2] == -1

    def test_parent_edges_valid(self, grid3):
        dm = shortest_path_tree(grid3, 4)
        for v in range(9):
            p = dm.parent[v]
            if p != -1:
                weights = {nb: w for nb, w in grid3.adjacency[v]}
                assert p in weights
                assert dm.dist[v] == dm.dist[p] + weights[p]


class TestMultiSource:
    def test_p6_two_ends(self, p6):
        dm = multi_source_spt(p6, (0, 5))
        assert dm.owner == [0, 0, 0, 1, 1, 1]
        assert dm.dist == [0, 1, 2, 2, 1, 0]

    def test_all_vertices_as_sources(self, grid3):
        dm = multi_source_spt(grid3, tuple(range(9)))
        assert dm.dist == [0] * 9
        assert dm.owner == list(range(9))

    def test_single_source_degenerates(self, p6):
        assert multi_source_spt(p6, (0,)).dist == shortest_path_tree(p6, 0).dist

    def test_empty_sources(self, p6):
        with pytest.raises(ValueError, match="nonempty"):
            multi_source_spt(p6, ())

    def test_duplicate_sources(self, p6):
        with pytest.raises(ValueError, match="duplicate"):
            multi_source_spt(p6, (1, 1))

    def test_tie_goes_to_source_listed_first(self, grid2):
        # vertex 1 and 2 are both at distance 1 from each of {0, 3}; owner
        # 0 is the position of source 3
        dm = multi_source_spt(grid2, (3, 0))
        assert dm.owner[1] == 0
        assert dm.owner[2] == 0

    def test_is_min_of_single_source_runs(self):
        g = generate_random_connected(60, 30, 2)
        sources = (3, 17, 41)
        dm = multi_source_spt(g, sources)
        rows = {s: shortest_path_tree(g, s).dist for s in sources}
        for v in range(60):
            best = min(rows[s][v] for s in sources)
            assert dm.dist[v] == best
            assert rows[sources[dm.owner[v]]][v] == best


    def test_equal_distance_tie_stores_its_distance(self):
        # vertex 2 is 3 from source 1 and 1.5 + 1.5 = 3.0 from source 0:
        # the tie goes to source 0 and stores 3.0. One source takes no
        # equal-distance relaxation, so its 3 stays an int.
        g = build_graph(4, [(0, 3, 1.5), (3, 2, 1.5), (1, 2, 3)])
        dm = multi_source_spt(g, (0, 1))
        assert repr(dm.dist) == "[0, 0, 3.0, 1.5]"
        assert dm.owner == [0, 1, 0, 0]
        assert dm.parent == [-1, -1, 3, 0]
        dm = shortest_path_tree(g, 1)
        assert repr(dm.dist) == "[6.0, 0, 3, 4.5]"
        assert dm.owner == [0, 0, 0, 0]
        assert dm.parent == [3, -1, 1, 2]
        # 3 reaches vertex 3 through 1 before 1.5 + 1.5 = 3.0 through 2
        g = build_graph(4, [(0, 1, 1), (0, 2, 1.5), (1, 3, 2), (2, 3, 1.5)])
        dm = shortest_path_tree(g, 0)
        assert repr(dm.dist) == "[0, 1, 1.5, 3]"
        assert dm.parent == [-1, 0, 0, 1]


class TestSingleSourceUnreached:
    """One source owns every reached vertex; the rest read -1."""

    G = [(0, 1, 1), (1, 2, 1), (3, 4, 1)]

    def test_full_tree(self):
        g = build_graph(5, self.G)
        assert shortest_path_tree(g, 0).owner == [0, 0, 0, -1, -1]

    def test_truncated(self):
        dm = truncated_spt(build_graph(5, self.G), 0, (1,))
        assert dm.dist == [0, 1, math.inf, math.inf, math.inf]
        assert dm.owner == [0, 0, -1, -1, -1]

    def test_query_to_other_component(self):
        r = dijkstra_query(build_graph(5, self.G), 0, 4)
        assert (r.distance, r.path, r.settled) == (math.inf, [], 3)


class TestLandmarkMatrix:
    def test_p6_endpoints(self, p6):
        assert landmark_matrix(p6, (0, 5)) == [[0, 5], [5, 0]]

    def test_singleton(self, p6):
        assert landmark_matrix(p6, (3,)) == [[0]]

    def test_3x3_corners(self, grid3):
        assert landmark_matrix(grid3, (0, 8)) == [[0, 4], [4, 0]]

    def test_symmetric_zero_diagonal_triangle(self):
        g = generate_random_connected(40, 25, 9)
        lms = (1, 7, 20, 33)
        m = landmark_matrix(g, lms)
        k = len(lms)
        for i in range(k):
            assert m[i][i] == 0
            for j in range(k):
                assert m[i][j] == m[j][i]
                for h in range(k):
                    assert m[i][j] <= m[i][h] + m[h][j]

    def test_known_rows_must_fit(self, p6):
        with pytest.raises(ValueError, match="known rows"):
            landmark_matrix(p6, (0, 5), known=[[0, 5], [5, 0], [1, 1]])
        with pytest.raises(ValueError, match="known rows"):
            landmark_matrix(p6, (0, 5), known=[[0, 5, 1]])

    def test_duplicate_landmarks(self, p6):
        with pytest.raises(ValueError, match="duplicate"):
            landmark_matrix(p6, (0, 0))

    def test_not_exported(self):
        # it trusts its known rows, so only the selector hand-off calls it
        assert "landmark_matrix" not in polyroute.__all__
        assert not hasattr(polyroute, "landmark_matrix")


class TestTruncated:
    def test_stops_early_but_exact_on_targets(self, p6):
        dm = truncated_spt(p6, 0, (1, 2))
        assert dm.dist[1] == 1
        assert dm.dist[2] == 2
        # far end not settled before the stop set completed
        assert dm.dist[5] == math.inf


# Weight kinds for the kernel property: ties (int), exact binary fractions
# (eighths), rounded sums (tenths), and int and float weights in one graph.
KERNEL_WEIGHTS = {
    "int": st.integers(1, 4),
    "eighths": st.integers(1, 40).map(lambda j: j / 8),
    "tenths": st.integers(1, 30).map(lambda j: j / 10),
    "mixed": st.sampled_from([1, 2, 0.5, 1.5, 2.0]),
}


@st.composite
def kernel_cases(draw):
    """(n, edges, sources, watch): a random graph, connected or not, a
    list of distinct sources and a watch set for a truncated run."""
    n = draw(st.integers(1, 14))
    weight = KERNEL_WEIGHTS[draw(st.sampled_from(sorted(KERNEL_WEIGHTS)))]
    pairs = [(u, v) for v in range(n) for u in range(v)]
    chosen = set()
    if draw(st.booleans()):  # a spanning tree first: connected
        chosen |= {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    chosen |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
                  if pairs else [])
    edges = [(u, v, draw(weight)) for u, v in sorted(chosen)]
    sources = draw(st.lists(st.integers(0, n - 1), min_size=1,
                            max_size=min(n, 5), unique=True))
    watch = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    return n, edges, sources, watch


def as_reference(dm):
    """The run as the reference kernel returns it; repr tells 1 from 1.0."""
    return repr((dm.dist, dm.owner, dm.parent))


class TestKernelMatchesReference:
    """Every kernel entry point gives the (dist, owner, parent) of the
    reference tuple-heap Dijkstra, type of each distance included."""

    @settings(deadline=None, max_examples=400)
    @given(kernel_cases())
    def test_random_graphs(self, case):
        n, edges, sources, watch = case
        g = build_graph(n, edges)
        ref = lambda srcs, w=None: repr(oracles.heap_kernel(n, edges, srcs, w))
        assert as_reference(shortest_path_tree(g, sources[0])) == ref(sources[:1])
        assert as_reference(multi_source_spt(g, sources)) == ref(sources)
        assert (as_reference(truncated_spt(g, sources[0], watch))
                == ref(sources[:1], watch))

    ABSORBED = [(0, 1, 1e17), (1, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0),
                (3, 4, 2.0), (4, 5, 1e17), (0, 5, 3e17)]

    def test_absorbed_weights(self):
        # 1e17 + 1.0 == 1e17: a path sum would absorb the unit weights
        with pytest.raises(GraphError, match="could absorb a weight"):
            build_graph(6, self.ABSORBED)


@st.composite
def wide_weight_graphs(draw):
    """(n, edges): weights k * 2**e over some 2,000 binades, ints mixed
    in, so that path sums can absorb a weight or overflow."""
    n = draw(st.integers(2, 8))
    binades = st.one_of(st.integers(-1074, 1020), st.integers(-60, 60))
    weight = st.one_of(
        st.builds(lambda k, e: k * 2.0 ** e, st.integers(1, 7), binades),
        st.integers(1, 2**40),
    )
    pairs = [(u, v) for v in range(n) for u in range(v)]
    chosen = set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    if draw(st.booleans()):  # a spanning tree too: connected
        chosen |= {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    return n, [(u, v, draw(weight)) for u, v in sorted(chosen)]


class TestWeightCheckIsSound:
    """A graph build_graph accepts has no relaxation that a double sum
    absorbs and no distance that overflows: the kernel settles each
    level in one pass on that premise."""

    @settings(deadline=None, max_examples=300)
    @given(wide_weight_graphs())
    def test_accepted_graphs_neither_absorb_nor_overflow(self, case):
        n, edges = case
        try:
            g = build_graph(n, edges)
        except GraphError:
            return
        for s in range(n):
            dist = oracles.heap_kernel(n, edges, [s])[0]
            if g.is_connected():
                assert all(math.isfinite(d) for d in dist), dist
            for u, nbrs in enumerate(g.adjacency):
                if dist[u] != math.inf:
                    assert all(dist[u] + w != dist[u] for _, w in nbrs), u


def zero_evaluator(v, t):
    """h = 0 everywhere: the A* heap loop, keyed (g, -g, id), run as
    plain Dijkstra."""
    return 0, 0, 0, 0, 0


class TestQueryMatchesHeapLoop:
    """dijkstra_query runs on the kernel; the A* heap loop with h = 0 is
    its reference, down to the settle order and the type of the distance."""

    @settings(deadline=None, max_examples=300)
    @given(kernel_cases())
    def test_random_graphs(self, case):
        n, edges, sources, _ = case
        g = build_graph(n, edges)
        s = sources[0]
        for t in range(n):  # s == t and, when disconnected, unreachable t
            got = dijkstra_query(g, s, t, trace=True)
            ref = astar(g, s, t, zero_evaluator, trace=True)
            assert (repr(got.distance), got.path, got.settled, got.expanded,
                    got.reopened, got.settle_order) == (
                repr(ref.distance), ref.path, ref.settled, ref.expanded,
                ref.reopened, ref.settle_order)


class TestAllPairsOracle:
    def test_p6_entry(self, p6):
        table = all_pairs_oracle(p6)
        assert table[1][4] == 3

    def test_zero_diagonal(self, grid3):
        table = all_pairs_oracle(grid3)
        assert all(table[v][v] == 0 for v in range(9))

    def test_symmetric_and_triangle(self):
        g = generate_random_connected(50, 20, 7)
        table = all_pairs_oracle(g)
        n = g.vertex_count
        for u in range(n):
            for v in range(n):
                assert table[u][v] == table[v][u]
        # triangle inequality on a vertex sample
        for u in range(0, n, 7):
            for v in range(0, n, 5):
                for w in range(0, n, 11):
                    assert table[u][v] <= table[u][w] + table[w][v]

    def test_matches_naive_oracle(self):
        g = generate_random_connected(30, 12, 4)
        edges = list(g.edges())
        assert all_pairs_oracle(g) == oracles.all_pairs(30, edges)

    def test_cap_enforced(self, p6):
        with pytest.raises(ValueError, match="cap"):
            all_pairs_oracle(p6, cap=5)


class TestKernelCounters:
    def test_counts_by_kind(self, p6):
        with track_kernels() as kc:
            shortest_path_tree(p6, 0)
            shortest_path_tree(p6, 1)
            multi_source_spt(p6, (0, 5))
            landmark_matrix(p6, (0, 3, 5))
        assert kc.full_spt == 2
        assert kc.multi_source == 1
        assert kc.truncated_spt == 3

    def test_known_rows_skip_their_runs(self, p6):
        lms = (0, 3, 5)
        full = landmark_matrix(p6, lms)
        for m in range(len(lms) + 1):
            with track_kernels() as kc:
                got = landmark_matrix(p6, lms, known=full[:m])
            assert kc.truncated_spt == len(lms) - m
            assert got == full

    def test_nested_trackers_both_count(self, p6):
        with track_kernels() as outer:
            shortest_path_tree(p6, 0)
            with track_kernels() as inner:
                shortest_path_tree(p6, 1)
        assert outer.full_spt == 2
        assert inner.full_spt == 1

    def test_other_threads_not_counted(self, p6):
        with track_kernels() as kc:
            worker = threading.Thread(target=shortest_path_tree, args=(p6, 0))
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive()
            shortest_path_tree(p6, 1)
        assert kc.full_spt == 1

    def test_queries_run_no_counted_kernel(self, grid3):
        # queries are not preprocessing: they call the kernel directly
        with track_kernels() as kc:
            dijkstra_query(grid3, 0, 8)
            astar(grid3, 8, 0, None, trace=True)
        assert (kc.full_spt, kc.multi_source, kc.truncated_spt) == (0, 0, 0)

    def test_no_counting_outside_block(self, p6):
        with track_kernels() as kc:
            pass
        shortest_path_tree(p6, 0)
        assert kc.full_spt == 0
