"""Goal-directed search: correctness, tie-breaking, instrumentation."""

import math

import pytest

from polyroute import (
    LandmarkSet,
    OpCounters,
    astar,
    build_alt_embedding,
    build_distributed_embedding,
    build_graph,
    dijkstra_query,
    generate_grid,
    generate_random_connected,
    make_alp_evaluator,
    make_alt_evaluator,
    select_random,
)

from corpusdef import all_pairs_oracle


def zero_evaluator(v, t):
    """h = 0 everywhere, counted as an evaluation: a guided search that
    must replay Dijkstra."""
    return 0, 0, 0, 0, 0


def path_cost(g, path):
    total = 0
    for u, v in zip(path, path[1:]):
        w = None
        for x, wx in g.adjacency[u]:
            if x == v:
                w = wx
                break
        assert w is not None, f"({u},{v}) is not an edge"
        total += w
    return total


class TestDijkstraQuery:
    def test_p6_end_to_end(self, p6):
        r = dijkstra_query(p6, 0, 5)
        assert r.distance == 5
        assert r.path == [0, 1, 2, 3, 4, 5]
        assert r.settled == 6
        assert r.reopened == 0
        assert r.heuristic_evals == 0
        assert r.op_totals.total() == 0

    def test_grid3_corner_to_corner(self, grid3):
        r = dijkstra_query(grid3, 0, 8)
        assert r.distance == 4
        assert len(r.path) == 5
        assert path_cost(grid3, r.path) == 4

    def test_source_equals_target(self, p6):
        r = dijkstra_query(p6, 2, 2)
        assert r.distance == 0
        assert r.path == [2]
        assert r.settled == 1
        assert r.expanded == 1

    def test_bad_endpoints(self, p6):
        with pytest.raises(ValueError):
            dijkstra_query(p6, -1, 3)
        with pytest.raises(ValueError):
            dijkstra_query(p6, 0, 6)

    def test_matches_oracle_everywhere(self):
        g = generate_random_connected(70, 30, 5)
        oracle = all_pairs_oracle(g)
        for s in range(0, 70, 7):
            for t in range(0, 70, 5):
                assert dijkstra_query(g, s, t).distance == oracle[s][t]


class TestAstar:
    def test_p6_guided_route(self, p6):
        e = build_distributed_embedding(p6, LandmarkSet((0, 5)))
        r = astar(p6, 1, 4, make_alp_evaluator(e))
        assert r.distance == 3
        assert r.path == [1, 2, 3, 4]
        assert r.heuristic_evals >= 1
        assert r.op_totals.subtractions > 0

    def test_zero_heuristic_replays_dijkstra(self):
        g = generate_random_connected(80, 40, 11)
        for s, t in [(0, 79), (5, 50), (33, 33), (60, 2)]:
            d = dijkstra_query(g, s, t, trace=True)
            blind = astar(g, s, t, None, trace=True)
            for a in (astar(g, s, t, zero_evaluator, trace=True), blind):
                assert a.distance == d.distance
                assert a.path == d.path
                assert a.settle_order == d.settle_order
                assert (a.settled, a.expanded, a.reopened) \
                    == (d.settled, d.expanded, d.reopened)
            assert blind.heuristic_evals == d.heuristic_evals == 0
            assert blind.op_totals == d.op_totals == OpCounters(0, 0, 0)

    @pytest.mark.parametrize("trace", [False, True])
    def test_no_heuristic_is_dijkstra_query(self, trace):
        g = generate_random_connected(80, 40, 11)
        for s, t in [(0, 79), (5, 50), (33, 33), (60, 2)]:
            assert astar(g, s, t, None, trace) == dijkstra_query(g, s, t, trace)

    def test_unreachable_target(self):
        g = build_graph(4, [(0, 1, 1), (2, 3, 1)])
        h = make_alt_evaluator(build_alt_embedding(g, LandmarkSet((0, 2))))
        for ev in (None, h):
            r = astar(g, 0, 3, ev)
            assert r.distance == math.inf
            assert r.path == []
            assert (r.settled, r.expanded) == (2, 2)

    def test_alt_never_reopens(self):
        # triangle-inequality bound is consistent, so no vertex is
        # settled twice
        for seed in range(6):
            g = generate_random_connected(60, 30, seed)
            e = build_alt_embedding(g, select_random(g, 4, seed))
            h = make_alt_evaluator(e)
            for s, t in [(0, 59), (10, 40), (59, 0)]:
                r = astar(g, s, t, h)
                assert r.reopened == 0
                assert r.expanded == r.settled

    def test_alp_exact_despite_reopening(self):
        saw_reopen = False
        for seed in range(8):
            g = generate_random_connected(60, 40, seed)
            oracle = all_pairs_oracle(g)
            e = build_distributed_embedding(g, select_random(g, 4, seed))
            h = make_alp_evaluator(e)
            for s in range(0, 60, 6):
                for t in range(0, 60, 6):
                    r = astar(g, s, t, h)
                    assert r.distance == oracle[s][t]
                    if r.path:
                        assert path_cost(g, r.path) == r.distance
                        assert r.path[0] == s and r.path[-1] == t
                    saw_reopen = saw_reopen or r.reopened > 0
        assert saw_reopen, "workload never exercised the reopening path"

    def test_reopened_is_expansion_surplus(self):
        g = generate_random_connected(50, 35, 3)
        e = build_distributed_embedding(g, select_random(g, 4, 3))
        h = make_alp_evaluator(e)
        for s, t in [(0, 34), (1, 27)]:
            r = astar(g, s, t, h, trace=True)
            assert r.settled == len(set(r.settle_order))
            assert r.expanded == len(r.settle_order)
            assert r.reopened == r.expanded - r.settled > 0

    def test_source_equals_target_costs_one_eval(self, p6):
        e = build_alt_embedding(p6, LandmarkSet((0, 5)))
        r = astar(p6, 3, 3, make_alt_evaluator(e))
        assert r.distance == 0
        assert r.path == [3]
        assert r.settled == 1
        assert r.heuristic_evals == 1  # the source evaluation

    def test_alt_op_totals_scale_with_evals(self):
        g = generate_grid(5, 5)
        e = build_alt_embedding(g, LandmarkSet((0, 24, 4)))
        r = astar(g, 0, 24, make_alt_evaluator(e))
        assert r.op_totals.subtractions == 3 * r.heuristic_evals
        assert r.op_totals.multiplications == 0
        assert r.op_totals.divisions == 0

    def test_goal_direction_prunes_grid(self):
        g = generate_grid(20, 20)
        e = build_alt_embedding(g, LandmarkSet((0, 399)))
        r_alt = astar(g, 0, 399, make_alt_evaluator(e))
        r_dij = dijkstra_query(g, 0, 399)
        assert r_alt.distance == r_dij.distance == 38
        assert r_alt.settled < r_dij.settled

    def test_bad_endpoints(self, p6):
        with pytest.raises(ValueError):
            astar(p6, 0, 99, zero_evaluator)

    def test_trace_off_by_default(self, p6):
        assert astar(p6, 0, 5, zero_evaluator).settle_order is None
