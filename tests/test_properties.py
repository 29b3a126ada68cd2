"""Randomized invariants over generated graphs (hypothesis)."""

import io
import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from polyroute import (
    MODES,
    DistributedEmbedding,
    LandmarkSet,
    WorkloadSpec,
    astar,
    build_alt_embedding,
    build_distributed_embedding,
    build_graph,
    classify_scenario,
    dijkstra_query,
    emit_report,
    generate_queries,
    generate_random_connected,
    load_embedding,
    load_report,
    make_alp_evaluator,
    make_alt_evaluator,
    multi_source_spt,
    run_workload,
    save_embedding,
    shortest_path_tree,
)

import oracles
from oracles import alp_components, alp_dual_h


graph_keys = st.fixed_dictionaries(
    {
        "n": st.integers(min_value=2, max_value=40),
        "extra": st.integers(min_value=0, max_value=60),
        "seed": st.integers(min_value=0, max_value=10**6),
    }
)


def make_graph(params):
    n = params["n"]
    extra = min(params["extra"], n * (n - 1) // 2 - (n - 1))
    return generate_random_connected(n, extra, params["seed"])


float_weight_graphs = st.builds(
    lambda n, seed: _float_graph(n, seed),
    st.integers(min_value=3, max_value=16),
    st.randoms(use_true_random=False),
)


def _float_graph(n, rng):
    # spanning tree plus a few chords, weights strictly positive floats
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, round(rng.uniform(0.1, 9.0), 3)))
    present = {(min(u, v), max(u, v)) for u, v, _ in edges}
    for _ in range(n // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (min(u, v), max(u, v)) not in present:
            present.add((min(u, v), max(u, v)))
            edges.append((u, v, round(rng.uniform(0.1, 9.0), 3)))
    return build_graph(n, edges)


@settings(deadline=None, max_examples=40)
@given(graph_keys)
def test_single_source_distances_match_relaxation_oracle(params):
    g = make_graph(params)
    dm = shortest_path_tree(g, 0)
    expected = oracles.bellman_ford(g.vertex_count, list(g.edges()), 0)
    assert dm.dist == expected


@settings(deadline=None, max_examples=30)
@given(graph_keys, st.integers(min_value=1, max_value=5))
def test_multi_source_is_pointwise_minimum(params, k):
    g = make_graph(params)
    n = g.vertex_count
    sources = list(range(min(k, n)))
    dm = multi_source_spt(g, sources)
    rows = [oracles.bellman_ford(n, list(g.edges()), s) for s in sources]
    for v in range(n):
        best = min(r[v] for r in rows)
        assert dm.dist[v] == best
        assert dm.dist[dm.owner[v]] == 0 or dm.owner[v] in sources


@settings(deadline=None, max_examples=25)
@given(graph_keys, st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=99))
def test_both_bounds_stay_under_true_distance(params, k, lseed):
    g = make_graph(params)
    n = g.vertex_count
    rows = oracles.all_pairs(n, list(g.edges()))
    ids = random.Random(lseed).sample(range(n), min(k, n))
    L = LandmarkSet(tuple(ids))
    fa = make_alt_evaluator(build_alt_embedding(g, L))
    fp = make_alp_evaluator(build_distributed_embedding(g, L))
    for v in range(n):
        for t in range(n):
            assert fa(v, t)[0] <= rows[v][t]
            assert fp(v, t)[0] <= rows[v][t]


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=3, max_value=16),
       st.randoms(use_true_random=False),
       st.integers(min_value=0, max_value=99))
def test_admissibility_with_float_weights(n, rng, lseed):
    g = _float_graph(n, rng)
    rows = oracles.all_pairs(n, list(g.edges()))
    ids = random.Random(lseed).sample(range(n), min(3, n))
    alp_e = build_distributed_embedding(g, LandmarkSet(tuple(ids)))
    h = make_alp_evaluator(alp_e)
    tol = 1e-9
    for v in range(n):
        for t in range(n):
            assert h(v, t)[0] <= rows[v][t] + tol


@settings(deadline=None, max_examples=30)
@given(graph_keys, st.integers(min_value=2, max_value=4),
       st.integers(min_value=0, max_value=99))
def test_shared_owner_value_collapses_to_distance_gap(params, k, lseed):
    g = make_graph(params)
    n = g.vertex_count
    ids = random.Random(lseed).sample(range(n), min(k, n))
    e = build_distributed_embedding(g, LandmarkSet(tuple(ids)))
    for v in range(n):
        for t in range(n):
            if e.owner[v] == e.owner[t]:
                gap = abs(e.dist_to_owner[v] - e.dist_to_owner[t])
                assert alp_dual_h(e, v, t).value == gap


owner_distances = st.fractions(min_value=0, max_value=10**4, max_denominator=10**3)


def cross_owner(a, b, D) -> DistributedEmbedding:
    """v = 0 at distance a from landmark 0, t = 1 at b from landmark 1."""
    return DistributedEmbedding(
        LandmarkSet((0, 1)), [0, 1], [a, b], [[0, D], [D, 0]]
    )


@settings(deadline=None, max_examples=300)
@given(owner_distances, owner_distances, owner_distances.filter(bool))
def test_cross_owner_bound_reduces_to_two_terms(a, b, D):
    e = cross_owner(a, b, D)
    two_terms = max(0, D - a - b, abs(a - b) - D)
    assert alp_dual_h(e, 0, 1).value == two_terms
    for mode in MODES:
        assert make_alp_evaluator(e, mode)(0, 1)[0] == two_terms


@settings(deadline=None, max_examples=300)
@given(owner_distances, owner_distances, owner_distances.filter(bool))
def test_ratio_candidate_never_exceeds_pi1_or_pi3(a, b, D):
    c = alp_components(cross_owner(a, b, D), 0, 1)
    assert isinstance(c["pi6"], Fraction)
    assert c["pi6"] <= max(c["pi1"], c["pi3"])


exact_weights = {
    "int": lambda rng: rng.randint(1, 9),
    "eighths": lambda rng: rng.randrange(1, 80) / 8,
}


@settings(deadline=None, max_examples=30)
@given(graph_keys, st.sampled_from(sorted(exact_weights)),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=99))
def test_alp_bound_is_consistent_inside_each_cell(params, weights, k, lseed):
    """h(u) <= w + h(v) both ways on every edge whose endpoints share an
    owner: a = d(., l) moves by at most w along it, and each term of the
    bound moves by at most as much as a does. Boundary edges, where
    reopenings start, are not asserted."""
    rng = random.Random(lseed)
    base = make_graph(params)
    g = build_graph(base.vertex_count,
                    [(u, v, exact_weights[weights](rng)) for u, v, _ in base.edges()])
    n = g.vertex_count
    ids = rng.sample(range(n), min(k, n))
    e = build_distributed_embedding(g, LandmarkSet(tuple(ids)))
    inner = [(u, v, w) for u, v, w in g.edges() if e.owner[u] == e.owner[v]]
    for mode in MODES:
        h = make_alp_evaluator(e, mode)
        for t in range(n):
            for u, v, w in inner:
                hu = h(u, t)[0]
                hv = h(v, t)[0]
                assert hu <= w + hv and hv <= w + hu, (mode, u, v, w, t)


@settings(deadline=None, max_examples=20)
@given(graph_keys, st.integers(min_value=1, max_value=4))
def test_all_methods_return_the_true_distance(params, k):
    g = make_graph(params)
    n = g.vertex_count
    rows = oracles.all_pairs(n, list(g.edges()))
    ids = random.Random(params["seed"]).sample(range(n), min(k, n))
    L = LandmarkSet(tuple(ids))
    alt_h_fn = make_alt_evaluator(build_alt_embedding(g, L))
    alp_h_fn = make_alp_evaluator(build_distributed_embedding(g, L))
    pairs = [(0, n - 1), (n // 2, 0), (n - 1, n // 2)]
    for s, t in pairs:
        want = rows[s][t]
        assert dijkstra_query(g, s, t).distance == want
        assert astar(g, s, t, alt_h_fn).distance == want
        assert astar(g, s, t, alp_h_fn).distance == want


@settings(deadline=None, max_examples=25)
@given(graph_keys, st.integers(min_value=1, max_value=5),
       st.sampled_from(["alt", "alp"]))
def test_serialized_embedding_survives_round_trip(params, k, kind):
    g = make_graph(params)
    n = g.vertex_count
    ids = random.Random(params["seed"] + 1).sample(range(n), min(k, n))
    L = LandmarkSet(tuple(ids))
    if kind == "alt":
        e = build_alt_embedding(g, L)
    else:
        e = build_distributed_embedding(g, L)
    buf = io.BytesIO()
    save_embedding(e, buf)
    buf.seek(0)
    back = load_embedding(buf)
    assert back == e


@settings(deadline=None, max_examples=20)
@given(graph_keys, st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=999))
def test_report_round_trip_is_lossless(params, count, wseed):
    g = make_graph(params)
    n = g.vertex_count
    ids = random.Random(wseed).sample(range(n), min(2, n))
    queries = generate_queries(g, WorkloadSpec(count, seed=wseed))
    rows = run_workload(g, LandmarkSet(tuple(ids)), queries)
    for fmt in ("csv", "json"):
        sink = io.StringIO()
        emit_report(rows, fmt, sink)
        sink.seek(0)
        assert load_report(sink, fmt) == rows


@settings(deadline=None, max_examples=25)
@given(graph_keys, st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=99))
def test_scenario_labels_partition_all_pairs(params, k, lseed):
    g = make_graph(params)
    n = g.vertex_count
    ids = random.Random(lseed).sample(range(n), min(k, n))
    L = LandmarkSet(tuple(ids))
    alt_e = build_alt_embedding(g, L)
    alp_e = build_distributed_embedding(g, L)
    for v in range(n):
        for t in range(n):
            label = classify_scenario(alt_e, alp_e, v, t)
            assert label in ("S1", "S2", "S3", "S4", "S5")
            if len(L) == 1:
                assert label == "S3"


@settings(deadline=None, max_examples=30)
@given(graph_keys)
def test_paths_are_real_walks_with_matching_cost(params):
    g = make_graph(params)
    n = g.vertex_count
    adj = {u: dict(g.adjacency[u]) for u in range(n)}
    for s, t in [(0, n - 1), (n - 1, 0)]:
        r = dijkstra_query(g, s, t)
        if math.isinf(r.distance):
            assert r.path == []
            continue
        assert r.path[0] == s and r.path[-1] == t
        cost = sum(adj[u][v] for u, v in zip(r.path, r.path[1:]))
        assert cost == r.distance
