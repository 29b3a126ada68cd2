"""Exact answer check, with no tolerance and no abort, and its self-test.

An answer is one (query, method) result. It passes when its distance
equals the oracle's exactly and its path runs source -> target over real
edges whose weights, summed in path order, equal that distance. Every
failure is counted and described; the run goes on.
"""

from __future__ import annotations

import random

from inputs import grid_pairs


def check_answer(res, s: int, t: int, expected, weight: dict) -> "str | None":
    """None if the answer is exact, else a one-line description."""
    if res.distance != expected:
        return f"distance {res.distance!r} != oracle {expected!r}"
    path = res.path
    if not path or path[0] != s or path[-1] != t:
        return f"path does not run {s}->{t}"
    total = 0
    for u, v in zip(path, path[1:]):
        w = weight.get((u, v) if u < v else (v, u))
        if w is None:
            return f"path step ({u},{v}) is not an edge"
        total += w
    if total != res.distance:
        return f"path weights sum to {total!r}, reported {res.distance!r}"
    return None


def disagreement(answers: dict) -> "str | None":
    """Description if the methods' distances for one query differ."""
    if len({r.distance for r in answers.values()}) > 1:
        return ", ".join(f"{m}={r.distance!r}" for m, r in answers.items())
    return None


def self_test() -> int:
    """Show that the check can fail: ALT's bound x 3 must produce failures.

    Returns the number of failures found on a 15x15 grid with weights
    1..9; 0 means the check is blind and the benchmark must not report
    results. (On a unit grid the tripled bound still finds shortest
    paths, since every greedy step toward the target lies on one.)
    """
    from polyroute import (
        astar,
        build_alt_embedding,
        build_graph,
        make_alt_evaluator,
        select_farthest,
        shortest_path_tree,
    )

    side = 15
    rng = random.Random(0)
    weight = {pair: rng.randint(1, 9) for pair in grid_pairs(side, side)}
    g = build_graph(side * side, [(u, v, w) for (u, v), w in weight.items()])
    h = make_alt_evaluator(build_alt_embedding(g, select_farthest(g, 4, seed=1)))

    def tripled(v, t):
        value, *ops = h(v, t)
        return (3 * value, *ops)

    failures = 0
    for _ in range(40):
        s, t = rng.sample(range(side * side), 2)
        res = astar(g, s, t, tripled)
        if check_answer(res, s, t, shortest_path_tree(g, s).dist[t], weight):
            failures += 1
    return failures
