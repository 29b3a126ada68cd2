"""Anatomy of one dual-landmark evaluation.

For endpoints owned by different landmarks the bound is the best of
several candidates: three quadrilateral differences and one ratio
bound that multiplies two gaps and divides by the landmark distance.
Their best reduces to two terms, which is all the search-loop evaluator
computes. When both endpoints share an owner everything collapses to
the plain distance gap. The demo writes every candidate out, checks the
evaluator against their best, and shows the arithmetic bill of each
counting mode.

    python3 demos/04_heuristic_anatomy.py
"""

from polyroute import (
    MODES,
    LandmarkSet,
    build_alt_embedding,
    build_distributed_embedding,
    build_graph,
    classify_scenario,
    make_alp_evaluator,
    make_alt_evaluator,
)

# Unit path 0-1-2-3-4-5, landmarks at both ends.
g = build_graph(6, [(i, i + 1, 1) for i in range(5)])
L = LandmarkSet((0, 5))
dist = build_distributed_embedding(g, L)
full = build_alt_embedding(g, L)
h = make_alp_evaluator(dist)


def candidates(v, t):
    """Every candidate lower bound on d(v, t) the embedding allows, with
    a = d(v, l1), b = d(t, l2) and D = d(l1, l2) for the owners l1, l2."""
    l1, l2 = dist.owner[v], dist.owner[t]
    a, b = dist.dist_to_owner[v], dist.dist_to_owner[t]
    D = dist.lmatrix[l1][l2]
    c = {"pi1": abs(a - D) - b, "pi2": abs(a - b) - D, "pi3": abs(D - b) - a}
    if l1 == l2:  # D = 0: the one-landmark bound, counted twice as written
        c["pi4"] = c["pi5"] = abs(a - b)
    else:  # Ptolemy's inequality over (v, l1, l2, t)
        c["pi6"] = (abs(a - D) * abs(D - b) - a * b) / D
    return a, b, D, c


def show(v, t):
    a, b, D, c = candidates(v, t)
    best = max(0, *c.values())
    # the two surviving terms; with D = 0 they give |a - b| as well
    two_terms = max(0, D - a - b, abs(a - b) - D)
    value = h(v, t)[0]
    kind = "same owner" if dist.owner[v] == dist.owner[t] else "cross owner"
    print(f"({v},{t}) {kind}: candidates {c}")
    print(f"   best of all {best}, two terms max(0, {D} - {a} - {b}, "
          f"|{a} - {b}| - {D}) = {two_terms}, evaluator {value}")
    print(f"   scenario vs full table: "
          f"{classify_scenario(full, dist, v, t)}, "
          f"full-table value {make_alt_evaluator(full)(v, t)[0]}")
    assert value == two_terms == best


# Cross-owner pair: vertex 1 sits in landmark 0's cell, vertex 4 in
# landmark 5's cell. The true distance is 3 and three candidates hit it.
show(1, 4)
print()

# Same-owner pair: both vertices belong to landmark 0, the value is
# exactly the gap between their owner distances.
show(1, 2)
print()

# Pricing modes on the cross-owner pair. literal prices every candidate
# as written; reduced prices the two-term form the evaluator runs. The
# value is the same in both.
for mode in MODES:
    value, subs, muls, divs, terms = make_alp_evaluator(dist, mode)(1, 4)
    print(f"{mode:8} value={value} cost=({subs} sub, {muls} mul, "
          f"{divs} div, {terms} terms)")
