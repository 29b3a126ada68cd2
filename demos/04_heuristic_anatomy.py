"""Anatomy of one dual-landmark evaluation.

For endpoints owned by different landmarks the bound is the best of
several candidates: three quadrilateral differences and one ratio
bound that multiplies two gaps and divides by the landmark distance.
Their best reduces to two terms, which is all the search-loop evaluator
computes. When both endpoints share an owner everything collapses to
the plain distance gap. The reference form reports each candidate and
the arithmetic bill of each counting mode.

    python3 demos/04_heuristic_anatomy.py
"""

from polyroute import (
    MODES,
    LandmarkSet,
    alp_components,
    alp_dual_h,
    alt_h,
    build_alt_embedding,
    build_distributed_embedding,
    build_graph,
    classify_scenario,
    make_alp_evaluator,
)

# Unit path 0-1-2-3-4-5, landmarks at both ends.
g = build_graph(6, [(i, i + 1, 1) for i in range(5)])
L = LandmarkSet((0, 5))
dist = build_distributed_embedding(g, L)
full = build_alt_embedding(g, L)


def show(v, t):
    ev = alp_dual_h(dist, v, t)
    c = ev.counters
    owner_v, owner_t = dist.owner[v], dist.owner[t]
    kind = "same owner" if owner_v == owner_t else "cross owner"
    print(f"({v},{t}) {kind}: value={ev.value}")
    print(f"   candidates: {ev.components}")
    print(f"   cost: {c.subtractions} sub, {c.multiplications} mul, "
          f"{c.divisions} div, widest intermediate {c.max_arity} terms")
    print(f"   scenario vs full table: "
          f"{classify_scenario(full, dist, v, t)}, "
          f"full-table value {alt_h(full, v, t).value}")


# Cross-owner pair: vertex 1 sits in landmark 0's cell, vertex 4 in
# landmark 5's cell. The true distance is 3 and two candidates hit it.
show(1, 4)
print()

# Same-owner pair: both vertices belong to landmark 0, the value is
# exactly the gap between their owner distances.
show(1, 2)
print()

# The search-loop evaluator computes the two surviving terms only:
#   max(0, pi1, pi2, pi3, pi6) = max(0, D - a - b, |a - b| - D)
a, b = dist.dist_to_owner[1], dist.dist_to_owner[4]
D = dist.lmatrix[dist.owner[1]][dist.owner[4]]
two_terms = max(0, D - a - b, abs(a - b) - D)
fast = make_alp_evaluator(dist)(1, 4)[0]
reference = alp_dual_h(dist, 1, 4).value
print(f"two terms: max(0, {D} - {a} - {b}, |{a} - {b}| - {D}) = {two_terms}")
print(f"evaluator {fast} == alp_dual_h {reference}: {fast == reference}")
assert fast == reference == two_terms

# Pricing modes on the same pair. literal prices every candidate as
# written; reduced prices the two-term form the evaluator runs. The
# value is the same in both.
for mode in MODES:
    ev = alp_dual_h(dist, 1, 4, mode)
    c = ev.counters
    print(f"{mode:8} value={ev.value} cost=({c.subtractions} sub, "
          f"{c.multiplications} mul, {c.divisions} div, "
          f"{c.max_arity} terms)")
