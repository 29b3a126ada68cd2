"""The frozen random-graph corpus and the single analysis pass over it.

100 connected graphs, seeds 0..99, n in [10,200], plus per-graph
landmark sets and query pairs, all derived deterministically from the
seed. One pass per graph gathers every piece of evidence the
acceptance suite needs, so the expensive searches run exactly once per
session.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from polyroute import (
    Graph,
    astar,
    build_alt_embedding,
    build_distributed_embedding,
    classify_scenario,
    derive_seed,
    dijkstra_query,
    generate_random_connected,
    make_alp_evaluator,
    make_alt_evaluator,
    select_random,
    shortest_path_tree,
    space_accounting,
    track_kernels,
)

import oracles

CORPUS_SEEDS = tuple(range(100))
CORPUS_K = 4
PAIR_CAP = 2000
SMALL_N = 60

SAME_OPS, CROSS_OPS = oracles.ALP_PRICES["literal"]


def all_pairs_oracle(g: Graph, cap: int = 5000) -> list:
    """Full distance table via one tree per vertex; table[u][v] = d(u,v).

    Quadratic storage, so refuses graphs above cap vertices.
    """
    if g.vertex_count > cap:
        raise ValueError(
            f"graph has {g.vertex_count} vertices, oracle cap is {cap}"
        )
    table = []
    for s in range(g.vertex_count):
        table.append(shortest_path_tree(g, s).dist)
    return table


def corpus_params(seed: int) -> tuple:
    rng = random.Random(derive_seed(seed, "corpus"))
    n = rng.randrange(10, 201)
    extra = rng.randrange(0, n)
    return n, extra


def corpus_graph(seed: int):
    n, extra = corpus_params(seed)
    return generate_random_connected(n, extra, derive_seed(seed, "corpus", "graph"))


def corpus_landmarks(g, seed: int):
    return select_random(g, CORPUS_K, derive_seed(seed, "corpus", "landmarks"))


def corpus_single_landmark(g, seed: int):
    """The deliberately different (smaller) landmark set used to witness
    that neither heuristic family dominates across unequal sets."""
    return select_random(g, 1, derive_seed(seed, "corpus", "single"))


def corpus_pairs(g, seed: int) -> list:
    n = g.vertex_count
    if n <= SMALL_N:
        return [(s, t) for s in range(n) for t in range(n)]
    rng = random.Random(derive_seed(seed, "corpus", "pairs"))
    chosen = set()
    while len(chosen) < PAIR_CAP:
        s = rng.randrange(n)
        t = rng.randrange(n - 1)
        if t >= s:
            t += 1
        chosen.add((s, t))
    return sorted(chosen)


@dataclass
class CorpusEvidence:
    """Everything the acceptance criteria assert over, in one sweep."""

    graphs: int = 0
    pairs_checked: int = 0
    distance_mismatches: list = field(default_factory=list)
    admissibility_violations: list = field(default_factory=list)
    pi6_violations: list = field(default_factory=list)
    pi6_wins: int = 0  # cross-owner pairs with pi6 > max(pi1, pi3)
    counter_violations: list = field(default_factory=list)
    space_records: list = field(default_factory=list)
    reduction_violations: list = field(default_factory=list)
    scenario_violations: list = field(default_factory=list)
    scenario_counts: Counter = field(default_factory=Counter)
    same_owner_pairs: int = 0
    witness_dominance: dict = field(default_factory=dict)
    witness_reverse: dict = field(default_factory=dict)
    witness_inconsistency: dict = field(default_factory=dict)
    kernel_records: list = field(default_factory=list)


def _note(bucket: list, cap: int, record) -> None:
    if len(bucket) < cap:
        bucket.append(record)


def _find_inconsistency(g, owner, fp, seed: int):
    """First boundary edge (u,v,w) and target with h(u,t) > w + h(v,t)."""
    boundary = [
        (u, v, w) for u, v, w in g.edges() if owner[u] != owner[v]
    ]
    for t in range(g.vertex_count):
        for u, v, w in boundary:
            hu = fp(u, t)[0]
            hv = fp(v, t)[0]
            if hu > w + hv:
                return {
                    "seed": seed, "u": u, "v": v, "weight": w,
                    "target": t, "h_u": hu, "h_v": hv,
                }
            if hv > w + hu:
                return {
                    "seed": seed, "u": v, "v": u, "weight": w,
                    "target": t, "h_u": hv, "h_v": hu,
                }
    return None


def analyze_corpus(seeds=CORPUS_SEEDS, progress=None) -> CorpusEvidence:
    ev = CorpusEvidence()
    for seed in seeds:
        _analyze_graph(seed, ev)
        ev.graphs += 1
        if progress is not None:
            progress(seed)
    return ev


def _analyze_graph(seed: int, ev: CorpusEvidence) -> None:
    g = corpus_graph(seed)
    n = g.vertex_count
    L = corpus_landmarks(g, seed)
    k = len(L)
    alt_e = build_alt_embedding(g, L)
    with track_kernels() as kc:
        alp_e = build_distributed_embedding(g, L)
    ev.kernel_records.append(
        (seed, n, k, kc.full_spt, kc.multi_source, kc.truncated_spt)
    )
    alt1_e = build_alt_embedding(g, corpus_single_landmark(g, seed))

    alt_stored, alt_formula = space_accounting(alt_e)
    alp_stored, alp_formula = space_accounting(alp_e)
    ev.space_records.append(
        (seed, n, k, alt_stored, alt_formula, alp_stored, alp_formula)
    )

    oracle = all_pairs_oracle(g)
    fa = make_alt_evaluator(alt_e)
    fp = make_alp_evaluator(alp_e)
    fa1 = make_alt_evaluator(alt1_e)
    owner = alp_e.owner

    pairs = corpus_pairs(g, seed)
    ev.pairs_checked += len(pairs)
    row = None
    row_s = -1
    for s, t in pairs:
        if s != row_s:
            row = oracle[s]
            row_s = s
        d = row[t]
        rd = dijkstra_query(g, s, t).distance
        ra = astar(g, s, t, fa).distance
        rp = astar(g, s, t, fp).distance
        if not (rd == d and ra == d and rp == d):
            _note(ev.distance_mismatches, 20, (seed, s, t, d, rd, ra, rp))

        hv_alt = fa(s, t)[0]
        hv_alp, subs, muls, divs, arity = fp(s, t)
        if hv_alt > d or hv_alp > d:
            _note(
                ev.admissibility_violations, 20,
                (seed, s, t, d, hv_alt, hv_alp),
            )
        same = owner[s] == owner[t]
        expected = SAME_OPS if same else CROSS_OPS
        if (subs, muls, divs, arity) != expected:
            _note(
                ev.counter_violations, 20,
                (seed, s, t, same, (subs, muls, divs, arity), expected),
            )
        ref = oracles.alp_dual_h(alp_e, s, t)
        if same:
            # the evaluator's |a - b| against the max over pi1..pi5
            ev.same_owner_pairs += 1
            if hv_alp != ref.value:
                _note(
                    ev.reduction_violations, 20,
                    (seed, s, t, "identity", hv_alp, ref.value),
                )
        else:
            c = ref.components
            if c["pi6"] > d:
                _note(ev.pi6_violations, 20, (seed, s, t, d, c["pi6"]))
            if c["pi6"] > max(c["pi1"], c["pi3"]):
                ev.pi6_wins += 1

        tag = classify_scenario(alt_e, alp_e, s, t)
        ev.scenario_counts[tag] += 1
        if tag == "S3" and hv_alp != hv_alt:
            _note(ev.scenario_violations, 20, (seed, s, t, tag, hv_alp, hv_alt))
        elif tag == "S4" and hv_alp > hv_alt:
            _note(ev.scenario_violations, 20, (seed, s, t, tag, hv_alp, hv_alt))

        if not ev.witness_dominance and hv_alt > hv_alp:
            ev.witness_dominance = {
                "seed": seed, "v": s, "t": t,
                "alt": hv_alt, "alp": hv_alp,
            }
        if not ev.witness_reverse:
            hv_alt1 = fa1(s, t)[0]
            if hv_alp > hv_alt1:
                ev.witness_reverse = {
                    "seed": seed, "v": s, "t": t,
                    "alp": hv_alp, "alt_single": hv_alt1,
                }

    if not ev.witness_inconsistency:
        found = _find_inconsistency(g, owner, fp, seed)
        if found:
            ev.witness_inconsistency = found
