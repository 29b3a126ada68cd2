"""Heuristic values, candidate bounds, counters, scenario labels."""

import hashlib
import io
import math
import random

import pytest

from polyroute import (
    AltEmbedding,
    LandmarkSet,
    astar,
    build_alt_embedding,
    build_distributed_embedding,
    build_graph,
    classify_scenario,
    generate_random_connected,
    load_embedding,
    make_alp_evaluator,
    make_alt_evaluator,
    save_embedding,
    select_farthest,
    select_random,
)
from polyroute.heuristics import MODES, _packed_columns

import corpusdef
import oracles
from oracles import alp_components, alp_dual_h, alt_h


@pytest.fixture
def p6_pair(p6):
    L = LandmarkSet((0, 5))
    return build_alt_embedding(p6, L), build_distributed_embedding(p6, L)


class TestAltH:
    def test_p6_both_landmarks_agree(self, p6_pair):
        alt_e, _ = p6_pair
        ev = alt_h(alt_e, 1, 4)
        assert ev.value == 3
        assert ev.components == {"lm0": 3, "lm1": 3}
        assert ev.counters == (2, 0, 0, 2)
        assert make_alt_evaluator(alt_e)(1, 4) == (3, 2, 0, 0, 2)

    def test_same_vertex_zero(self, p6_pair):
        alt_e, _ = p6_pair
        assert alt_h(alt_e, 3, 3).value == 0
        assert make_alt_evaluator(alt_e)(3, 3)[0] == 0

    def test_single_landmark_counters(self, p6):
        e = build_alt_embedding(p6, LandmarkSet((0,)))
        ev = alt_h(e, 2, 3)
        assert ev.value == 1
        assert ev.counters == (1, 0, 0, 1)
        assert make_alt_evaluator(e)(2, 3) == (1, 1, 0, 0, 1)


class TestAlpComponents:
    def test_p6_cross_owner(self, p6_pair):
        _, alp_e = p6_pair
        c = alp_components(alp_e, 1, 4)
        assert c["pi1"] == 3
        assert c["pi2"] == -5
        assert c["pi3"] == 3
        assert c["pi4"] is None and c["pi5"] is None
        assert c["pi6"] == 3

    def test_p6_same_owner(self, p6_pair):
        _, alp_e = p6_pair
        c = alp_components(alp_e, 1, 2)
        assert c["pi4"] == 1 and c["pi5"] == 1
        assert c["pi1"] == -1  # a - b with the zero diagonal substituted
        assert c["pi2"] == 1
        assert c["pi3"] == 1
        assert c["pi6"] is None

    def test_same_vertex_shared_owner(self, p6_pair):
        _, alp_e = p6_pair
        assert alp_components(alp_e, 1, 1)["pi4"] == 0

    # SHA-256 of repr(alp_components(e, v, t)) over every ordered pair
    # (v, t) of corpus graphs 0-2, recorded before the candidates were
    # written once for both owner cases.
    GOLDEN = {
        0: "d37c56e2d9bb500811cd39e1167738c4b5580bd3991fc8d3268990d0267a21ce",
        1: "63c05fbb8c68a603759c974815cdfaa86f4c70b1c2a5ffb11f37c4a6b367bbb7",
        2: "41a9c48a26c9619c9aab27e200546f1af695f6c5c4f5b39fd0abb672466bc7e7",
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_corpus_golden(self, seed):
        g = corpusdef.corpus_graph(seed)
        e = build_distributed_embedding(g, corpusdef.corpus_landmarks(g, seed))
        digest = hashlib.sha256()
        for v in range(g.vertex_count):
            for t in range(g.vertex_count):
                digest.update(repr(alp_components(e, v, t)).encode())
        assert digest.hexdigest() == self.GOLDEN[seed]


class TestAlpDualH:
    """The search-loop evaluator against values and prices worked out by
    hand; oracles.alp_dual_h is the reference for everything else."""

    def test_p6_cross_value_and_counters(self, p6_pair):
        _, alp_e = p6_pair
        assert make_alp_evaluator(alp_e)(1, 4) == (3, 9, 2, 1, 4)

    def test_p6_same_owner_counters(self, p6_pair):
        _, alp_e = p6_pair
        assert make_alp_evaluator(alp_e)(1, 2) == (1, 8, 0, 0, 5)

    def test_negative_candidates_clamp_to_zero(self):
        # adjacent landmarks with a long tail behind each: endpoints
        # deep in opposite tails drive every candidate negative
        from polyroute import build_graph

        g = build_graph(
            6,
            [(0, 1, 1), (0, 2, 1), (2, 3, 1), (1, 4, 1), (4, 5, 1)],
        )
        e = build_distributed_embedding(g, LandmarkSet((0, 1)))
        comps = alp_components(e, 3, 5)
        cand = [c for c in comps.values() if c is not None]
        assert max(cand) < 0
        assert alp_dual_h(e, 3, 5).value == 0
        assert make_alp_evaluator(e)(3, 5)[0] == 0

    def test_reduced_mode_same_values(self):
        g = generate_random_connected(60, 25, 8)
        L = select_random(g, 4, 3)
        e = build_distributed_embedding(g, L)
        literal = make_alp_evaluator(e, "literal")
        reduced = make_alp_evaluator(e, "reduced")
        for v in range(0, 60, 3):
            for t in range(0, 60, 7):
                assert literal(v, t)[0] == reduced(v, t)[0]

    def test_reduced_mode_counters(self, p6_pair):
        _, alp_e = p6_pair
        h = make_alp_evaluator(alp_e, "reduced")
        assert h(1, 4) == (3, 4, 0, 0, 2)
        assert h(1, 2) == (1, 1, 0, 0, 1)

    def test_unknown_mode(self, p6_pair):
        _, alp_e = p6_pair
        with pytest.raises(ValueError, match="unknown mode"):
            make_alp_evaluator(alp_e, "fast")

    def test_value_matches_first_principles(self):
        g = generate_random_connected(40, 16, 12)
        edges = list(g.edges())
        rows = oracles.all_pairs(40, edges)
        L = select_random(g, 3, 6)
        e = build_distributed_embedding(g, L)
        h = make_alp_evaluator(e)
        for v in range(40):
            for t in range(40):
                value = h(v, t)[0]
                assert value == alp_dual_h(e, v, t).value
                assert value <= rows[v][t]


class TestEvaluators:
    def test_alt_evaluator_matches_rich_form(self):
        g = generate_random_connected(50, 20, 4)
        L = select_random(g, 4, 1)
        e = build_alt_embedding(g, L)
        fast = make_alt_evaluator(e)
        for v in range(0, 50, 3):
            for t in range(0, 50, 7):
                rich = alt_h(e, v, t)
                assert fast(v, t) == (rich.value, *rich.counters)
                assert rich.counters == (4, 0, 0, 4)

    def test_alp_evaluator_matches_rich_form(self):
        """Exact arithmetic: the two-term value and counters equal
        alp_dual_h's on every (v, t), in every mode."""
        for case, e in exact_alp_embeddings():
            nv = len(e.owner)
            for mode in MODES:
                fast = make_alp_evaluator(e, mode)
                for v in range(nv):
                    for t in range(nv):
                        rich = alp_dual_h(e, v, t, mode)
                        assert fast(v, t) == (rich.value, *rich.counters), \
                            (case, mode, v, t)

    def test_alp_evaluator_never_above_rich_form_on_tenths(self):
        """Rounded decimals: pi1, pi3 and pi6 round apart, and the
        two-term value may fall below alp_dual_h's, never above it."""
        g = weighted_grid(10, tenths)
        e = build_distributed_embedding(g, select_farthest(g, 8, seed=3))
        fast = make_alp_evaluator(e)
        for v in range(g.vertex_count):
            for t in range(g.vertex_count):
                assert fast(v, t)[0] <= alp_dual_h(e, v, t).value, (v, t)

    @pytest.mark.parametrize("weights", ["unit", "eighths"])
    def test_alp_astar_identical_to_rich_form(self, weights):
        g = weighted_grid(20, eighths if weights == "eighths" else lambda rng: 1)
        e = round_trip(build_distributed_embedding(g, select_farthest(g, 16, seed=6)))

        def reference(v, t):
            rich = alp_dual_h(e, v, t)
            return (rich.value, *rich.counters)

        h = make_alp_evaluator(e)
        rng = random.Random(7)
        reopened = 0
        for _ in range(60):
            s, t = rng.sample(range(g.vertex_count), 2)
            got = astar(g, s, t, h, trace=True)
            want = astar(g, s, t, reference, trace=True)
            assert got == want
            assert got.settle_order == want.settle_order
            reopened += got.reopened
        assert reopened > 0


def exact_alp_embeddings():
    """Distributed embeddings whose bound arithmetic is exact."""
    g = generate_random_connected(50, 20, 4)
    yield "unit", build_distributed_embedding(g, select_random(g, 4, 1))
    g = weighted_grid(9, lambda rng: rng.randint(1, 9))
    yield "int", build_distributed_embedding(g, select_farthest(g, 6, seed=1))
    g = weighted_grid(9, eighths)
    e = build_distributed_embedding(g, select_farthest(g, 6, seed=2))
    yield "eighths", round_trip(e)
    yield "inf matrix", two_components()[2]


def weighted_grid(side: int, weight):
    """side x side 4-neighbour lattice, edge weights drawn by weight(rng)."""
    rng = random.Random(side)
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1, weight(rng)))
            if r + 1 < side:
                edges.append((v, v + side, weight(rng)))
    return build_graph(side * side, edges)


def round_trip(e):
    buf = io.BytesIO()
    save_embedding(e, buf)
    buf.seek(0)
    return load_embedding(buf)


def two_components():
    """One landmark per component; the saved matrix holds inf off its
    diagonal."""
    g = build_graph(7, [(0, 1, 1), (1, 2, 0.5), (3, 4, 2), (4, 5, 1),
                        (5, 6, 0.25)])
    L = LandmarkSet((1, 5))
    return g, L, round_trip(build_distributed_embedding(g, L))


def test_disconnected_round_trip_is_exact():
    """The inf matrix entries load back, and every query through them
    stays exact."""
    g, L, alp_e = two_components()
    assert alp_e.lmatrix == [[0, math.inf], [math.inf, 0]]
    evaluators = [make_alt_evaluator(round_trip(build_alt_embedding(g, L)))]
    evaluators += [make_alp_evaluator(alp_e, mode) for mode in MODES]
    rows = corpusdef.all_pairs_oracle(g)
    for h in evaluators:
        for s in range(7):
            for t in range(7):
                assert astar(g, s, t, h).distance == rows[s][t]


def test_pi6_across_components_is_inf_not_nan():
    """Owners in different components give D = inf, where pi6 takes its
    limit. So the bound is inf whichever candidate max() meets first."""
    _, _, alp_e = two_components()
    comps = alp_components(alp_e, 0, 4)
    values = [c for c in comps.values() if c is not None]
    assert comps["pi6"] == math.inf
    assert not any(math.isnan(c) for c in values)
    assert max(values) == max(reversed(values)) == math.inf


def eighths(rng):
    return rng.randrange(1, 80) / 8


def tenths(rng):
    return rng.randrange(1, 100) / 10


def assert_matches_alt_h(e):
    h = make_alt_evaluator(e)
    nv = len(e.table[0])
    for v in range(nv):
        for t in range(nv):
            rich = alt_h(e, v, t)
            assert h(v, t) == (rich.value, *rich.counters), (v, t)


class TestAltEvaluatorStorage:
    """Packed doubles and tuples must give alt_h's value on every pair."""

    def test_integer_table_keeps_tuples(self):
        g = weighted_grid(7, lambda rng: rng.randint(1, 9))
        e = build_alt_embedding(g, select_farthest(g, 5, seed=1))
        assert _packed_columns(e.table) is None
        assert_matches_alt_h(e)

    def test_eighths_after_round_trip(self):
        g = weighted_grid(7, eighths)
        e = build_alt_embedding(g, select_farthest(g, 6, seed=2))
        assert {type(x) for row in e.table for x in row} == {int, float}
        # the table is written at a float code, so it loads floats only
        e = round_trip(e)
        assert {type(x) for row in e.table for x in row} == {float}
        assert _packed_columns(e.table) is not None
        assert_matches_alt_h(e)

    def test_decimal_tenths(self):
        g = weighted_grid(7, tenths)
        e = build_alt_embedding(g, select_farthest(g, 6, seed=3))
        assert _packed_columns(e.table) is not None
        assert_matches_alt_h(e)

    def test_two_components(self):
        # The first landmark sits in the other component from 4..7, so
        # pairs there meet |inf - inf| = nan before any finite term.
        edges = [(0, 1, 0.5), (1, 2, 1.25), (2, 3, 0.75),
                 (4, 5, 1.5), (5, 6, 0.25), (6, 7, 2.0), (4, 7, 4.5)]
        g = build_graph(8, edges)
        e = build_alt_embedding(g, LandmarkSet((0, 6, 3)))
        assert _packed_columns(e.table) is None
        assert_matches_alt_h(e)
        h = make_alt_evaluator(e)
        assert h(4, 7)[0] == 0.25
        assert h(1, 5)[0] == float("inf")

    # min and max pass a NaN by unless it comes first, so a NaN at any
    # place keeps tuples
    @pytest.mark.parametrize("at", [(0, 1), (1, 0), (1, 2)])
    def test_nan_entry_keeps_tuples(self, at):
        table = [[0, 0.5, 2.0], [1.5, 0, 0.25]]
        table[at[0]][at[1]] = math.nan
        e = AltEmbedding(LandmarkSet((0, 1)), table, [[0, 1], [1, 0]])
        assert _packed_columns(e.table) is None
        assert_matches_alt_h(e)

    def test_int_beyond_double_precision(self):
        big = 2**53 + 1  # float(big) == 2**53
        table = [[0, big, 0.5], [big, 0, 1.5]]
        e = AltEmbedding(LandmarkSet((0, 1)), table, [[0, big], [big, 0]])
        assert _packed_columns(e.table) is None
        assert make_alt_evaluator(e)(1, 0)[0] == big
        assert_matches_alt_h(e)

    # Entries of 2**49 or more in magnitude leave the top-byte test, so
    # min and max decide: below 2**53 packs, 2**53 and up keeps tuples.
    @pytest.mark.parametrize("big, packs", [
        (2.0**49, True), (2.0**53 - 1, True), (-(2.0**52 + 1), True),
        (2.0**53, False), (-(2.0**53), False), (2.0**60, False),
    ])
    def test_float_near_double_precision(self, big, packs):
        table = [[0, 0.5, big], [abs(big), 0, 1.5]]
        e = AltEmbedding(LandmarkSet((0, 1)), table, [[0, 1], [1, 0]])
        assert (_packed_columns(e.table) is not None) == packs
        assert_matches_alt_h(e)

    def test_astar_identical_on_float_grid(self):
        g = weighted_grid(12, eighths)
        e = round_trip(build_alt_embedding(g, select_farthest(g, 8, seed=4)))

        def reference(v, t):
            rich = alt_h(e, v, t)
            return (rich.value, *rich.counters)

        h = make_alt_evaluator(e)
        rng = random.Random(5)
        for _ in range(40):
            s, t = rng.sample(range(g.vertex_count), 2)
            got = astar(g, s, t, h, trace=True)
            want = astar(g, s, t, reference, trace=True)
            assert got == want
            assert got.settle_order == want.settle_order


class TestClassifyScenario:
    def test_p6_same_owner_is_s3(self, p6_pair):
        alt_e, alp_e = p6_pair
        # v=1, t=2: owners both 0; landmark 0 gives |1-2|=1, landmark 5
        # gives |4-3|=1, tie broken to index 0 = owner
        assert classify_scenario(alt_e, alp_e, 1, 2) == "S3"

    def test_p6_cross_pair_is_s1_or_s2(self, p6_pair):
        alt_e, alp_e = p6_pair
        # v=1, t=4: both landmarks give 3, tie to index 0 = owner of v
        assert classify_scenario(alt_e, alp_e, 1, 4) == "S1"

    def test_single_landmark_always_s3(self, p6):
        L = LandmarkSet((2,))
        alt_e = build_alt_embedding(p6, L)
        alp_e = build_distributed_embedding(p6, L)
        for v in range(6):
            for t in range(6):
                assert classify_scenario(alt_e, alp_e, v, t) == "S3"

    def test_landmark_mismatch_rejected(self, p6):
        alt_e = build_alt_embedding(p6, LandmarkSet((0, 5)))
        alp_e = build_distributed_embedding(p6, LandmarkSet((0, 4)))
        with pytest.raises(ValueError, match="disagree"):
            classify_scenario(alt_e, alp_e, 1, 2)

    def test_every_pair_gets_exactly_one_label(self):
        g = generate_random_connected(45, 18, 2)
        L = select_random(g, 4, 9)
        alt_e = build_alt_embedding(g, L)
        alp_e = build_distributed_embedding(g, L)
        for v in range(0, 45, 2):
            for t in range(0, 45, 3):
                assert classify_scenario(alt_e, alp_e, v, t) in (
                    "S1", "S2", "S3", "S4", "S5",
                )

    def test_all_five_scenarios_occur(self):
        seen = set()
        for seed in range(10):
            g = generate_random_connected(60, 30, seed)
            L = select_random(g, 4, seed)
            alt_e = build_alt_embedding(g, L)
            alp_e = build_distributed_embedding(g, L)
            for v in range(0, 60, 2):
                for t in range(0, 60, 3):
                    seen.add(classify_scenario(alt_e, alp_e, v, t))
            if len(seen) == 5:
                break
        assert seen == {"S1", "S2", "S3", "S4", "S5"}


class TestAdmissibilityOnNamedGraphs:
    @pytest.mark.parametrize("kind", ["alt", "alp"])
    def test_never_exceeds_true_distance(self, kind, p6, grid3, cycle6, star5):
        for g in (p6, grid3, cycle6, star5):
            oracle = corpusdef.all_pairs_oracle(g)
            n = g.vertex_count
            L = select_random(g, min(3, n), 0)
            if kind == "alt":
                h = make_alt_evaluator(build_alt_embedding(g, L))
            else:
                h = make_alp_evaluator(build_distributed_embedding(g, L))
            for v in range(n):
                for t in range(n):
                    assert h(v, t)[0] <= oracle[v][t]
