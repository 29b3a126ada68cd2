"""Landmark selection, embedding construction, accounting, serialization."""

import dataclasses
import hashlib
import io
import math
import os
import random
import re
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polyroute import (
    AltEmbedding,
    DistributedEmbedding,
    LandmarkSet,
    astar,
    build_alt_embedding,
    build_distributed_embedding,
    build_graph,
    check_embedding_fits,
    generate_grid,
    generate_random_connected,
    load_embedding,
    make_alp_evaluator,
    multi_source_spt,
    save_embedding,
    select_avoid,
    select_farthest,
    select_random,
    shortest_path_tree,
    space_accounting,
    track_kernels,
    truncated_spt,
)

import oracles
from corpusdef import all_pairs_oracle


def seed_with_first_randrange(n: int, want: int) -> int:
    """Smallest seed whose first randrange(n) draw equals want."""
    for seed in range(10_000):
        if random.Random(seed).randrange(n) == want:
            return seed
    raise AssertionError("no such seed in search range")


class TestLandmarkSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            LandmarkSet(())

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            LandmarkSet((1, 2, 1))

    def test_order_preserved(self):
        assert tuple(LandmarkSet((5, 0))) == (5, 0)

    def test_matrix_and_graph_ignored_by_equality(self, p6):
        rich = select_farthest(p6, 2, 0)
        assert rich.matrix and rich.graph is p6 and rich.rows
        bare = LandmarkSet(rich.ids)
        assert bare == rich
        assert hash(bare) == hash(rich)
        assert repr(bare) == repr(rich)
        assert bare.matrix == () and bare.graph is None and bare.rows == []
        assert select_random(p6, 2, 0).matrix == ()
        assert select_random(p6, 2, 0).rows == []

    @pytest.mark.parametrize("name", ["matrix", "graph", "rows"])
    def test_hand_off_fields_take_no_argument(self, p6, name):
        forged = {"matrix": ((0, 5),), "graph": p6, "rows": [[0] * 6]}
        with pytest.raises(TypeError, match=name):
            LandmarkSet((0, 5), **{name: forged[name]})


class TestSelectRandom:
    def test_all_vertices_when_k_equals_n(self, p6):
        assert sorted(select_random(p6, 6, 3).ids) == list(range(6))

    def test_single(self, p6):
        assert len(select_random(p6, 1, 0)) == 1

    def test_deterministic_replay(self):
        g = generate_random_connected(50, 20, 0)
        a = select_random(g, 4, 9)
        b = select_random(g, 4, 9)
        assert a.ids == b.ids
        assert len(set(a.ids)) == 4

    def test_k_out_of_range(self, p6):
        with pytest.raises(ValueError):
            select_random(p6, 0, 0)
        with pytest.raises(ValueError):
            select_random(p6, 7, 0)


class TestSelectFarthest:
    def test_p6_from_start_0(self, p6):
        seed = seed_with_first_randrange(6, 0)
        assert select_farthest(p6, 2, seed).ids == (5, 0)

    def test_single_is_farthest_from_start(self, p6):
        seed = seed_with_first_randrange(6, 2)
        # farthest vertex from 2 is 5 (distance 3)
        assert select_farthest(p6, 1, seed).ids == (5,)

    def test_2x2_opposite_corners(self, grid2):
        seed = seed_with_first_randrange(4, 0)
        assert select_farthest(grid2, 2, seed).ids == (3, 0)

    def test_distinct_and_min_distance_non_increasing(self):
        g = generate_random_connected(60, 25, 3)
        oracle = all_pairs_oracle(g)
        prev = None
        for k in range(2, 8):
            L = select_farthest(g, k, 17)
            assert len(set(L.ids)) == k
            pairwise_min = min(
                oracle[a][b] for a in L.ids for b in L.ids if a != b
            )
            if prev is not None:
                assert pairwise_min <= prev
            prev = pairwise_min

    def test_prefix_stability(self):
        # greedy traversal: smaller k is a prefix of larger k
        g = generate_random_connected(40, 15, 5)
        a = select_farthest(g, 3, 7).ids
        b = select_farthest(g, 5, 7).ids
        assert b[:3] == a


class TestSelectAvoid:
    def test_first_pick_is_max_weight_leaf(self, p6):
        # root 2: weights equal distances, heaviest subtree walks to 5
        seed = seed_with_first_randrange(6, 2)
        assert select_avoid(p6, 1, seed).ids == (5,)

    def test_p6_second_pick_covers_far_side(self, p6):
        # after landmark 5 every bound on the path is exact, so the
        # fallback picks the vertex farthest from 5, which is 0
        seed = seed_with_first_randrange(6, 2)
        assert select_avoid(p6, 2, seed).ids == (5, 0)

    def test_star_two_distinct_leaves(self, star5):
        for seed in range(6):
            L = select_avoid(star5, 2, seed)
            assert len(set(L.ids)) == 2
            for l in L.ids:
                assert l != 0, "center is never the farthest choice"

    def test_distinct_on_random_graphs(self):
        for seed in range(5):
            g = generate_random_connected(45, 18, seed)
            L = select_avoid(g, 6, seed)
            assert len(set(L.ids)) == 6


class TestBuildAlt:
    def test_p6_rows_and_matrix(self, p6):
        e = build_alt_embedding(p6, LandmarkSet((0, 5)))
        assert e.table == [[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]]
        assert e.lmatrix == [[0, 5], [5, 0]]

    def test_single_landmark_row_is_spt(self, grid3):
        e = build_alt_embedding(grid3, LandmarkSet((4,)))
        assert e.table[0] == shortest_path_tree(grid3, 4).dist

    def test_3x3_entry_count(self, grid3):
        e = build_alt_embedding(grid3, LandmarkSet((0, 8)))
        assert space_accounting(e) == (22, 22)

    def test_landmark_out_of_range(self, p6):
        with pytest.raises(ValueError, match="out of range"):
            build_alt_embedding(p6, LandmarkSet((0, 9)))


class TestBuildDistributed:
    def test_p6(self, p6):
        e = build_distributed_embedding(p6, LandmarkSet((0, 5)))
        assert e.owner == [0, 0, 0, 1, 1, 1]
        assert e.dist_to_owner == [0, 1, 2, 2, 1, 0]
        assert e.lmatrix == [[0, 5], [5, 0]]

    def test_all_vertices_as_landmarks(self, grid3):
        e = build_distributed_embedding(grid3, LandmarkSet(tuple(range(9))))
        assert e.dist_to_owner == [0] * 9
        assert e.owner == list(range(9))

    def test_3x3_entry_count(self, grid3):
        e = build_distributed_embedding(grid3, LandmarkSet((0, 8)))
        assert space_accounting(e) == (13, 13)

    def test_owner_ties_break_to_smaller_landmark_index(self, grid2):
        # landmarks listed as (3, 0): vertex 1 and 2 tie at distance 1,
        # and both go to index 0, which is vertex 3 here
        e = build_distributed_embedding(grid2, LandmarkSet((3, 0)))
        assert e.owner[1] == 0
        assert e.owner[2] == 0
        assert e.landmarks.ids[e.owner[1]] == 3

    def test_owner_attains_minimum(self):
        g = generate_random_connected(70, 30, 6)
        L = select_random(g, 5, 2)
        e = build_distributed_embedding(g, L)
        rows = {l: shortest_path_tree(g, l).dist for l in L.ids}
        for v in range(70):
            best = min(rows[l][v] for l in L.ids)
            assert e.dist_to_owner[v] == best
            assert rows[e.landmarks.ids[e.owner[v]]][v] == best

    def test_landmark_owns_itself(self):
        g = generate_random_connected(40, 10, 1)
        L = select_random(g, 4, 8)
        e = build_distributed_embedding(g, L)
        for i, l in enumerate(L.ids):
            assert e.owner[l] == i
            assert e.dist_to_owner[l] == 0

    def test_vertex_no_landmark_reaches(self):
        g = build_graph(5, [(0, 1, 1), (1, 2, 1), (3, 4, 1)])
        with pytest.raises(ValueError, match="vertex 3 is not reached"):
            build_distributed_embedding(g, LandmarkSet((0,)))

    def test_one_multi_source_pass_plus_matrix_runs(self, grid3):
        L = LandmarkSet((0, 4, 8))
        with track_kernels() as kc:
            build_distributed_embedding(grid3, L)
        assert kc.multi_source == 1
        assert kc.truncated_spt == 3
        assert kc.full_spt == 0

    def test_matrix_agrees_with_alt(self):
        g = generate_random_connected(50, 22, 3)
        L = select_random(g, 4, 5)
        assert (
            build_alt_embedding(g, L).lmatrix
            == build_distributed_embedding(g, L).lmatrix
        )


def reweighted(g, weight, seed: int):
    """g's edges with weights drawn by weight(rng)."""
    rng = random.Random(seed)
    return build_graph(
        g.vertex_count, [(u, v, weight(rng)) for u, v, _ in g.edges()]
    )


def eighths(rng):
    return rng.randrange(1, 80) / 8


def lemb_bytes(e) -> bytes:
    buf = io.BytesIO()
    save_embedding(e, buf)
    return buf.getvalue()


class Trickle(io.RawIOBase):
    """A stream that cannot seek and returns at most 5 bytes per read, as
    a raw stream may return fewer bytes than asked for."""

    def __init__(self, data):
        self.src = io.BytesIO(data)

    def readable(self):
        return True

    def read(self, size=-1):
        return self.src.read(min(size, 5))


def pipe_of(data: bytes):
    """data as a stream that cannot seek: the read end of an OS pipe."""
    r, w = os.pipe()
    os.write(w, data)
    os.close(w)
    return os.fdopen(r, "rb")


def assert_trailing_bytes_fail(data: bytes) -> None:
    """A file with 7 bytes appended fails to load, from a seekable stream
    and from one that cannot seek."""
    with pytest.raises(ValueError, match="^embedding file has 7 bytes "
                       "after the payload$"):
        load_embedding(io.BytesIO(data + b"garbage"))
    with pytest.raises(ValueError, match="^embedding file has bytes "
                       "after the payload$"):
        load_embedding(Trickle(data + b"garbage"))


def assert_cuts_labelled(data: bytes, header: int) -> None:
    """Every proper prefix of a file fails to load, labelled by where it
    ends: inside the first header bytes, code and scale bytes included,
    'truncated in header'; inside the payload the size check's message on
    a seekable stream and 'truncated in payload' on a pipe."""
    for cut in range(len(data)):
        if cut < header:
            seekable = piped = "^embedding file truncated in header$"
        else:
            seekable = "^embedding file truncated: header declares "
            piped = "^embedding file truncated in payload$"
        with pytest.raises(ValueError, match=seekable):
            load_embedding(io.BytesIO(data[:cut]))
        with pipe_of(data[:cut]) as pipe, pytest.raises(ValueError,
                                                        match=piped):
            load_embedding(pipe)


MATRIX_GRAPHS = {
    "int-random": lambda: reweighted(
        generate_random_connected(80, 40, 4), lambda rng: rng.randint(1, 9), 4
    ),
    "eighths-grid": lambda: reweighted(generate_grid(10, 10), eighths, 1),
    "tenths-grid": lambda: reweighted(
        generate_grid(10, 10), lambda rng: rng.randrange(1, 100) / 10, 1
    ),
}


class TestSelectorMatrixRows:
    """Selectors hand on the matrix rows and the full distance rows of
    their full trees."""

    @pytest.mark.parametrize("select", [select_farthest, select_avoid])
    @pytest.mark.parametrize("kind", sorted(MATRIX_GRAPHS))
    def test_same_embedding_as_bare_ids(self, select, kind):
        g = MATRIX_GRAPHS[kind]()
        L = select(g, 6, 3)
        assert L.matrix and L.graph is g
        e = build_distributed_embedding(g, L)
        bare = build_distributed_embedding(g, LandmarkSet(L.ids))
        assert e.owner == bare.owner
        # repr tells 1 from 1.0 and shows every digit of a float
        assert repr(e.dist_to_owner) == repr(bare.dist_to_owner)
        assert repr(e.lmatrix) == repr(bare.lmatrix)
        assert lemb_bytes(e) == lemb_bytes(bare)

    @pytest.mark.parametrize("select", [select_farthest, select_avoid])
    @pytest.mark.parametrize("kind", sorted(MATRIX_GRAPHS))
    def test_same_alt_embedding_as_bare_ids(self, select, kind):
        g = MATRIX_GRAPHS[kind]()
        L = select(g, 6, 3)
        assert L.rows
        e = build_alt_embedding(g, L)
        assert L.rows == []
        bare = build_alt_embedding(g, LandmarkSet(L.ids))
        assert repr(e.table) == repr(bare.table)
        assert repr(e.lmatrix) == repr(bare.lmatrix)
        assert lemb_bytes(e) == lemb_bytes(bare)
        # the hand-off happens once: a second build runs all k trees
        with track_kernels() as kc:
            again = build_alt_embedding(g, L)
        assert kc.full_spt == 6
        assert lemb_bytes(again) == lemb_bytes(e)

    @pytest.mark.parametrize(
        "select, rows, truncated", [(select_farthest, 4, 1), (select_avoid, 5, 0)]
    )
    def test_kernel_counts(self, select, rows, truncated):
        g = generate_grid(8, 8)
        L = select(g, 5, 2)
        assert len(L.matrix) == len(L.rows) == rows
        with track_kernels() as kc:
            build_distributed_embedding(g, L)
        assert (kc.full_spt, kc.multi_source, kc.truncated_spt) == (
            0, 1, truncated,
        )
        with track_kernels() as kc:
            build_alt_embedding(g, L)
        assert (kc.full_spt, kc.multi_source, kc.truncated_spt) == (
            5 - rows, 0, 0,
        )

    def test_pipeline_kernel_counts(self):
        # k trees in selection (the start and all landmarks but the
        # last), one in the ALT build, one truncated run in the matrix
        g = generate_grid(8, 8)
        with track_kernels() as kc:
            L = select_farthest(g, 5, 2)
            build_alt_embedding(g, L)
            build_distributed_embedding(g, L)
        assert (kc.full_spt, kc.multi_source, kc.truncated_spt) == (6, 1, 1)

    def test_farthest_runs_no_extra_tree(self):
        g = generate_grid(8, 8)
        with track_kernels() as kc:
            select_farthest(g, 5, 2)
        # one tree from the start, one from every landmark but the last
        assert kc.full_spt == 5

    def test_rows_from_another_graph_are_not_used(self):
        g1 = reweighted(generate_grid(8, 8), eighths, 1)
        g2 = reweighted(generate_grid(8, 8), eighths, 2)
        L = select_farthest(g1, 5, 2)
        with track_kernels() as kc:
            e = build_distributed_embedding(g2, L)
            alt = build_alt_embedding(g2, L)
        assert (kc.full_spt, kc.truncated_spt) == (5, 5)
        bare = build_distributed_embedding(g2, LandmarkSet(L.ids))
        assert repr(e.lmatrix) == repr(bare.lmatrix)
        bare_alt = build_alt_embedding(g2, LandmarkSet(L.ids))
        assert repr(alt.table) == repr(bare_alt.table)
        assert len(L.rows) == 4  # still there for a build on g1

    @pytest.mark.parametrize("select", [select_farthest, select_avoid])
    def test_replace_carries_no_hand_off(self, select):
        # reordering the ids keeps no matrix or rows of the old order
        g = generate_grid(10, 10)
        L = select(g, 4, 1)
        moved = dataclasses.replace(L, ids=tuple(reversed(L.ids)))
        assert moved.matrix == () and moved.graph is None and moved.rows == []
        for build in (build_alt_embedding, build_distributed_embedding):
            assert stored_fields(build(g, moved)) == stored_fields(
                build(g, LandmarkSet(moved.ids)))
        h = make_alp_evaluator(build_distributed_embedding(g, moved))
        oracle = all_pairs_oracle(g)
        for s in range(g.vertex_count):
            for t in range(g.vertex_count):
                assert astar(g, s, t, h).distance == oracle[s][t]


def two_components_and_an_isolated_vertex():
    """Eighths-weighted random graph on 0..29, vertex 30 alone, a unit
    5x5 grid on 31..55."""
    a = reweighted(generate_random_connected(30, 12, 6), eighths, 6)
    b = generate_grid(5, 5)
    shifted = [(u + 31, v + 31, w) for u, v, w in b.edges()]
    return build_graph(56, list(a.edges()) + shifted)


GOLDEN_SELECTOR_GRAPHS = {
    "int-random": lambda: reweighted(
        generate_random_connected(70, 30, 4), lambda rng: rng.randint(1, 9), 4
    ),
    "unit-grid": lambda: generate_grid(8, 9),
    "eighths-grid": lambda: reweighted(generate_grid(9, 8), eighths, 1),
    "tenths-random": lambda: reweighted(
        generate_random_connected(60, 25, 2),
        lambda rng: rng.randrange(1, 100) / 10, 2,
    ),
    "disconnected": two_components_and_an_isolated_vertex,
}


def selector_digest(select, g) -> str:
    """SHA-256 over every (ids, matrix, rows) the selector returns for
    k in (1, 2, 5, 9) and seeds 0-2; repr keeps every digit of a float
    and tells 1 from 1.0."""
    h = hashlib.sha256()
    for k in (1, 2, 5, 9):
        for seed in range(3):
            L = select(g, k, seed)
            h.update(repr((L.ids, L.matrix, L.rows)).encode())
    return h.hexdigest()


class TestSelectorGolden:
    """Every (ids, matrix, rows) the two selectors return, pinned by
    SHA-256. Every select_avoid case takes its farthest-point fallback at
    least once, so the fallback's picks are pinned too."""

    GOLDEN = {
        ("farthest", "disconnected"):
            "f0d9a83b9aa402d09743c56c6a77fa6ce846773234448133df0555cf7c257198",
        ("farthest", "eighths-grid"):
            "282c96d9f10a071101271bfbcd98e3b3f5c74037f939524f80246cbb8e9527d3",
        ("farthest", "int-random"):
            "1e1fdf5fdaa9d29ad1be2e81a2d9c718d4f3c3695b5157242164cdca4e68cc0c",
        ("farthest", "tenths-random"):
            "753a139c7a8b0a8b5e91a2a7e0dcf159b4191da77e90b739becef37be1e72144",
        ("farthest", "unit-grid"):
            "c177bf9cce9ff9fb059debc1f6b42c9d0cc85d6eed6f7522a58509acdae7195f",
        ("avoid", "disconnected"):
            "fa888ee741a4e492ce8e58156e500edbba637e3275d1b01e351a82a81b91f7b2",
        ("avoid", "eighths-grid"):
            "33919d35e683a8c2874e7afc4e8a24aa39e6f7dad2950d0245bd1a1c2afab206",
        ("avoid", "int-random"):
            "8b09e1b41a4040ccc0728d04f08b5daf8c5e56b1d80bfea8ac7312f68421ad8e",
        ("avoid", "tenths-random"):
            "bf1a898991877978f8d390af3ce772a4afa9e487f081398c9074da747092de76",
        ("avoid", "unit-grid"):
            "21090779d49139bc648910b9f2d653c6014d4853bfa90a444e94c7bc79a12f23",
    }

    @pytest.mark.parametrize("select, kind", sorted(GOLDEN))
    def test_selectors_unchanged(self, select, kind):
        g = GOLDEN_SELECTOR_GRAPHS[kind]()
        fn = {"farthest": select_farthest, "avoid": select_avoid}[select]
        assert selector_digest(fn, g) == self.GOLDEN[select, kind]

    def test_avoid_fallback_runs_no_sweep(self, p6):
        # the second pick is the fallback (see TestSelectAvoid); it reads
        # the nearest-landmark distances off the rows already held
        seed = seed_with_first_randrange(6, 2)
        with track_kernels() as kc:
            L = select_avoid(p6, 2, seed)
        assert L.ids == (5, 0)
        assert (kc.full_spt, kc.multi_source, kc.truncated_spt) == (4, 0, 0)


def distributed_digest(select, g) -> str:
    """SHA-256 over (owner, dist_to_owner, lmatrix) of the distributed
    build from every set the selector returns for k in (1, 2, 5, 9) and
    seeds 0-2."""
    h = hashlib.sha256()
    for k in (1, 2, 5, 9):
        for seed in range(3):
            e = build_distributed_embedding(g, select(g, k, seed))
            h.update(repr((e.owner, e.dist_to_owner, e.lmatrix)).encode())
    return h.hexdigest()


def kernel_digest(g) -> str:
    """SHA-256 over (dist, parent) of a full tree from every vertex, and
    of a sweep and a truncated run from seeded random sources for k in
    (1, 2, 5, 9) and seeds 0-2 (the truncated run starts at the first
    source and watches them all)."""
    n = g.vertex_count
    h = hashlib.sha256()
    runs = [shortest_path_tree(g, s) for s in range(n)]
    for k in (1, 2, 5, 9):
        for seed in range(3):
            sources = random.Random(seed).sample(range(n), k)
            runs.append(multi_source_spt(g, sources))
            runs.append(truncated_spt(g, sources[0], sources))
    for dm in runs:
        h.update(repr((dm.dist, dm.parent)).encode())
    return h.hexdigest()


class TestSweepGolden:
    """The distributed build and the kernels' (dist, parent), pinned by
    SHA-256 on the connected golden graphs."""

    DISTRIBUTED = {
        ("random", "eighths-grid"):
            "0913c8e873673a194aa02370195e81ef56beac325ec5478742d1f22fd353adef",
        ("random", "int-random"):
            "7d60995a0ea9d4a5ffeb49501aa5b08cf37127bf54d8aee43c996aa042488fb4",
        ("random", "tenths-random"):
            "2b39f6b84f5daf61869d561c46a200f4547f14ae1b46304ac863a3654c86e2b0",
        ("random", "unit-grid"):
            "4dc713e94dfb50034609ea3a0c85bc75075c4955f91179643c8f2ce75a3308aa",
        ("farthest", "eighths-grid"):
            "34c9b98e049b491d4d2f93530ee66354146b8542f50a533e63fc375abb39f4c5",
        ("farthest", "int-random"):
            "c890d96fe720bf8b3bf1c1f23d10f98dc8cee544a449d72501eeef5081a026c9",
        ("farthest", "tenths-random"):
            "7396cebfff966af4e9edb3882115b7474ac9d23e365ec63d940d3c39d1efd24f",
        ("farthest", "unit-grid"):
            "8319584b891b4d23adf811118099973a1682cb829bf2ee74710e07c3c34bde1f",
        ("avoid", "eighths-grid"):
            "229f1d86c2cc6509be97691f307d5aa962c1cea97f80b02a7604326c9d8a8044",
        ("avoid", "int-random"):
            "5ceb6673c909fa97e3b3ecfbbc8a359d73c668c00a7b475133ffc3b2fe295ee6",
        ("avoid", "tenths-random"):
            "64523e5104d69102bec84bad49d3e08a5fd6befc7b5de5dec013daeb7b51935c",
        ("avoid", "unit-grid"):
            "c128c88810becc960f8cd49f099e477167bc0d5ae837cf2c6c7ef43bbed637cd",
    }

    KERNELS = {
        "eighths-grid":
            "84486f4955c6b0653550be9a375cef3420abef27ee881edb2ac71c61769f913a",
        "int-random":
            "1439a95c8edb96e87ea755f658af38a9b1ed4da19f3d74d798ba7d3875a846d1",
        "tenths-random":
            "1a10b45e0d2a5e55c2cd0439de463cb144db86ab804e1f162f42ae3ce9b3ebc3",
        "unit-grid":
            "cc61b538f08c48145542c9798444b8dcc1ca90565f80924af77558ab7a253b4e",
    }

    @pytest.mark.parametrize("select, kind", sorted(DISTRIBUTED))
    def test_distributed_build_unchanged(self, select, kind):
        g = GOLDEN_SELECTOR_GRAPHS[kind]()
        fn = {"random": select_random, "farthest": select_farthest,
              "avoid": select_avoid}[select]
        assert distributed_digest(fn, g) == self.DISTRIBUTED[select, kind]

    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_kernels_unchanged(self, kind):
        g = GOLDEN_SELECTOR_GRAPHS[kind]()
        assert kernel_digest(g) == self.KERNELS[kind]


class TestSpaceAccounting:
    def test_p6_both_kinds(self, p6):
        L = LandmarkSet((0, 5))
        assert space_accounting(build_distributed_embedding(p6, L)) == (10, 10)
        assert space_accounting(build_alt_embedding(p6, L)) == (16, 16)

    def test_single_landmark(self, grid3):
        e = build_distributed_embedding(grid3, LandmarkSet((4,)))
        stored, formula = space_accounting(e)
        assert stored == formula == 9 + 1


class TestSerialization:
    def _round_trip(self, e):
        buf = io.BytesIO()
        save_embedding(e, buf)
        buf.seek(0)
        return load_embedding(buf)

    def test_alt_round_trip(self, grid3):
        e = build_alt_embedding(grid3, LandmarkSet((0, 8)))
        r = self._round_trip(e)
        assert r == e

    def test_distributed_round_trip(self, p6):
        e = build_distributed_embedding(p6, LandmarkSet((0, 5)))
        r = self._round_trip(e)
        assert r == e

    def test_float_distances_survive(self):
        g = build_graph(3, [(0, 1, 0.5), (1, 2, 2.25)])
        e = build_distributed_embedding(g, LandmarkSet((0,)))
        r = self._round_trip(e)
        assert r.dist_to_owner == [0, 0.5, 2.75]

    def test_disconnected_alt_round_trip(self):
        g = build_graph(5, [(0, 1, 1), (1, 2, 0.5), (3, 4, 2)])
        e = build_alt_embedding(g, LandmarkSet((0, 3)))
        assert e.table[0][3] == float("inf")
        r = self._round_trip(e)
        assert r == e
        assert r.table == [[0, 1, 1.5, float("inf"), float("inf")],
                           [float("inf"), float("inf"), float("inf"), 0, 2]]

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            load_embedding(io.BytesIO(b"XXXX" + b"\0" * 20))

    def test_truncated_payload(self, p6):
        e = build_distributed_embedding(p6, LandmarkSet((0, 5)))
        data = oracles.lemb_v1_bytes(e)[:-4]
        with pytest.raises(ValueError, match="truncated"):
            load_embedding(io.BytesIO(data))

    def test_owner_index_beyond_landmarks(self, p6):
        e = build_distributed_embedding(p6, LandmarkSet((0, 5)))
        data = bytearray(oracles.lemb_v1_bytes(e))
        # version 1: header 24 bytes, two u64 landmark ids, then one u64
        # owner per vertex
        data[48:56] = struct.pack("<Q", 7)
        with pytest.raises(ValueError, match="vertex 1 has owner index 7"):
            load_embedding(io.BytesIO(bytes(data)))

    @pytest.mark.parametrize("kind", [1, 2])
    @pytest.mark.parametrize("nv, k", [(6, 2**61), (2**61, 2)])
    def test_header_counts_beyond_file(self, kind, nv, k):
        data = struct.pack("<4sBB2xQQ", b"LEMB", 1, kind, nv, k) + bytes(200)
        with pytest.raises(ValueError, match=f"declares {nv} vertices and {k}"):
            load_embedding(io.BytesIO(data))

    @pytest.mark.parametrize("kind", [1, 2])
    @pytest.mark.parametrize("nv, k", [(6, 2**61), (2**40, 2)])
    def test_header_counts_beyond_pipe(self, kind, nv, k):
        data = struct.pack("<4sBB2xQQQQ", b"LEMB", 1, kind, nv, k, 0, 1)
        data += bytes(200)
        with pipe_of(data) as stream:
            assert not stream.seekable()
            with pytest.raises(ValueError, match="truncated in payload"):
                load_embedding(stream)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_cut_in_header_counts(self, p6, version):
        e = build_distributed_embedding(p6, LandmarkSet((0, 5)))
        data = {1: oracles.lemb_v1_bytes(e),
                2: oracles.lemb_v2_bytes(e, "BBBB"),
                3: lemb_bytes(e)}[version]
        for cut in range(8, 24):
            for stream in (io.BytesIO(data[:cut]), pipe_of(data[:cut])):
                with stream, pytest.raises(
                        ValueError, match="^embedding file truncated in header$"):
                    load_embedding(stream)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_unknown_kind_fails_before_counts(self, version):
        head = struct.pack("<4sBB2x", b"LEMB", version, 9)
        with pytest.raises(ValueError, match="^unknown embedding kind 9$"):
            load_embedding(io.BytesIO(head))

    def test_short_reads(self, p6):
        for e in (build_alt_embedding(p6, LandmarkSet((0, 5))),
                  build_distributed_embedding(p6, LandmarkSet((0, 5)))):
            for data in (lemb_bytes(e), oracles.lemb_v1_bytes(e)):
                assert load_embedding(Trickle(data)) == e

    def test_deterministic_bytes(self, grid3):
        e = build_distributed_embedding(grid3, LandmarkSet((0, 8)))
        a, b = io.BytesIO(), io.BytesIO()
        save_embedding(e, a)
        save_embedding(e, b)
        assert a.getvalue() == b.getvalue()


def half(bits: int) -> float:
    """The f16 with this bit pattern."""
    return struct.unpack("<e", struct.pack("<H", bits))[0]


# Every finite positive f16; and values just past f16: the midpoint after
# each (one bit more, or in the subnormal range half a step) and eighths
# above 65,504, the largest f16.
HALF_EXACT = st.integers(1, 0x7BFF).map(half)
PAST_HALF = st.one_of(
    st.integers(0, 0x7BFE).map(lambda b: (half(b) + half(b + 1)) / 2),
    st.integers(1, 2**10).map(lambda n: 65504 + n / 8),
)


lemb_values = st.one_of(
    st.integers(0, 2**53),
    st.integers(2**53 - 64, 2**53),
    st.integers(0, 2**20).filter(lambda n: n % 8).map(lambda n: n / 8),
    st.integers(0, 10**6).filter(lambda n: n % 10).map(lambda n: n / 10),
    st.integers(1, 64).map(lambda j: 2.0**52 - j - 0.5),
    HALF_EXACT,
    PAST_HALF,
    st.just(math.inf),
)


@st.composite
def lemb_embeddings(draw):
    ids = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4,
                        unique=True))
    k, nv = len(ids), draw(st.integers(1, 6))
    rows = lambda count, per, values=lemb_values: [
        draw(st.lists(values, min_size=per, max_size=per))
        for _ in range(count)
    ]
    # load_embedding refuses a nonzero diagonal, a 0 between two distinct
    # landmarks and an infinite owner distance, so none is drawn.
    L = LandmarkSet(tuple(ids))
    lmatrix = [[0 if i == j else draw(lemb_values.filter(bool))
                for j in range(k)] for i in range(k)]
    if draw(st.booleans()):
        return AltEmbedding(L, rows(k, nv), lmatrix)
    owner = draw(st.lists(st.integers(0, k - 1), min_size=nv, max_size=nv))
    finite = lemb_values.filter(math.isfinite)
    return DistributedEmbedding(L, owner, rows(1, nv, finite)[0], lmatrix)


def stored_fields(e):
    """Every stored value, with its type showing in the repr."""
    return repr([getattr(e, f.name) for f in dataclasses.fields(e)])


def assert_types_follow_codes(back, data: bytes) -> None:
    """Every value of back, the load of data, has the type its section's
    code sets: an int at an int code with scale 0, a float at a float code
    or a nonzero scale. Version 1 stores indices as Q and distances as d.
    A triangle's diagonal, which no file stores, is an int 0."""
    version, triangle = data[4], data[4] == 3 and data[6] == 1
    got = v3_sections(back) if triangle else sections(back)
    n = len(got)
    codes = (data[24:24 + n].decode() if version > 1
             else ["d" if distance else "Q" for _, distance in got])
    scales = data[24 + n:24 + 2 * n] if version == 3 else bytes(n)
    for (values, _), code, scale in zip(got, codes, scales):
        want = int if code in "BHIQ" and not scale else float
        assert {type(x) for x in values} <= {want}, (code, scale)
    if triangle:
        assert [repr(row[i]) for i, row in enumerate(back.lmatrix)] == [
            "0"] * len(back.lmatrix)


def assert_loads(e, *files: bytes) -> None:
    """Each file loads to values == e's, of the types its codes set, and
    the load re-saves as save_embedding writes e."""
    want = lemb_bytes(e)
    for data in files:
        back = load_embedding(io.BytesIO(data))
        assert back == e
        assert_types_follow_codes(back, data)
        assert lemb_bytes(back) == want


class TestLembLayout:
    """The version 1 bytes that load_embedding must keep reading, and the
    values and refusals it must keep. The files come from the version 1
    writer in oracles, so the offsets below are version 1's."""

    def golden(self):
        alt = build_alt_embedding(
            build_graph(5, [(0, 1, 1), (1, 2, 0.375), (3, 4, 2.5)]),
            LandmarkSet((0, 3)),
        )
        assert alt.table == [[0, 1, 1.375, math.inf, math.inf],
                             [math.inf, math.inf, math.inf, 0, 2.5]]
        g = build_graph(6, [(0, 1, 1), (1, 2, 0.125), (2, 3, 2), (3, 4, 0.75),
                            (4, 5, 3)])
        alp = build_distributed_embedding(g, LandmarkSet((5, 0)))
        assert alp.dist_to_owner == [0, 1, 1.125, 3.125, 3, 0]
        return alt, alp

    def test_golden_bytes(self):
        alt, alp = self.golden()
        a, d = oracles.lemb_v1_bytes(alt), oracles.lemb_v1_bytes(alp)
        assert (len(a), hashlib.sha256(a).hexdigest()) == (
            152, "6baa74220b1ab5067a36a73372d59a333fd4ec065fd7f901f1c72f993ec4ece7")
        assert (len(d), hashlib.sha256(d).hexdigest()) == (
            168, "140d38642f732cf57e7affa8cb1a1b5511610709c542f892b2d8039a34736241")
        assert_loads(alt, a)
        assert_loads(alp, d)

    @settings(deadline=None, max_examples=150)
    @given(lemb_embeddings())
    def test_round_trip_keeps_values_and_bytes(self, e):
        assert_loads(e, lemb_bytes(e), oracles.lemb_v1_bytes(e))

    @pytest.mark.parametrize("bad", [math.nan, -3.0, -math.inf, -0.0])
    @pytest.mark.parametrize("which, name, start, count", [
        (0, "distance table", 40, 10),
        (0, "landmark matrix", 120, 4),
        (1, "owner distances", 88, 6),
        (1, "landmark matrix", 136, 4),
    ])
    def test_nan_or_negative_distance_fails(self, which, name, start, count,
                                            bad):
        # sections at byte offsets: header 24, landmark ids 16, owners 48
        data = oracles.lemb_v1_bytes(self.golden()[which])
        for at in (start, start + 8 * (count - 1)):
            corrupt = data[:at] + struct.pack("<d", bad) + data[at + 8:]
            with pytest.raises(
                ValueError, match=f"^embedding file has a NaN or negative "
                f"value in the {name}$"
            ):
                load_embedding(io.BytesIO(corrupt))

    # matrix sections at byte offsets 120 (full) and 136 (distributed);
    # the golden full embedding holds inf off its diagonal, and loads
    @pytest.mark.parametrize("which, at, entry", [
        (0, 128, "(0,1)"), (0, 136, "(1,0)"), (1, 144, "(0,1)"), (1, 152, "(1,0)"),
    ])
    def test_zero_between_distinct_landmarks_fails(self, which, at, entry):
        data = oracles.lemb_v1_bytes(self.golden()[which])
        corrupt = data[:at] + struct.pack("<d", 0.0) + data[at + 8:]
        with pytest.raises(ValueError, match=re.escape(
                "embedding file has a 0 off the diagonal of the landmark "
                f"matrix, at {entry}")):
            load_embedding(io.BytesIO(corrupt))

    # diagonal entries (0,0) and (1,1) of the matrix sections at byte
    # offsets 120 (full) and 136 (distributed)
    @pytest.mark.parametrize("bad", [9.0, 0.5, math.inf])
    @pytest.mark.parametrize("which, at, i", [
        (0, 120, 0), (0, 144, 1), (1, 136, 0), (1, 160, 1),
    ])
    def test_nonzero_diagonal_fails(self, which, at, i, bad):
        data = oracles.lemb_v1_bytes(self.golden()[which])
        assert struct.unpack_from("<d", data, at) == (0.0,)
        corrupt = data[:at] + struct.pack("<d", bad) + data[at + 8:]
        with pytest.raises(ValueError, match=re.escape(
                "embedding file has a nonzero diagonal entry of the "
                f"landmark matrix, at ({i},{i})")):
            load_embedding(io.BytesIO(corrupt))

    @pytest.mark.parametrize("v", range(6))
    def test_infinite_owner_distance_fails(self, v):
        data = oracles.lemb_v1_bytes(self.golden()[1])
        at = 88 + 8 * v
        corrupt = data[:at] + struct.pack("<d", math.inf) + data[at + 8:]
        with pytest.raises(ValueError, match=f"^vertex {v} has an infinite "
                           "owner distance$"):
            load_embedding(io.BytesIO(corrupt))

    @pytest.mark.parametrize("which", [0, 1])
    def test_bytes_after_payload_fail(self, which):
        data = oracles.lemb_v1_bytes(self.golden()[which])
        for extra in (b"garbage", data):
            with pytest.raises(ValueError, match=f"^embedding file has "
                               f"{len(extra)} bytes after the payload$"):
                load_embedding(io.BytesIO(data + extra))
            with pipe_of(data + extra) as pipe:
                for stream in (Trickle(data + extra), pipe):
                    assert not stream.seekable()
                    with pytest.raises(ValueError, match="^embedding file "
                                       "has bytes after the payload$"):
                        load_embedding(stream)

    @pytest.mark.parametrize("which", [0, 1])
    def test_every_truncation_fails(self, which):
        assert_cuts_labelled(oracles.lemb_v1_bytes(self.golden()[which]), 24)


def v2_header(kind, nv, k, codes):
    return struct.pack("<4sBB2xQQ", b"LEMB", 2, kind, nv, k) + codes


def narrowest_code(values, distance):
    """The code version 2 must give one section, decided value by value;
    version 3 keeps it as the section's float code."""
    def uint(x):
        return (math.isfinite(x) and x == int(x) and 0 <= x < 2**64
                and math.copysign(1, x) > 0)

    def holds(code, x):
        try:
            back = struct.unpack(code, struct.pack(code, x))[0]
        except (OverflowError, struct.error):
            return False
        return back == x and math.copysign(1, x) > 0

    if not distance or all(map(uint, values)):
        top = max(values, default=0)
        return next(c for c, bits in zip("BHIQ", (8, 16, 32, 64))
                    if top < 2**bits)
    return next((code for code in "ef"
                 if all(holds("<" + code, x) for x in values)), "d")


def fixed_point_code(values, float_code):
    """(code, scale) version 3 must give a distance section whose version 2
    code is float_code, or None: each value a finite binary fraction, not
    negative, stored as x * 2**s at the smallest s, at an int code strictly
    narrower than float_code."""
    if float_code in "BHIQ" or not all(
            math.isfinite(x) and math.copysign(1, x) > 0 for x in values):
        return None
    exact = [Fraction(x) for x in values]
    scale = max(f.denominator for f in exact).bit_length() - 1
    top = max(exact) * 2**scale
    code = next((c for c, bits in zip("BHI", (8, 16, 32)) if top < 2**bits),
                "Q")
    if scale > 255 or struct.calcsize(code) >= struct.calcsize(float_code):
        return None
    return code, scale


# The values of one distance section come from a drawn subset of these,
# so sections of ints alone, of integral floats alone, and mixes occur.
SECTION_VALUES = (
    st.integers(0, 255),
    st.integers(0, 2**53),
    st.integers(0, 2**20).map(float),
    st.integers(0, 2**20).filter(lambda n: n % 8).map(lambda n: n / 8),
    st.integers(0, 10**6).filter(lambda n: n % 10).map(lambda n: n / 10),
    HALF_EXACT,
    PAST_HALF,
    st.just(math.inf),
)

# The entries of a drawn symmetric landmark matrix, one kind per matrix.
SYMMETRIC_VALUES = (
    st.integers(1, 2**20),
    st.integers(1, 2**20).filter(lambda n: n % 8).map(lambda n: n / 8),
    st.integers(1, 10**6).filter(lambda n: n % 10).map(lambda n: n / 10),
    st.integers(1, 2**10).map(lambda n: n / 8) | st.just(math.inf),
)


@st.composite
def mixed_embeddings(draw):
    """Embeddings whose sections mix ints, integral floats such as 3.0,
    eighths, tenths, f16 values, values just past f16 and inf, within the
    values a load accepts. The landmark matrix is drawn either entry by
    entry, as a directed graph's may be, or symmetric with entries of one
    kind (ints, eighths, tenths, or eighths and inf), an int x mirrored as
    x or as float(x)."""
    def section_values(finite=False):
        picks = draw(st.sets(st.integers(0, len(SECTION_VALUES) - 1),
                             min_size=1))
        values = st.one_of(*(SECTION_VALUES[i] for i in sorted(picks)))
        return values.filter(math.isfinite) if finite else values

    ids = draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=4,
                        unique=True))
    k, nv = len(ids), draw(st.integers(1, 6))
    L = LandmarkSet(tuple(ids))
    lmatrix = [[draw(st.sampled_from([0, 0.0])) if i == j else None
                for j in range(k)] for i in range(k)]
    if draw(st.booleans()):
        off = draw(st.sampled_from(SYMMETRIC_VALUES))
        for i in range(k):
            for j in range(i + 1, k):
                x = lmatrix[i][j] = draw(off)
                lmatrix[j][i] = (float(x) if type(x) is int and draw(
                    st.booleans()) else x)
    else:
        off = section_values().filter(bool)
        for i in range(k):
            for j in range(k):
                if i != j:
                    lmatrix[i][j] = draw(off)
    if draw(st.booleans()):
        values = section_values()
        table = [draw(st.lists(values, min_size=nv, max_size=nv))
                 for _ in range(k)]
        return AltEmbedding(L, table, lmatrix)
    owner = draw(st.lists(st.integers(0, k - 1), min_size=nv, max_size=nv))
    dist = draw(st.lists(section_values(finite=True), min_size=nv,
                         max_size=nv))
    return DistributedEmbedding(L, owner, dist, lmatrix)


def sections(e):
    """(values, holds distances) of each section, in file order."""
    if isinstance(e, AltEmbedding):
        return [(list(e.landmarks.ids), False),
                ([x for row in e.table for x in row], True),
                ([x for row in e.lmatrix for x in row], True)]
    return [(list(e.landmarks.ids), False), (e.owner, False),
            (e.dist_to_owner, True),
            ([x for row in e.lmatrix for x in row], True)]


def triangular(m) -> bool:
    """Whether version 3 must store m as its entries above the diagonal:
    exactly symmetric, with a diagonal of 0 and not -0.0."""
    k = len(m)
    return all(m[i][j] == m[j][i] for i in range(k) for j in range(k)) and all(
        m[i][i] == 0 and math.copysign(1, m[i][i]) > 0 for i in range(k))


def v3_sections(e):
    """sections(e) as version 3 stores them: the landmark matrix as its
    entries above the diagonal, row-major, where triangular."""
    out = sections(e)
    m = e.lmatrix
    if triangular(m):
        out[-1] = ([m[i][j] for i in range(len(m)) for j in range(i + 1, len(m))],
                   True)
    return out


def v3_codes(e) -> tuple:
    """(matrix form byte, code bytes, scale bytes) version 3 must write."""
    codes, scales = "", []
    for values, distance in v3_sections(e):
        code = narrowest_code(values, distance)
        code, scale = (distance and fixed_point_code(values, code)) or (code, 0)
        codes += code
        scales.append(scale)
    return int(triangular(e.lmatrix)), codes.encode(), bytes(scales)


def header_codes(data: bytes, count: int) -> tuple:
    """(matrix form byte, code bytes, scale bytes) of a version 3 file with
    count sections."""
    return data[6], data[24:24 + count], data[24 + count:24 + 2 * count]


# The codes the version 2 writer gave TestLembV2.golden()'s embeddings.
GOLDEN_V2_CODES = ("Bee", "BBee", "IBQd", "HHB")


class TestLembV2:
    """The code rule of version 2, which version 3 keeps for each section
    that takes no fixed-point code, and the version 2 files load_embedding
    must keep reading. files() and previous() come from the version 2
    writer in oracles, so the offsets below are version 2's."""

    def golden(self):
        alt, alp = TestLembLayout().golden()
        # ids I, owners B, owner distances Q, matrix d
        wide = DistributedEmbedding(LandmarkSet((70000, 3)), [0, 1, 1],
                                    [0, 300, 2**40], [[0, 0.1], [0.1, 0]])
        # ids H, table H (7.0 is integral), matrix B
        narrow = AltEmbedding(LandmarkSet((300,)), [[0, 300, 7.0]], [[0]])
        return alt, alp, wide, narrow

    def files(self):
        """The golden embeddings as the version 2 writer wrote them."""
        return [oracles.lemb_v2_bytes(e, codes)
                for e, codes in zip(self.golden(), GOLDEN_V2_CODES)]

    def previous(self):
        """The golden full and distributed files as a writer without f16
        codes wrote them, with the eighths at f (f32)."""
        alt, alp = self.golden()[:2]
        return (oracles.lemb_v2_bytes(alt, "Bff"),
                oracles.lemb_v2_bytes(alp, "BBff"))

    def test_golden_bytes(self):
        # the bytes save_embedding wrote up to version 2, pinned as files
        got = self.files()
        assert [(len(d), d[24:28], hashlib.sha256(d).hexdigest())
                for d in got] == [
            (57, b"Bee\x00",
             "c72a68e02becd2b2462bef8a83e1d41cd6d94ff14da3eabcdf09da11886b6418"),
            (56, b"BBee",
             "9913722a21909744ab3b2f8a5b2914a550eaa47b7560f6c5e7d0e63ab20d09b4"),
            (95, b"IBQd",
             "835320b5d10efc1ecd4a83e897d51ac0a9e3b074615c8cbcc8d332235e49514c"),
            (36, b"HHB,",
             "1f459e9eb323635fa3b5619dc06e0ea723127ad97d72c7a08f02557853c9da43"),
        ]
        assert list(GOLDEN_V2_CODES) == [
            "".join(narrowest_code(values, distance)
                    for values, distance in sections(e))
            for e in self.golden()]

    def test_golden_values(self):
        for e, old in zip(self.golden(), self.files()):
            assert_loads(e, old, oracles.lemb_v1_bytes(e))
        # 7.0 was written at H, so it loads as an int
        assert repr(load_embedding(io.BytesIO(self.files()[3])).table) \
            == "[[0, 300, 7]]"

    def test_previous_writer_files_load(self):
        assert [(len(d), hashlib.sha256(d).hexdigest())
                for d in self.previous()] == [
            (85, "125fd6ab377c89d44501fb70291f9d8d2f814f525eef772909cf3e4c4548901d"),
            (76, "223fd002cdba9d1dde71fa386f10b35a6a12946bf676c9df8bdc7230371c92ba"),
        ]
        for e, old in zip(self.golden(), self.previous()):
            assert_loads(e, old, lemb_bytes(e))

    @settings(deadline=None, max_examples=200)
    @given(mixed_embeddings())
    def test_codes_follow_values(self, e):
        # the file the version 2 writer wrote: each section at narrowest_code
        codes = "".join(narrowest_code(values, distance)
                        for values, distance in sections(e))
        assert_loads(e, oracles.lemb_v2_bytes(e, codes),
                     oracles.lemb_v1_bytes(e))

    @pytest.mark.parametrize("build", [build_alt_embedding,
                                       build_distributed_embedding])
    def test_built_eighths_grid_rewrites_same_bytes(self, build):
        g = reweighted(generate_grid(10, 10), eighths, 1)
        e = build(g, select_farthest(g, 4, 1))
        data = lemb_bytes(e)
        assert b"e" in data[24:28]
        assert_loads(e, data)

    @pytest.mark.parametrize("build", [build_alt_embedding,
                                       build_distributed_embedding])
    def test_built_eighths_past_2048_stay_f(self, build):
        # f16 holds no odd eighth above 256 and no fraction above 1,024, so
        # each distance section's version 2 code is f; version 3 writes the
        # eighths as u16 at scale 3 instead, narrower than f
        g = reweighted(generate_grid(10, 10), lambda rng: 300 + eighths(rng), 1)
        e = build(g, select_farthest(g, 4, 1))
        codes = "".join(narrowest_code(values, distance)
                        for values, distance in sections(e))
        assert codes[-2:] == "ff" and "e" not in codes
        data = lemb_bytes(e)
        n = len(codes)
        assert header_codes(data, n)[1:] == (
            codes[:-2].encode() + b"HH", bytes(n - 2) + b"\x03\x03")
        assert_loads(e, data, oracles.lemb_v2_bytes(e, codes))

    @pytest.mark.parametrize("top, code", [
        (255, "B"), (255.0, "B"), (256, "H"), (2**16 - 1, "H"), (2**16, "I"),
        (2**32 - 1, "I"), (2**32, "Q"), (2**53 - 1, "Q"), (2**53, "Q"),
        (2.0**53, "Q"), (2**53 + 2, "Q"), (2**64 - 2**11, "Q"), (2**64, "f"),
        (2.0**64, "f"), (0.125, "e"), (1023.5, "e"), (2047.5, "f"),
        (2.0**-24, "e"), (2.0**-25, "f"), (65504.5, "f"), (65520.5, "f"),
        (2.0**-149, "f"),
        (2.0**-150 * 3, "d"), (2.0**128, "d"), (2**128 + 2**76, "d"),
    ])
    def test_distance_code_boundaries(self, top, code):
        # code is the version 2 code; version 3 writes it unless a
        # fixed-point code is narrower (TestLembV3 pins those by value)
        e = AltEmbedding(LandmarkSet((0, 1)), [[0, top], [top, 0]],
                         [[0, 1], [1, 0]])
        assert narrowest_code([0, top], True) == code
        code3, scale = fixed_point_code([0, top], code) or (code, 0)
        data = lemb_bytes(e)
        assert header_codes(data, 3) == (1, f"B{code3}B".encode(),
                                         bytes([0, scale, 0]))
        assert_loads(e, data, oracles.lemb_v2_bytes(e, f"B{code}B"),
                     oracles.lemb_v1_bytes(e))

    @pytest.mark.parametrize("other, code", [(0.5, "e"), (2047.5, "f"),
                                             (0.1, "d")])
    def test_inf_takes_the_code_of_its_section(self, other, code):
        e = AltEmbedding(LandmarkSet((0, 1)), [[0, math.inf, other]] * 2,
                         [[0, 1], [1, 0]])
        data = lemb_bytes(e)
        assert data[24:27] == f"B{code}B".encode()
        assert load_embedding(io.BytesIO(data)).table == e.table

    @pytest.mark.parametrize("build", [build_alt_embedding,
                                       build_distributed_embedding])
    def test_ints_beyond_double_precision_round_trip(self, build):
        # 2**53 + 1 and 2**53 + 2 are distances; an f64 would round the first
        g = build_graph(3, [(0, 1, 2**53 + 1), (1, 2, 1)])
        e = build(g, LandmarkSet((0,)))
        data = lemb_bytes(e)
        assert b"Q" in data[24:28]
        back = load_embedding(io.BytesIO(data))
        assert stored_fields(back) == stored_fields(e)

    @pytest.mark.parametrize("big", [2**64 + 1, 2**1100, -(2**53 + 1)],
                             ids=["2**64+1", "2**1100", "-(2**53+1)"])
    def test_int_that_no_code_holds_fails_save(self, big):
        e = AltEmbedding(LandmarkSet((0, 1)), [[0, 2], [2, 0]],
                         [[0, big], [big, 0]])
        with pytest.raises(ValueError, match=re.escape(
                f"no embedding file code holds {big} in the landmark matrix "
                "exactly")):
            lemb_bytes(e)

    @pytest.mark.parametrize("top, code", [
        (255, "B"), (256, "H"), (2**16, "I"), (2**32, "Q"), (2**64 - 1, "Q"),
    ])
    def test_index_code_boundaries(self, top, code):
        e = AltEmbedding(LandmarkSet((0, top)), [[0, 1], [1, 0]],
                         [[0, 1], [1, 0]])
        data = lemb_bytes(e)
        assert data[24:25] == code.encode()
        assert load_embedding(io.BytesIO(data)).landmarks.ids == (0, top)

    @pytest.mark.parametrize("bad", [-0.0, -3.0, -3, -0.5, math.nan])
    def test_what_a_load_refuses_saves_as_d(self, bad):
        e = DistributedEmbedding(LandmarkSet((0, 1)), [0, 1, 0],
                                 [0, bad, 3.0], [[0, 5], [5, 0]])
        data = lemb_bytes(e)
        assert data[24:28] == b"BBdB"
        for saved in (data, oracles.lemb_v1_bytes(e)):
            with pytest.raises(ValueError, match="^embedding file has a NaN "
                               "or negative value in the owner distances$"):
                load_embedding(io.BytesIO(saved))

    # sections at byte offsets: header 24 and one code per section, then
    # ids (B), and for the distributed file owners (B) at 30
    @pytest.mark.parametrize("bad", [math.nan, -3.0, -math.inf, -0.0])
    @pytest.mark.parametrize("which, name, start, count", [
        (0, "distance table", 29, 10),
        (0, "landmark matrix", 69, 4),
        (1, "owner distances", 36, 6),
        (1, "landmark matrix", 60, 4),
    ])
    def test_nan_or_negative_in_f_section_fails(self, which, name, start,
                                                count, bad):
        data = self.previous()[which]
        for at in (start, start + 4 * (count - 1)):
            corrupt = data[:at] + struct.pack("<f", bad) + data[at + 4:]
            with pytest.raises(
                ValueError, match=f"^embedding file has a NaN or negative "
                f"value in the {name}$"
            ):
                load_embedding(io.BytesIO(corrupt))

    # matrix sections at byte offsets 69 (full) and 60 (distributed)
    @pytest.mark.parametrize("which, at, value, refusal", [
        (1, 64, 0.0, "a 0 off the diagonal of the landmark matrix, at (0,1)"),
        (1, 72, 2.5, "a nonzero diagonal entry of the landmark matrix, at (1,1)"),
        (0, 69, 2.5, "a nonzero diagonal entry of the landmark matrix, at (0,0)"),
    ])
    def test_matrix_refusals_in_f_section(self, which, at, value, refusal):
        data = self.previous()[which]
        corrupt = data[:at] + struct.pack("<f", value) + data[at + 4:]
        with pytest.raises(ValueError, match=re.escape(
                f"embedding file has {refusal}")):
            load_embedding(io.BytesIO(corrupt))

    @pytest.mark.parametrize("v", range(6))
    def test_infinite_owner_distance_fails(self, v):
        data = self.previous()[1]
        at = 36 + 4 * v
        corrupt = data[:at] + struct.pack("<f", math.inf) + data[at + 4:]
        with pytest.raises(ValueError, match=f"^vertex {v} has an infinite "
                           "owner distance$"):
            load_embedding(io.BytesIO(corrupt))

    # The same cases in the e (f16) sections of the golden files: ids (B)
    # at 27 (full) and 28 (distributed), owners (B) at 30
    @pytest.mark.parametrize("bits", [0x7E00, 0x7C01, 0x7FFF, 0x8000, 0xBC00,
                                      0xFC00],
                             ids=["nan", "nan-low", "nan-high", "-0.0", "-1.0",
                                  "-inf"])
    @pytest.mark.parametrize("which, name, start, count", [
        (0, "distance table", 29, 10),
        (0, "landmark matrix", 49, 4),
        (1, "owner distances", 36, 6),
        (1, "landmark matrix", 48, 4),
    ])
    def test_nan_or_negative_in_e_section_fails(self, which, name, start,
                                                count, bits):
        data = self.files()[which]
        for at in (start, start + 2 * (count - 1)):
            corrupt = data[:at] + struct.pack("<H", bits) + data[at + 2:]
            with pytest.raises(
                ValueError, match=f"^embedding file has a NaN or negative "
                f"value in the {name}$"
            ):
                load_embedding(io.BytesIO(corrupt))

    @pytest.mark.parametrize("which, at, value, refusal", [
        (1, 50, 0.0, "a 0 off the diagonal of the landmark matrix, at (0,1)"),
        (1, 54, 2.5, "a nonzero diagonal entry of the landmark matrix, at (1,1)"),
        (0, 49, 2.5, "a nonzero diagonal entry of the landmark matrix, at (0,0)"),
    ])
    def test_matrix_refusals_in_e_section(self, which, at, value, refusal):
        data = self.files()[which]
        corrupt = data[:at] + struct.pack("<e", value) + data[at + 2:]
        with pytest.raises(ValueError, match=re.escape(
                f"embedding file has {refusal}")):
            load_embedding(io.BytesIO(corrupt))

    @pytest.mark.parametrize("v", range(6))
    def test_infinite_distance_in_e_section(self, v):
        data = self.files()[1]
        at = 36 + 2 * v
        corrupt = data[:at] + struct.pack("<H", 0x7C00) + data[at + 2:]
        with pytest.raises(ValueError, match=f"^vertex {v} has an infinite "
                           "owner distance$"):
            load_embedding(io.BytesIO(corrupt))
        # the full table holds inf where a vertex is unreachable
        full = self.files()[0]
        at = 29 + 2 * v
        back = load_embedding(io.BytesIO(
            full[:at] + struct.pack("<H", 0x7C00) + full[at + 2:]))
        assert back.table[v // 5][v % 5] == math.inf

    @pytest.mark.parametrize("v", range(6))
    def test_owner_beyond_landmarks_in_b_section(self, v):
        data = bytearray(self.files()[1])
        assert data[25:26] == b"B"
        data[30 + v] = 7
        with pytest.raises(ValueError, match=f"^vertex {v} has owner index 7, "
                           "but there are only 2 landmarks$"):
            load_embedding(io.BytesIO(bytes(data)))

    @pytest.mark.parametrize("which, at, name, code", [
        (1, 24, "landmark ids", b"f"),
        (1, 25, "owner indices", b"f"),
        (1, 25, "owner indices", b"d"),
        (1, 26, "owner distances", b"x"),
        (0, 26, "landmark matrix", b"\0"),
        (0, 25, "distance table", b"q"),
    ])
    def test_bad_code_fails(self, which, at, name, code):
        data = self.files()[which]
        corrupt = data[:at] + code + data[at + 1:]
        with pytest.raises(ValueError, match=re.escape(
                f"embedding file has code {code.decode()!r} for the {name}, "
                "expected one of")):
            load_embedding(io.BytesIO(corrupt))

    @pytest.mark.parametrize("kind, codes", [(1, b"Bdd"), (2, b"BBdd")])
    @pytest.mark.parametrize("nv, k", [(6, 2**61), (2**61, 2)])
    def test_header_counts_beyond_file(self, kind, codes, nv, k):
        data = v2_header(kind, nv, k, codes) + bytes(200)
        with pytest.raises(ValueError, match=f"declares {nv} vertices and {k}"):
            load_embedding(io.BytesIO(data))

    @pytest.mark.parametrize("which", range(4))
    def test_bytes_after_payload_fail(self, which):
        assert_trailing_bytes_fail(self.files()[which])

    @pytest.mark.parametrize("which", range(4))
    def test_every_truncation_fails(self, which):
        codes = GOLDEN_V2_CODES[which]
        assert_cuts_labelled(self.files()[which], 24 + len(codes))


class TestLembV3:
    """What save_embedding writes: version 3, the landmark matrix as its
    triangle above the diagonal where exactly symmetric with a 0 diagonal,
    and each section at the narrowest code that holds its values exactly,
    fixed-point codes with a scale byte included."""

    def golden(self):
        # alt: triangle [inf] at e; alp: owner distances and triangle in
        # eighths at B, scale 3; wide: triangle [0.1] at d; narrow: an
        # empty triangle
        alt, alp, wide, narrow = TestLembV2().golden()
        # a matrix no undirected graph gives: full, in halves at B, scale 1
        skew = DistributedEmbedding(LandmarkSet((1, 0)), [1, 0, 0],
                                    [0, 0, 0.25], [[0, 1.5], [2.5, 0]])
        # a 4 x 4 int matrix: a triangle of six entries at B
        quad = AltEmbedding(LandmarkSet((0, 1, 2, 3)),
                            [[abs(i - j) for j in range(4)] for i in range(4)],
                            [[abs(i - j) for j in range(4)] for i in range(4)])
        return alt, alp, wide, narrow, skew, quad

    def test_golden_bytes(self):
        got = [lemb_bytes(e) for e in self.golden()]
        assert [(len(d), header_codes(d, len(sections(e))),
                 hashlib.sha256(d).hexdigest())
                for e, d in zip(self.golden(), got)] == [
            (54, (1, b"Bee", b"\x00\x00\x00"),
             "47ceea2c088002012bdad452e300c2b826967add26b3715b51d9a235ca844a28"),
            (47, (1, b"BBBB", b"\x00\x00\x03\x03"),
             "eff9c00a9fe95b978aec822a33377c2c02c0623372fb7153940ebcd2d4c98827"),
            (75, (1, b"IBQd", b"\x00\x00\x00\x00"),
             "a15c0d03e3302633394711529ba2b8bb8c81c6ab5a44c91fcacc797c2bb0c6ad"),
            (38, (1, b"HHB", b"\x00\x00\x00"),
             "12b5a4b61dcf1630b53d31340a5ef5c4a2b767ab2f8d987f294a3c694c4ea46b"),
            (44, (0, b"BBBB", b"\x00\x00\x02\x01"),
             "230c9b23438aa073459b48db157dd467c4c322e2ce68132b8feca598c68f05eb"),
            (56, (1, b"BBB", b"\x00\x00\x00"),
             "92ce01aa7b4deac497603b1fcdb482dad3e87c5740d9a0c5f40b2fad5a078074"),
        ]

    def test_golden_values(self):
        # a version 1, 2 and 3 file of one embedding load to equal values,
        # each of the type its code sets, and each re-saves as the version
        # 3 file
        for e in self.golden():
            data = lemb_bytes(e)
            codes = "".join(narrowest_code(values, distance)
                            for values, distance in sections(e))
            assert_loads(e, oracles.lemb_v1_bytes(e),
                         oracles.lemb_v2_bytes(e, codes), data)
            assert header_codes(data, len(codes)) == v3_codes(e)

    def test_triangle_loads_as_independent_rows(self):
        back = load_embedding(io.BytesIO(lemb_bytes(self.golden()[5])))
        assert back.lmatrix == [[abs(i - j) for j in range(4)]
                                for i in range(4)]
        assert all(type(row[i]) is int for i, row in enumerate(back.lmatrix))
        back.lmatrix[0][1] = 9
        assert back.lmatrix[1][0] == 1

    @settings(deadline=None, max_examples=200)
    @given(mixed_embeddings())
    def test_rules_follow_values(self, e):
        data = lemb_bytes(e)
        assert_loads(e, data, oracles.lemb_v1_bytes(e))
        # the triangle iff exactly symmetric with a 0 diagonal, and a
        # fixed-point code iff strictly narrower than the float code
        assert header_codes(data, len(sections(e))) == v3_codes(e)

    @pytest.mark.parametrize("top, code, scale", [
        (0.5, "B", 1), (0.25, "B", 2), (0.125, "B", 3), (31.875, "B", 3),
        (127.5, "B", 1), (128.5, "e", 0), (1023.5, "e", 0), (2047.5, "H", 1),
        (16383.75, "H", 2), (16384.25, "f", 0), (32767.5, "H", 1),
        (65504.5, "f", 0), (2.0**-24, "B", 24), (2.0**-25, "B", 25),
        (2.0**-149, "B", 149), (2.0**-150 * 3, "B", 150),
        (2.0**-255, "B", 255), (2.0**-256, "d", 0), (2.0**31 - 0.5, "I", 1),
        (2.0**32 - 0.5, "d", 0), (0.1, "d", 0),
    ])
    def test_fixed_point_boundaries(self, top, code, scale):
        e = AltEmbedding(LandmarkSet((0, 1)), [[0, top], [top, 0]],
                         [[0, 1], [1, 0]])
        data = lemb_bytes(e)
        assert header_codes(data, 3) == (1, f"B{code}B".encode(),
                                         bytes([0, scale, 0]))
        assert_loads(e, data)

    @pytest.mark.parametrize("graph, form", [
        ("int-random", 1), ("eighths-grid", 1), ("tenths-grid", 0),
    ])
    @pytest.mark.parametrize("build", [build_alt_embedding,
                                       build_distributed_embedding])
    def test_built_matrix_form(self, graph, form, build):
        # decimal weights: the two summation orders of an entry differ by
        # an ulp somewhere, so the matrix stays in full
        g = MATRIX_GRAPHS[graph]()
        e = build(g, select_farthest(g, 4, 1))
        data = lemb_bytes(e)
        assert data[6] == form == triangular(e.lmatrix)
        assert_loads(e, data, oracles.lemb_v1_bytes(e))

    @pytest.mark.parametrize("row, code, scale", [
        ([0, 2.0, 3.0], "B", 0), ([0, 0.5, 1.0], "B", 1),
        ([0, 1000.5, 3.0], "e", 0), ([0, 65504.5, 3.0], "f", 0),
        ([0, 0.1, 1.0], "d", 0),
    ], ids=["ints", "halves", "f16", "f32", "tenths"])
    def test_code_sets_the_type(self, row, code, scale):
        # only an int code at scale 0 loads ints: a built 1.0 (0.5 + 0.5)
        # stays a float, and so does an integral value in a scaled section
        e = AltEmbedding(LandmarkSet((0,)), [row], [[0]])
        data = lemb_bytes(e)
        assert header_codes(data, 3) == (1, f"B{code}B".encode(),
                                         bytes([0, scale, 0]))
        back = load_embedding(io.BytesIO(data))
        assert back.table == [row]
        want = int if code == "B" and not scale else float
        assert [type(x) for x in back.table[0]] == [want] * 3

    @pytest.mark.parametrize("lmatrix, form", [
        ([[0, 3], [3.0, 0]], 1),
        ([[0.0, 3], [3, 0.0]], 1),
        ([[-0.0, 3], [3, 0]], 0),
        ([[0, 3], [3, 2]], 0),
        ([[0, 3], [3.5, 0]], 0),
    ], ids=["int-and-float", "float-diagonal", "negative-zero-diagonal",
            "nonzero-diagonal", "asymmetric"])
    def test_matrix_form_follows_values(self, lmatrix, form):
        e = AltEmbedding(LandmarkSet((0, 1)), [[0, 3], [3, 0]], lmatrix)
        assert lemb_bytes(e)[6] == form

    @pytest.mark.parametrize("form", [2, 255])
    def test_unknown_matrix_form_fails(self, form):
        data = bytearray(lemb_bytes(self.golden()[0]))
        data[6] = form
        for stream in (io.BytesIO(bytes(data)), io.BytesIO(bytes(data[:8]))):
            with pytest.raises(ValueError, match=f"^unknown landmark matrix "
                               f"form {form}$"):
                load_embedding(stream)

    # scale bytes follow the code bytes: at 27 (full) and 28 (distributed)
    @pytest.mark.parametrize("which, at, name", [
        (0, 27, "landmark ids"), (1, 28, "landmark ids"),
        (1, 29, "owner indices"),
    ])
    def test_scale_on_index_section_fails(self, which, at, name):
        data = bytearray(lemb_bytes(self.golden()[which]))
        data[at] = 3
        with pytest.raises(ValueError, match=f"^embedding file has scale 3 "
                           f"for the {name}, which holds indices$"):
            load_embedding(io.BytesIO(bytes(data)))

    # the owner distances of the golden distributed file: code byte 26,
    # scale byte 30 (3); Q is as wide as f64, and a float code takes no scale
    @pytest.mark.parametrize("code", ["Q", "e", "f", "d"])
    def test_scale_needs_a_code_narrower_than_f64(self, code):
        data = bytearray(lemb_bytes(self.golden()[1]))
        assert (data[26:27], data[30]) == (b"B", 3)
        data[26:27] = code.encode()
        with pytest.raises(ValueError, match=re.escape(
                f"embedding file has code {code!r} at scale 3 for the owner "
                "distances, expected one of 'BHI'")):
            load_embedding(io.BytesIO(bytes(data)))

    # the float triangles of the golden files: alt's [inf] at e (offset 52),
    # wide's [0.1] at d (offset 67)
    @pytest.mark.parametrize("which, at, bad", [
        (0, 52, struct.pack("<e", math.nan)), (0, 52, struct.pack("<e", -1.0)),
        (0, 52, struct.pack("<H", 0x8000)), (0, 52, struct.pack("<H", 0xFC00)),
        (2, 67, struct.pack("<d", math.nan)), (2, 67, struct.pack("<d", -0.0)),
        (2, 67, struct.pack("<d", -0.1)),
    ], ids=["e-nan", "e-negative", "e-negative-zero", "e-negative-inf",
            "d-nan", "d-negative-zero", "d-negative"])
    def test_nan_or_negative_in_triangle_fails(self, which, at, bad):
        data = lemb_bytes(self.golden()[which])
        assert len(data) == at + len(bad)
        with pytest.raises(ValueError, match="^embedding file has a NaN or "
                           "negative value in the landmark matrix$"):
            load_embedding(io.BytesIO(data[:at] + bad))

    # quad's triangle: six u8 entries from byte 50, (0,1) (0,2) (0,3) (1,2)
    # (1,3) (2,3)
    @pytest.mark.parametrize("p, entry", enumerate(
        ["(0,1)", "(0,2)", "(0,3)", "(1,2)", "(1,3)", "(2,3)"]))
    def test_zero_in_triangle_fails(self, p, entry):
        data = bytearray(lemb_bytes(self.golden()[5]))
        assert data[50:56] == bytes([1, 2, 3, 1, 2, 1])
        data[50 + p] = 0
        with pytest.raises(ValueError, match=re.escape(
                "embedding file has a 0 off the diagonal of the landmark "
                f"matrix, at {entry}")):
            load_embedding(io.BytesIO(bytes(data)))

    # skew's full matrix at B, scale 1, from byte 40: (0,0) (0,1) (1,0) (1,1)
    @pytest.mark.parametrize("at, value, refusal", [
        (41, 0, "a 0 off the diagonal of the landmark matrix, at (0,1)"),
        (42, 0, "a 0 off the diagonal of the landmark matrix, at (1,0)"),
        (40, 1, "a nonzero diagonal entry of the landmark matrix, at (0,0)"),
        (43, 4, "a nonzero diagonal entry of the landmark matrix, at (1,1)"),
    ])
    def test_full_matrix_refusals(self, at, value, refusal):
        data = bytearray(lemb_bytes(self.golden()[4]))
        assert data[40:44] == bytes([0, 3, 5, 0])
        data[at] = value
        with pytest.raises(ValueError, match=re.escape(
                f"embedding file has {refusal}")):
            load_embedding(io.BytesIO(bytes(data)))

    @pytest.mark.parametrize("which", range(6))
    def test_bytes_after_payload_fail(self, which):
        assert_trailing_bytes_fail(lemb_bytes(self.golden()[which]))

    @pytest.mark.parametrize("which", range(6))
    def test_every_truncation_fails(self, which):
        e = self.golden()[which]
        assert_cuts_labelled(lemb_bytes(e), 24 + 2 * len(sections(e)))


class TestEmbeddingFits:
    def test_own_graph_fits(self, grid3):
        check_embedding_fits(grid3, build_alt_embedding(grid3, LandmarkSet((0, 8))))
        check_embedding_fits(
            grid3, build_distributed_embedding(grid3, LandmarkSet((0, 8)))
        )

    @pytest.mark.parametrize("build", [build_alt_embedding, build_distributed_embedding])
    def test_vertex_count_mismatch(self, p6, grid3, build):
        e = build(grid3, LandmarkSet((0, 8)))
        with pytest.raises(ValueError, match="9 vertices but the graph has 6"):
            check_embedding_fits(p6, e)

    def test_landmark_outside_graph(self, p6):
        # Six columns, as for p6, but landmark 8 is no vertex of p6.
        e = AltEmbedding(LandmarkSet((8,)), [[8, 7, 6, 5, 4, 3]], [[0]])
        with pytest.raises(ValueError, match="landmark 8 out of range"):
            check_embedding_fits(p6, e)


class TestAgainstNaiveOracle:
    def test_distributed_matches_first_principles(self):
        g = generate_random_connected(35, 14, 10)
        edges = list(g.edges())
        rows = oracles.all_pairs(35, edges)
        L = select_random(g, 3, 4)
        e = build_distributed_embedding(g, L)
        for v in range(35):
            pos, dist = oracles.nearest_landmark(rows, list(L.ids), v)
            assert e.dist_to_owner[v] == dist
            # both sides break ties toward the earliest landmark position
            assert e.owner[v] == pos
