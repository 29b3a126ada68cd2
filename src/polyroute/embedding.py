"""Landmark selection and the two landmark embeddings.

Two preprocessed forms back the two heuristics:

* full embedding: every landmark keeps its whole distance row, plus the
  landmark pairwise matrix. Entry count |L|*|V| + |L|^2.
* distributed embedding: every vertex keeps only its nearest landmark
  (its owner) and the true distance to it, plus the same pairwise
  matrix. Entry count |V| + |L|^2.

Ownership regions are nearest-landmark cells computed by one
multi-source run over the whole graph, so stored distances are true
graph distances and lower bounds derived from them stay valid even when
a region's internal shortest path leaves the region. Ties go to the
smaller landmark index.
"""

from __future__ import annotations

import io
import math
import random
import struct
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, filterfalse, repeat
from operator import eq, mul, or_
from typing import BinaryIO, Union

from .graph import Graph
from .sssp import _check_vertex, landmark_matrix, multi_source_spt, shortest_path_tree

_MAGIC = b"LEMB"
_VERSION = 3  # the one version save writes and load reads
_KIND_FULL = 1
_KIND_DISTRIBUTED = 2
_INDEX_CODES = "BHIQ"  # unsigned ints, narrowest first
_DISTANCE_CODES = _INDEX_CODES + "efd"
_FIXED_CODES = "BHI"  # fixed-point distances: narrower than f64


@dataclass(frozen=True)
class LandmarkSet:
    """Ordered distinct vertex ids; order defines the landmark index.

    A caller sets the ids only. select_farthest and select_avoid also hand
    on what they read off their full trees, valid only in graph: the
    leading rows of the landmark matrix, matrix[i][j] = d(ids[i], ids[j]),
    and the full distance rows, rows[i][v] = d(ids[i], v), which
    build_alt_embedding takes over once, emptying the list. None of the
    three takes part in equality, and a bare set, a loaded file's set or a
    dataclasses.replace of a selector's set carries none of them.
    """

    ids: tuple
    matrix: tuple = field(default=(), init=False, compare=False, repr=False)
    graph: "Graph | None" = field(default=None, init=False, compare=False, repr=False)
    rows: list = field(default_factory=list, init=False, compare=False, repr=False)

    def __post_init__(self):
        ids = tuple(self.ids)
        object.__setattr__(self, "ids", ids)
        if not ids:
            raise ValueError("landmark set must be nonempty")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate landmark ids in {ids}")

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class AltEmbedding:
    """Full per-landmark distance rows: table[i][v] = d(landmarks[i], v)."""

    landmarks: LandmarkSet
    table: list = field(repr=False)
    lmatrix: list = field(repr=False)


@dataclass(frozen=True)
class DistributedEmbedding:
    """One owner landmark per vertex plus the landmark pairwise matrix.

    owner[v] indexes into landmarks.ids; dist_to_owner[v] is the true
    distance from v to that landmark.
    """

    landmarks: LandmarkSet
    owner: list = field(repr=False)
    dist_to_owner: list = field(repr=False)
    lmatrix: list = field(repr=False)


def _check_k(g: Graph, k: int) -> None:
    if not (1 <= k <= g.vertex_count):
        raise ValueError(f"landmark count {k} outside [1,{g.vertex_count}]")


def _check_landmarks(g: Graph, L: LandmarkSet) -> None:
    for l in L.ids:
        _check_vertex(g, l, "landmark")


def select_random(g: Graph, k: int, seed: int) -> LandmarkSet:
    """k distinct uniform vertices, deterministic per seed."""
    _check_k(g, k)
    rng = random.Random(seed)
    return LandmarkSet(tuple(rng.sample(range(g.vertex_count), k)))


def select_farthest(g: Graph, k: int, seed: int) -> LandmarkSet:
    """Greedy farthest-point traversal.

    The first landmark is the vertex farthest from a seed-chosen start;
    each next landmark maximizes the minimum distance to those already
    chosen. Ties go to the smallest vertex id. The result carries the
    full trees' distance rows, and the landmark-matrix rows read off
    them, of all landmarks but the last.
    """
    _check_k(g, k)
    start = random.Random(seed).randrange(g.vertex_count)
    chosen: list = []
    rows: list = []  # full tree from each chosen landmark but the last
    # Distances from the start pick the first landmark only; afterwards
    # min_dist tracks min over chosen landmarks, start excluded.
    min_dist = shortest_path_tree(g, start).dist
    while True:
        best = _farthest(min_dist)
        chosen.append(best)
        if len(chosen) == k:
            break
        row = shortest_path_tree(g, best).dist
        if rows:
            _lower_to(min_dist, row)
        else:
            min_dist = list(row)
        rows.append(row)
    return _with_matrix(g, chosen, rows)


def select_avoid(g: Graph, k: int, seed: int) -> LandmarkSet:
    """Iterative selection that steers away from well-covered regions.

    Each round roots a shortest-path tree at a random vertex, weights
    every vertex by how much the existing landmarks UNDER-estimate its
    distance from the root (true distance minus best current lower
    bound), then walks from the heaviest subtree down max-weight
    children to a leaf. That leaf joins the landmark set. When every
    weight is zero (the bounds are already exact) or the walk lands on
    an existing landmark, the fallback picks the vertex farthest from
    the current landmarks, ties to the smallest id, reading the distances
    off the landmarks' own rows. The result carries every landmark's
    full distance row and the whole landmark matrix read off them.
    """
    _check_k(g, k)
    n = g.vertex_count
    rng = random.Random(seed)
    chosen: list = []
    rows: list = []
    min_dist = [math.inf] * n  # to the nearest chosen landmark
    while len(chosen) < k:
        root = rng.randrange(n)
        spt = shortest_path_tree(g, root)
        weight = [0.0] * n
        for v in range(n):
            lb = 0
            for row in rows:
                cand = abs(row[v] - row[root])
                if cand > lb:
                    lb = cand
            w = spt.dist[v] - lb
            weight[v] = w if w > 0 else 0
        pick = _descend_heaviest(g, spt, weight)
        if pick is None or pick in chosen:
            pick = _farthest(min_dist)
        chosen.append(pick)
        rows.append(shortest_path_tree(g, pick).dist)
        _lower_to(min_dist, rows[-1])
    return _with_matrix(g, chosen, rows)


def _lower_to(min_dist: list, row: list) -> None:
    """min_dist[v] = min(min_dist[v], row[v]) for every v, in place."""
    for v in range(len(row)):
        if row[v] < min_dist[v]:
            min_dist[v] = row[v]


def _farthest(min_dist: list) -> int:
    """The vertex with the largest min_dist, ties to the smallest id.
    Callers keep min_dist 0 at every chosen landmark and, weights being
    positive, above 0 at every other vertex, so no landmark is picked
    twice."""
    return min_dist.index(max(min_dist))


def _with_matrix(g: Graph, chosen: list, rows: list) -> LandmarkSet:
    """Landmark set carrying the first len(rows) landmarks' full distance
    rows and the matrix block read off them; the only setter of the three
    hand-off fields."""
    L = LandmarkSet(tuple(chosen))
    matrix = tuple(tuple(row[l] for l in L.ids) for row in rows)
    for name, value in (("matrix", matrix), ("graph", g), ("rows", rows)):
        object.__setattr__(L, name, value)
    return L


def _descend_heaviest(g: Graph, spt, weight: list):
    """Max-subtree-weight vertex, then down max-weight children to a leaf.

    Returns None when total weight is zero (nothing to steer by).
    """
    n = len(weight)
    subtree = list(weight)
    # parent pointers always lead toward the root, so ordering vertices
    # by decreasing distance visits children before parents.
    order = sorted(range(n), key=lambda v: spt.dist[v], reverse=True)
    for v in order:
        p = spt.parent[v]
        if p != -1:
            subtree[p] += subtree[v]
    best = -1
    best_w = 0
    for v in range(n):
        if subtree[v] > best_w:
            best, best_w = v, subtree[v]
    if best == -1:
        return None
    v = best
    while True:
        children = [c for c, _ in g.adjacency[v] if spt.parent[c] == v]
        if not children:
            return v
        v = max(children, key=lambda c: (subtree[c], -c))


def build_alt_embedding(g: Graph, L: LandmarkSet) -> AltEmbedding:
    """One full distance row per landmark; matrix read off the rows.

    Rows that L carries for this very graph become the leading rows of
    the table, and L.rows is emptied so the set no longer keeps them
    alive; only the landmarks without a row get a full tree. The hand-
    off happens once: a second build from the same set runs all k trees
    again and gets the same values.
    """
    _check_landmarks(g, L)
    table = L.rows[:] if L.graph is g else []
    if table:
        L.rows.clear()
    table += [shortest_path_tree(g, l).dist for l in L.ids[len(table):]]
    lmatrix = [[row[other] for other in L.ids] for row in table]
    return AltEmbedding(landmarks=L, table=table, lmatrix=lmatrix)


def build_distributed_embedding(g: Graph, L: LandmarkSet) -> DistributedEmbedding:
    """Nearest-landmark ownership in one multi-source pass over the
    whole graph, plus the pairwise matrix from truncated per-landmark
    runs. All stored distances are true graph distances.

    Matrix rows that L carries for this very graph are reused, so only
    the landmarks without one get a truncated run.
    """
    _check_landmarks(g, L)
    dm = multi_source_spt(g, L.ids)
    if -1 in dm.owner:
        raise ValueError(
            f"vertex {dm.owner.index(-1)} is not reached by any landmark"
        )
    lmatrix = landmark_matrix(g, L.ids, L.matrix if L.graph is g else ())
    return DistributedEmbedding(
        landmarks=L, owner=dm.owner, dist_to_owner=dm.dist, lmatrix=lmatrix
    )


Embedding = Union[AltEmbedding, DistributedEmbedding]


def _layout(kind: int, nv: int, k: int, codes: "str | None" = None,
            scales: bytes = b"", triangle: bool = False) -> list:
    """What a kind stores after the header, in file order, as sections
    (name, holds distances, struct code, scale, values per row, rows):
    the landmark ids, then the full table's k rows of nv distances, or nv
    owner indices and nv owner distances, then the k x k matrix, or with
    triangle its k(k-1)/2 entries above the diagonal as one row. codes
    and scales give one struct code and one scale byte per section, as
    the header does; without them, as in the shapes-only calls, every
    code is Q for indices and d for distances, at scale 0. Repeat counts
    keep it O(1)."""
    if kind == _KIND_FULL:
        body = [("distance table", True, nv, k)]
    else:
        body = [("owner indices", False, nv, 1), ("owner distances", True, nv, 1)]
    matrix = (k * (k - 1) // 2, 1) if triangle else (k, k)
    sections = [("landmark ids", False, k, 1), *body,
                ("landmark matrix", True, *matrix)]
    if codes is None:
        codes = ["d" if distance else "Q" for _, distance, _, _ in sections]
    out = []
    for (name, distance, per, rows), code, scale in zip(
            sections, codes, scales or bytes(len(sections))):
        if scale and not distance:
            raise ValueError(f"embedding file has scale {scale} for the "
                             f"{name}, which holds indices")
        allowed = (_FIXED_CODES if scale else _DISTANCE_CODES if distance
                   else _INDEX_CODES)
        if code not in allowed:
            at = f" at scale {scale}" if scale else ""
            raise ValueError(f"embedding file has code {code!r}{at} for the "
                             f"{name}, expected one of {allowed!r}")
        out.append((name, distance, code, scale, per, rows))
    return out


def _parts(e: Embedding) -> tuple:
    """(kind, nv, the stored rows of each _layout section, in file order)."""
    ids = [e.landmarks.ids]
    if isinstance(e, AltEmbedding):
        return _KIND_FULL, len(e.table[0]), [ids, e.table, e.lmatrix]
    return (_KIND_DISTRIBUTED, len(e.owner),
            [ids, [e.owner], [e.dist_to_owner], e.lmatrix])


def check_embedding_fits(g: Graph, e: Embedding) -> None:
    """Raise ValueError unless e covers g's vertices and names landmarks
    inside g; a loaded file may have been built for another graph."""
    nv = _parts(e)[1]
    if nv != g.vertex_count:
        raise ValueError(
            f"embedding covers {nv} vertices but the graph has {g.vertex_count}"
        )
    _check_landmarks(g, e.landmarks)


def space_accounting(e: Embedding) -> tuple:
    """(stored distance entries, closed-form prediction); must agree.

    Full embedding: |L|*|V| + |L|^2. Distributed: |V| + |L|^2. These
    are the entries the embedding holds, the paper's count that
    acceptance criterion 4 checks, not the entries in its file: a file
    may keep only the k(k-1)/2 matrix entries above the diagonal, and
    at any code (see save_embedding).
    """
    kind, nv, blocks = _parts(e)
    layout = _layout(kind, nv, len(e.landmarks))
    stored = sum(
        len(row)
        for (_, distance, *_), rows in zip(layout, blocks) if distance
        for row in rows
    )
    formula = sum(per * count for _, distance, _, _, per, count in layout
                  if distance)
    return stored, formula


def save_embedding(e: Embedding, stream: BinaryIO) -> None:
    """Versioned binary layout (all integers little-endian), version 3:

    magic "LEMB" | version u8 | kind u8 (1 full, 2 distributed) |
    matrix form u8 (0 full, 1 triangle) | 1 pad byte | |V| u64 | |L| u64
    | one struct code byte per _layout section | one scale byte per
    section | the sections _layout lists, each at its code's width.

    Two rules, decided from the values alone, so saving a loaded
    embedding writes the same bytes again. A landmark matrix that is
    exactly symmetric with a diagonal of 0 is written as its k(k-1)/2
    entries above the diagonal, row-major (form 1); any other matrix in
    full (form 0). Each section is written at the narrowest code that
    holds every one of its values exactly, a fixed-point code with a
    nonzero scale included (see _encode).
    """
    kind, nv, blocks = _parts(e)
    k = len(e.landmarks)
    upper = _upper_triangle(e.lmatrix)
    if upper is not None:
        blocks[-1] = [upper]
    encoded = [_encode(rows, name, distance)
               for (name, distance, *_), rows in zip(_layout(kind, nv, k), blocks)]
    codes = "".join(code for code, _, _ in encoded).encode("ascii")
    scales = bytes(scale for _, scale, _ in encoded)
    stream.write(struct.pack("<4sBBBxQQ", _MAGIC, _VERSION, kind,
                             upper is not None, nv, k) + codes + scales)
    for _, _, data in encoded:
        stream.write(data)


def _upper_triangle(m: list) -> "list | None":
    """The entries of m above its diagonal, row-major, if m is exactly
    symmetric with a diagonal of 0 (not -0.0, which a load refuses);
    else None. Symmetry is read off the values the build computed, never
    assumed: on decimal weights the two summation orders of an entry can
    differ by an ulp, and such a matrix stays in full."""
    diagonal = [row[i] for i, row in enumerate(m)]
    if (any(diagonal) or min(map(math.copysign, repeat(1.0), diagonal)) < 0
            or list(map(tuple, m)) != list(zip(*m))):
        return None
    return list(chain.from_iterable(row[i + 1:] for i, row in enumerate(m)))


def _encode(rows: list, name: str, distance: bool) -> tuple:
    """(struct code, scale, little-endian bytes) of one section's rows.

    Indices take the narrowest of B, H, I and Q that holds the largest.
    Distances take the narrowest unsigned int code when every value is
    integral (an int, or a float such as 3.0) and in [0, 2**64); else e
    (f16) when every value survives the f16 round trip and none has its
    sign bit set, as eighths up to 256 and inf do; else f (f32) on the
    same terms, as larger eighths do; else d (f64), as tenths do. A
    section with an int that d would round too, such as 2**64 + 1, fits
    no code and raises ValueError. Only distances that are not all
    integral get a scale s > 0: they are stored as the uints x * 2**s, at
    the smallest s that makes each one integral, when every value is
    finite and not negative and that int code is strictly narrower than
    the float code; else at the float code with scale 0.
    """
    ints = _uint_rows(rows) if distance else rows
    if ints is not None:
        code, data = _pack_uint(ints)
        return code, 0, data
    for code, width in (("e", 2), ("f", 4)):
        data = _pack_exact(rows, code)
        if data is not None and not data[width - 1::width].translate(
                None, _SIGN_CLEAR):
            break
    else:
        inexact = next(filterfalse(_f64_holds, chain.from_iterable(rows)), None)
        if inexact is not None:
            raise ValueError(f"no embedding file code holds {inexact} in the "
                             f"{name} exactly")
        code, width, data = "d", 8, _pack_rows(rows, "d")
    return _fixed_point(rows, width, data) or (code, 0, data)


# Last bytes of the e, f and d values that are finite, not negative and
# below 2**7, 2**15 and 2**33: a section with any other value cannot fit
# an int code narrower than its float code (B, H or I) at a scale s >= 1.
# The d gate lets values in [2**31, 2**33) by; _fixed_point's scale test
# refuses those.
_FIXED_GATE = {2: bytes(range(0x58)), 4: bytes(range(0x47)),
               8: bytes(range(0x42))}


def _fixed_point(rows: list, width: int, data: bytes) -> "tuple | None":
    """(int code, scale, bytes) of rows as the uints x * 2**scale, or None
    unless that code is narrower than width, the float code's. data is
    rows at that float code; its last bytes gate the search, so a section
    with a large, infinite or negative value pays no pass per entry."""
    if data[width - 1::width].translate(None, _FIXED_GATE[width]):
        return None
    values = list(chain.from_iterable(rows))
    # The largest scale at which the largest value fits width / 2 bytes,
    # and a scale byte: every value must be integral there. Not all values
    # are integral (else they took an int code), so the scale is then 1 or
    # more once cut by the trailing zero bits all the scaled values share.
    scale = min(4 * width - math.frexp(max(values))[1], 255)
    if scale < 1:
        return None
    scaled = list(map(mul, values, repeat(2.0 ** scale)))
    if not all(map(float.is_integer, scaled)):
        return None
    ints = list(map(float.__trunc__, scaled))
    common = reduce(or_, ints)
    spare = (common & -common).bit_length() - 1
    if spare:
        ints = [n >> spare for n in ints]
    code, data = _pack_uint([ints])
    return code, scale - spare, data


def _f64_holds(x) -> bool:
    """Whether an f64 holds x exactly; only an int can fail."""
    try:
        return type(x) is not int or float(x) == x
    except OverflowError:
        return False


def _uint_rows(rows: list) -> "list | None":
    """rows as ints if every value is integral, in [0, 2**64) and free of
    a sign bit; else None."""
    flat = chain.from_iterable
    floats = not all(type(sum(row)) is int for row in rows)  # else ints only
    if floats:
        try:
            # floor raises on inf and NaN; a number equals its floor iff integral
            if not all(map(eq, map(math.floor, flat(rows)), flat(rows))):
                return None
        except (OverflowError, ValueError):
            return None
    if min(flat(rows), default=0) < 0 or max(flat(rows), default=0) >= 1 << 64:
        return None
    if not floats:
        return rows
    # copysign finds -0.0, which min lets by; a load refuses it as negative,
    # and an int code would turn it into 0
    if min(map(math.copysign, repeat(1.0), flat(rows))) < 0:
        return None
    return [list(map(int, row)) for row in rows]


def _pack_exact(rows: list, code: str) -> "bytearray | None":
    """rows as little-endian values of float code, or None unless each
    value survives the round trip."""
    out = bytearray()
    for row in rows:
        fmt = f"<{len(row)}{code}"
        try:
            data = struct.pack(fmt, *row)
        except (OverflowError, struct.error):  # finite, beyond code's range
            return None
        if struct.unpack(fmt, data) != tuple(row):
            return None
        out += data
    return out


def _pack_uint(rows: list) -> tuple:
    """(code, bytes) of int rows at the narrowest unsigned width; a value
    beyond u64, or below 0, is a struct.error."""
    top = max(chain.from_iterable(rows), default=0)
    code = next(
        (c for c in _INDEX_CODES if top < 1 << 8 * struct.calcsize("<" + c)), "Q"
    )
    return code, _pack_rows(rows, code)


def _pack_rows(rows: list, code: str) -> bytearray:
    """rows as little-endian values of code, in one buffer."""
    out = bytearray()
    for row in rows:
        out += struct.pack(f"<{len(row)}{code}", *row)
    return out


def load_embedding(stream: BinaryIO) -> Embedding:
    """Inverse of save_embedding, for the one version it writes; validates
    magic, version, kind, the matrix form and each section's code and
    scale (an index section takes only an int code and scale 0, a section
    with a scale only B, H or I). Each section's values take the type its
    code sets (see _read_block); a triangle comes back as k row lists with
    an int 0 diagonal, as every build makes it.

    On a seekable stream the counts in the header are checked against
    the bytes that follow before any payload is read; on any stream the
    payload is read in bounded pieces. Either way a corrupt count fails
    with ValueError instead of a huge read. So do bytes after the
    payload, a NaN or negative distance, and what no build writes and
    the dual-landmark bound cannot take: a nonzero distance from a
    landmark to itself, a 0 between distinct landmarks (a divisor) or an
    infinite owner distance.
    """
    head = _read_exact(stream, 8, "header")
    magic, version, kind, form = struct.unpack("<4sBBBx", head)
    if magic != _MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {_MAGIC!r}")
    if version != _VERSION:
        raise ValueError(f"unsupported embedding version {version}: this "
                         f"build reads only version {_VERSION}; rerun "
                         f"polyroute preprocess to rewrite the file")
    if kind not in (_KIND_FULL, _KIND_DISTRIBUTED):
        raise ValueError(f"unknown embedding kind {kind}")
    if form not in (0, 1):
        raise ValueError(f"unknown landmark matrix form {form}")
    nv, k = struct.unpack("<QQ", _read_exact(stream, 16, "header"))
    count = len(_layout(kind, nv, k))
    codes = _read_exact(stream, count, "header").decode("latin-1")
    scales = _read_exact(stream, count, "header")
    layout = _layout(kind, nv, k, codes, scales, triangle=form == 1)
    need = sum(struct.calcsize("<" + c) * per * rows
               for _, _, c, _, per, rows in layout)
    left = _bytes_left(stream)
    if left is not None and need > left:
        raise ValueError(
            f"embedding file truncated: header declares {nv} vertices and "
            f"{k} landmarks, {need} payload bytes, but only {left} follow"
        )
    if left is not None and need < left:
        raise ValueError(
            f"embedding file has {left - need} bytes after the payload"
        )
    [ids], *blocks = [
        _read_block(stream, name, code, scale, per, rows)
        for name, _, code, scale, per, rows in layout
    ]
    if left is None and stream.read(1):
        raise ValueError("embedding file has bytes after the payload")
    if form == 1:
        blocks[-1] = _mirror(blocks[-1][0], k)
    # rows in order, so a triangle's first 0 shows as (i,j) with i < j
    for i, row in enumerate(blocks[-1]):
        if row[i] != 0:
            raise ValueError(f"embedding file has a nonzero diagonal entry "
                             f"of the landmark matrix, at ({i},{i})")
        if row.count(0) > 1:
            j = next(j for j, x in enumerate(row) if x == 0 and j != i)
            raise ValueError(f"embedding file has a 0 off the diagonal of "
                             f"the landmark matrix, at ({i},{j})")
    L = LandmarkSet(tuple(ids))
    if kind == _KIND_FULL:
        return AltEmbedding(L, *blocks)
    [owner], [dist], lmatrix = blocks
    if math.inf in dist:
        raise ValueError(
            f"vertex {dist.index(math.inf)} has an infinite owner distance"
        )
    top = max(owner, default=0)
    if top >= k:
        raise ValueError(
            f"vertex {owner.index(top)} has owner index {top}, "
            f"but there are only {k} landmarks"
        )
    return DistributedEmbedding(L, owner, dist, lmatrix)


def _mirror(upper: list, k: int) -> list:
    """The symmetric k x k matrix whose entries above the diagonal are
    upper, row-major, as k independent row lists. The diagonal, which the
    file does not store, is an int 0 whatever upper's type."""
    rows = []
    start = 0
    for i in range(k):
        end = start + k - 1 - i
        rows.append([row[i] for row in rows] + [0] + upper[start:end])
        start = end
    return rows


_SIGN_CLEAR = bytes(range(0x80))  # last bytes of float values with sign 0
_BELOW_NAN = bytes(range(0x7C))  # last bytes of no f16, f32 or f64 NaN


def _read_block(stream: BinaryIO, name: str, code: str, scale: int, per: int,
                rows: int) -> list:
    """rows rows of per values of struct code, each of the type the code
    sets: an int code at scale 0 gives ints, an int code at a scale s > 0
    the floats n * 2**-s, and f16, f32 and f64 floats. A float value is a
    distance, so a NaN or a value with its sign bit set (negative, or
    -0.0) fails."""
    width = struct.calcsize("<" + code)
    fmt = f"<{per}{code}"
    out = []
    for _ in range(rows):
        raw = _read_exact(stream, width * per)
        values = struct.unpack(fmt, raw)
        if code not in _INDEX_CODES:
            # The last byte of a little-endian float holds the sign bit and
            # the top exponent bits. Only a value whose last byte is 0x7c
            # or more can be NaN (or inf, or huge), at any of the widths,
            # so only such a row is summed.
            top = raw[width - 1::width]
            if top.translate(None, _SIGN_CLEAR) or (
                top.translate(None, _BELOW_NAN) and math.isnan(sum(values))
            ):
                raise ValueError(
                    f"embedding file has a NaN or negative value in the {name}"
                )
        # exact: n < 2**32 and s <= 255, so no product rounds
        out.append(list(map(mul, values, repeat(2.0 ** -scale))) if scale
                   else list(values))
    return out


def _bytes_left(stream: BinaryIO) -> "int | None":
    """Bytes between the position and the end; None if not seekable."""
    if not stream.seekable():
        return None
    pos = stream.tell()
    end = stream.seek(0, io.SEEK_END)
    stream.seek(pos)
    return end - pos


_READ_PIECE = 1 << 20


def _read_exact(stream: BinaryIO, count: int, where: str = "payload") -> bytes:
    """count bytes, read in pieces of at most 1 MiB, so a corrupt header
    count on a non-seekable stream ends at the stream's end with
    ValueError instead of one huge read."""
    pieces = []
    left = count
    while left:
        piece = stream.read(min(left, _READ_PIECE))
        if not piece:
            raise ValueError(f"embedding file truncated in {where}")
        pieces.append(piece)
        left -= len(piece)
    return b"".join(pieces)
