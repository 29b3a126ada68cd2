"""Independent reference implementations used to check the package.

Everything here is deliberately naive and written against raw edge lists,
not the package's Graph type, so a bug in the package cannot hide in the
oracle. Bellman-Ford relaxation to a fixed point is the distance oracle,
a plain tuple-heap Dijkstra the oracle of the kernel's tie rule, and the
heuristic bounds are written out candidate by candidate, priced by a
table of their own: the reference the package's evaluators, which
compute only the terms that can win, are checked against.
"""

from __future__ import annotations

import heapq
import math
import struct
from dataclasses import dataclass

INF = math.inf


def bellman_ford(n: int, edges: list, source: int) -> list:
    """Single-source distances by relaxing every edge until no change.

    edges: (u, v, w) triples, interpreted undirected. O(n*m), no heap, no
    shared code with the package kernels.
    """
    dist = [INF] * n
    dist[source] = 0
    for _ in range(n):
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
            if dist[v] + w < dist[u]:
                dist[u] = dist[v] + w
                changed = True
        if not changed:
            break
    return dist


def all_pairs(n: int, edges: list) -> list:
    """Full distance table, one Bellman-Ford sweep per source."""
    return [bellman_ford(n, edges, s) for s in range(n)]


def nearest_landmark(rows: list, landmarks: list, v: int) -> tuple:
    """(landmark position, distance) of v's closest landmark, ties to the
    earliest position in the landmark sequence."""
    best_pos = 0
    best = rows[landmarks[0]][v]
    for pos, l in enumerate(landmarks[1:], start=1):
        d = rows[l][v]
        if d < best:
            best = d
            best_pos = pos
    return best_pos, best


@dataclass(frozen=True)
class HeuristicEval:
    """One reference evaluation: the clamped value, every candidate by
    label, and the price (subtractions, multiplications, divisions,
    terms), in the order the package's evaluators return them.

    components maps candidate labels to values; None marks a candidate
    unavailable under the embedding (pi4/pi5 cross-owner, pi6
    same-owner).
    """

    value: float
    components: dict
    counters: tuple


# (same-owner, cross-owner) price of one dual-landmark evaluation per
# mode. literal prices every available candidate as written: 5 terms
# over 8 subtractions same-owner, 4 terms over 9 subtractions, 2
# multiplications and 1 division cross-owner. reduced prices the
# two-term form: |a - b| same-owner, max(D - a - b, |a - b| - D) cross.
ALP_PRICES = {
    "literal": ((8, 0, 0, 5), (9, 2, 1, 4)),
    "reduced": ((1, 0, 0, 1), (4, 0, 0, 2)),
}


def alt_h(e, v: int, t: int) -> HeuristicEval:
    """Full-table bound of an ALT embedding: max over landmarks l of
    |d(v,l) - d(t,l)|, one subtraction per landmark."""
    components = {f"lm{i}": abs(row[v] - row[t]) for i, row in enumerate(e.table)}
    k = len(components)
    return HeuristicEval(max(0, *components.values()), components, (k, 0, 0, k))


def quadrilateral_bounds(a: float, b: float, big_d: float) -> list:
    """pi1, pi2, pi3: the three triangle-chain lower bounds on d(v,t) given
    a = d(v, own landmark of v), b = d(t, own landmark of t), and
    big_d = distance between the two landmarks (0 when they coincide)."""
    return [
        abs(a - big_d) - b,
        abs(a - b) - big_d,
        abs(big_d - b) - a,
    ]


def ratio_bound(a: float, b: float, big_d: float) -> float:
    """pi6: Ptolemy's inequality over (v, l1, l2, t), for distinct owner
    landmarks. big_d = inf puts v and t in different components; pi6
    takes its limit there, inf, not inf / inf = nan."""
    if big_d == INF:
        return INF
    return (abs(a - big_d) * abs(big_d - b) - a * b) / big_d


def alp_components(e, v: int, t: int) -> dict:
    """Every candidate bound of a distributed embedding for (v, t), None
    where unavailable: pi4 = pi5 = |a - b| only when v and t share an
    owner, pi6 only when they do not."""
    l1 = e.owner[v]
    l2 = e.owner[t]
    a = e.dist_to_owner[v]
    b = e.dist_to_owner[t]
    big_d = e.lmatrix[l1][l2]
    same = l1 == l2
    pi1, pi2, pi3 = quadrilateral_bounds(a, b, big_d)
    pi4 = abs(a - b) if same else None
    return {
        "pi1": pi1, "pi2": pi2, "pi3": pi3, "pi4": pi4, "pi5": pi4,
        "pi6": None if same else ratio_bound(a, b, big_d),
    }


def alp_dual_h(e, v: int, t: int, mode: str = "literal") -> HeuristicEval:
    """Dual-landmark bound: max(0, max of the available candidates),
    priced by ALP_PRICES[mode] for its owner case."""
    comps = alp_components(e, v, t)
    value = max(c for c in comps.values() if c is not None)
    same, cross = ALP_PRICES[mode]
    price = cross if comps["pi4"] is None else same
    return HeuristicEval(max(value, 0), comps, price)


def heap_kernel(n: int, edges: list, sources: list, watch=None) -> tuple:
    """(dist, owner, parent) of Dijkstra from sources, with every heap
    entry keyed (distance, source rank, vertex id): the tie rule the
    package's kernel must reproduce, written out over raw edges.

    A vertex takes a candidate that is shorter, or equally short from a
    source listed earlier; owner[v] is that source's rank. With watch,
    the run stops once every vertex in it is settled and reports only
    settled vertices; the others get dist inf and owner and parent -1.
    """
    adj = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    dist = [INF] * n
    owner = [-1] * n
    parent = [-1] * n
    settled = [False] * n
    heap = []
    for r, s in enumerate(sources):
        dist[s] = 0
        owner[s] = r
        heap.append((0, r, s))
    heapq.heapify(heap)
    waiting = set(watch) if watch is not None else None
    while heap:
        d, r, u = heapq.heappop(heap)
        if settled[u] or (d, r) != (dist[u], owner[u]):
            continue
        settled[u] = True
        if waiting is not None:
            waiting.discard(u)
            if not waiting:
                break
        for v, w in adj[u]:
            if (d + w, r) < (dist[v], owner[v]):
                dist[v], owner[v], parent[v] = d + w, r, u
                heapq.heappush(heap, (d + w, r, v))
    if waiting is not None:
        for v in range(n):
            if not settled[v]:
                dist[v], owner[v], parent[v] = INF, -1, -1
    return dist, owner, parent


def lemb_v1_bytes(e) -> bytes:
    """The LEMB version 1 file of an embedding, as save_embedding wrote it
    before version 2: a 24-byte header (magic, version 1, kind, 2 pad
    bytes, |V| and |L| as u64), then the landmark ids, the full table or
    the owners and owner distances, then the landmark matrix, with every
    index a u64 and every distance an f64, all little-endian. Kept so
    that tests can pin that version 1 files still load."""
    return _lemb_file(e, 1, "Qdd" if hasattr(e, "table") else "QQdd")


def lemb_v2_bytes(e, codes: str) -> bytes:
    """The LEMB version 2 file of an embedding with the given struct code
    per section: a 24-byte header as in version 1, one code byte per
    section, then the sections at those codes, the matrix in full. Such
    files came from the writer before version 3, and, with eighths at f
    (f32), from the one before the f16 code. Kept so that tests can pin
    that such files still load."""
    return _lemb_file(e, 2, codes)


def _lemb_file(e, version: int, codes: str) -> bytes:
    """Header, in version 2 one code byte per section, then the sections
    at codes; an int code takes integral floats such as 3.0 as ints."""
    ids = [e.landmarks.ids]
    if hasattr(e, "table"):
        kind, nv = 1, len(e.table[0])
        sections = [ids, e.table, e.lmatrix]
    else:
        kind, nv = 2, len(e.owner)
        sections = [ids, [e.owner], [e.dist_to_owner], e.lmatrix]
    out = [struct.pack("<4sBB2xQQ", b"LEMB", version, kind, nv, len(ids[0]))]
    if version == 2:
        out.append(codes.encode("ascii"))
    for code, rows in zip(codes, sections):
        if code in "BHIQ":
            rows = [list(map(int, row)) for row in rows]
        out += [struct.pack(f"<{len(row)}{code}", *row) for row in rows]
    return b"".join(out)
