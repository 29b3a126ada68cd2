"""Single-source and multi-source shortest-path kernels.

One Dijkstra kernel serves every caller: full single-source trees,
multi-source (nearest-seed) trees, truncated runs that stop once a watch
set is settled, and search.dijkstra_query, which stops on its target. A
vertex's owner is the position, in the sources given, of its nearest
source. Unreached vertices carry dist = inf and owner/parent = -1.

Determinism: the kernel settles vertices one distance level at a time,
each level in vertex id order, and a relaxation that ties on distance is
accepted only when it lowers the owner. Owners and parent pointers are
therefore reproducible, equal-distance ties go to the source listed
first, and the result is the one a heap keyed (distance, owner, vertex
id) gives.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Sequence

from .graph import Graph

INF = math.inf


@dataclass(frozen=True)
class DistanceMap:
    """Result of one kernel run.

    owner[v] is the position, in the sources given, of the source nearest
    to v (0 at every reached vertex of a single-source run), and
    parent[v] the predecessor on a shortest path from it. A source has
    dist 0 and parent -1; an unreached vertex has dist inf and owner and
    parent -1.
    """

    dist: list
    owner: list
    parent: list


@dataclass
class KernelCounters:
    """Counts kernel invocations, for preprocessing-cost assertions."""

    full_spt: int = 0
    multi_source: int = 0
    truncated_spt: int = 0


# Counters of the track_kernels blocks open in the current context,
# outermost first. A thread starts with none, so its kernel calls are
# not counted by blocks open in another thread.
_active: ContextVar = ContextVar("polyroute_kernel_counters", default=())


class track_kernels:
    """Context manager recording kernel invocations in its dynamic extent.

    Nested blocks each count the calls made inside them.

    >>> with track_kernels() as kc:
    ...     shortest_path_tree(g, 0)
    >>> kc.full_spt
    1
    """

    def __enter__(self) -> KernelCounters:
        self.counters = KernelCounters()
        self._token = _active.set(_active.get() + (self.counters,))
        return self.counters

    def __exit__(self, *exc) -> None:
        _active.reset(self._token)


def _count(kind: str) -> None:
    for c in _active.get():
        setattr(c, kind, getattr(c, kind) + 1)


def _run_kernel(
    g: Graph, sources: Sequence[int], stop_at: Sequence[int] = (),
    trail: "list | None" = None,
) -> tuple:
    """Dijkstra from several sources at once, one distance level at a
    time.

    keys is a heap holding each distinct tentative distance once, and
    level[d] lists the vertices that reached d (a vertex whose distance
    fell since is stale there). Weights are positive, so a level is
    complete when it leaves the heap, and it is settled in id order. For
    the vertices of one owner that is the order of a heap keyed
    (distance, owner, id), and an equal-distance relaxation wins only
    with a lower owner, so the result is the one that heap gives. This
    rests on d + w > d for every relaxation, which build_graph ensures by
    refusing weights a double path sum could absorb.

    At equal distance the source listed first wins. If stop_at is given
    (callers give it with one source), the run ends once every vertex in
    it is settled; distances outside the settled region are then only
    upper bounds. Returns (dist, owner, parent, settled): a run with
    stop_at counts its settles and appends each settled vertex to trail,
    if given; settled is 0 without stop_at.
    """
    n = g.vertex_count
    dist = [INF] * n
    owner = [-1] * n
    parent = [-1] * n
    for r, s in enumerate(sources):
        # A later duplicate would overwrite the first one's owner; callers
        # reject duplicates before reaching the kernel.
        dist[s] = 0
        owner[s] = r
    keys = [0]
    level = {0: list(sources)}
    adj = g.adjacency
    watch = bytearray(n) if stop_at else None
    for t in stop_at:
        watch[t] = 1
    left = len(set(stop_at))
    settled = 0
    while keys:
        d = heappop(keys)
        batch = level.pop(d)
        batch.sort()
        for u in batch:
            du = dist[u]
            if du < d:
                continue
            r = owner[u]
            if watch is not None:
                settled += 1
                if trail is not None:
                    trail.append(u)
                if watch[u]:
                    left -= 1
                    if not left:
                        return dist, owner, parent, settled
            for v, w in adj[u]:
                nd = du + w
                dv = dist[v]
                if nd < dv:
                    lst = level.get(nd)
                    if lst is not None:
                        lst.append(v)
                    else:
                        level[nd] = [v]
                        heappush(keys, nd)
                    dist[v] = nd
                    owner[v] = r
                    parent[v] = u
                elif nd == dv and r < owner[v]:
                    dist[v] = nd
                    owner[v] = r
                    parent[v] = u
    return dist, owner, parent, settled


def _check_vertex(g: Graph, v: int, what: str) -> None:
    if not (0 <= v < g.vertex_count):
        raise ValueError(f"{what} {v} out of range [0,{g.vertex_count})")


def shortest_path_tree(g: Graph, source: int) -> DistanceMap:
    """Exact single-source distances (full Dijkstra run)."""
    _check_vertex(g, source, "source")
    _count("full_spt")
    return DistanceMap(*_run_kernel(g, (source,))[:3])


def multi_source_spt(g: Graph, sources: Sequence[int]) -> DistanceMap:
    """Distance to the nearest source for every vertex.

    owner[v] is the position in sources of the attaining source.
    Equal-distance ties go to the source listed first.
    """
    srcs = tuple(sources)
    if not srcs:
        raise ValueError("sources must be nonempty")
    if len(set(srcs)) != len(srcs):
        raise ValueError(f"duplicate sources in {srcs}")
    for s in srcs:
        _check_vertex(g, s, "source")
    _count("multi_source")
    return DistanceMap(*_run_kernel(g, srcs)[:3])


def truncated_spt(g: Graph, source: int, targets: Sequence[int]) -> DistanceMap:
    """Single-source run that stops once all targets are settled."""
    _check_vertex(g, source, "source")
    for t in targets:
        _check_vertex(g, t, "target")
    _count("truncated_spt")
    trail = []
    # With no targets the run stops after settling the source.
    dist, owner, parent, _ = _run_kernel(
        g, (source,), tuple(targets) or (source,), trail)
    # Only settled vertices have exact distances; the rest read unreached.
    n = g.vertex_count
    dm = DistanceMap([INF] * n, [-1] * n, [-1] * n)
    for v in trail:
        dm.dist[v], dm.owner[v], dm.parent[v] = dist[v], owner[v], parent[v]
    return dm


def landmark_matrix(
    g: Graph, landmarks: Sequence[int], known: Sequence[Sequence] = ()
) -> list:
    """Pairwise true distances among landmarks.

    known holds the first rows (row i = distances from landmarks[i] to
    every landmark, read off a full tree), trusted, not recomputed; only
    the selector hand-off in build_distributed_embedding passes them, and
    the package does not export this function. Each remaining landmark
    gets one truncated run, which settles a prefix of the full run, so
    both give the same values bit for bit. Keeps only the |L| x |L| block.
    """
    lms = tuple(landmarks)
    if len(set(lms)) != len(lms):
        raise ValueError(f"duplicate landmarks in {lms}")
    for l in lms:
        _check_vertex(g, l, "landmark")
    if len(known) > len(lms) or any(len(row) != len(lms) for row in known):
        raise ValueError(
            f"known rows must be at most {len(lms)} rows of {len(lms)} entries"
        )
    matrix = [list(row) for row in known]
    for l in lms[len(known):]:
        dm = truncated_spt(g, l, lms)
        matrix.append([dm.dist[other] for other in lms])
    return matrix

