"""Single-source and multi-source shortest-path kernels.

_run_kernel runs Dijkstra from one source: full trees, truncated runs
that stop once a watch set is settled, and search.dijkstra_query, which
stops on its target. _sweep runs it from several sources at once for
multi-source (nearest-seed) trees; a vertex's owner is the position, in
the sources given, of its nearest source. Unreached vertices carry
dist = inf and owner/parent = -1.

Determinism: both loops settle one distance level at a time, each level
in vertex id order. The sweep takes an equal-distance relaxation only
when it lowers the owner, so ties go to the source listed first. Both
give what a heap keyed (distance, owner, vertex id) gives: with one
source that tie rule never fires, so _run_kernel keeps no owners and
relaxes on strict < only.
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
    g: Graph, source: int, stop_at: Sequence[int] = (),
    trail: "list | None" = None,
) -> tuple:
    """Dijkstra from one source, one distance level at a time.

    keys is a heap holding each distinct tentative distance once, and
    level[d] lists the vertices that reached d (a vertex whose distance
    fell since is stale there). Weights are positive, so a level is
    complete when it leaves the heap, and it is settled in id order. This
    rests on d + w > d for every relaxation, which build_graph ensures by
    refusing weights a double path sum could absorb.

    If stop_at is given, the run ends once every vertex in it is settled;
    distances outside the settled region are then only upper bounds, and
    the run counts its settles and appends each settled vertex to trail,
    if given. Returns (dist, parent, settled), settled 0 without stop_at.
    """
    n = g.vertex_count
    dist = [INF] * n
    parent = [-1] * n
    dist[source] = 0
    keys = [0]
    level = {0: [source]}
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
            if watch is not None:
                settled += 1
                if trail is not None:
                    trail.append(u)
                if watch[u]:
                    left -= 1
                    if not left:
                        return dist, parent, settled
            for v, w in adj[u]:
                nd = du + w
                if nd < dist[v]:
                    lst = level.get(nd)
                    if lst is not None:
                        lst.append(v)
                    else:
                        level[nd] = [v]
                        heappush(keys, nd)
                    dist[v] = nd
                    parent[v] = u
    return dist, parent, settled


def _sweep(g: Graph, sources: Sequence[int]) -> tuple:
    """Dijkstra from distinct sources, level by level as _run_kernel. A
    tie that lowers the owner also stores its nd, which keeps 3 and 3.0
    apart on mixed int/float weights. Returns (dist, owner, parent).
    """
    n = g.vertex_count
    dist = [INF] * n
    owner = [-1] * n
    parent = [-1] * n
    for r, s in enumerate(sources):
        dist[s] = 0
        owner[s] = r
    keys = [0]
    level = {0: list(sources)}
    adj = g.adjacency
    while keys:
        d = heappop(keys)
        batch = level.pop(d)
        batch.sort()
        for u in batch:
            du = dist[u]
            if du < d:
                continue
            r = owner[u]
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
    return dist, owner, parent


def _check_vertex(g: Graph, v: int, what: str) -> None:
    if not (0 <= v < g.vertex_count):
        raise ValueError(f"{what} {v} out of range [0,{g.vertex_count})")


def shortest_path_tree(g: Graph, source: int) -> DistanceMap:
    """Exact single-source distances (full Dijkstra run)."""
    _check_vertex(g, source, "source")
    _count("full_spt")
    dist, parent, _ = _run_kernel(g, source)
    owner = [0] * len(dist) if INF not in dist else [
        -1 if d == INF else 0 for d in dist]
    return DistanceMap(dist, owner, parent)


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
    return DistanceMap(*_sweep(g, srcs))


def truncated_spt(g: Graph, source: int, targets: Sequence[int]) -> DistanceMap:
    """Single-source run that stops once all targets are settled."""
    _check_vertex(g, source, "source")
    for t in targets:
        _check_vertex(g, t, "target")
    _count("truncated_spt")
    trail = []
    # With no targets the run stops after settling the source.
    dist, parent, _ = _run_kernel(g, source, tuple(targets) or (source,),
                                  trail)
    # Only settled vertices have exact distances; the rest read unreached.
    n = g.vertex_count
    dm = DistanceMap([INF] * n, [-1] * n, [-1] * n)
    for v in trail:
        dm.dist[v], dm.owner[v], dm.parent[v] = dist[v], 0, parent[v]
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

