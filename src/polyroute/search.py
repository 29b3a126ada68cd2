"""Point-to-point search: one A* loop with reopening, and Dijkstra.

The dual-landmark heuristic is admissible but not consistent, so a
settled vertex can later receive a better tentative distance. The search
reinserts such vertices (reopening), which keeps returned distances
exact for any admissible heuristic; the extra settle events are reported
so the cost is visible.

Heap entries compare by (f, -g, vertex id), so equal-f ties prefer the
larger g and then the smaller id. Dijkstra (h=None) runs on sssp's
single-source loop, which settles each distance level in id order and
keeps no owners: the order of A* with an evaluator that returns 0.

Heuristic values are recomputed on every push, never cached, so the
reported operation totals, summed over every evaluation, reflect what
the heuristic actually costs during the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .graph import Graph
from .heuristics import Evaluator, OpCounters
from .sssp import _check_vertex, _run_kernel

INF = math.inf


@dataclass(frozen=True)
class QueryResult:
    """Outcome and effort of one point-to-point query.

    distance is inf and path is [] when the target is unreachable.
    expanded counts settle events, settled counts distinct settled
    vertices, and reopened = expanded - settled. settle_order is
    populated only when the search ran with trace=True.
    """

    source: int
    target: int
    distance: float
    path: list = field(repr=False)
    settled: int
    expanded: int
    reopened: int
    heuristic_evals: int
    op_totals: OpCounters
    settle_order: "list | None" = field(default=None, repr=False)


def _reconstruct(parent: list, source: int, target: int) -> list:
    path = [target]
    v = target
    while v != source:
        v = parent[v]
        path.append(v)
    path.reverse()
    return path


def astar(
    g: Graph, source: int, target: int, h: Evaluator | None, trace: bool = False
) -> QueryResult:
    """Guided search; exact for admissible h thanks to reopening.

    h follows the evaluator protocol: h(v, target) returns (value,
    subtractions, multiplications, divisions, terms), and op_totals sums
    the three counts. h=None is dijkstra_query.
    """
    if h is None:
        return dijkstra_query(g, source, target, trace)
    _check_vertex(g, source, "source")
    _check_vertex(g, target, "target")
    n = g.vertex_count
    g_dist = [INF] * n
    parent = [-1] * n
    closed = bytearray(n)
    g_dist[source] = 0
    hv, total_subs, total_muls, total_divs, _ = h(source, target)
    evals = 1
    heap = [(hv, 0, source)]
    expanded = 0
    order = [] if trace else None
    adj = g.adjacency
    while heap:
        f, neg_g, u = heappop(heap)
        gu = -neg_g
        if gu > g_dist[u]:
            continue
        expanded += 1
        closed[u] = 1
        if order is not None:
            order.append(u)
        if u == target:
            break
        for v, w in adj[u]:
            ng = gu + w
            if ng < g_dist[v]:
                g_dist[v] = ng
                parent[v] = u
                hv, subs, muls, divs, _ = h(v, target)
                evals += 1
                total_subs += subs
                total_muls += muls
                total_divs += divs
                heappush(heap, (ng + hv, -ng, v))
    settled = closed.count(1)
    # The loop stops on settling the target, so an unsettled target was
    # never reached and its distance is still inf.
    path = _reconstruct(parent, source, target) if closed[target] else []
    return QueryResult(
        source, target, g_dist[target], path, settled, expanded,
        expanded - settled, evals,
        OpCounters(total_subs, total_muls, total_divs), order,
    )


def dijkstra_query(
    g: Graph, source: int, target: int, trace: bool = False
) -> QueryResult:
    """Plain search on the sssp kernel, stopping as soon as the target
    is settled. No heuristic work: zero evaluations and zero totals.
    """
    _check_vertex(g, source, "source")
    _check_vertex(g, target, "target")
    order = [] if trace else None
    dist, parent, settled = _run_kernel(g, source, (target,), order)
    # The run stops on the target, so d = inf only if it was never reached.
    d = dist[target]
    path = _reconstruct(parent, source, target) if d < INF else []
    return QueryResult(source, target, d, path, settled, settled, 0, 0,
                       OpCounters(0, 0, 0), order)
