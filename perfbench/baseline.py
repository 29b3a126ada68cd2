"""One-off cross-check against the ROADMAP baseline table (not a workload).

    python3 perfbench/baseline.py [--queries 30]

Shapes as in that table: a 200x200 unit grid and a random connected graph
of 100k vertices plus 50k extra edges, 16 landmarks from
select_farthest(seed=1), uniform random queries. Prints one markdown row
per layer, mean query times, and settled counts. Takes a few minutes.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from polyroute import (  # noqa: E402
    astar,
    build_alt_embedding,
    build_distributed_embedding,
    dijkstra_query,
    generate_grid,
    generate_random_connected,
    make_alp_evaluator,
    make_alt_evaluator,
    select_farthest,
    shortest_path_tree,
)
from tracing import KernelWrappers, Spans  # noqa: E402


def timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return out, perf_counter() - t0


def column(g, queries: int) -> list:
    _, spt = timed(shortest_path_tree, g, 0)
    L, sel = timed(select_farthest, g, 16, 1)
    alt, t_alt = timed(build_alt_embedding, g, L)
    spans = Spans()
    with KernelWrappers(spans), spans.span("build_alp") as root:
        alp = build_distributed_embedding(g, L)
    parts = spans.totals(root)
    t_alp = parts["build_alp"][0]
    evals = {"alt": make_alt_evaluator(alt), "alp": make_alp_evaluator(alp)}
    rng = random.Random(1)
    n = g.vertex_count
    pairs = [tuple(rng.sample(range(n), 2)) for _ in range(queries)]
    rows = [
        f"{spt:.2f} s",
        f"{sel:.2f} s",
        f"{t_alt:.2f} s",
        f"{t_alp:.2f} s (matrix {parts['sssp.matrix'][0]:.2f} s, "
        f"sweep {parts['sssp.multi_source'][0]:.2f} s)",
    ]
    for m in ("dijkstra", "alt", "alp"):
        times, settled = [], []
        for s, t in pairs:
            if m == "dijkstra":
                res, dt = timed(dijkstra_query, g, s, t)
            else:
                res, dt = timed(astar, g, s, t, evals[m])
            times.append(dt)
            settled.append(res.settled)
        rows.append(
            f"{statistics.mean(times) * 1e3:.1f} ms, "
            f"{statistics.mean(settled) / 1e3:.1f}k settled"
        )
    return rows


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--queries", type=int, default=30)
    args = ap.parse_args()
    labels = [
        "one full shortest-path tree",
        "`select_farthest` k=16",
        "`build_alt_embedding`",
        "`build_distributed_embedding`",
        "dijkstra query (mean)",
        "alt query (mean)",
        "alp query (mean)",
    ]
    grid = column(generate_grid(200, 200), args.queries)
    rand = column(generate_random_connected(100_000, 50_000, seed=1), args.queries)
    print("| layer | grid 200x200 (40k v) | random 100k v + 50k extra edges |")
    print("| --- | --- | --- |")
    for label, a, b in zip(labels, grid, rand):
        print(f"| {label} | {a} | {b} |")


if __name__ == "__main__":
    main()
