"""Command-line front end.

Subcommands:

* gen         write a generated graph to a file
* preprocess  build an embedding, report its size, serialize it
* query       answer one source-target query with full statistics
* bench       run a workload, write a CSV/JSON report, print a summary
* verify      recompute every report row's distance from scratch

Every stochastic stage draws a sub-seed derived from the single --seed
flag, so identical invocations produce byte-identical outputs (wall
times are written as zero unless --timing is given).
"""

from __future__ import annotations

import argparse
import io
import os
import sys

from .bench import (
    _GUIDED,
    METHODS,
    STRATIFICATIONS,
    BenchError,
    WorkloadSpec,
    emit_report,
    format_summary,
    generate_queries,
    load_report,
    run_workload,
    summarize,
    verify_workload,
)
from .embedding import (
    check_embedding_fits,
    load_embedding,
    save_embedding,
    select_avoid,
    select_farthest,
    select_random,
    space_accounting,
)
from .graph import (
    Graph,
    GraphError,
    _content_lines,
    generate_grid,
    generate_random_connected,
    load_dimacs,
    load_edge_list,
    save_dimacs,
    save_edge_list,
)
from .heuristics import MODES
from .search import astar
from .seeding import derive_seed

_SELECTORS = {
    "random": select_random,
    "farthest": select_farthest,
    "avoid": select_avoid,
}


def load_graph_file(path: str) -> Graph:
    """Read a graph file, sniffing DIMACS vs. plain edge list."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    for _, line in _content_lines(text, ("c", "#")):
        if line.split()[0] in ("p", "a"):
            return load_dimacs(text)
        return load_edge_list(text)
    raise GraphError(f"{path}: no content lines")


def _report_format(path: str) -> str:
    """A report's format, set by its file name for writing and reading."""
    return "json" if path.endswith(".json") else "csv"


def _select_landmarks(g: Graph, args):
    seed = derive_seed(args.seed, "landmarks")
    return _SELECTORS[args.strategy](g, args.landmarks, seed)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="polyroute",
        description="Shortest-path queries over landmark embeddings, "
        "with exact operation accounting.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a graph file")
    kind = g.add_mutually_exclusive_group(required=True)
    kind.add_argument("--grid", metavar="RxC", help="4-neighbor lattice, e.g. 50x50")
    kind.add_argument(
        "--random", metavar="N,EXTRA",
        help="random connected graph: spanning tree plus EXTRA edges",
    )
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--format", choices=("dimacs", "edgelist"), default="dimacs")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--graph", required=True, help="graph file (DIMACS or edge list)")

    landmarks = argparse.ArgumentParser(add_help=False)
    landmarks.add_argument("--seed", type=int, default=0)
    landmarks.add_argument(
        "--strategy", choices=tuple(_SELECTORS), default="random",
        help="landmark selection strategy",
    )
    landmarks.add_argument("--landmarks", type=int, default=8, metavar="K")

    tuning = argparse.ArgumentParser(add_help=False)
    tuning.add_argument(
        "--mode", choices=MODES, default="literal",
        help="how alp arithmetic is counted (values are the same): "
        "literal prices every candidate bound as written, "
        "reduced the two-term form the evaluator runs",
    )

    pre = sub.add_parser(
        "preprocess", parents=[common, landmarks],
        help="build and serialize an embedding",
    )
    pre.add_argument("--method", choices=tuple(_GUIDED), required=True)
    pre.add_argument("--out", help="embedding output file")

    q = sub.add_parser(
        "query", parents=[common, landmarks, tuning],
        help="answer one source-target query",
    )
    q.add_argument("--method", choices=METHODS, required=True)
    q.add_argument("--source", type=int, required=True)
    q.add_argument("--target", type=int, required=True)
    q.add_argument("--embedding", help="serialized embedding (skips selection); "
                   "only its vertex count and landmark range are checked, so a "
                   "same-size file of another graph gives wrong distances")

    b = sub.add_parser(
        "bench", parents=[common, landmarks, tuning],
        help="run a workload and write a report",
    )
    b.add_argument("--methods", default=",".join(METHODS),
                   help=f"comma-separated subset of {','.join(METHODS)}")
    b.add_argument("--queries", type=int, default=100)
    b.add_argument("--stratify", choices=STRATIFICATIONS,
                   default=STRATIFICATIONS[0])
    b.add_argument("--out", required=True, help="JSON if named *.json, else CSV")
    b.add_argument("--timing", action="store_true",
                   help="record wall times (breaks byte-identical reruns)")

    v = sub.add_parser(
        "verify", parents=[common],
        help="recompute a report's distances from scratch",
    )
    v.add_argument("--report", required=True, help="JSON if named *.json, else CSV")
    return p


def _cmd_gen(args) -> int:
    if args.grid is not None:
        try:
            rows, cols = (int(x) for x in args.grid.lower().split("x"))
        except ValueError:
            raise GraphError(f"bad --grid value {args.grid!r}, expected RxC") from None
        g = generate_grid(rows, cols)
    else:
        try:
            n, extra = (int(x) for x in args.random.split(","))
        except ValueError:
            raise GraphError(
                f"bad --random value {args.random!r}, expected N,EXTRA"
            ) from None
        g = generate_random_connected(n, extra, derive_seed(args.seed, "gen"))
    with open(args.out, "w", encoding="ascii") as fh:
        if args.format == "dimacs":
            save_dimacs(g, fh)
        else:
            save_edge_list(g, fh)
    print(f"wrote {args.out}: {g.vertex_count} vertices, {g.edge_count} edges")
    return 0


def _cmd_preprocess(args) -> int:
    g = load_graph_file(args.graph)
    _, build, _ = _GUIDED[args.method]
    L = _select_landmarks(g, args)
    e = build(g, L)
    stored, _ = space_accounting(e)
    print("landmarks:", " ".join(str(l) for l in L.ids))
    if not args.out:
        print(f"entries: {stored}")
        return 0
    data = io.BytesIO()
    save_embedding(e, data)  # first, so a refused save leaves no file
    with open(args.out, "wb") as fh:
        fh.write(data.getbuffer())
    print(f"entries: {stored} bytes: {data.tell()}")
    print(f"wrote {args.out}")
    return 0


def _load_or_build_embedding(g: Graph, args):
    kind, build, _ = _GUIDED[args.method]
    if not args.embedding:
        return build(g, _select_landmarks(g, args))
    with open(args.embedding, "rb") as fh:
        e = load_embedding(fh)
    if not isinstance(e, kind):
        raise ValueError(
            f"embedding in {args.embedding} does not match method {args.method}"
        )
    check_embedding_fits(g, e)
    return e


def _cmd_query(args) -> int:
    g = load_graph_file(args.graph)
    h = None
    if args.method in _GUIDED:
        h = _GUIDED[args.method][2](_load_or_build_embedding(g, args), args.mode)
    elif args.embedding:
        raise ValueError(f"method {args.method} takes no --embedding")
    res = astar(g, args.source, args.target, h)
    print(f"distance: {res.distance}")
    print("path:", " ".join(str(v) for v in res.path))
    print(
        f"settled: {res.settled} expanded: {res.expanded} "
        f"reopened: {res.reopened}"
    )
    ops = res.op_totals
    print(
        f"heuristic_evals: {res.heuristic_evals} subs: {ops.subtractions} "
        f"muls: {ops.multiplications} divs: {ops.divisions}"
    )
    return 0


def _cmd_bench(args) -> int:
    g = load_graph_file(args.graph)
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    L = _select_landmarks(g, args)
    spec = WorkloadSpec(
        query_count=args.queries,
        seed=derive_seed(args.seed, "workload"),
        stratification=args.stratify,
    )
    queries = generate_queries(g, spec)
    # Opened before the run, so a bad path fails at once, but to append:
    # a failed run leaves a file that was there as it was and removes one
    # it made. Success truncates first, unless --out is a pipe or the file
    # stdout writes to: that one takes the report through stdout, untruncated.
    made = not os.path.exists(args.out)
    with open(args.out, "a", encoding="ascii", newline="") as fh:
        try:
            rows = run_workload(g, L, queries, methods, mode=args.mode, timing=args.timing)
        except BaseException:
            if made:
                os.remove(args.out)
            raise
        try:  # a stdout without a file descriptor is another file
            to_stdout = os.path.samestat(os.fstat(fh.fileno()),
                                         os.fstat(sys.stdout.fileno()))
        except OSError:
            to_stdout = False
        if not to_stdout and fh.seekable():
            fh.truncate(0)
        emit_report(rows, _report_format(args.out), sys.stdout if to_stdout else fh)
    print(f"wrote {args.out}: {len(rows)} rows")
    print(format_summary(summarize(rows)))
    return 0


def _cmd_verify(args) -> int:
    g = load_graph_file(args.graph)
    with open(args.report, "r", encoding="ascii", newline="") as fh:
        rows = load_report(fh, _report_format(args.report))
    violations = verify_workload(g, rows)
    print(f"checked: {len(rows)}")
    print(f"violations: {len(violations)}")
    for v in violations:
        print(
            f"  row {v['row']} [{v['method']}] {v['source']}->{v['target']}: "
            f"reported {v['reported']}, expected {v['expected']}"
        )
    return 1 if violations else 0


_HANDLERS = {
    "gen": _cmd_gen,
    "preprocess": _cmd_preprocess,
    "query": _cmd_query,
    "bench": _cmd_bench,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (GraphError, BenchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
