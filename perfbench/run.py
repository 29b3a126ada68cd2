"""polyroute benchmark: set-up cost, query latency and stored bytes for
dijkstra, alt and alp, with an exact check of every answer.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 40 --trace 0

Run from the repository root; the program is imported from ./src.
``--trace 0`` measures the end-to-end metrics. ``--trace 1`` is a
separate run that repeats set-up and one query pass untraced, then traced
(spans at every layer boundary, kernel wrappers inside the builds, h time
per query), checks that every deterministic counter matches between the
two, and prints the per-layer metrics with self times. Spans are written
to perfbench/out/. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

Queries are closed-loop: one caller, each call made after the previous
one returned. Every (query, method) call is timed from outside, as a
direct call of dijkstra_query or astar.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from inputs import WORKLOADS, draw_queries, make_input, rng_for  # noqa: E402
from tracing import KernelWrappers, Spans  # noqa: E402

METHODS = ("dijkstra", "alt", "alp")

# name -> unit; the keys are BENCHMARK.json's end_to_end metrics.
END_TO_END = {
    "setup_s": "s",
    "alt.prep_s": "s",
    "alp.prep_s": "s",
    **{f"{m}.p50_ms": "ms" for m in METHODS},
    **{f"{m}.p90_ms": "ms" for m in METHODS},
    **{f"{m}.qps": "1/s" for m in METHODS},
    "alt.bytes": "B",
    "alp.bytes": "B",
    "peak_rss_mb": "MB",
    "exact_frac": "ratio",
}

# name -> unit; the keys are BENCHMARK.json's per_layer metrics. Reopening
# counters of dijkstra (never reopens) and alt (consistent bound, so zero)
# are printed but not exported, since exported metrics must not be zero.
PER_LAYER = {
    "graph.build_s": "s",
    "embedding.select_s": "s",
    "embedding.select_self_s": "s",
    "sssp.full_spt_s": "s",
    "sssp.full_spt_calls": "count",
    "embedding.build_alt_s": "s",
    "embedding.build_alt_self_s": "s",
    "heuristics.make_alt_s": "s",
    "embedding.alt_entries": "count",
    "embedding.build_alp_s": "s",
    "embedding.build_alp_self_s": "s",
    "heuristics.make_alp_s": "s",
    "embedding.alp_entries": "count",
    "sssp.multi_source_s": "s",
    "sssp.matrix_s": "s",
    "sssp.matrix_self_s": "s",
    "sssp.truncated_calls": "count",
    "sssp.matrix_settled": "count",
    "sssp.matrix_yield": "ratio",
    "embedding.save_s": "s",
    "embedding.load_s": "s",
    **{
        f"{m}.{c}": u
        for m in ("alt", "alp")
        for c, u in (("h_evals", "count"), ("h_ns", "ns"), ("h_share", "ratio"), ("arith", "count"))
    },
    **{
        f"{m}.{c}": u
        for m in METHODS
        for c, u in (
            ("settled", "count"),
            ("expanded", "count"),
            ("reopened", "count"),
            ("reopen_ratio", "ratio"),
            ("path_yield", "ratio"),
            ("search_ns_per_expansion", "ns"),
            ("trace_overhead_ms", "ms"),
        )
        if not (m != "alp" and c in ("reopened", "reopen_ratio"))
    },
}


class BenchSetupError(RuntimeError):
    """The benchmark cannot run here (program missing or check blind)."""


@dataclass
class Setup:
    g: object
    alt: object
    alp: object
    h: dict  # method -> evaluator, None for dijkstra
    bytes: dict  # method -> save_embedding size, if set-up round-trips
    kernels: tuple  # (full_spt, multi_source, truncated_spt) calls
    root: int  # index of the "setup" span


def _round_trip(e, spans: Spans):
    """save_embedding to memory and load it back; returns (loaded, bytes)."""
    from polyroute import load_embedding, save_embedding

    buf = io.BytesIO()
    with spans.span("embedding.save"):
        save_embedding(e, buf)
    size = buf.tell()
    buf.seek(0)
    with spans.span("embedding.load"):
        loaded = load_embedding(buf)
    return loaded, size


def set_up(wl, inp, lm_seed: int, spans: Spans) -> Setup:
    """Generated input -> ready evaluators, each layer call inside a span."""
    from polyroute import (
        build_alt_embedding,
        build_distributed_embedding,
        build_graph,
        load_dimacs,
        make_alp_evaluator,
        make_alt_evaluator,
        select_farthest,
        track_kernels,
    )

    sizes = {}
    with track_kernels() as kc, spans.span("setup") as root:
        with spans.span("graph.build"):
            if inp.dimacs is None:
                g = build_graph(inp.vertex_count, inp.edges)
            else:
                g = load_dimacs(inp.dimacs)
        with spans.span("embedding.select"):
            L = select_farthest(g, wl.k, lm_seed)
        with spans.span("alt.prep"):
            with spans.span("embedding.build_alt"):
                alt = build_alt_embedding(g, L)
            if wl.lemb:
                alt, sizes["alt"] = _round_trip(alt, spans)
            with spans.span("heuristics.make_alt"):
                h_alt = make_alt_evaluator(alt)
        with spans.span("alp.prep"):
            with spans.span("embedding.build_alp"):
                alp = build_distributed_embedding(g, L)
            if wl.lemb:
                alp, sizes["alp"] = _round_trip(alp, spans)
            with spans.span("heuristics.make_alp"):
                h_alp = make_alp_evaluator(alp)
    return Setup(
        g, alt, alp, {"dijkstra": None, "alt": h_alt, "alp": h_alp}, sizes,
        (kc.full_spt, kc.multi_source, kc.truncated_spt), root,
    )


def _timed_h(h, acc: list):
    """Evaluator that adds its own run time to acc[0]; no span per call."""
    clock = perf_counter_ns

    def th(v, t):
        t0 = clock()
        out = h(v, t)
        acc[0] += clock() - t0
        return out

    return th


def query_pass(su: Setup, pairs: list, spans: "Spans | None" = None) -> dict:
    """Each pair under each method, method order rotating per pair.

    Returns method -> list of (QueryResult, call ns, h ns), in pair order.
    With spans, every call is a span and h time is summed per call.
    """
    from polyroute import astar, dijkstra_query

    g = su.g
    out = {m: [] for m in METHODS}
    acc = [0]
    h = dict(su.h)
    if spans is not None:
        h = {m: ev if ev is None else _timed_h(ev, acc) for m, ev in h.items()}
    clock = perf_counter_ns
    for qi, (s, t) in enumerate(pairs):
        for j in range(len(METHODS)):
            m = METHODS[(qi + j) % len(METHODS)]
            ev = h[m]
            if spans is None:
                t0 = clock()
                res = dijkstra_query(g, s, t) if ev is None else astar(g, s, t, ev)
                ns = clock() - t0
                out[m].append((res, ns, 0))
                continue
            acc[0] = 0
            name = "search.dijkstra_query" if ev is None else "search.astar"
            with spans.span(name, query=f"{qi}/{m}") as idx:
                res = dijkstra_query(g, s, t) if ev is None else astar(g, s, t, ev)
            rec = spans.records[idx]
            rec[5] = {"h_ns": acc[0]}
            out[m].append((res, rec[2] - rec[1], acc[0]))
    return out


def check_pass(results: dict, pairs: list, expected: dict, weight: dict, failures: list) -> int:
    """Exact-check every answer of one pass, listing each failure and each
    query whose methods disagree; returns the number of failed answers."""
    failed = 0
    for qi, (s, t) in enumerate(pairs):
        answers = {m: results[m][qi][0] for m in METHODS}
        for m, res in answers.items():
            problem = checks.check_answer(res, s, t, expected[(s, t)], weight)
            if problem:
                failed += 1
                failures.append(f"query {s}->{t} {m}: {problem}")
        split = checks.disagreement(answers)
        if split:
            failures.append(f"query {s}->{t} methods disagree: {split}")
    return failed


def _counters(res) -> tuple:
    ops = res.op_totals
    return (res.distance, res.settled, res.expanded, res.reopened,
            res.heuristic_evals, ops.subtractions, ops.multiplications, ops.divisions)


def _quantiles_ms(ns: list) -> tuple:
    deciles = statistics.quantiles(ns, n=10)
    return statistics.median(ns) / 1e6, deciles[8] / 1e6


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Run:
    """One benchmark invocation for one workload and seed."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.inp = make_input(workload, seed)
        self.lm_seed = rng_for(workload, seed, "landmarks").randrange(2**32)
        self.failures: list = []
        self.integrity: list = []  # benchmark-side checks that failed
        self.attempted = 0
        self.failed = 0
        self.lines: list = []

    def say(self, text: str) -> None:
        self.lines.append(text)

    def queries(self, su: Setup) -> None:
        """Stratified pairs plus oracle distances, from an untimed tree each."""
        from polyroute.sssp import shortest_path_tree

        rng = rng_for(self.wl.name, self.seed, "queries")
        n = su.g.vertex_count
        pairs, self.expected = draw_queries(
            n, lambda s: shortest_path_tree(su.g, s).dist, self.wl, rng
        )
        rng.shuffle(pairs)
        self.pairs = pairs

    def check(self, results: dict, pairs: list) -> None:
        self.attempted += len(pairs) * len(METHODS)
        self.failed += check_pass(
            results, pairs, self.expected, self.inp.weight, self.failures
        )

    def record(self, trace: bool, passes: int) -> dict:
        g = self.g_info
        return {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "seed": self.seed,
            "workload": self.wl.name,
            "trace": int(trace),
            "n": g[0],
            "m": g[1],
            "k": self.wl.k,
            "queries": len(self.pairs),
            "passes": passes,
        }

    # ---- untraced run: the end-to-end metrics -----------------------------

    def _measure(self, su: Setup, chunk: list, times: dict) -> None:
        """Runs the pairs with indices in chunk, in that order; adds each
        (pair, method)'s time to its samples and checks every answer."""
        gc.collect()
        pairs = [self.pairs[i] for i in chunk]
        results = query_pass(su, pairs)
        for m in METHODS:
            for qi, (_, ns, _) in zip(chunk, results[m]):
                times[m][qi].append(ns)
        self.check(results, pairs)

    def untraced(self) -> dict:
        """Query passes, each over all pairs in a fresh order, fill about
        the measured seconds. The stream of passes is cut into one chunk
        per set-up, and each chunk runs on a new set-up, so that set-ups
        and queries alike are sampled at evenly spaced moments of the run.

        On a shared 2-core host the machine runs at one steady speed most
        of the time, with bursts of a few seconds up to 40% faster. A
        best-of time reads the bursts, which some runs catch and others
        miss; a median reads the steady speed. So a call's latency is its
        median over the passes, qps counts every pass, and setup_s and the
        prep times are medians over the set-ups.
        """
        spans = Spans()
        setups = []
        order_rng = rng_for(self.wl.name, self.seed, "order")
        su = set_up(self.wl, self.inp, self.lm_seed, spans)
        setups.append(su.root)
        self.kernels = su.kernels
        self.g_info = (su.g.vertex_count, su.g.edge_count)
        self.bytes = su.bytes or {
            m: _round_trip(getattr(su, m), spans)[1] for m in ("alt", "alp")
        }
        self.queries(su)
        # A pass count fixed by the arguments, not by this run's speed, so
        # that every run reports the same statistic (median of `passes`).
        passes = max(1, round(self.seconds / self.wl.pass_s))
        stream = []
        for _ in range(passes):
            order = list(range(len(self.pairs)))
            order_rng.shuffle(order)
            stream += order
        times = {m: [[] for _ in self.pairs] for m in METHODS}
        r_count = self.wl.setups
        for j in range(r_count):
            if j:
                su = None  # release the previous set-up before building the next
                gc.collect()
                su = set_up(self.wl, self.inp, self.lm_seed, spans)
                setups.append(su.root)
                if su.kernels != self.kernels:
                    self.integrity.append(
                        f"kernel calls differ between set-ups: {su.kernels} != {self.kernels}"
                    )
            lo, hi = j * len(stream) // r_count, (j + 1) * len(stream) // r_count
            self._measure(su, stream[lo:hi], times)

        def median_phase(name: str) -> float:
            return statistics.median(
                spans.seconds(i) for i, r in enumerate(spans.records) if r[0] == name
            )

        metrics = {
            "setup_s": statistics.median(spans.seconds(i) for i in setups),
            "alt.prep_s": median_phase("alt.prep"),
            "alp.prep_s": median_phase("alp.prep"),
        }
        for m in METHODS:
            latency = [statistics.median(ns) for ns in times[m]]
            metrics[f"{m}.p50_ms"], metrics[f"{m}.p90_ms"] = _quantiles_ms(latency)
        for m in METHODS:
            metrics[f"{m}.qps"] = len(self.pairs) * passes / (sum(map(sum, times[m])) / 1e9)
        metrics["alt.bytes"] = self.bytes["alt"]
        metrics["alp.bytes"] = self.bytes["alp"]
        metrics["peak_rss_mb"] = _peak_rss_mb()
        metrics["exact_frac"] = 1 - self.failed / self.attempted
        self.say("run " + json.dumps(self.record(False, passes)))
        self.say(f"samples per method: {len(self.pairs)} pairs x {passes} passes "
                 f"(a pair's latency is its median pass); {len(setups)} set-ups")
        for name, unit in END_TO_END.items():
            self.say(f"{name} = {metrics[name]:.6g} {unit}")
        self._say_failures()
        return metrics

    # ---- traced run: the per-layer metrics ---------------------------------

    def traced(self) -> dict:
        plain = Spans()
        su = set_up(self.wl, self.inp, self.lm_seed, plain)
        kernels_plain = su.kernels
        self.g_info = (su.g.vertex_count, su.g.edge_count)
        self.queries(su)
        gc.collect()
        base = query_pass(su, self.pairs)
        self.check(base, self.pairs)
        su = None
        gc.collect()

        spans = Spans()
        with KernelWrappers(spans) as kw:
            su = set_up(self.wl, self.inp, self.lm_seed, spans)
        if not self.wl.lemb:
            with spans.span("lemb") as lemb:
                for m in ("alt", "alp"):
                    _round_trip(getattr(su, m), spans)
        gc.collect()
        traced = query_pass(su, self.pairs, spans)
        self.check(traced, self.pairs)

        if su.kernels != kernels_plain:
            self.integrity.append(
                f"kernel calls traced {su.kernels} != untraced {kernels_plain}"
            )
        for m in METHODS:
            for qi, ((a, _, _), (b, _, _)) in enumerate(zip(base[m], traced[m])):
                if _counters(a) != _counters(b):
                    self.integrity.append(
                        f"{m} query {self.pairs[qi]}: traced counters "
                        f"{_counters(b)} != untraced {_counters(a)}"
                    )

        from polyroute import space_accounting

        totals = spans.totals(su.root)
        if not self.wl.lemb:
            for name, v in spans.totals(lemb).items():
                totals.setdefault(name, v)

        def tot(name: str) -> float:
            return totals[name][0]

        def own(name: str) -> float:
            return totals[name][1]

        k = self.wl.k
        metrics = {
            "graph.build_s": tot("graph.build"),
            "embedding.select_s": tot("embedding.select"),
            "embedding.select_self_s": own("embedding.select"),
            "sssp.full_spt_s": tot("sssp.full_spt"),
            "sssp.full_spt_calls": su.kernels[0],
            "embedding.build_alt_s": tot("embedding.build_alt"),
            "embedding.build_alt_self_s": own("embedding.build_alt"),
            "heuristics.make_alt_s": tot("heuristics.make_alt"),
            "embedding.alt_entries": space_accounting(su.alt)[0],
            "embedding.build_alp_s": tot("embedding.build_alp"),
            "embedding.build_alp_self_s": own("embedding.build_alp"),
            "heuristics.make_alp_s": tot("heuristics.make_alp"),
            "embedding.alp_entries": space_accounting(su.alp)[0],
            "sssp.multi_source_s": tot("sssp.multi_source"),
            "sssp.matrix_s": tot("sssp.matrix"),
            "sssp.matrix_self_s": own("sssp.matrix"),
            "sssp.truncated_calls": su.kernels[2],
            "sssp.matrix_settled": kw.matrix_settled,
            "sssp.matrix_yield": k * k / kw.matrix_settled,
            "embedding.save_s": tot("embedding.save"),
            "embedding.load_s": tot("embedding.load"),
        }
        q = len(self.pairs)
        shown = {}
        for m in METHODS:
            rs = traced[m]
            busy = sum(ns for _, ns, _ in rs)
            h_ns = sum(hn for _, _, hn in rs)
            expanded = sum(r.expanded for r, _, _ in rs)
            settled = sum(r.settled for r, _, _ in rs)
            reopened = sum(r.reopened for r, _, _ in rs)
            evals = sum(r.heuristic_evals for r, _, _ in rs)
            shown[f"{m}.settled"] = settled / q
            shown[f"{m}.expanded"] = expanded / q
            shown[f"{m}.reopened"] = reopened / q
            shown[f"{m}.reopen_ratio"] = reopened / expanded
            shown[f"{m}.path_yield"] = sum(len(r.path) for r, _, _ in rs) / settled
            shown[f"{m}.search_ns_per_expansion"] = (busy - h_ns) / expanded
            shown[f"{m}.trace_overhead_ms"] = (busy - sum(ns for _, ns, _ in base[m])) / q / 1e6
            if m != "dijkstra":
                shown[f"{m}.h_evals"] = evals / q
                shown[f"{m}.h_ns"] = h_ns / evals
                shown[f"{m}.h_share"] = h_ns / busy
                shown[f"{m}.arith"] = sum(
                    r.op_totals.total() for r, _, _ in rs
                ) / q
        metrics.update(shown)

        self.say("run " + json.dumps(self.record(True, 1)))
        self.say(f"kernel calls per set-up (full_spt, multi_source, truncated_spt): "
                 f"{su.kernels}, untraced {kernels_plain}")
        self.say("traced spans outside queries (name: count, total s, self s):")
        for name, (t, s, c) in totals.items():
            self.say(f"  {name}: {c}, {t:.6f}, {s:.6f}")
        for name in PER_LAYER:
            self.say(f"{name} = {metrics[name]:.6g} {PER_LAYER[name]}")
        for name in sorted(set(shown) - set(PER_LAYER)):
            self.say(f"{name} = {shown[name]:.6g} (not exported)")
        self._say_failures()
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        spans.dump(out / f"trace-{self.wl.name}-{self.seed}.jsonl",
                   self.record(True, 1))
        return {name: metrics[name] for name in PER_LAYER}

    def _say_failures(self) -> None:
        self.say(f"failed_frac = {self.failed / self.attempted:.6g} "
                 f"({self.failed} of {self.attempted} answers failed the exact check)")
        # Each pass repeats the same answers, so list each failure once.
        for f in list(dict.fromkeys(self.failures))[:50]:
            self.say(f"  FAIL {f}")
        for f in self.integrity[:50]:
            self.say(f"  INTEGRITY {f}")


def _import_program() -> None:
    try:
        import polyroute
    except ImportError as exc:
        raise BenchSetupError(f"cannot import polyroute from {ROOT / 'src'}: {exc}") from None
    where = Path(polyroute.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise BenchSetupError(f"polyroute imported from {where}, not from {ROOT / 'src'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        _import_program()
        caught = checks.self_test()
        if caught == 0:
            raise BenchSetupError("self-test: the exact check missed an inadmissible evaluator")
    except BenchSetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds)
    run.say(f"self-test: ALT bound x 3 on a weighted 15x15 grid failed the exact check "
            f"{caught} times of 40")
    metrics = run.traced() if args.trace else run.untraced()
    units = PER_LAYER if args.trace else END_TO_END
    failed = run.failed
    print("\n".join(run.lines))
    print(json.dumps({
        "correct": failed == 0 and not run.integrity,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
