"""Workload generation, method comparison, verification, and reports.

A workload is a sequence of (source, target) queries run under up to
three methods: plain Dijkstra, guided search over the full embedding
(alt), and guided search over the distributed embedding (alp). Every
row carries the search statistics; alp rows additionally histogram the
landmark-configuration scenario (S1..S5) of each heuristic evaluation.

Reports serialize to CSV or JSON with identical field names and round-
trip losslessly. All numeric gates in the test suite use deterministic
counters only; wall time is recorded when asked for and otherwise
written as zero so that repeated runs stay byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
import random
import time
from dataclasses import dataclass, fields
from typing import Sequence, TextIO

from .embedding import (
    AltEmbedding,
    DistributedEmbedding,
    LandmarkSet,
    build_alt_embedding,
    build_distributed_embedding,
)
from .graph import Graph
from .heuristics import (
    SCENARIOS,
    classify_scenario,
    make_alp_evaluator,
    make_alt_evaluator,
)
from .search import QueryResult, astar
from .sssp import _check_vertex, shortest_path_tree

# Each guided method: the embedding type a loaded file must have, its
# builder build(g, L), and its evaluator maker make(e, mode). Dijkstra
# searches without an embedding, so it has no row.
_GUIDED = {
    "alt": (AltEmbedding, build_alt_embedding,
            lambda e, mode: make_alt_evaluator(e)),
    "alp": (DistributedEmbedding, build_distributed_embedding,
            make_alp_evaluator),
}
METHODS = ("dijkstra", *_GUIDED)
STRATIFICATIONS = ("none", "by-distance-decile")


class BenchError(RuntimeError):
    """Cross-method disagreement; signals an implementation bug."""


@dataclass(frozen=True)
class WorkloadSpec:
    """How many queries to draw, from which seed, and how to spread them."""

    query_count: int
    seed: int = 0
    stratification: str = "none"

    def __post_init__(self):
        if self.query_count < 1:
            raise ValueError(f"query_count must be >= 1, got {self.query_count}")
        if self.stratification not in STRATIFICATIONS:
            raise ValueError(
                f"stratification {self.stratification!r} not in {STRATIFICATIONS}"
            )


@dataclass(frozen=True)
class BenchRow:
    """One (method, query) outcome. This is the report schema: the fields,
    in order, are the CSV and JSON columns, and their annotations say
    what load_report accepts."""

    method: str
    source: int
    target: int
    distance: float
    settled: int
    expanded: int
    reopened: int
    heuristic_evals: int
    subs: int
    muls: int
    divs: int
    s1: int = 0
    s2: int = 0
    s3: int = 0
    s4: int = 0
    s5: int = 0
    wall_time_ns: int = 0


CSV_HEADER = tuple(f.name for f in fields(BenchRow))
# The scenario columns s1..s5, in SCENARIOS order.
_SCENARIO_FIELDS = tuple(s.lower() for s in SCENARIOS)
# The per-query counters that summarize averages.
_COUNTERS = ("settled", "expanded", "reopened", "heuristic_evals",
             "subs", "muls", "divs")


def generate_queries(g: Graph, spec: WorkloadSpec) -> list:
    """Deterministic (source, target) pairs; source != target unless the
    graph has a single vertex.

    Stratified mode buckets a candidate pool by true-distance decile
    (pilot single-source runs provide the distances) and draws round-
    robin across the nonempty deciles, so every represented decile
    contributes queries.
    """
    rng = random.Random(spec.seed)
    n = g.vertex_count
    if n == 1:
        return [(0, 0)] * spec.query_count
    if spec.stratification == "none":
        return [_draw_pair(rng, n) for _ in range(spec.query_count)]
    return _stratified_queries(g, spec, rng)


def _draw_pair(rng, n: int) -> tuple:
    """A uniform (source, target) pair with source != target."""
    s = rng.randrange(n)
    t = rng.randrange(n - 1)
    return s, t + (t >= s)


def _pair_distances(g: Graph, pairs: Sequence) -> list:
    """The distance of each (source, target) pair, in order, from one
    shortest_path_tree per distinct source, each dropped before the
    next, so memory holds one distance row at a time."""
    by_source: dict = {}
    for i, (s, _) in enumerate(pairs):
        by_source.setdefault(s, []).append(i)
    out = [None] * len(pairs)
    for s, indices in by_source.items():
        dist = shortest_path_tree(g, s).dist
        for i in indices:
            out[i] = dist[pairs[i][1]]
    return out


def _stratified_queries(g: Graph, spec: WorkloadSpec, rng) -> list:
    n = g.vertex_count
    if n * n <= 10_000:
        pool = [(s, t) for s in range(n) for t in range(n) if s != t]
    else:
        want = min(20 * spec.query_count, n * (n - 1))
        seen = set()
        while len(seen) < want:
            seen.add(_draw_pair(rng, n))
        pool = sorted(seen)
    dists = _pair_distances(g, pool)
    max_d = max(dists)
    if max_d == math.inf:
        s, t = pool[dists.index(max_d)]
        raise ValueError(
            f"vertex {t} is not reachable from vertex {s}; distance deciles "
            f"need a connected graph"
        )
    buckets: list = [[] for _ in range(10)]
    for pair, d in zip(pool, dists):
        b = min(9, int(10 * d / max_d)) if max_d > 0 else 0
        buckets[b].append(pair)
    for b in buckets:
        rng.shuffle(b)
    nonempty = [b for b in buckets if b]
    out = []
    idx = 0
    while len(out) < spec.query_count:
        bucket = nonempty[idx % len(nonempty)]
        out.append(bucket[(idx // len(nonempty)) % len(bucket)])
        idx += 1
    return out


def run_workload(
    g: Graph,
    L: LandmarkSet,
    queries: Sequence,
    methods: Sequence = METHODS,
    *,
    mode: str = "literal",
    timing: bool = False,
) -> list:
    """One BenchRow per (query, method), grouped by query.

    All requested methods must agree on every distance; disagreement
    raises BenchError. Scenario classification for alp rows builds the
    full embedding too; that cost is bench instrumentation, not part of
    the distributed method's preprocessing, and it runs outside the
    timed search.
    """
    chosen = tuple(methods)
    if not chosen:
        raise ValueError("methods must be nonempty")
    for m in chosen:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}, expected subset of {METHODS}")
    if len(set(chosen)) != len(chosen):
        raise ValueError(f"duplicate methods in {chosen}")
    # Table order builds alt first, so it takes over L.rows.
    need = {*chosen, "alt"} if "alp" in chosen else set(chosen)
    built = {m: build(g, L) for m, (_, build, _) in _GUIDED.items() if m in need}
    evaluators = {m: _GUIDED[m][2](built[m], mode) for m in chosen if m in built}
    rows = []
    for s, t in queries:
        agreed = None
        for m in chosen:
            h = evaluators.get(m)
            hist = [0, 0, 0, 0, 0]
            wall = 0
            if m == "alp":
                # Classify in an untimed run; the search is deterministic,
                # so a timed rerun with the plain evaluator gives the same row.
                res = astar(g, s, t, _tallying(h, built["alt"], built["alp"], hist))
            if m != "alp" or timing:
                t0 = time.perf_counter_ns()
                res = astar(g, s, t, h)
                if timing:
                    wall = time.perf_counter_ns() - t0
            if agreed is None:
                agreed = res.distance
            elif res.distance != agreed:
                raise BenchError(
                    f"distance mismatch on query ({s},{t}): "
                    f"{chosen[0]}={agreed}, {m}={res.distance}"
                )
            rows.append(_to_row(m, res, hist, wall))
    return rows


def _tallying(h, alt_e, alp_e, hist: list):
    """h, counting each evaluation's scenario into hist (S1..S5)."""

    def counted(v: int, t: int) -> tuple:
        hist[SCENARIOS.index(classify_scenario(alt_e, alp_e, v, t))] += 1
        return h(v, t)

    return counted


def _to_row(method: str, res: QueryResult, hist: list, wall: int) -> BenchRow:
    ops = res.op_totals
    return BenchRow(
        method, res.source, res.target, res.distance,
        res.settled, res.expanded, res.reopened, res.heuristic_evals,
        ops.subtractions, ops.multiplications, ops.divisions,
        **dict(zip(_SCENARIO_FIELDS, hist)), wall_time_ns=wall,
    )


@dataclass(frozen=True)
class VerificationReport:
    """Oracle check of a report: how many rows held, which did not."""

    checked: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_workload(g: Graph, rows: Sequence) -> VerificationReport:
    """Recompute every row's distance from scratch and compare exactly.

    Each source's rows are checked from one single-source run that is
    dropped before the next, so memory holds one distance row at a time.
    Violations are listed in row order. A row whose source or target is
    not a vertex of g raises ValueError naming the row.
    """
    for i, row in enumerate(rows):
        for what in ("source", "target"):
            _check_vertex(g, getattr(row, what), f"row {i}: {what}")
    expected = _pair_distances(g, [(row.source, row.target) for row in rows])
    violations = [
        {
            "row": i,
            "method": row.method,
            "source": row.source,
            "target": row.target,
            "reported": row.distance,
            "expected": d,
        }
        for i, (row, d) in enumerate(zip(rows, expected))
        if row.distance != d
    ]
    return VerificationReport(checked=len(rows), violations=violations)


def emit_report(rows: Sequence, format: str, sink: TextIO) -> None:
    """Write rows as CSV (fixed header) or JSON (same field names)."""
    if format == "csv":
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow([getattr(r, name) for name in CSV_HEADER])
    elif format == "json":
        payload = [{name: getattr(r, name) for name in CSV_HEADER} for r in rows]
        json.dump(payload, sink, indent=2)
        sink.write("\n")
    else:
        raise ValueError(f"unknown report format {format!r}")


# What load_report accepts per field, keyed by the field's annotation,
# a string since annotations are postponed; bools are not ints here.
_ACCEPTS = {"int": (int,), "float": (int, float), "str": (str,)}
_FIELD_TYPES = {f.name: _ACCEPTS[f.type] for f in fields(BenchRow)}


def _parse_number(text):
    """CSV text as an int, else a float, else unchanged."""
    for convert in (int, float):
        try:
            return convert(text)
        except (TypeError, ValueError):
            pass
    return text


def _report_row(i: int, rec, from_text: bool) -> BenchRow:
    """Report record i as a BenchRow, each field of its _FIELD_TYPES.
    CSV records hold text, which is parsed first; JSON records hold
    values, which are taken as they are. csv.DictReader keys a row's
    extra cells by None and gives its missing cells None."""
    if not isinstance(rec, dict):
        raise ValueError(f"row {i}: expected an object, got {rec!r}")
    for name in rec:
        if name not in _FIELD_TYPES:
            raise ValueError(f"row {i}: " + ("more cells than the header"
                             if name is None else f"unknown field {name!r}"))
    kwargs = {}
    for name, kinds in _FIELD_TYPES.items():
        if name not in rec:
            raise ValueError(f"row {i}: missing field {name!r}")
        value = rec[name]
        if from_text and value is None:
            raise ValueError(f"row {i}: fewer cells than the header")
        if from_text and str not in kinds:
            value = _parse_number(value)
        if type(value) not in kinds:
            want = " or ".join(t.__name__ for t in kinds)
            raise ValueError(f"row {i}: {name} must be {want}, got {rec[name]!r}")
        kwargs[name] = value
    return BenchRow(**kwargs)


def load_report(stream: TextIO, format: str) -> list:
    """Inverse of emit_report. Malformed input raises ValueError."""
    if format == "csv":
        reader = csv.DictReader(stream)
        try:
            if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_HEADER:
                raise ValueError(f"unexpected CSV header {reader.fieldnames}")
            return [_report_row(i, rec, True) for i, rec in enumerate(reader)]
        except csv.Error as exc:
            raise ValueError(f"malformed CSV report: {exc}") from None
    if format == "json":
        try:
            records = json.load(stream)
        except RecursionError:
            raise ValueError("JSON report is nested too deeply") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON report: {exc}") from None
        if not isinstance(records, list):
            raise ValueError("JSON report must be a list of rows")
        return [_report_row(i, rec, False) for i, rec in enumerate(records)]
    raise ValueError(f"unknown report format {format!r}")


def summarize(rows: Sequence) -> dict:
    """Per-method means of the deterministic counters, plus scenario
    totals for alp rows. Keys ordered by first appearance."""
    groups: dict = {}
    for r in rows:
        groups.setdefault(r.method, []).append(r)
    out = {}
    for method, rs in groups.items():
        n = len(rs)
        stats = {"queries": n}
        for name in _COUNTERS:
            stats[f"mean_{name}"] = sum(getattr(r, name) for r in rs) / n
        stats["mean_arith_total"] = sum(r.subs + r.muls + r.divs for r in rs) / n
        if method == "alp":
            for name in _SCENARIO_FIELDS:
                stats[f"total_{name}"] = sum(getattr(r, name) for r in rs)
        out[method] = stats
    return out


def format_summary(summary: dict) -> str:
    """Human-readable comparison block, stable across runs."""
    lines = []
    for method, stats in summary.items():
        lines.append(f"[{method}] queries={stats['queries']}")
        lines.append(
            "  search space: settled={:.2f} expanded={:.2f} reopened={:.2f}".format(
                stats["mean_settled"], stats["mean_expanded"], stats["mean_reopened"]
            )
        )
        lines.append(
            "  heuristic work: evals={:.2f} subs={:.2f} muls={:.2f} divs={:.2f}"
            " arith_total={:.2f}".format(
                stats["mean_heuristic_evals"], stats["mean_subs"],
                stats["mean_muls"], stats["mean_divs"], stats["mean_arith_total"],
            )
        )
        if "total_s1" in stats:
            lines.append("  scenarios: " + " ".join(
                f"{label}={stats['total_' + name]}"
                for label, name in zip(SCENARIOS, _SCENARIO_FIELDS)
            ))
    return "\n".join(lines)
