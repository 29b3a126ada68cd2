"""Undirected positive-weight graphs: construction, generators, and file I/O.

Vertices are dense 0-based integers. The adjacency structure is symmetric
(every edge appears in both endpoint lists) and canonically sorted, so two
graphs built from the same edge set compare equal regardless of input order.

Two text formats are supported:

* DIMACS shortest-path ``.gr``: ``c`` comment lines, one ``p sp <n> <m>``
  problem line, and ``a <u> <v> <w>`` arc lines with 1-based ids.
  Reciprocal arc pairs collapse into a single undirected edge; an arc that
  appears in only one direction is treated as undirected as well.
* Plain edge list: ``#`` comment lines, a ``<n>`` header line, then one
  ``u v [w]`` line per edge with 0-based ids (weight defaults to 1).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, TextIO


class GraphError(ValueError):
    """Raised for malformed graph input: bad ids, weights, or file syntax."""


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph with strictly positive edge weights.

    ``adjacency[u]`` lists ``(neighbor, weight)`` pairs sorted by neighbor
    id. Unweighted graphs use weight 1 everywhere.
    """

    vertex_count: int
    adjacency: list = field(repr=False)
    edge_count: int

    def edges(self) -> Iterable[tuple[int, int, "int | float"]]:
        """Yield each undirected edge once, as (u, v, w) with u < v."""
        for u, neighbors in enumerate(self.adjacency):
            for v, w in neighbors:
                if u < v:
                    yield u, v, w

    def is_connected(self) -> bool:
        """True if every vertex is reachable from vertex 0."""
        if self.vertex_count == 0:
            return True
        seen = bytearray(self.vertex_count)
        seen[0] = 1
        stack = [0]
        count = 1
        adj = self.adjacency
        while stack:
            u = stack.pop()
            for v, _ in adj[u]:
                if not seen[v]:
                    seen[v] = 1
                    count += 1
                    stack.append(v)
        return count == self.vertex_count


_EXACT_INT = 2**53  # ints below this magnitude convert to doubles exactly


def build_graph(vertex_count: int, edges: Iterable[tuple]) -> Graph:
    """Build a graph from (u, v, weight) triples.

    Rejects out-of-range endpoints, nonpositive or infinite weights,
    self-loops, and duplicate unordered pairs. Also rejects an int weight
    of 2**53 or more next to float weights: mixed sums are rounded to
    doubles, which cannot hold such an int exactly, so a path through
    float edges could look shorter than the exact int edge.

    A graph with a float weight is also rejected unless 4 * total is
    finite and least > ulp(total), where total is the sum of all weights
    and least the smallest: a path sum is below 2 * total, so then no
    sum d + w rounds back to d and no distance or A* key overflows.
    """
    if vertex_count < 0:
        raise GraphError(f"vertex_count must be nonnegative, got {vertex_count}")
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(vertex_count)]
    seen: set[tuple[int, int]] = set()
    count = 0
    has_float = False
    huge_int = None  # first edge with an int weight >= 2**53
    for u, v, w in edges:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise GraphError(f"edge ({u},{v}) endpoint out of range [0,{vertex_count})")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not w > 0:
            raise GraphError(f"edge ({u},{v}) has nonpositive weight {w}")
        if w == math.inf:
            raise GraphError(f"edge ({u},{v}) has non-finite weight {w}")
        if isinstance(w, float):
            has_float = True
        elif huge_int is None and w >= _EXACT_INT:
            huge_int = (u, v, w)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphError(f"duplicate edge ({u},{v})")
        seen.add(key)
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))
        count += 1
    if has_float and huge_int is not None:
        u, v, w = huge_int
        raise GraphError(
            f"edge ({u},{v}) has int weight {w} >= 2**53 in a graph with "
            f"float weights; doubles cannot sum it exactly"
        )
    for lst in adjacency:
        lst.sort()
    g = Graph(vertex_count=vertex_count, adjacency=adjacency, edge_count=count)
    if has_float:
        weights = [w for _, _, w in g.edges()]  # canonical order
        total, least = sum(weights), min(weights)
        if not (math.isfinite(4 * total) and least > math.ulp(total)):
            raise GraphError(
                f"float weights with least {least!r} and total {total!r}: "
                f"a double path sum could absorb a weight or overflow"
            )
    return g


def _plain(text: str) -> str:
    """text, if a graph file can mean it as a number. int() and float()
    also take '_' digit separators, a leading '+' and non-ASCII digits;
    those raise ValueError here, as other non-numerals do in int()."""
    if "_" in text or text[0] == "+" or not text.isascii():
        raise ValueError(f"not a plain numeral: {text!r}")
    return text


def _content_lines(stream: "TextIO | str", comments: "str | tuple") -> Iterator:
    """(line number, stripped line) for each line of text, or of what a
    stream reads, that is neither blank nor starts with one of comments."""
    text = stream if isinstance(stream, str) else stream.read()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith(comments):
            yield lineno, line


def _parse_weight(text: str, lineno: int) -> "int | float":
    try:
        # Of a plain numeral, int() takes only a '-' and digits; asking
        # first spares each float weight a raised ValueError.
        if _plain(text).lstrip("-").isdigit():
            return int(text)
        w = float(text)
    except ValueError:
        raise GraphError(f"line {lineno}: bad weight {text!r}") from None
    if not math.isfinite(w):
        raise GraphError(f"line {lineno}: non-finite weight {text!r}")
    return w


def load_dimacs(stream: "TextIO | str") -> Graph:
    """Parse a DIMACS shortest-path ``.gr`` stream into an undirected graph.

    1-based ids shift to 0-based. The arc count on the ``p`` line must match
    the number of ``a`` lines. A pair of reciprocal arcs must agree on
    weight and becomes one edge.
    """
    n = m = -1
    arcs = 0
    merged: dict[tuple[int, int], float] = {}
    directed_seen: set[tuple[int, int]] = set()
    for lineno, line in _content_lines(stream, "c"):
        parts = line.split()
        if parts[0] == "p":
            if n >= 0:
                raise GraphError(f"line {lineno}: repeated problem line")
            if len(parts) != 4 or parts[1] != "sp":
                raise GraphError(f"line {lineno}: expected 'p sp <n> <m>'")
            try:
                n, m = int(_plain(parts[2])), int(_plain(parts[3]))
            except ValueError:
                raise GraphError(f"line {lineno}: bad problem line counts") from None
            if n < 0 or m < 0:
                raise GraphError(f"line {lineno}: negative counts")
        elif parts[0] == "a":
            if n < 0:
                raise GraphError(f"line {lineno}: arc before problem line")
            if len(parts) != 4:
                raise GraphError(f"line {lineno}: expected 'a <u> <v> <w>'")
            try:
                u, v = int(_plain(parts[1])) - 1, int(_plain(parts[2])) - 1
            except ValueError:
                raise GraphError(f"line {lineno}: bad vertex id") from None
            w = _parse_weight(parts[3], lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"line {lineno}: vertex id out of range 1..{n}")
            if u == v:
                raise GraphError(f"line {lineno}: self-loop arc")
            if not w > 0:
                raise GraphError(f"line {lineno}: nonpositive weight {w}")
            if (u, v) in directed_seen:
                raise GraphError(f"line {lineno}: duplicate arc ({u + 1},{v + 1})")
            directed_seen.add((u, v))
            key = (u, v) if u < v else (v, u)
            if key in merged:
                if merged[key] != w:
                    raise GraphError(
                        f"line {lineno}: reciprocal arcs for ({key[0] + 1},{key[1] + 1}) "
                        f"disagree on weight ({merged[key]} vs {w})"
                    )
            else:
                merged[key] = w
            arcs += 1
        else:
            raise GraphError(f"line {lineno}: unrecognized line {line!r}")
    if n < 0:
        raise GraphError("missing problem line")
    if arcs != m:
        raise GraphError(f"problem line declares {m} arcs, body has {arcs}")
    g = build_graph(n, [(u, v, w) for (u, v), w in sorted(merged.items())])
    _require_connected(g, "DIMACS input")
    return g


def save_dimacs(g: Graph, stream: TextIO) -> None:
    """Write a graph as DIMACS ``.gr`` text, one reciprocal arc pair per edge."""
    stream.write(f"p sp {g.vertex_count} {2 * g.edge_count}\n")
    for u, v, w in g.edges():
        stream.write(f"a {u + 1} {v + 1} {w}\n")
        stream.write(f"a {v + 1} {u + 1} {w}\n")


def save_edge_list(g: Graph, stream: TextIO) -> None:
    """Write a graph in the plain edge-list format."""
    stream.write(f"{g.vertex_count}\n")
    for u, v, w in g.edges():
        stream.write(f"{u} {v} {w}\n")


def load_edge_list(stream: "TextIO | str") -> Graph:
    """Parse the plain edge-list format: ``n`` header, then ``u v [w]`` lines."""
    n = -1
    edges = []
    for lineno, line in _content_lines(stream, "#"):
        parts = line.split()
        if n < 0:
            if len(parts) != 1:
                raise GraphError(f"line {lineno}: expected single vertex-count header")
            try:
                n = int(_plain(parts[0]))
            except ValueError:
                raise GraphError(f"line {lineno}: bad vertex count") from None
            if n < 0:
                raise GraphError(f"line {lineno}: negative vertex count")
            continue
        if len(parts) not in (2, 3):
            raise GraphError(f"line {lineno}: expected 'u v [w]'")
        try:
            u, v = int(_plain(parts[0])), int(_plain(parts[1]))
        except ValueError:
            raise GraphError(f"line {lineno}: bad vertex id") from None
        w = _parse_weight(parts[2], lineno) if len(parts) == 3 else 1
        edges.append((lineno, (u, v, w)))
    if n < 0:
        raise GraphError("missing vertex-count header")
    g = _build_numbered(n, edges)
    _require_connected(g, "edge-list input")
    return g


def _build_numbered(n: int, numbered: list) -> Graph:
    """build_graph over (line number, edge) pairs; an error that build_graph
    raises while taking an edge names that edge's line."""
    lineno = None

    def edges():
        nonlocal lineno
        for lineno, edge in numbered:
            yield edge
        lineno = None

    try:
        return build_graph(n, edges())
    except GraphError as exc:
        if lineno is None:
            raise
        raise GraphError(f"line {lineno}: {exc}") from None


def _require_connected(g: Graph, what: str) -> None:
    if not g.is_connected():
        raise GraphError(f"{what} is not connected")


def generate_grid(rows: int, cols: int) -> Graph:
    """4-neighbor lattice with unit weights; vertex id = row * cols + col."""
    if rows < 1 or cols < 1:
        raise GraphError(f"grid dimensions must be positive, got {rows}x{cols}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1, 1))
            if r + 1 < rows:
                edges.append((v, v + cols, 1))
    return build_graph(rows * cols, edges)


def generate_random_connected(n: int, extra_edges: int, seed: int) -> Graph:
    """Random connected unit-weight graph: uniform-attachment spanning tree
    plus ``extra_edges`` distinct non-tree edges. Deterministic per seed."""
    if n < 1:
        raise GraphError(f"need at least one vertex, got {n}")
    capacity = n * (n - 1) // 2 - (n - 1)
    if extra_edges < 0 or extra_edges > capacity:
        raise GraphError(
            f"extra_edges={extra_edges} outside [0, {capacity}] for n={n}"
        )
    rng = random.Random(seed)
    used: set[tuple[int, int]] = set()
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        used.add((u, v))
        edges.append((u, v, 1))
    # Rejection sampling is cheap while the graph stays sparse; fall back to
    # explicit enumeration once most pairs are taken.
    remaining = extra_edges
    total_pairs = n * (n - 1) // 2
    if remaining > 0 and remaining * 4 >= total_pairs - len(used):
        free = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in used
        ]
        for u, v in rng.sample(free, remaining):
            edges.append((u, v, 1))
    else:
        while remaining > 0:
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                continue
            key = (u, v) if u < v else (v, u)
            if key in used:
                continue
            used.add(key)
            edges.append((key[0], key[1], 1))
            remaining -= 1
    return build_graph(n, edges)
