"""Landmark lower-bound heuristics with exact operation accounting.

Two heuristics over the two embeddings:

* full-table bound: max over landmarks l of |d(v,l) - d(t,l)|,
  one subtraction per landmark.
* dual-landmark bound: v and t each know only their owner
  landmark (l1, l2) and the owner pairwise matrix. With a = d(v,l1),
  b = d(t,l2), D = d(l1,l2), the candidate lower bounds on d(v,t) are

      pi1 = |a - D| - b
      pi2 = |a - b| - D
      pi3 = |D - b| - a
      pi4 = pi5 = |a - b|        (only when l1 = l2)
      pi6 = (|a - D| * |D - b| - a*b) / D   (only when l1 != l2)

  pi1..pi3 come from four-point triangle chains, pi4/pi5 are the
  one-landmark bound available when both endpoints share an owner, and
  pi6 rearranges Ptolemy's inequality over the quadrilateral
  (v, l1, l2, t). The heuristic value is max(0, max of the available
  candidates); the clamp matters because every candidate can go
  negative.

  Cross-owner, with a, b >= 0 and D > 0, pi6 <= max(pi1, pi3), so
  max(0, pi1, pi2, pi3, pi6) = max(0, D - a - b, |a - b| - D). By cases:
  a, b <= D gives pi6 = pi1 = pi3 = D - a - b; a > D >= b gives pi6 - pi1
  = 2b(1 - a/D) <= 0; a <= D < b gives pi6 - pi3 = 2a(1 - b/D) <= 0; a, b
  > D gives pi6 = D - a - b < 0. make_alp_evaluator computes only the
  two surviving terms, which round differently on decimal weights (see
  make_alp_evaluator); tests/oracles.py keeps every candidate as the
  reference.

Operation counting: a binary minus counts as one subtraction whether or
not it sits inside an absolute value; taking the absolute value itself
is free. Each counting mode charges one flat price per owner case:

* "literal" (default): every available candidate is priced as written,
  nothing shared. Cross-owner evaluations cost (9 sub, 2 mul, 1 div)
  over 4 candidates; same-owner evaluations cost (8 sub, 0 mul, 0 div)
  over 5 candidates (the zero diagonal entry is still subtracted as
  written).
* "reduced": the two-term form is priced as written: (4 sub, 0 mul,
  0 div) over 2 terms cross-owner, even when the first term alone
  decides, and (1 sub) over 1 term same-owner.

A mode sets only the counters, never a value. The term count is part
of a price only; a search result sums the three operation counts.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from math import isfinite
from operator import sub
from struct import pack
from typing import Callable

from .embedding import AltEmbedding, DistributedEmbedding
from .graph import _EXACT_INT

SCENARIOS = ("S1", "S2", "S3", "S4", "S5")
"""Joint configuration of v's owner l1, t's owner l2, and the landmark
the full-table bound would pick (l_alpha, ties to the smallest index):

S1: l1 = l_alpha, l2 differs.   S2: l2 = l_alpha, l1 differs.
S3: l1 = l2 = l_alpha.          S4: l1 = l2, l_alpha differs.
S5: l1, l2, l_alpha pairwise distinct.
"""


@dataclass(frozen=True)
class OpCounters:
    """Heuristic arithmetic one query spent, summed over its evaluations."""

    subtractions: int
    multiplications: int
    divisions: int

    def total(self) -> int:
        return self.subtractions + self.multiplications + self.divisions


# (same-owner, cross-owner) price of one dual-landmark evaluation per mode:
# the evaluator's tail (subtractions, multiplications, divisions, terms).
_ALP_PRICES = {
    "literal": ((8, 0, 0, 5), (9, 2, 1, 4)),
    "reduced": ((1, 0, 0, 1), (4, 0, 0, 2)),
}
MODES = tuple(_ALP_PRICES)


# Lightweight evaluator protocol used by the search engine: returns
# (value, subtractions, multiplications, divisions, terms) per call.
# astar(g, s, t, None) takes no evaluator and returns dijkstra_query's
# result, which runs on the sssp kernel and never calls this protocol.
Evaluator = Callable[[int, int], tuple]


def classify_scenario(
    alt: AltEmbedding, alp: DistributedEmbedding, v: int, t: int
) -> str:
    """Scenario label from (owner of v, owner of t, full-table argmax)."""
    if alt.landmarks.ids != alp.landmarks.ids:
        raise ValueError(
            f"embeddings disagree on landmarks: "
            f"{alt.landmarks.ids} vs {alp.landmarks.ids}"
        )
    la = 0
    best = -1
    for i, row in enumerate(alt.table):
        c = abs(row[v] - row[t])
        if c > best:
            best = c
            la = i
    l1 = alp.owner[v]
    l2 = alp.owner[t]
    if l1 == l2:
        return "S3" if la == l1 else "S4"
    if la == l1:
        return "S1"
    if la == l2:
        return "S2"
    return "S5"


# The top byte of a native double holds its sign and the top 7 bits of its
# exponent; under 0x43 they prove the exponent below 49, so |x| < 2**49.
_TOP = 7 if sys.byteorder == "little" else 0
_BELOW_2_49 = bytes(b for b in range(256) if b & 0x7F < 0x43)


def _packed_columns(table: list) -> "list | None":
    """Per-vertex columns of packed doubles, or None to keep tuples.

    Doubles are used only where they cannot change a value. All-int
    tables keep tuples, because small cached ints subtract faster boxed.
    So do tables with a non-finite entry, since |inf - inf| is nan,
    which the tuple loop skips but max() keeps when it comes first, and
    tables with an entry of 2**53 or more in magnitude, which a double
    may not hold exactly.
    """
    # A row sums to an int unless it holds a float; stop at the first.
    if not any(type(sum(row)) is float for row in table):
        return None
    nv = len(table[0])
    flat = array("d")
    for row in table:
        flat.frombytes(pack(f"{nv}d", *row))
    # min and max box every entry, so they are read only when some top
    # byte fails to prove its double finite and below 2**49 in magnitude;
    # min and max pass a NaN by unless it comes first, so isfinite reads
    # every entry there too.
    top = memoryview(flat).cast("B")[_TOP::8].tobytes()
    if top.translate(None, _BELOW_2_49) and not (
        all(map(isfinite, flat))
        and -_EXACT_INT < min(flat) <= max(flat) < _EXACT_INT
    ):
        return None
    return [flat[v::nv] for v in range(nv)]


def make_alt_evaluator(e: AltEmbedding) -> Evaluator:
    """Full-table bound max over landmarks l of |d(v,l) - d(t,l)|, as a
    closure for the search inner loop.

    Float tables are reduced by one C-level max over packed doubles;
    integer tables by a Python loop over tuples. Both give the same value.
    """
    k = len(e.table)
    packed = _packed_columns(e.table)
    if packed is not None:

        def h_packed(v: int, t: int) -> tuple:
            return max(map(abs, map(sub, packed[v], packed[t]))), k, 0, 0, k

        return h_packed

    cols = list(zip(*e.table))

    def h(v: int, t: int) -> tuple:
        best = 0
        for a, b in zip(cols[v], cols[t]):
            d = a - b
            if d < 0:
                d = -d
            if d > best:
                best = d
        return best, k, 0, 0, k

    return h


def make_alp_evaluator(e: DistributedEmbedding, mode: str = "literal") -> Evaluator:
    """Dual-landmark bound as a closure for the search inner loop:
    |a - b| when v and t share an owner, else max(0, D - a - b,
    |a - b| - D), in every mode; counter constants come from the
    declared mode. Values equal max(0, every available candidate of the
    module docstring) wherever the arithmetic is exact (ints, binary
    fractions) and are never higher on rounded decimals, where pi1, pi3
    and pi6 round apart (see "Exact decimal weights" in ROADMAP.md).
    """
    if mode not in _ALP_PRICES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    (s_sub, s_mul, s_div, s_ar), (c_sub, c_mul, c_div, c_ar) = _ALP_PRICES[mode]
    owner = e.owner
    dto = e.dist_to_owner
    lmatrix = e.lmatrix

    def h(v: int, t: int) -> tuple:
        l1 = owner[v]
        l2 = owner[t]
        a = dto[v]
        b = dto[t]
        if l1 == l2:
            # max over pi1..pi5 collapses to |a - b|, which is >= 0.
            d = a - b
            if d < 0:
                d = -d
            return d, s_sub, s_mul, s_div, s_ar
        # max(0, pi1, pi2, pi3, pi6) = max(0, D - a - b, |a - b| - D), and
        # D - a - b >= 0 already implies |a - b| - D <= 0.
        D = lmatrix[l1][l2]
        best = D - a - b
        if best < 0:
            best = a - b
            if best < 0:
                best = -best
            best -= D
            if best < 0:
                best = 0
        return best, c_sub, c_mul, c_div, c_ar

    return h
