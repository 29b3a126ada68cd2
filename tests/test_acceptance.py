"""Acceptance gate: one criterion per test, one verdict line per criterion.

Verdict lines accumulate in VERDICTS; the conftest terminal-summary
hook prints them after the run, where pytest's capture cannot swallow
them. Each test also asserts, so a FAIL line always comes with a red
test. Criteria 1 through 7 read the session-wide corpus evidence
computed once in conftest; 8 and 9 drive the CLI and bench directly.
test_ratio_candidate_never_wins reads the same evidence and is no
criterion, so it prints no verdict line.
"""

import json
import pathlib

from polyroute import (
    LandmarkSet,
    WorkloadSpec,
    build_alt_embedding,
    build_distributed_embedding,
    derive_seed,
    generate_grid,
    generate_queries,
    make_alp_evaluator,
    make_alt_evaluator,
    run_workload,
    select_farthest,
    summarize,
)
from polyroute.cli import main as cli_main

import corpusdef

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "theorem_witnesses.json"

VERDICTS = []


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    state = "PASS" if ok else "FAIL"
    line = f"CRITERION {num} [{label}]: {state} - {detail}"
    VERDICTS.append(line)
    print(line)


def test_criterion_1_exactness(corpus):
    ok = not corpus.distance_mismatches
    detail = (
        f"{corpus.graphs} graphs, {corpus.pairs_checked} ordered pairs, "
        f"3 methods vs oracle, mismatches={len(corpus.distance_mismatches)}"
    )
    if not ok:
        detail += f", first={corpus.distance_mismatches[0]}"
    _verdict(1, "exactness", ok, detail)
    assert ok, detail


def test_criterion_2_admissibility(corpus):
    ok = not corpus.admissibility_violations and not corpus.pi6_violations
    detail = (
        f"{corpus.pairs_checked} pairs, both bounds <= true distance, "
        f"violations={len(corpus.admissibility_violations)}, "
        f"ratio-component violations={len(corpus.pi6_violations)}"
    )
    if corpus.admissibility_violations:
        detail += f", first={corpus.admissibility_violations[0]}"
    if corpus.pi6_violations:
        detail += f", first_ratio={corpus.pi6_violations[0]}"
    _verdict(2, "admissibility", ok, detail)
    assert ok, detail


def test_ratio_candidate_never_wins(corpus):
    """pi6 <= max(pi1, pi3) on every cross-owner corpus pair, so the
    search's two-term bound loses nothing by leaving it out."""
    cross = corpus.pairs_checked - corpus.same_owner_pairs
    assert cross > 0
    assert corpus.pi6_wins == 0, f"{corpus.pi6_wins} of {cross} cross-owner pairs"


def test_criterion_3_op_counts(corpus):
    alt_ok = True
    for seed in (0, 1, 2):
        g = corpusdef.corpus_graph(seed)
        e = build_alt_embedding(g, corpusdef.corpus_landmarks(g, seed))
        k = len(e.landmarks)
        fa = make_alt_evaluator(e)
        n = g.vertex_count
        for v, t in [(0, n - 1), (1, n // 2), (n - 1, 0), (2, 2)]:
            if fa(v, t)[1:] != (k, 0, 0, k):
                alt_ok = False
    ok = not corpus.counter_violations and alt_ok
    detail = (
        f"alp literal counters {corpusdef.CROSS_OPS} cross / "
        f"{corpusdef.SAME_OPS} same on {corpus.pairs_checked} pairs, "
        f"violations={len(corpus.counter_violations)}; "
        f"alt subtractions == |L| spot-checked"
    )
    if corpus.counter_violations:
        detail += f", first={corpus.counter_violations[0]}"
    _verdict(3, "op-counts", ok, detail)
    assert ok, detail


def test_criterion_4_space_accounting(corpus):
    bad = []
    for seed, n, k, alt_s, alt_f, alp_s, alp_f in corpus.space_records:
        want_alt = k * n + k * k
        want_alp = n + k * k
        if not (alt_s == alt_f == want_alt and alp_s == alp_f == want_alp):
            bad.append((seed, n, k, alt_s, alt_f, alp_s, alp_f))
    ok = not bad and len(corpus.space_records) == corpus.graphs
    detail = (
        f"{len(corpus.space_records)} graphs: full table stores k*n+k^2, "
        f"distributed stores n+k^2 (k=4), deviations={len(bad)}"
    )
    if bad:
        detail += f", first={bad[0]}"
    _verdict(4, "space-accounting", ok, detail)
    assert ok, detail


def test_criterion_5_reduction_identity(corpus):
    ok = (
        not corpus.reduction_violations
        and not corpus.scenario_violations
        and corpus.same_owner_pairs > 0
        and corpus.scenario_counts["S3"] > 0
        and corpus.scenario_counts["S4"] > 0
    )
    detail = (
        f"{corpus.same_owner_pairs} same-owner pairs collapse to "
        f"|a-b| exactly, identity violations="
        f"{len(corpus.reduction_violations)}; scenario counts "
        f"{dict(sorted(corpus.scenario_counts.items()))}, "
        f"S3-equality/S4-dominance violations="
        f"{len(corpus.scenario_violations)}"
    )
    if corpus.reduction_violations:
        detail += f", first={corpus.reduction_violations[0]}"
    if corpus.scenario_violations:
        detail += f", first_scenario={corpus.scenario_violations[0]}"
    _verdict(5, "reduction-identity", ok, detail)
    assert ok, detail


def test_criterion_6_theorem_witnesses(corpus):
    live_ok = bool(
        corpus.witness_dominance
        and corpus.witness_reverse
        and corpus.witness_inconsistency
    )

    fixture_ok = True
    notes = []
    with open(FIXTURE, "r", encoding="ascii") as fh:
        w = json.load(fh)

    d = w["dominance"]
    g = corpusdef.corpus_graph(d["seed"])
    L = corpusdef.corpus_landmarks(g, d["seed"])
    fa = make_alt_evaluator(build_alt_embedding(g, L))
    fp = make_alp_evaluator(build_distributed_embedding(g, L))
    if not (
        fa(d["v"], d["t"])[0] == d["alt"]
        and fp(d["v"], d["t"])[0] == d["alp"]
        and d["alt"] > d["alp"]
    ):
        fixture_ok = False
        notes.append(f"dominance fixture failed replay: {d}")

    r = w["reverse"]
    g = corpusdef.corpus_graph(r["seed"])
    L = corpusdef.corpus_landmarks(g, r["seed"])
    L1 = corpusdef.corpus_single_landmark(g, r["seed"])
    fp = make_alp_evaluator(build_distributed_embedding(g, L))
    fa1 = make_alt_evaluator(build_alt_embedding(g, L1))
    if not (
        fp(r["v"], r["t"])[0] == r["alp"]
        and fa1(r["v"], r["t"])[0] == r["alt_single"]
        and r["alp"] > r["alt_single"]
    ):
        fixture_ok = False
        notes.append(f"reverse fixture failed replay: {r}")

    i = w["inconsistency"]
    g = corpusdef.corpus_graph(i["seed"])
    e = build_distributed_embedding(g, corpusdef.corpus_landmarks(g, i["seed"]))
    fp = make_alp_evaluator(e)
    weight = dict(g.adjacency[i["u"]]).get(i["v"])
    if not (
        weight == i["weight"]
        and e.owner[i["u"]] != e.owner[i["v"]]
        and fp(i["u"], i["target"])[0] == i["h_u"]
        and fp(i["v"], i["target"])[0] == i["h_v"]
        and i["h_u"] > i["weight"] + i["h_v"]
    ):
        fixture_ok = False
        notes.append(f"inconsistency fixture failed replay: {i}")

    ok = live_ok and fixture_ok
    detail = (
        f"live: dominance={corpus.witness_dominance or 'MISSING'}, "
        f"reverse={corpus.witness_reverse or 'MISSING'}, "
        f"inconsistency={corpus.witness_inconsistency or 'MISSING'}; "
        f"fixture replay {'ok' if fixture_ok else '; '.join(notes)}"
    )
    _verdict(6, "theorem-witnesses", ok, detail)
    assert ok, detail


def test_criterion_7_one_pass_preprocessing(corpus):
    bad = [
        rec for rec in corpus.kernel_records
        if rec[3:] != (0, 1, rec[2])
    ]
    ok = not bad and len(corpus.kernel_records) == corpus.graphs
    detail = (
        f"{len(corpus.kernel_records)} builds: 0 full SPTs, "
        f"1 multi-source sweep, k truncated landmark-matrix runs each, "
        f"independent of n (10..200), deviations={len(bad)}"
    )
    if bad:
        detail += f", first={bad[0]}"
    _verdict(7, "one-pass-preprocessing", ok, detail)
    assert ok, detail


def test_criterion_8_determinism(tmp_path):
    gr = tmp_path / "g.gr"
    assert cli_main(["gen", "--random", "120,60", "--seed", "11",
                     "--out", str(gr)]) == 0
    gr2 = tmp_path / "g2.gr"
    assert cli_main(["gen", "--random", "120,60", "--seed", "11",
                     "--out", str(gr2)]) == 0
    gen_same = gr.read_bytes() == gr2.read_bytes()

    reports = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = cli_main([
            "bench", "--graph", str(gr), "--queries", "25",
            "--landmarks", "4", "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        reports.append(out.read_bytes())
    plain_same = reports[0] == reports[1]

    strat = []
    for name in ("c.csv", "d.csv"):
        out = tmp_path / name
        code = cli_main([
            "bench", "--graph", str(gr), "--queries", "15",
            "--landmarks", "4", "--seed", "12",
            "--stratify", "by-distance-decile", "--out", str(out),
        ])
        assert code == 0
        strat.append(out.read_bytes())
    strat_same = strat[0] == strat[1]

    ok = gen_same and plain_same and strat_same
    detail = (
        f"byte-identical reruns: gen={gen_same}, bench={plain_same}, "
        f"stratified bench={strat_same} "
        f"({len(reports[0])} byte CSV)"
    )
    _verdict(8, "determinism", ok, detail)
    assert ok, detail


def _corner_biased_queries(rows, cols, count, seed):
    """Endpoints drawn from small patches around distinct grid corners."""
    import random

    rng = random.Random(seed)
    corners = [(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)]
    span = 5

    def draw(corner):
        r0, c0 = corner
        r = min(rows - 1, max(0, r0 + rng.choice(range(-span, span + 1))))
        c = min(cols - 1, max(0, c0 + rng.choice(range(-span, span + 1))))
        return r * cols + c

    out = []
    while len(out) < count:
        ca, cb = rng.sample(corners, 2)
        s, t = draw(ca), draw(cb)
        if s != t:
            out.append((s, t))
    return out


def test_criterion_9_trend_report():
    g = generate_grid(50, 50)
    L = select_farthest(g, 8, derive_seed(9, "trend"))
    queries = _corner_biased_queries(50, 50, 40, derive_seed(9, "queries"))
    rows = run_workload(g, L, queries, methods=("alt", "alp"))
    s = summarize(rows)
    ok = (
        s["alt"]["queries"] == 40
        and s["alp"]["queries"] == 40
        and s["alt"]["mean_settled"] > 0
        and s["alp"]["mean_settled"] > 0
        and s["alt"]["mean_arith_total"] > 0
        and s["alp"]["mean_arith_total"] > 0
    )
    settled_dir = (
        "alp settles more" if s["alp"]["mean_settled"] > s["alt"]["mean_settled"]
        else "alt settles more"
    )
    arith_dir = (
        "alp computes less arithmetic"
        if s["alp"]["mean_arith_total"] < s["alt"]["mean_arith_total"]
        else "alt computes less arithmetic"
    )
    detail = (
        f"50x50 grid, 8 farthest landmarks, 40 corner-biased queries: "
        f"mean settled alt={s['alt']['mean_settled']:.1f} "
        f"alp={s['alp']['mean_settled']:.1f} ({settled_dir}); "
        f"mean arithmetic alt={s['alt']['mean_arith_total']:.1f} "
        f"alp={s['alp']['mean_arith_total']:.1f} ({arith_dir}); "
        f"direction reported, not asserted"
    )
    _verdict(9, "trend-report", ok, detail)
    assert ok, detail
