"""Workload generation, measurement rows, verification, report IO."""

import dataclasses
import hashlib
import io
import json
import weakref
from itertools import combinations

import pytest

import oracles
from polyroute import (
    CSV_HEADER,
    MODES,
    BenchError,
    BenchRow,
    LandmarkSet,
    WorkloadSpec,
    build_graph,
    dijkstra_query,
    emit_report,
    format_summary,
    generate_grid,
    generate_queries,
    generate_random_connected,
    load_report,
    run_workload,
    save_dimacs,
    select_avoid,
    select_farthest,
    select_random,
    summarize,
    verify_workload,
)
from polyroute.bench import METHODS
from polyroute.cli import main


class TestGenerateQueries:
    def test_deterministic(self, grid3):
        spec = WorkloadSpec(50, seed=7)
        assert generate_queries(grid3, spec) == generate_queries(grid3, spec)

    def test_seed_changes_draw(self, grid3):
        a = generate_queries(grid3, WorkloadSpec(50, seed=1))
        b = generate_queries(grid3, WorkloadSpec(50, seed=2))
        assert a != b

    def test_no_self_queries(self):
        g = generate_random_connected(12, 5, 0)
        for s, t in generate_queries(g, WorkloadSpec(200, seed=3)):
            assert s != t
            assert 0 <= s < 12 and 0 <= t < 12

    def test_single_vertex_graph(self):
        g = generate_random_connected(1, 0, 0)
        assert generate_queries(g, WorkloadSpec(4)) == [(0, 0)] * 4

    def test_invalid_workload_spec(self):
        with pytest.raises(ValueError):
            WorkloadSpec(0)
        with pytest.raises(ValueError):
            WorkloadSpec(5, stratification="by-vibes")

    def test_stratified_covers_every_nonempty_decile(self, grid3):
        spec = WorkloadSpec(40, seed=9, stratification="by-distance-decile")
        queries = generate_queries(grid3, spec)
        assert len(queries) == 40
        assert all(s != t for s, t in queries)
        # max distance on the 3x3 grid is 4; deciles hit by d in 1..4
        max_d = 4
        seen = {
            min(9, 10 * dijkstra_query(grid3, s, t).distance // max_d)
            for s, t in queries
        }
        expected = {min(9, 10 * d // max_d) for d in (1, 2, 3, 4)}
        assert seen == expected

    def test_stratified_names_an_unreachable_pair(self):
        # a library graph need not be connected, and no decile holds an
        # infinite distance
        g = build_graph(6, [(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1)])
        spec = WorkloadSpec(20, seed=1, stratification="by-distance-decile")
        with pytest.raises(ValueError, match=r"^vertex 3 is not reachable "
                                             r"from vertex 0; distance"):
            generate_queries(g, spec)

    def test_stratified_deterministic_on_larger_graph(self):
        g = generate_random_connected(150, 60, 4)
        spec = WorkloadSpec(30, seed=5, stratification="by-distance-decile")
        a = generate_queries(g, spec)
        assert a == generate_queries(g, spec)
        assert len(a) == 30

    @pytest.mark.parametrize("kind", ["sampled-pool", "all-pairs-pool"])
    def test_stratified_one_tree_at_a_time(self, monkeypatch, kind):
        # n*n above 10,000 samples the pool; below, it takes every pair
        if kind == "sampled-pool":
            g = generate_random_connected(150, 60, 4)
            want = [(75, 120), (108, 139), (123, 41), (74, 113), (136, 144),
                    (80, 47), (124, 67), (34, 61), (148, 132), (110, 23),
                    (0, 65), (23, 32)]
        else:
            g = generate_grid(5, 5)
            want = [(23, 18), (23, 19), (19, 8), (24, 20), (21, 8), (15, 3),
                    (3, 20), (4, 20), (22, 17), (6, 2), (1, 16), (19, 15)]
        peak = track_live_rows(monkeypatch)
        spec = WorkloadSpec(12, seed=5, stratification="by-distance-decile")
        assert generate_queries(g, spec) == want
        assert peak.live <= 2


class TestRunWorkload:
    def test_p6_agreement_all_methods(self, p6):
        rows = run_workload(p6, LandmarkSet((0, 5)), [(1, 4)])
        assert [r.method for r in rows] == ["dijkstra", "alt", "alp"]
        assert all(r.distance == 3 for r in rows)
        assert all(r.source == 1 and r.target == 4 for r in rows)

    def test_dijkstra_rows_have_no_arithmetic(self, p6):
        (row,) = run_workload(p6, LandmarkSet((0, 5)), [(0, 5)],
                              methods=("dijkstra",))
        assert (row.heuristic_evals, row.subs, row.muls, row.divs) \
            == (0, 0, 0, 0)
        assert (row.s1, row.s2, row.s3, row.s4, row.s5) == (0, 0, 0, 0, 0)

    def test_scenario_histogram_accounts_every_eval(self):
        g = generate_random_connected(60, 30, 2)
        L = select_random(g, 4, 2)
        queries = generate_queries(g, WorkloadSpec(25, seed=8))
        for row in run_workload(g, L, queries, methods=("alp",)):
            assert row.s1 + row.s2 + row.s3 + row.s4 + row.s5 \
                == row.heuristic_evals

    def test_alt_subs_equal_evals_times_k(self):
        g = generate_random_connected(40, 20, 6)
        L = select_random(g, 4, 6)
        queries = generate_queries(g, WorkloadSpec(10, seed=1))
        for row in run_workload(g, L, queries, methods=("alt",)):
            assert row.subs == 4 * row.heuristic_evals
            assert row.muls == 0 and row.divs == 0

    @pytest.mark.parametrize("mode", MODES)
    def test_alp_arithmetic_prices_the_scenario_histogram(self, mode):
        # S3 and S4 share an owner, S1, S2 and S5 do not: astar must sum
        # exactly what the evaluator charges for each owner case.
        g = generate_grid(12, 12)
        queries = generate_queries(g, WorkloadSpec(15, seed=3))
        rows = run_workload(g, select_farthest(g, 4, 0), queries,
                            methods=("alp",), mode=mode)
        assert any(r.s3 + r.s4 for r in rows)
        assert any(r.s1 + r.s2 + r.s5 for r in rows)
        assert any(r.reopened for r in rows)
        p_same, p_cross = oracles.ALP_PRICES[mode]
        for r in rows:
            same = r.s3 + r.s4
            cross = r.s1 + r.s2 + r.s5
            want = [same * ps + cross * pc for ps, pc in zip(p_same, p_cross)]
            assert [r.subs, r.muls, r.divs] == want[:3]

    def test_goal_direction_beats_blind_search_on_grid(self):
        g = generate_grid(20, 20)
        L = select_farthest(g, 2, 0)
        rows = run_workload(g, L, [(0, 399)],
                            methods=("dijkstra", "alt"))
        by_method = {r.method: r for r in rows}
        assert by_method["alt"].settled < by_method["dijkstra"].settled

    def test_every_subset_gives_the_full_run_rows(self):
        # Each subset builds only the embeddings it needs; alp alone still
        # classifies S1..S5 against the full table.
        g = generate_grid(12, 12)
        queries = generate_queries(g, WorkloadSpec(15, seed=3))
        full = run_workload(g, select_farthest(g, 4, 0), queries)
        assert any(r.s1 + r.s2 + r.s5 for r in full if r.method == "alp")
        subsets = [c for n in (1, 2, 3) for c in combinations(METHODS, n)]
        assert len(subsets) == 7
        for subset in subsets:
            rows = run_workload(g, select_farthest(g, 4, 0), queries, subset)
            assert rows == [r for r in full if r.method in subset], subset

    def test_unknown_method_rejected(self, p6):
        with pytest.raises(ValueError):
            run_workload(p6, LandmarkSet((0,)), [(0, 1)], methods=("bfs",))

    def test_timing_flag_populates_wall_time(self, p6):
        rows = run_workload(p6, LandmarkSet((0, 5)), [(0, 5)], timing=True)
        assert all(r.wall_time_ns > 0 for r in rows)
        rows = run_workload(p6, LandmarkSet((0, 5)), [(0, 5)])
        assert all(r.wall_time_ns == 0 for r in rows)

    def test_timing_changes_only_wall_time(self):
        g = generate_grid(12, 12)
        L = select_farthest(g, 4, 0)
        queries = generate_queries(g, WorkloadSpec(15, seed=3))
        plain = run_workload(g, L, queries)
        timed = run_workload(g, L, queries, timing=True)
        assert any(r.reopened for r in plain if r.method == "alp")
        assert any(r.s1 + r.s2 + r.s5 for r in plain if r.method == "alp")
        assert [dataclasses.replace(r, wall_time_ns=0) for r in timed] == plain

    def test_mode_forwarded(self, p6):
        lit = run_workload(p6, LandmarkSet((0, 5)), [(1, 4)],
                           methods=("alp",))[0]
        red = run_workload(p6, LandmarkSet((0, 5)), [(1, 4)],
                           methods=("alp",), mode="reduced")[0]
        assert lit.distance == red.distance
        assert red.subs < lit.subs
        assert lit.muls > 0 and lit.divs > 0
        assert red.muls == red.divs == 0


class _Row(list):
    """A distance row that weak references can follow."""


class _LivePeak:
    calls = 0
    now = 0
    live = 0

    def freed(self):
        self.now -= 1


def track_live_rows(monkeypatch) -> _LivePeak:
    """Make bench's trees hand out rows whose lifetimes can be watched;
    the result records the calls and the most rows alive at one time."""
    import polyroute.bench as bench

    real = bench.shortest_path_tree
    peak = _LivePeak()

    def spt(g, s):
        dm = real(g, s)
        row = _Row(dm.dist)
        weakref.finalize(row, peak.freed)
        peak.calls += 1
        peak.now += 1
        peak.live = max(peak.live, peak.now)
        return dataclasses.replace(dm, dist=row)

    monkeypatch.setattr(bench, "shortest_path_tree", spt)
    return peak


def dijkstra_row(s: int, t: int, d) -> BenchRow:
    return BenchRow("dijkstra", s, t, d, 0, 0, 0, 0, 0, 0, 0)


class TestVerifyWorkload:
    def test_clean_report(self):
        g = generate_random_connected(50, 20, 1)
        L = select_random(g, 3, 1)
        rows = run_workload(g, L, generate_queries(g, WorkloadSpec(15)))
        report = verify_workload(g, rows)
        assert report.ok
        assert report.checked == len(rows) == 45
        assert report.violations == []

    def test_single_fault_detected(self):
        g = generate_random_connected(30, 10, 2)
        L = select_random(g, 3, 2)
        rows = run_workload(g, L, generate_queries(g, WorkloadSpec(8)))
        bad = dataclasses.replace(rows[4], distance=rows[4].distance + 1)
        rows[4] = bad
        report = verify_workload(g, rows)
        assert not report.ok
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v["row"] == 4
        assert v["reported"] == bad.distance
        assert v["expected"] == bad.distance - 1

    @pytest.mark.parametrize("what, value", [
        ("target", 9), ("target", -1), ("source", 4), ("source", -1),
    ])
    def test_vertex_outside_graph(self, what, value):
        g = build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        rows = [dijkstra_row(0, 3, 3), dijkstra_row(1, 2, 1)]
        rows[1] = dataclasses.replace(rows[1], **{what: value})
        with pytest.raises(
            ValueError, match=f"row 1: {what} {value} out of range \\[0,4\\)"
        ):
            verify_workload(g, rows)

    def test_one_tree_at_a_time_violations_in_row_order(self, monkeypatch):
        g = generate_grid(6, 6)
        pairs = [(0, 35), (7, 20), (3, 14), (0, 9), (7, 8), (3, 3), (12, 1)]
        rows = [dijkstra_row(s, t, dijkstra_query(g, s, t).distance)
                for s, t in pairs]
        for i in (3, 4, 5):  # later rows of sources first seen earlier
            rows[i] = dataclasses.replace(rows[i], distance=rows[i].distance + 1)
        peak = track_live_rows(monkeypatch)
        report = verify_workload(g, rows)
        assert [v["row"] for v in report.violations] == [3, 4, 5]
        assert [v["expected"] for v in report.violations] == [4, 1, 0]
        assert peak.calls == 4
        assert peak.live <= 2

    def test_no_vertex_cap(self):
        g = generate_grid(71, 71)  # 5,041 vertices
        rows = [dijkstra_row(0, 5040, 140), dijkstra_row(5040, 70, 70)]
        report = verify_workload(g, rows)
        assert report.ok and report.checked == 2


class TestReportIO:
    def _rows(self):
        g = generate_random_connected(25, 10, 3)
        L = select_random(g, 3, 3)
        return run_workload(g, L, generate_queries(g, WorkloadSpec(6)))

    def test_csv_round_trip(self):
        rows = self._rows()
        sink = io.StringIO()
        emit_report(rows, "csv", sink)
        text = sink.getvalue()
        assert text.splitlines()[0] == ",".join(CSV_HEADER)
        assert load_report(io.StringIO(text), "csv") == rows

    def test_json_round_trip(self):
        rows = self._rows()
        sink = io.StringIO()
        emit_report(rows, "json", sink)
        assert load_report(io.StringIO(sink.getvalue()), "json") == rows

    def test_csv_repeatable_byte_for_byte(self):
        rows = self._rows()
        a, b = io.StringIO(), io.StringIO()
        emit_report(rows, "csv", a)
        emit_report(rows, "csv", b)
        assert a.getvalue() == b.getvalue()

    def test_empty_rows_header_only(self):
        sink = io.StringIO()
        emit_report([], "csv", sink)
        assert sink.getvalue() == ",".join(CSV_HEADER) + "\n"
        assert load_report(io.StringIO(sink.getvalue()), "csv") == []

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValueError, match="header"):
            load_report(io.StringIO("method,source\nalt,1\n"), "csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report([], "xml", io.StringIO())

    def _json_records(self):
        sink = io.StringIO()
        emit_report(self._rows()[:2], "json", sink)
        return json.loads(sink.getvalue())

    @pytest.mark.parametrize("name, value, shown", [
        ("source", 1.9, "1.9"),
        ("target", True, "True"),
        ("settled", "3", "'3'"),
        ("wall_time_ns", None, "None"),
        ("distance", False, "False"),
        ("method", 1, "1"),
    ])
    def test_json_field_of_wrong_type_rejected(self, name, value, shown):
        records = self._json_records()
        records[1][name] = value
        with pytest.raises(ValueError, match=rf"^row 1: {name} must be .*, got {shown}$"):
            load_report(io.StringIO(json.dumps(records)), "json")

    def test_json_missing_field_rejected(self):
        records = self._json_records()
        del records[0]["s3"]
        with pytest.raises(ValueError, match="^row 0: missing field 's3'$"):
            load_report(io.StringIO(json.dumps(records)), "json")

    @pytest.mark.parametrize("text", ['{"rows": []}', "[3]"])
    def test_json_not_a_list_of_rows_rejected(self, text):
        with pytest.raises(ValueError, match="list of rows|row 0: expected an object"):
            load_report(io.StringIO(text), "json")

    def test_json_nested_too_deeply_rejected(self):
        with pytest.raises(ValueError, match="^JSON report is nested too deeply$"):
            load_report(io.StringIO("[" * 100_000), "json")

    def test_json_syntax_error_rejected(self):
        with pytest.raises(ValueError, match=r"^malformed JSON report: "
                           r"Expecting value: line 1 column 1 \(char 0\)$"):
            load_report(io.StringIO(",".join(CSV_HEADER) + "\n"), "json")

    @pytest.mark.parametrize("header", [False, True], ids=["row", "header"])
    def test_csv_field_over_the_limit_rejected(self, header):
        big = "x" * 131_073 + "\n"
        text = big if header else ",".join(CSV_HEADER) + "\n" + big
        with pytest.raises(ValueError, match="^malformed CSV report: field larger"):
            load_report(io.StringIO(text), "csv")

    @pytest.mark.parametrize("name, value", [
        ("source", "1.9"), ("target", "x"), ("distance", "x"), ("s5", ""),
    ])
    def test_csv_field_of_wrong_type_rejected(self, name, value):
        sink = io.StringIO()
        emit_report(self._rows()[:2], "csv", sink)
        lines = sink.getvalue().splitlines()
        cells = lines[1].split(",")
        cells[CSV_HEADER.index(name)] = value
        lines[1] = ",".join(cells)
        with pytest.raises(ValueError, match=rf"^row 0: {name} must be .*, got '{value}'$"):
            load_report(io.StringIO("\n".join(lines) + "\n"), "csv")

    def test_csv_short_row_rejected(self):
        text = ",".join(CSV_HEADER) + "\nalt,1,2\n"
        with pytest.raises(ValueError, match="^row 0: fewer cells than the header$"):
            load_report(io.StringIO(text), "csv")

    def _csv_lines(self):
        sink = io.StringIO()
        emit_report(self._rows()[:2], "csv", sink)
        return sink.getvalue().splitlines()

    @pytest.mark.parametrize("change, error", [
        (lambda line: line + ",extra", "more cells than the header"),
        (lambda line: line.rsplit(",", 1)[0], "fewer cells than the header"),
    ], ids=["extra-cell", "short-by-one"])
    def test_csv_row_of_other_length_rejected(self, change, error):
        lines = self._csv_lines()
        lines[2] = change(lines[2])
        with pytest.raises(ValueError, match=f"^row 1: {error}$"):
            load_report(io.StringIO("\n".join(lines) + "\n"), "csv")

    def test_json_unknown_field_rejected(self):
        records = self._json_records()
        records[1]["bogus"] = 0
        with pytest.raises(ValueError, match="^row 1: unknown field 'bogus'$"):
            load_report(io.StringIO(json.dumps(records)), "json")


class TestSummarize:
    def test_means_and_totals(self):
        rows = [
            BenchRow("alp", 0, 1, 5, 10, 12, 2, 6, 30, 4, 2,
                     s1=1, s2=2, s3=3, s4=0, s5=0),
            BenchRow("alp", 1, 2, 7, 20, 20, 0, 10, 50, 6, 4,
                     s1=2, s2=0, s3=8, s4=0, s5=0),
            BenchRow("dijkstra", 0, 1, 5, 30, 30, 0, 0, 0, 0, 0),
        ]
        s = summarize(rows)
        alp = s["alp"]
        assert alp["queries"] == 2
        assert alp["mean_settled"] == 15.0
        assert alp["mean_subs"] == 40.0
        assert alp["mean_arith_total"] == (36 + 60) / 2
        assert alp["total_s1"] == 3
        assert alp["total_s3"] == 11
        assert s["dijkstra"]["mean_settled"] == 30.0
        assert "total_s1" not in s["dijkstra"]

    def test_format_summary_is_stable_text(self):
        rows = self._mini()
        assert format_summary(summarize(rows)) \
            == format_summary(summarize(rows))
        assert "alp" in format_summary(summarize(rows))

    def _mini(self):
        g = generate_random_connected(20, 8, 9)
        L = select_random(g, 2, 9)
        return run_workload(g, L, [(0, 19), (3, 11)])


class TestGoldenReports:
    """Every text a workload's report yields, pinned by SHA-256: the CSV
    and JSON reports, the summary block and the CLI's verify output."""

    GOLDEN = {
        "farthest": {
            "csv": "175f0b723ecf7b93c7631716e51d81c444ec34c531a32e964989be36facc3006",
            "json": "88940629a66b3bd68c68531deb9b260868f9c47147ddedb7a7e0043b13a0ab15",
            "summary": "06e9db6b33cacbcba0e99a2f14794de3207230a1a380fb2f06653cef25e8c365",
            "verify": "3de6a8dc453af9613e8b592153c117cf25d14669042176012b1be5fbb502f777",
        },
        "avoid": {
            "csv": "01ea98b29cfddde0b146d2e8db86f2dc2b0675c94f86555dd89308bdc6970777",
            "json": "4b4240ac5293ef27e2a4298c4926af16ab5240a14e933566ebaf6117d32a19af",
            "summary": "5aca5d9adffeb3f38afbe855c6a657e495ffa5764a8d752b0567bf00dc84ae0e",
            "verify": "2f0341734d125ccbc6f3d02004078d098a592e79904cf3107a9ac8025017638d",
        },
    }

    @pytest.mark.parametrize("strategy, select, stratification", [
        ("farthest", select_farthest, "none"),
        ("avoid", select_avoid, "by-distance-decile"),
    ])
    def test_report_texts(self, tmp_path, capsys, strategy, select,
                          stratification):
        # weights in eighths, so reports carry float distances exactly
        base = generate_random_connected(120, 60, 5)
        g = build_graph(120, [(u, v, 1 + (7 * u + v) % 13 / 8)
                              for u, v, _ in base.edges()])
        spec = WorkloadSpec(30, seed=5, stratification=stratification)
        rows = run_workload(g, select(g, 5, 5), generate_queries(g, spec))
        texts = {}
        for fmt in ("csv", "json"):
            sink = io.StringIO()
            emit_report(rows, fmt, sink)
            texts[fmt] = sink.getvalue()
        texts["summary"] = format_summary(summarize(rows))
        # one wrong row, so verify prints a violation line too
        rows[7] = dataclasses.replace(rows[7], distance=rows[7].distance + 0.5)
        graph, report = tmp_path / "g.gr", tmp_path / "r.json"
        with open(graph, "w", encoding="ascii") as fh:
            save_dimacs(g, fh)
        with open(report, "w", encoding="ascii") as fh:
            emit_report(rows, "json", fh)
        assert main(["verify", "--graph", str(graph), "--report", str(report)]) == 1
        texts["verify"] = capsys.readouterr().out
        digests = {name: hashlib.sha256(text.encode()).hexdigest()
                   for name, text in texts.items()}
        assert digests == self.GOLDEN[strategy]
