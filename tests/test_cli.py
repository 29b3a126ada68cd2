"""Command-line surface, exercised in-process through cli.main."""

import io
import json
import math
import os
import struct
import threading

import pytest

import oracles
from polyroute import cli, load_embedding, load_report
from polyroute.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def p6_file(tmp_path, capsys):
    path = tmp_path / "p6.gr"
    code, out, _ = run(capsys, "gen", "--path", "6", "--out", str(path))
    assert code == 0
    assert out.startswith(f"wrote {path}: 6 vertices, 5 edges")
    return str(path)


class TestGen:
    def test_grid(self, tmp_path, capsys):
        out_path = tmp_path / "g.gr"
        code, out, _ = run(capsys, "gen", "--grid", "3x3",
                           "--out", str(out_path))
        assert code == 0
        assert "9 vertices, 12 edges" in out

    def test_random_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.gr", tmp_path / "b.gr"
        run(capsys, "gen", "--random", "30,10", "--seed", "4", "--out", str(a))
        run(capsys, "gen", "--random", "30,10", "--seed", "4", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_edgelist_format_round_trips(self, tmp_path, capsys):
        gr = tmp_path / "g.edges"
        run(capsys, "gen", "--grid", "2x3", "--out", str(gr),
            "--format", "edgelist")
        code, out, _ = run(capsys, "query", "--graph", str(gr),
                           "--method", "dijkstra",
                           "--source", "0", "--target", "5")
        assert code == 0
        assert "distance: 3" in out

    def test_bad_shape_errors(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--grid", "3by3",
                           "--out", str(tmp_path / "x.gr"))
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_path_below_one_errors(self, tmp_path, capsys, n):
        out_path = tmp_path / "x.gr"
        code, out, err = run(capsys, "gen", "--path", n, "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err == f"error: bad --path value {n}, expected N >= 1\n"
        assert not out_path.exists()


class TestPreprocess:
    def test_path_graph_distributed_entries(self, p6_file, capsys):
        # 6 distance slots plus a 2x2 landmark block
        code, out, _ = run(capsys, "preprocess", "--graph", p6_file,
                           "--method", "alp", "--strategy", "farthest",
                           "--landmarks", "2")
        assert code == 0
        assert "entries: 10" in out
        assert "landmarks: 5 0" in out

    def test_full_table_entries(self, p6_file, capsys):
        code, out, _ = run(capsys, "preprocess", "--graph", p6_file,
                           "--method", "alt", "--strategy", "farthest",
                           "--landmarks", "2")
        assert code == 0
        assert "entries: 16" in out

    def test_embedding_file_written_and_reused(self, p6_file, tmp_path,
                                               capsys):
        emb = tmp_path / "p6.lemb"
        code, out, _ = run(capsys, "preprocess", "--graph", p6_file,
                           "--method", "alp", "--strategy", "farthest",
                           "--landmarks", "2", "--out", str(emb))
        assert code == 0
        # header 24 bytes, 4 code and 4 scale bytes, then 2 ids, 6 owners,
        # 6 owner distances and the one matrix entry above the diagonal,
        # one byte each on unit weights
        assert emb.stat().st_size == 47
        assert out.splitlines()[1:] == ["entries: 10 bytes: 47",
                                        f"wrote {emb}"]
        code, out, _ = run(capsys, "query", "--graph", p6_file,
                           "--method", "alp", "--embedding", str(emb),
                           "--source", "1", "--target", "4")
        assert code == 0
        assert "distance: 3" in out

    @pytest.mark.parametrize("method", ["alt", "alp"])
    def test_distance_no_code_holds_is_clean_error(self, tmp_path, capsys,
                                                   method):
        graph = tmp_path / "big.gr"
        graph.write_text(f"p sp 3 2\na 1 2 {2**64 + 1}\na 2 3 1\n")
        emb = tmp_path / "big.lemb"
        code, out, err = run(capsys, "preprocess", "--graph", str(graph),
                             "--method", method, "--landmarks", "1",
                             "--out", str(emb))
        assert code == 1
        assert err.startswith("error: no embedding file code holds ")
        assert err.count("\n") == 1
        assert "wrote" not in out
        assert not emb.exists()

    def test_embedding_kind_must_match_method(self, p6_file, tmp_path,
                                              capsys):
        emb = tmp_path / "p6.lemb"
        run(capsys, "preprocess", "--graph", p6_file, "--method", "alt",
            "--landmarks", "2", "--out", str(emb))
        code, _, err = run(capsys, "query", "--graph", p6_file,
                           "--method", "alp", "--embedding", str(emb),
                           "--source", "1", "--target", "4")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("method", ["alt", "alp"])
    def test_embedding_from_another_graph(self, tmp_path, capsys, method):
        small = tmp_path / "small.gr"
        large = tmp_path / "large.gr"
        emb = tmp_path / "small.lemb"
        run(capsys, "gen", "--random", "20,10", "--out", str(small))
        run(capsys, "gen", "--random", "60,30", "--out", str(large))
        code, _, _ = run(capsys, "preprocess", "--graph", str(small),
                         "--method", method, "--landmarks", "3",
                         "--out", str(emb))
        assert code == 0
        code, out, err = run(capsys, "query", "--graph", str(large),
                             "--method", method, "--embedding", str(emb),
                             "--source", "30", "--target", "50")
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert "error: embedding covers 20 vertices but the graph has 60" in err

    def test_embedding_owner_beyond_landmarks(self, p6_file, tmp_path,
                                              capsys):
        emb = tmp_path / "p6.lemb"
        run(capsys, "preprocess", "--graph", p6_file, "--method", "alp",
            "--landmarks", "2", "--out", str(emb))
        data = bytearray(emb.read_bytes())
        # header 24 bytes, 4 code and 4 scale bytes, two u8 landmark ids,
        # then one u8 owner per vertex
        assert data[24:28] == b"BBBB"
        data[35] = 7
        emb.write_bytes(bytes(data))
        code, out, err = run(capsys, "query", "--graph", p6_file,
                             "--method", "alp", "--embedding", str(emb),
                             "--source", "1", "--target", "4")
        assert code == 1
        assert out == ""
        assert err == "error: vertex 1 has owner index 7, " \
            "but there are only 2 landmarks\n"


    # A version 1 file, whose f64 sections can hold what a corrupt file
    # holds: header 24 bytes, two u64 landmark ids, six u64 owners, then
    # six f64 owner distances
    @pytest.mark.parametrize("at, patch, message", [
        (168, b"garbage", "embedding file has 7 bytes after the payload"),
        (88, struct.pack("<d", math.nan),
         "embedding file has a NaN or negative value in the owner distances"),
        (96, struct.pack("<d", math.inf),
         "vertex 1 has an infinite owner distance"),
        # then the 2 x 2 landmark matrix at 136
        (144, struct.pack("<d", 0.0), "embedding file has a 0 off the "
         "diagonal of the landmark matrix, at (0,1)"),
    ], ids=["bytes-after-payload", "nan-distance", "inf-owner-distance",
            "zero-between-landmarks"])
    def test_embedding_payload_corrupt(self, p6_file, tmp_path, capsys, at,
                                       patch, message):
        emb = tmp_path / "p6.lemb"
        run(capsys, "preprocess", "--graph", p6_file, "--method", "alp",
            "--landmarks", "2", "--out", str(emb))
        data = oracles.lemb_v1_bytes(load_embedding(io.BytesIO(emb.read_bytes())))
        emb.write_bytes(data[:at] + patch + data[at + 8:])
        code, out, err = run(capsys, "query", "--graph", p6_file,
                             "--method", "alp", "--embedding", str(emb),
                             "--source", "1", "--target", "4")
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_embedding_float_code_for_owners(self, p6_file, tmp_path,
                                             capsys):
        emb = tmp_path / "p6.lemb"
        run(capsys, "preprocess", "--graph", p6_file, "--method", "alp",
            "--landmarks", "2", "--out", str(emb))
        data = emb.read_bytes()
        # the second code byte is the owner section's
        emb.write_bytes(data[:25] + b"f" + data[26:])
        code, out, err = run(capsys, "query", "--graph", p6_file,
                             "--method", "alp", "--embedding", str(emb),
                             "--source", "1", "--target", "4")
        assert (code, out) == (1, "")
        assert err == "error: embedding file has code 'f' for the owner " \
            "indices, expected one of 'BHIQ'\n"

    def test_embedding_header_counts_beyond_file(self, p6_file, tmp_path,
                                                 capsys):
        emb = tmp_path / "p6.lemb"
        run(capsys, "preprocess", "--graph", p6_file, "--method", "alp",
            "--landmarks", "2", "--out", str(emb))
        data = bytearray(emb.read_bytes())
        # the landmark count is the u64 at offset 16
        data[16:24] = struct.pack("<Q", 2**61)
        emb.write_bytes(bytes(data))
        code, out, err = run(capsys, "query", "--graph", p6_file,
                             "--method", "alp", "--embedding", str(emb),
                             "--source", "1", "--target", "4")
        assert code == 1
        assert out == ""
        assert err.startswith("error: embedding file truncated: header "
                              f"declares 6 vertices and {2**61} landmarks")
        assert err.count("\n") == 1


class TestQuery:
    def test_dual_landmark_route(self, p6_file, capsys):
        code, out, _ = run(capsys, "query", "--graph", p6_file,
                           "--method", "alp", "--strategy", "farthest",
                           "--landmarks", "2",
                           "--source", "1", "--target", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "distance: 3"
        assert lines[1] == "path: 1 2 3 4"
        assert lines[2].startswith("settled:")
        assert lines[3].startswith("heuristic_evals:")

    def test_methods_agree(self, tmp_path, capsys):
        gr = tmp_path / "r.gr"
        run(capsys, "gen", "--random", "40,15", "--seed", "2",
            "--out", str(gr))
        distances = {}
        for method in ("dijkstra", "alt", "alp"):
            code, out, _ = run(capsys, "query", "--graph", str(gr),
                               "--method", method, "--landmarks", "4",
                               "--source", "0", "--target", "39")
            assert code == 0
            distances[method] = out.splitlines()[0]
        assert len(set(distances.values())) == 1

    def test_reduced_mode_changes_only_counters(self, p6_file, capsys):
        outs = {}
        for mode in ("literal", "reduced"):
            code, out, _ = run(capsys, "query", "--graph", p6_file,
                               "--method", "alp", "--landmarks", "2",
                               "--strategy", "farthest", "--mode", mode,
                               "--source", "1", "--target", "4")
            assert code == 0
            outs[mode] = out.splitlines()
        assert outs["reduced"][:3] == outs["literal"][:3]
        assert outs["reduced"][3].endswith("muls: 0 divs: 0")
        assert outs["reduced"][3] != outs["literal"][3]

    def test_dijkstra_refuses_an_embedding(self, p6_file, tmp_path, capsys):
        # the file is never read, so one that does not exist is refused too
        code, out, err = run(capsys, "query", "--graph", p6_file,
                             "--method", "dijkstra",
                             "--embedding", str(tmp_path / "missing.lemb"),
                             "--source", "1", "--target", "4")
        assert (code, out) == (1, "")
        assert err == "error: method dijkstra takes no --embedding\n"

    def test_out_of_range_vertex(self, p6_file, capsys):
        code, _, err = run(capsys, "query", "--graph", p6_file,
                           "--method", "dijkstra",
                           "--source", "0", "--target", "66")
        assert code == 1
        assert "error:" in err

    def test_infinite_weight_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "inf.gr"
        path.write_text("p sp 3 2\na 1 2 1\na 2 3 inf\n")
        code, out, err = run(capsys, "query", "--graph", str(path),
                             "--method", "dijkstra",
                             "--source", "0", "--target", "2")
        assert code == 1
        assert out == ""
        assert err == "error: line 3: non-finite weight 'inf'\n"

    @pytest.mark.parametrize("text, least, total", [
        ("p sp 3 2\na 1 2 1e308\na 2 3 1e308\n", "1e+308", "inf"),
        ("p sp 5 5\na 1 2 1e17\na 2 3 2.0\na 2 4 1.0\na 3 5 1.0\n"
         "a 4 5 1.0\n", "1.0", "1e+17"),
    ], ids=["overflow", "absorbed"])
    @pytest.mark.parametrize("method", ["dijkstra", "alt", "alp"])
    def test_overflow_or_absorption_is_clean_error(self, tmp_path, capsys,
                                                  text, least, total, method):
        path = tmp_path / "wide.gr"
        path.write_text(text)
        code, out, err = run(capsys, "query", "--graph", str(path),
                             "--method", method, "--landmarks", "2",
                             "--source", "0", "--target", "2")
        assert (code, out) == (1, "")
        assert err == (f"error: float weights with least {least} and total "
                       f"{total}: a double path sum could absorb a weight or "
                       f"overflow\n")

    @pytest.mark.parametrize("text", [
        "p\tsp 2 1\na 1 2 3\n", "c x\np  sp 2 1\na 1 2 3\n",
    ], ids=["tab", "comment-then-two-spaces"])
    def test_dimacs_header_with_any_whitespace(self, tmp_path, capsys, text):
        path = tmp_path / "ws.gr"
        path.write_text(text)
        code, out, err = run(capsys, "query", "--graph", str(path),
                             "--method", "dijkstra",
                             "--source", "0", "--target", "1")
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "distance: 3"

    def test_missing_graph_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "query", "--graph",
                           str(tmp_path / "nope.gr"),
                           "--method", "dijkstra",
                           "--source", "0", "--target", "1")
        assert code == 1
        assert "error:" in err


class TestBench:
    def test_report_then_verify(self, tmp_path, capsys):
        gr = tmp_path / "r.gr"
        run(capsys, "gen", "--random", "50,20", "--seed", "6",
            "--out", str(gr))
        rpt = tmp_path / "out.csv"
        code, out, _ = run(capsys, "bench", "--graph", str(gr),
                           "--queries", "12", "--landmarks", "3",
                           "--seed", "6", "--out", str(rpt))
        assert code == 0
        assert f"wrote {rpt}: 36 rows" in out
        code, out, _ = run(capsys, "verify", "--graph", str(gr),
                           "--report", str(rpt))
        assert code == 0
        assert "checked: 36" in out
        assert "violations: 0" in out

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        gr = tmp_path / "r.gr"
        run(capsys, "gen", "--random", "35,12", "--seed", "3",
            "--out", str(gr))
        r1, r2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["bench", "--graph", str(gr), "--queries", "10",
                "--landmarks", "3", "--seed", "3"]
        run(capsys, *argv, "--out", str(r1))
        run(capsys, *argv, "--out", str(r2))
        assert r1.read_bytes() == r2.read_bytes()

    def test_json_report_verifies(self, tmp_path, capsys):
        gr = tmp_path / "r.gr"
        run(capsys, "gen", "--grid", "4x4", "--out", str(gr))
        rpt = tmp_path / "out.json"
        code, _, _ = run(capsys, "bench", "--graph", str(gr),
                         "--queries", "8", "--landmarks", "2",
                         "--out", str(rpt), "--methods", "dijkstra,alp")
        assert code == 0
        code, out, _ = run(capsys, "verify", "--graph", str(gr),
                           "--report", str(rpt))
        assert code == 0
        assert "checked: 16" in out

    @pytest.mark.parametrize("name, is_json", [
        ("r.json", True), ("r.csv", False), ("r.JSON", False), ("r", False),
    ])
    def test_report_name_sets_format(self, tmp_path, capsys, name, is_json):
        gr = tmp_path / "g.gr"
        run(capsys, "gen", "--grid", "4x4", "--out", str(gr))
        rpt = tmp_path / name
        code, _, _ = run(capsys, "bench", "--graph", str(gr), "--queries", "5",
                         "--landmarks", "2", "--out", str(rpt))
        assert code == 0
        text = rpt.read_text()
        if is_json:
            assert isinstance(json.loads(text), list)
        else:
            assert text.startswith("method,source,target,")
        code, out, _ = run(capsys, "verify", "--graph", str(gr),
                           "--report", str(rpt))
        assert code == 0
        assert "checked: 15" in out

    def test_corrupted_report_fails_verification(self, tmp_path, capsys):
        gr = tmp_path / "r.gr"
        run(capsys, "gen", "--grid", "4x4", "--out", str(gr))
        rpt = tmp_path / "out.csv"
        run(capsys, "bench", "--graph", str(gr), "--queries", "5",
            "--landmarks", "2", "--out", str(rpt),
            "--methods", "dijkstra")
        lines = rpt.read_text().splitlines()
        fields = lines[1].split(",")
        fields[3] = str(int(float(fields[3])) + 7)
        lines[1] = ",".join(fields)
        rpt.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "verify", "--graph", str(gr),
                           "--report", str(rpt))
        assert code == 1
        assert "violations: 1" in out
        assert "row 0" in out

    @pytest.mark.parametrize("target", [9, -1])
    def test_report_vertex_outside_graph(self, tmp_path, capsys, target):
        gr = tmp_path / "p4.gr"
        run(capsys, "gen", "--path", "4", "--out", str(gr))
        rpt = tmp_path / "out.csv"
        run(capsys, "bench", "--graph", str(gr), "--queries", "3",
            "--landmarks", "1", "--out", str(rpt), "--methods", "dijkstra")
        lines = rpt.read_text().splitlines()
        fields = lines[2].split(",")
        fields[2] = str(target)
        lines[2] = ",".join(fields)
        rpt.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "verify", "--graph", str(gr),
                             "--report", str(rpt))
        assert code == 1
        assert out == ""
        assert err == f"error: row 1: target {target} out of range [0,4)\n"

    @pytest.mark.parametrize("name, value, shown", [
        ("source", 1.9, "1.9"), ("target", True, "True"),
    ])
    def test_json_report_non_int_vertex(self, tmp_path, capsys, name, value, shown):
        gr = tmp_path / "p4.gr"
        run(capsys, "gen", "--path", "4", "--out", str(gr))
        rpt = tmp_path / "out.json"
        run(capsys, "bench", "--graph", str(gr), "--queries", "3",
            "--landmarks", "1", "--out", str(rpt),
            "--methods", "dijkstra")
        records = json.loads(rpt.read_text())
        records[1][name] = value
        rpt.write_text(json.dumps(records))
        code, out, err = run(capsys, "verify", "--graph", str(gr),
                             "--report", str(rpt))
        assert code == 1
        assert out == ""
        assert err == f"error: row 1: {name} must be int, got {shown}\n"

    def test_stratified_workload_runs(self, tmp_path, capsys):
        gr = tmp_path / "r.gr"
        run(capsys, "gen", "--grid", "6x6", "--out", str(gr))
        rpt = tmp_path / "out.csv"
        code, out, _ = run(capsys, "bench", "--graph", str(gr),
                           "--queries", "10", "--landmarks", "2",
                           "--stratify", "by-distance-decile",
                           "--out", str(rpt), "--methods", "alp")
        assert code == 0
        assert "wrote" in out

    def test_reduced_mode_changes_only_counters(self, tmp_path, capsys):
        gr = tmp_path / "r.gr"
        run(capsys, "gen", "--random", "40,15", "--seed", "5", "--out", str(gr))
        rows = {}
        for mode in ("literal", "reduced"):
            rpt = tmp_path / f"{mode}.csv"
            code, _, _ = run(capsys, "bench", "--graph", str(gr),
                             "--queries", "10", "--landmarks", "3",
                             "--mode", mode, "--out", str(rpt))
            assert code == 0
            with open(rpt, encoding="ascii") as fh:
                rows[mode] = load_report(fh, "csv")
        lit, red = rows["literal"], rows["reduced"]
        assert [r.distance for r in red] == [r.distance for r in lit]
        assert [r.settled for r in red] == [r.settled for r in lit]
        alp = [r for r in red if r.method == "alp"]
        assert alp and all(r.muls == r.divs == 0 for r in alp)

    def test_unwritable_out_fails_before_the_run(self, tmp_path, capsys,
                                                 monkeypatch):
        gr = tmp_path / "g.gr"
        run(capsys, "gen", "--grid", "4x4", "--out", str(gr))

        def no_run(*args, **kwargs):
            raise AssertionError("run_workload called before --out was opened")

        monkeypatch.setattr(cli, "run_workload", no_run)
        rpt = tmp_path / "absent" / "x.csv"
        code, out, err = run(capsys, "bench", "--graph", str(gr),
                             "--queries", "5", "--landmarks", "2",
                             "--out", str(rpt))
        assert (code, out) == (1, "")
        assert err.startswith("error: [Errno 2] No such file or directory")

    def test_success_replaces_an_existing_file(self, tmp_path, capsys):
        gr = tmp_path / "g.gr"
        run(capsys, "gen", "--grid", "4x4", "--out", str(gr))
        fresh, old = tmp_path / "a.csv", tmp_path / "b.csv"
        old.write_text("x" * 10000 + "\n")
        argv = ["bench", "--graph", str(gr), "--queries", "5",
                "--landmarks", "2"]
        assert run(capsys, *argv, "--out", str(fresh))[0] == 0
        assert run(capsys, *argv, "--out", str(old))[0] == 0
        assert old.read_bytes() == fresh.read_bytes()

    def test_report_streams_to_a_pipe(self, tmp_path, capsys):
        # A FIFO cannot be truncated, as /dev/stdout cannot when piped.
        gr = tmp_path / "g.gr"
        run(capsys, "gen", "--grid", "4x4", "--out", str(gr))
        fresh, fifo = tmp_path / "a.csv", tmp_path / "fifo.csv"
        argv = ["bench", "--graph", str(gr), "--queries", "5",
                "--landmarks", "2"]
        assert run(capsys, *argv, "--out", str(fresh))[0] == 0
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(
            target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert run(capsys, *argv, "--out", str(fifo))[0] == 0
        reader.join(timeout=60)
        assert got == [fresh.read_bytes()]

    @pytest.mark.parametrize("existed", [False, True])
    def test_failed_run_removes_only_a_file_it_made(self, tmp_path, capsys,
                                                    existed):
        gr = tmp_path / "g.gr"
        run(capsys, "gen", "--grid", "4x4", "--out", str(gr))
        rpt = tmp_path / "out.csv"
        if existed:  # as /dev/stdout would be
            rpt.write_text("old\n")
        code, out, err = run(capsys, "bench", "--graph", str(gr),
                             "--queries", "5", "--landmarks", "2",
                             "--out", str(rpt), "--methods", "dijkstra,bogus")
        assert (code, out) == (1, "")
        assert err.startswith("error: unknown method 'bogus'")
        assert rpt.exists() == existed
        if existed:
            assert rpt.read_text() == "old\n"


class TestTopLevel:
    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_mode_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--mode", "fast", "--graph", str(tmp_path / "g.gr"),
                  "--out", str(tmp_path / "r.csv")])
        assert exc.value.code == 2
        assert "argument --mode: invalid choice: 'fast'" in capsys.readouterr().err

    def test_verify_takes_no_seed(self, tmp_path, capsys):
        # verify draws nothing at random, so a --seed there is a mistake
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", "1", "--graph", str(tmp_path / "g.gr"),
                  "--report", str(tmp_path / "r.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bench", "--format", "json", "--out", "r.json"],
        ["verify", "--format", "csv", "--report", "r.json"],
    ], ids=["bench", "verify"])
    def test_report_commands_take_no_format(self, tmp_path, capsys, argv):
        # the report's file name sets its format
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--graph", str(tmp_path / "g.gr")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err

    def test_csv_named_json_is_clean_error(self, tmp_path, capsys):
        gr = tmp_path / "g.gr"
        run(capsys, "gen", "--path", "3", "--out", str(gr))
        csv_rpt, bad = tmp_path / "r.csv", tmp_path / "r.json"
        run(capsys, "bench", "--graph", str(gr), "--queries", "2",
            "--landmarks", "1", "--out", str(csv_rpt))
        bad.write_bytes(csv_rpt.read_bytes())
        code, out, err = run(capsys, "verify", "--graph", str(gr),
                             "--report", str(bad))
        assert (code, out) == (1, "")
        assert err == ("error: malformed JSON report: "
                       "Expecting value: line 1 column 1 (char 0)\n")

    def test_unreadable_report_is_clean_error(self, tmp_path, capsys):
        gr = tmp_path / "g.gr"
        run(capsys, "gen", "--path", "3", "--out", str(gr))
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,report\n1,2,3\n")
        code, _, err = run(capsys, "verify", "--graph", str(gr),
                           "--report", str(bad))
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("name", ["deep.json", "wide.csv"])
    def test_malformed_report_is_clean_error(self, tmp_path, capsys, name):
        gr = tmp_path / "g.gr"
        run(capsys, "gen", "--path", "3", "--out", str(gr))
        bad = tmp_path / name
        bad.write_text({"deep.json": "[" * 100_000,
                        "wide.csv": "x" * 131_073 + "\n"}[name])
        code, out, err = run(capsys, "verify", "--graph", str(gr),
                             "--report", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1
