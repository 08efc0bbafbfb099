import csv
import gc
import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cliquecomm.cli as cli
from cliquecomm import baselines, caa, metrics
from cliquecomm.cli import main
from cliquecomm.errors import DeadlineExceededError
from cliquecomm.graph import (
    build_graph,
    load_cover,
    load_edge_list,
    planted_partition,
    save_cover,
    save_edge_list,
)

from conftest import complete_graph


@pytest.fixture
def small_graph_file(tmp_path):
    g = planted_partition(3, 15, 0.7, 0.03, 4)
    f = tmp_path / "graph.tsv"
    save_edge_list(g, f)
    return f


def run(args):
    return main([str(a) for a in args])


class TestMutualize:
    def test_valid_input(self, tmp_path):
        src = tmp_path / "directed.tsv"
        src.write_text("a\tb\nb\ta\na\tc\n")
        assert run(["mutualize", src, "--output-dir", tmp_path]) == 0
        out = tmp_path / "mutual_edges.tsv"
        assert out.read_text() == "a\tb\n"
        manifest = json.loads((tmp_path / "manifest_mutualize.json").read_text())
        assert manifest["nodes"] == 2 and manifest["edges"] == 1

    def test_missing_input_exit_2(self, tmp_path, capsys):
        assert run(["mutualize", tmp_path / "nope.tsv", "--output-dir", tmp_path]) == 2
        assert "nope.tsv" in capsys.readouterr().err

    def test_malformed_input_exit_2(self, tmp_path):
        src = tmp_path / "bad.tsv"
        src.write_text("justonefield\n")
        assert run(["mutualize", src, "--output-dir", tmp_path]) == 2


class TestGenerate:
    def test_writes_edge_list(self, tmp_path):
        assert run([
            "generate", "--blocks", 2, "--block-size", 5,
            "--p-in", 1.0, "--p-out", 0.0,
            "--seed", 3, "--output-dir", tmp_path,
        ]) == 0
        g = load_edge_list(tmp_path / "planted_edges.tsv")
        assert g.n == 10 and g.m == 20

    # SHA-256 of planted_edges.tsv as the block-major generator wrote it,
    # with each line turned smaller id first and the lines re-sorted: the
    # edge set is unchanged, and every line is now written in id order.
    @pytest.mark.parametrize("blocks, p_out, seed, digest", [
        (12, 0.05, 3,
         "a763d4f59e1c66a6f8af15261cde720506c12e1d744ededcdac6a38f60872ce5"),
        (4, 0.1, 1,
         "9bffe8c1be210449f0d0885b218e3f06070f173ca4fb9faf845e587e579ccf0c"),
    ])
    def test_output_digest(self, tmp_path, blocks, p_out, seed, digest):
        assert run([
            "generate", "--blocks", blocks, "--block-size", 5,
            "--p-in", 0.6, "--p-out", p_out, "--seed", seed, "--output-dir", tmp_path,
        ]) == 0
        data = (tmp_path / "planted_edges.tsv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_bad_probability_exit_1(self, tmp_path):
        assert run([
            "generate", "--blocks", 2, "--block-size", 5,
            "--p-in", 0.1, "--p-out", 0.9, "--output-dir", tmp_path,
        ]) == 1

    def test_numpy_imported_only_by_generate(self):
        # Every other command skips numpy's import time and memory.
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = "import json, sys, cliquecomm, cliquecomm.cli; print(json.dumps(list(sys.modules)))"
        out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                             text=True, env=dict(os.environ, PYTHONPATH=src))
        modules = json.loads(out.stdout)
        assert "cliquecomm.cli" in modules and "numpy" not in modules


class TestDetectors:
    def test_caa_matches_library(self, small_graph_file, tmp_path):
        assert run([
            "caa", small_graph_file,
            "--growing-threshold", 0.7, "--overlapping-threshold", 0,
            "--output-dir", tmp_path,
        ]) == 0
        g = load_edge_list(small_graph_file)
        expected = caa.run_caa(g, caa.CaaParams())
        assert load_cover(g, tmp_path / "caa_cover.txt") == expected

    def test_cpm_two_triangles(self, tmp_path):
        src = tmp_path / "g.tsv"
        src.write_text("a\tb\na\tc\nb\tc\nb\td\nc\td\n")
        assert run(["cpm", src, "--k", 3, "--output-dir", tmp_path]) == 0
        assert (tmp_path / "cpm_cover.txt").read_text() == "a b c d\n"

    def test_lp_matches_library(self, small_graph_file, tmp_path):
        assert run(["lp", small_graph_file, "--seed", 5, "--output-dir", tmp_path]) == 0
        g = load_edge_list(small_graph_file)
        expected = baselines.label_propagation(g, baselines.LpParams(rng_seed=5))
        assert load_cover(g, tmp_path / "lp_cover.txt") == expected

    def test_repeat_runs_byte_identical(self, small_graph_file, tmp_path):
        outputs = []
        for name in ("r1", "r2"):
            outdir = tmp_path / name
            assert run(["caa", small_graph_file, "--seed", 0, "--output-dir", outdir]) == 0
            outputs.append((outdir / "caa_cover.txt").read_bytes())
        assert outputs[0] == outputs[1]

    def test_threads_byte_identical(self, small_graph_file, tmp_path):
        outputs = []
        for threads in (1, 8):
            outdir = tmp_path / f"t{threads}"
            assert run([
                "caa", small_graph_file, "--threads", threads, "--output-dir", outdir,
            ]) == 0
            outputs.append((outdir / "caa_cover.txt").read_bytes())
        assert outputs[0] == outputs[1]

    def test_outputs_independent_of_hash_seed(self, tmp_path):
        g = planted_partition(10, 12, 0.6, 0.02, 1)
        graph_file = tmp_path / "graph.tsv"
        save_edge_list(g, graph_file)
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for hash_seed in ("0", "1"):
            outdir = tmp_path / f"hash{hash_seed}"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            for argv in (
                ["caa", graph_file, "--overlapping-threshold", "0.5"],
                ["metrics", graph_file, outdir / "caa_cover.txt"],
            ):
                subprocess.run(
                    [sys.executable, "-m", "cliquecomm.cli", *map(str, argv),
                     "--output-dir", str(outdir)],
                    env=env, check=True, capture_output=True,
                )
            outputs.append({
                p.name: p.read_bytes()
                for p in sorted(outdir.iterdir())
                if not p.name.startswith("manifest_")
            })
        assert sorted(outputs[0]) == ["caa_cover.txt", "metrics.csv", "metrics.json"]
        assert outputs[0] == outputs[1]

    def test_id_with_space_exit_2(self, tmp_path, capsys):
        # In a cover file the community {a b, c, d} would read back as
        # {a, b, c, d}, so the id "a b" is refused where it is read.
        f = tmp_path / "g.tsv"
        f.write_text("a b\tc\nc\td\nd\ta b\na\tx\nb\tx\n")
        assert run(["caa", f, "--output-dir", tmp_path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {f}:1: node id 'a b' ")
        assert not (tmp_path / "caa_cover.txt").exists()

    def test_resource_cap_exit_3(self, small_graph_file, tmp_path):
        assert run([
            "caa", small_graph_file, "--max-cliques", 1, "--output-dir", tmp_path,
        ]) == 3

    @pytest.mark.parametrize("cap", [0, -3])
    def test_non_positive_clique_cap_exit_1(self, cap, small_graph_file, tmp_path, capsys):
        assert run([
            "caa", small_graph_file, "--max-cliques", cap, "--output-dir", tmp_path,
        ]) == 1
        assert "--max-cliques" in capsys.readouterr().err
        assert not (tmp_path / "caa_cover.txt").exists()

    def test_timeout_exit_3(self, tmp_path):
        g = planted_partition(8, 40, 0.5, 0.02, 1)
        f = tmp_path / "big.tsv"
        save_edge_list(g, f)
        assert run([
            "caa", f, "--timeout-secs", 0.0, "--output-dir", tmp_path,
        ]) == 3


class TestMetricsCommand:
    def test_reports_match_library(self, small_graph_file, tmp_path):
        g = load_edge_list(small_graph_file)
        cover = caa.run_caa(g, caa.CaaParams())
        cover_file = tmp_path / "mycover.txt"
        save_cover(g, cover, cover_file)
        assert run([
            "metrics", small_graph_file, cover_file, "--output-dir", tmp_path,
        ]) == 0
        report = json.loads((tmp_path / "metrics.json").read_text())
        expected = vars(metrics.evaluate(g, cover))
        assert report["mycover"] == json.loads(json.dumps(expected))

    def test_two_covers_two_label_groups(self, small_graph_file, tmp_path):
        g = load_edge_list(small_graph_file)
        for name, cover in (
            ("caa", caa.run_caa(g)),
            ("lp", baselines.label_propagation(g)),
        ):
            save_cover(g, cover, tmp_path / f"{name}.txt")
        assert run([
            "metrics", small_graph_file, tmp_path / "caa.txt", tmp_path / "lp.txt",
            "--output-dir", tmp_path,
        ]) == 0
        with open(tmp_path / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        labels = {r["algorithm_label"] for r in rows}
        assert labels == {"caa", "lp"}
        assert {r["band"] for r in rows} == {"1-3", "4-9", "10-150", "151+"}

    def test_custom_bands(self, small_graph_file, tmp_path):
        g = load_edge_list(small_graph_file)
        save_cover(g, caa.run_caa(g), tmp_path / "c.txt")
        assert run([
            "metrics", small_graph_file, tmp_path / "c.txt", "--bands", "1-4,5+",
            "--output-dir", tmp_path,
        ]) == 0
        with open(tmp_path / "metrics.csv") as fh:
            assert {r["band"] for r in csv.DictReader(fh)} == {"1-4", "5+"}

    def test_shared_label_exit_1(self, small_graph_file, tmp_path, monkeypatch, capsys):
        g = load_edge_list(small_graph_file)
        covers = [tmp_path / run_dir / "caa_cover.txt" for run_dir in ("a", "b")]
        for path, threshold in zip(covers, (0.5, 0.9)):
            path.parent.mkdir()
            save_cover(g, caa.run_caa(g, caa.CaaParams(growing_threshold=threshold)), path)
        evaluated = []
        monkeypatch.setattr(metrics, "evaluate", lambda *a, **kw: evaluated.append(a))
        assert run(["metrics", small_graph_file, *covers, "--output-dir", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(covers[0]) in err and str(covers[1]) in err and "'caa_cover'" in err
        assert evaluated == []
        assert not (tmp_path / "metrics.json").exists()

    def test_malformed_band_named_exit_1(self, small_graph_file, tmp_path, capsys):
        g = load_edge_list(small_graph_file)
        save_cover(g, caa.run_caa(g), tmp_path / "c.txt")
        assert run([
            "metrics", small_graph_file, tmp_path / "c.txt", "--bands", "1-3-5,6+",
            "--output-dir", tmp_path,
        ]) == 1
        assert "'1-3-5'" in capsys.readouterr().err

    def test_band_ending_below_start_exit_1(self, small_graph_file, tmp_path, capsys):
        g = load_edge_list(small_graph_file)
        save_cover(g, caa.run_caa(g), tmp_path / "c.txt")
        assert run([
            "metrics", small_graph_file, tmp_path / "c.txt", "--bands", "1-3,4-2,3+",
            "--output-dir", tmp_path,
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "4-2" in err
        assert not (tmp_path / "metrics.csv").exists()

    def test_unknown_cover_id_exit_2(self, small_graph_file, tmp_path):
        bad = tmp_path / "bad_cover.txt"
        bad.write_text("nosuchnode\n")
        assert run([
            "metrics", small_graph_file, bad, "--output-dir", tmp_path,
        ]) == 2

    def test_usage_error_exit_1(self, capsys):
        assert run(["metrics"]) == 1

    def test_edgeless_graph_exit_2(self, tmp_path, capsys):
        graph = tmp_path / "loops.tsv"
        graph.write_text("a\ta\nb\tb\n")  # self-loops only: two nodes, no edge
        cover = tmp_path / "cover.txt"
        cover.write_text("a b\n")
        assert run(["metrics", graph, cover, "--output-dir", tmp_path]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "manifest_metrics.json").exists()


class TestSweep:
    def test_growing_sweep_shape(self, small_graph_file, tmp_path):
        assert run([
            "sweep", small_graph_file, "--sweep", "growing",
            "--grid", "0.5,0.7,0.9", "--output-dir", tmp_path,
        ]) == 0
        with open(tmp_path / "sweep_growing.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 4  # three grid values, four bands
        assert {r["growing_threshold"] for r in rows} == {"0.5", "0.7", "0.9"}

    def test_overlapping_sweep_monotone(self, small_graph_file, tmp_path):
        grid = ",".join(str(i / 10) for i in range(11))
        assert run([
            "sweep", small_graph_file, "--sweep", "overlapping",
            "--grid", grid, "--min-clique-size", 4, "--output-dir", tmp_path,
        ]) == 0
        with open(tmp_path / "sweep_overlapping.csv") as fh:
            counts = [int(r["kept_cliques"]) for r in csv.DictReader(fh)]
        assert len(counts) == 11
        assert counts == sorted(counts)

    def test_growing_sweep_enumerates_once(self, small_graph_file, tmp_path, monkeypatch):
        import cliquecomm.cli as cli
        calls = []
        real = cli.enumerate_maximal_cliques
        monkeypatch.setattr(cli, "enumerate_maximal_cliques",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        assert run([
            "sweep", small_graph_file, "--sweep", "growing",
            "--grid", "0.5,0.7,0.9", "--output-dir", tmp_path,
        ]) == 0
        assert len(calls) == 1

    def test_growing_sweep_matches_run_caa(self, small_graph_file, tmp_path):
        grid = (0.5, 0.7, 0.9, 1.0)
        assert run([
            "sweep", small_graph_file, "--sweep", "growing",
            "--grid", ",".join(map(str, grid)), "--output-dir", tmp_path,
        ]) == 0
        with open(tmp_path / "sweep_growing.csv") as fh:
            rows = list(csv.DictReader(fh))
        g = load_edge_list(small_graph_file)
        for value in grid:
            counts, _ = metrics.size_histogram(
                caa.run_caa(g, caa.CaaParams(growing_threshold=value)))
            got = {r["band"]: int(r["count"])
                   for r in rows if float(r["growing_threshold"]) == value}
            assert got == counts

    def test_bad_grid_value_exit_1_without_output(self, small_graph_file, tmp_path):
        assert run([
            "sweep", small_graph_file, "--sweep", "growing",
            "--grid", "0.5,1.5", "--output-dir", tmp_path,
        ]) == 1
        assert not (tmp_path / "sweep_growing.csv").exists()

    @pytest.mark.parametrize("sweep", ["growing", "overlapping"])
    @pytest.mark.parametrize("grid", ["", ",", " , "])
    def test_empty_grid_exit_1(self, sweep, grid, small_graph_file, tmp_path):
        assert run([
            "sweep", small_graph_file, "--sweep", sweep, "--grid", grid,
            "--output-dir", tmp_path,
        ]) == 1
        assert not (tmp_path / f"sweep_{sweep}.csv").exists()

    def test_single_point_grid(self, small_graph_file, tmp_path):
        assert run([
            "sweep", small_graph_file, "--sweep", "growing", "--grid", "0.7",
            "--output-dir", tmp_path,
        ]) == 0
        with open(tmp_path / "sweep_growing.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 4


class TestHashtagReport:
    def test_end_to_end(self, tmp_path, data_dir):
        edges = [("u1", "u2"), ("u1", "u3"), ("u2", "u3")]
        graph_file = tmp_path / "g.tsv"
        graph_file.write_text("".join(f"{a}\t{b}\n" for a, b in edges))
        cover_file = tmp_path / "cover.txt"
        cover_file.write_text("u1 u2 u3\n")
        assert run([
            "hashtag-report", graph_file, cover_file,
            data_dir / "user_tags_sample.tsv",
            "--size-lo", 1, "--size-hi", 150, "--output-dir", tmp_path,
        ]) == 0
        report = json.loads((tmp_path / "hashtag_report.json").read_text())
        assert len(report) == 1
        assert report[0]["size"] == 3
        assert report[0]["members_missing_data"] == 1  # u3 has no tags
        assert report[0]["top_tags"][0] == ["gopdebate", 166]
        digest = (tmp_path / "hashtag_report.txt").read_text()
        assert "#gopdebate 166" in digest


    # --size-lo 100 leaves no community to theme, so no per-community check runs.
    @pytest.mark.parametrize("size_lo", [1, 100])
    @pytest.mark.parametrize("flag, value", [
        ("--community-top-k", -2), ("--community-top-k", 0), ("--user-top-k", 0),
    ])
    def test_non_positive_top_k_exit_1(self, flag, value, size_lo, tmp_path, data_dir):
        graph_file = tmp_path / "g.tsv"
        graph_file.write_text("u1\tu2\nu1\tu3\nu2\tu3\n")
        cover_file = tmp_path / "cover.txt"
        cover_file.write_text("u1 u2 u3\n")
        assert run([
            "hashtag-report", graph_file, cover_file, data_dir / "user_tags_sample.tsv",
            "--size-lo", size_lo, flag, value, "--output-dir", tmp_path,
        ]) == 1
        assert not (tmp_path / "hashtag_report.json").exists()

    def test_inverted_size_range_exit_1(self, tmp_path, capsys):
        # The inputs do not exist: reading any of them would exit 2.
        missing = [tmp_path / name for name in ("g.tsv", "cover.txt", "tags.tsv")]
        assert run(["hashtag-report", *missing, "--size-lo", 50, "--size-hi", 10,
                    "--output-dir", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "[50, 10]" in err

    @pytest.mark.parametrize("flag", ["--count", "--user-top-k", "--community-top-k"])
    def test_sizes_checked_before_any_file_is_read(self, flag, tmp_path, capsys):
        # The inputs do not exist: reading any of them would exit 2.
        missing = [tmp_path / name for name in ("g.tsv", "cover.txt", "tags.tsv")]
        assert run(["hashtag-report", *missing, flag, 0, "--output-dir", tmp_path]) == 1
        assert flag in capsys.readouterr().err


class TestExitCodes:
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_output_dir_blocked_by_file_exit_1(self, below, small_graph_file, tmp_path,
                                               capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        outdir = blocker / below if below else blocker
        assert run(["caa", small_graph_file, "--output-dir", outdir]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and str(outdir) in err
        assert blocker.read_text() == ""

    def test_input_below_a_file_exit_2(self, small_graph_file, tmp_path, capsys):
        missing = small_graph_file / "sub.tsv"
        assert run(["caa", missing, "--output-dir", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and str(missing) in err

    # Each reader meets the bytes of an invalid UTF-8 sequence on line 2.
    @pytest.mark.parametrize("bad", ["graph", "cover", "tags"])
    def test_invalid_utf8_input_exit_2(self, bad, tmp_path, capsys, data_dir):
        files = {"graph": tmp_path / "g.tsv", "cover": tmp_path / "cover.txt",
                 "tags": tmp_path / "tags.tsv"}
        files["graph"].write_text("u1\tu2\nu1\tu3\nu2\tu3\n")
        files["cover"].write_text("u1 u2 u3\n")
        files["tags"].write_bytes((data_dir / "user_tags_sample.tsv").read_bytes())
        files[bad].write_bytes(files[bad].read_bytes().replace(b"\n", b"\n\xff\xfe", 1))
        argv = {
            "graph": ["caa", files["graph"]],
            "cover": ["metrics", files["graph"], files["cover"]],
            "tags": ["hashtag-report", *files.values(), "--size-lo", 1],
        }[bad]
        assert run([*argv, "--output-dir", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and f"{files[bad]}: not UTF-8" in err

    # argv that exits 0, 1 (usage), 2 (missing input) and 3 (a spent budget).
    @pytest.mark.parametrize("code, argv", [
        (0, ["caa", "{graph}"]),
        (1, ["metrics"]),
        (2, ["caa", "{missing}"]),
        (3, ["caa", "{graph}", "--timeout-secs", "0"]),
    ])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_state_restored(self, enabled, code, argv, small_graph_file, tmp_path):
        paths = {"graph": small_graph_file, "missing": tmp_path / "nope.tsv"}
        argv = [a.format(**paths) for a in argv] + ["--output-dir", str(tmp_path)]
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert run(argv) == code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_memory_error_exit_3(self, small_graph_file, tmp_path, monkeypatch, capsys):
        def out_of_memory(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr("cliquecomm.cli.load_edge_list", out_of_memory)
        assert run(["caa", small_graph_file, "--output-dir", tmp_path]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "manifest_caa.json").exists()

    def test_deep_clique_exit_0(self, tmp_path):
        # K_1100 is deeper than the default recursion limit of 1000; the
        # enumeration keeps its own stack, so caa finds the one clique.
        g = complete_graph(1100)
        f = tmp_path / "k1100.tsv"
        save_edge_list(g, f)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            code = run(["caa", f, "--output-dir", tmp_path])
        finally:
            sys.setrecursionlimit(limit)
        assert code == 0
        assert load_cover(g, tmp_path / "caa_cover.txt") == [frozenset(range(1100))]


class TestTimeout:
    """--timeout-secs is one timer over the whole run of every subcommand."""

    @pytest.mark.parametrize("argv", [
        ["mutualize", "{graph}"],
        ["generate", "--blocks", "2", "--block-size", "5", "--p-in", "0.5", "--p-out", "0"],
        ["caa", "{graph}"],
        ["lp", "{graph}"],
        ["cpm", "{graph}", "--k", "3"],
        ["metrics", "{graph}", "{cover}"],
        ["sweep", "{graph}", "--sweep", "growing", "--grid", "0.7"],
        ["sweep", "{graph}", "--sweep", "overlapping", "--grid", "0.5",
         "--min-clique-size", "3"],
        ["hashtag-report", "{graph}", "{cover}", "{tags}"],
    ], ids=["mutualize", "generate", "caa", "lp", "cpm", "metrics", "sweep-growing",
            "sweep-overlapping", "hashtag-report"])
    def test_slow_first_call_exit_3(self, argv, small_graph_file, tmp_path, data_dir,
                                    monkeypatch, capsys):
        g = load_edge_list(small_graph_file)
        save_cover(g, caa.run_caa(g), tmp_path / "cover.txt")
        paths = {"graph": small_graph_file, "cover": tmp_path / "cover.txt",
                 "tags": data_dir / "user_tags_sample.tsv"}
        first = "planted_partition" if argv[0] == "generate" else "load_edge_list"
        real = getattr(cli, first)

        def slow(*args, **kwargs):
            time.sleep(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, first, slow)
        handler = signal.getsignal(signal.SIGALRM)
        outdir = tmp_path / "out"
        started = time.monotonic()
        assert run([*(a.format(**paths) for a in argv),
                    "--timeout-secs", 0.1, "--output-dir", outdir]) == 3
        assert time.monotonic() - started < 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(outdir.glob("manifest_*"))
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is handler

    def test_dense_core_exit_3(self, tmp_path):
        # K36 minus a perfect matching: 2**18 maximal cliques of 18 nodes.
        ids = [f"v{i:02d}" for i in range(36)]
        f = tmp_path / "cocktail.tsv"
        save_edge_list(build_graph(
            (ids[i], ids[j]) for i in range(36) for j in range(i + 1, 36) if j != i + 18
        ), f)
        started = time.monotonic()
        assert run(["caa", f, "--timeout-secs", 0.2, "--output-dir", tmp_path]) == 3
        assert time.monotonic() - started < 2

    def test_lost_alarm_fires_again(self, small_graph_file, tmp_path, monkeypatch,
                                    capsys):
        # The first raise is swallowed where it lands, as one inside a gc
        # callback is; the alarm fires again and the run still exits 3.
        real = cli.load_edge_list
        swallowed = []

        def swallow_first(*args, **kwargs):
            try:
                time.sleep(1)
            except DeadlineExceededError as exc:
                swallowed.append(exc)
            time.sleep(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "load_edge_list", swallow_first)
        handler = signal.getsignal(signal.SIGALRM)
        started = time.monotonic()
        assert run(["caa", small_graph_file, "--timeout-secs", 0.1,
                    "--output-dir", tmp_path]) == 3
        assert time.monotonic() - started < 1
        assert len(swallowed) == 1
        assert capsys.readouterr().err.startswith("error: wall-clock budget of 0.1 s")
        assert not list(tmp_path.glob("manifest_*"))
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is handler

    def test_cpm_blowup_exit_3(self, tmp_path):
        # K120 at k = 6: one maximal clique, C(120, 5) subsets to index. A
        # child process under a 1 GiB address-space cap, so that a lost alarm
        # ends in MemoryError rather than in tens of GiB.
        f = tmp_path / "k120.tsv"
        save_edge_list(complete_graph(120), f)
        outdir = tmp_path / "out"
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run(
            [sys.executable, "-m", "cliquecomm.cli", "cpm", str(f), "--k", "6",
             "--timeout-secs", "0.2", "--output-dir", str(outdir)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
            timeout=300,
        )
        assert done.returncode == 3
        assert done.stderr.startswith("error: wall-clock budget")
        assert not list(outdir.glob("manifest_*"))

    def test_disarmed_after_success(self, small_graph_file, tmp_path):
        def before(signum, frame):
            pass

        previous = signal.signal(signal.SIGALRM, before)
        try:
            assert run([
                "lp", small_graph_file, "--timeout-secs", 60, "--output-dir", tmp_path,
            ]) == 0
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
            assert signal.getsignal(signal.SIGALRM) is before
        finally:
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("budget", ["nan", "inf", "1e12"])
    def test_unarmable_budget_exit_1(self, budget, small_graph_file, tmp_path, capsys):
        assert run([
            "lp", small_graph_file, "--timeout-secs", budget, "--output-dir", tmp_path,
        ]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.glob("manifest_*"))


class TestManifests:
    @pytest.mark.parametrize("argv", [["caa"], ["lp"], ["cpm", "--k", "3"]])
    def test_detector_manifest(self, small_graph_file, tmp_path, argv):
        command = argv[0]
        assert run([*argv, small_graph_file, "--output-dir", tmp_path]) == 0
        manifest = json.loads((tmp_path / f"manifest_{command}.json").read_text())
        cover_file = tmp_path / f"{command}_cover.txt"
        assert manifest["subcommand"] == command
        assert manifest["outputs"] == [str(cover_file)]
        lines = cover_file.read_text().splitlines()
        assert manifest["community_count"] == len(lines) > 0
        caa_keys = {"seed_count", "rounds_histogram"}
        assert caa_keys & set(manifest) == (caa_keys if command == "caa" else set())
        if command == "caa":
            assert sum(manifest["rounds_histogram"].values()) == manifest["seed_count"]
        assert not {"func", "detector"} & set(manifest["params"])

    def test_every_run_writes_one(self, small_graph_file, tmp_path):
        assert run(["lp", small_graph_file, "--output-dir", tmp_path]) == 0
        manifest = json.loads((tmp_path / "manifest_lp.json").read_text())
        assert manifest["subcommand"] == "lp"
        assert str(small_graph_file) in manifest["inputs"]
        assert manifest["outputs"] == [str(tmp_path / "lp_cover.txt")]
        assert "duration_secs" in manifest
        assert manifest["params"]["seed"] == 0
