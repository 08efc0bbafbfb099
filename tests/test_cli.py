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
from collections import Counter
from pathlib import Path

import pytest

import cliquecomm.cli as cli
from cliquecomm import __version__, baselines, caa, hashtags, metrics
from cliquecomm.cli import main
from cliquecomm.cliques import enumerate_maximal_cliques, filter_overlapping
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


@pytest.fixture
def command_paths(small_graph_file, tmp_path, data_dir):
    """The input paths of EVERY_COMMAND's placeholders."""
    g = load_edge_list(small_graph_file)
    save_cover(g, caa.run_caa(g), tmp_path / "cover.txt")
    return {"graph": small_graph_file, "cover": tmp_path / "cover.txt",
            "tags": data_dir / "user_tags_sample.tsv"}


# One argv per subcommand, and one per sweep, over command_paths' placeholders.
EVERY_COMMAND = [
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
]
EVERY_COMMAND_IDS = ["mutualize", "generate", "caa", "lp", "cpm", "metrics", "sweep-growing",
                     "sweep-overlapping", "hashtag-report"]


# (id, argv, message): a parameter error exits 1 before any input is read.
BAD_PARAMETERS = [
    ("caa-nan", ["caa", "--growing-threshold", "nan"],
     "growing_threshold must be in (0, 1], got nan"),
    ("caa-inf", ["caa", "--overlapping-threshold", "inf"],
     "overlapping_threshold must be in [0, 1], got inf"),
    ("caa-rounds", ["caa", "--max-rounds", "0"], "max_rounds must be >= 1, got 0"),
    ("lp", ["lp", "--max-iterations", "0"], "max_iterations must be >= 1, got 0"),
    ("cpm", ["cpm", "--k", "2"], "k must be >= 3, got 2"),
    ("sweep", ["sweep", "--sweep", "overlapping", "--grid", "0.5", "--min-clique-size", "0"],
     "min_clique_size must be >= 1, got 0"),
    ("sweep-grid", ["sweep", "--sweep", "growing", "--grid", "0.5,abc"],
     "--grid value 'abc' is not a number"),
    ("metrics-bands", ["metrics", "{cover}", "--bands", "x"],
     "malformed band 'x': expected LO-HI or LO+"),
    ("metrics-coverage", ["metrics", "{cover}", "--coverage-lo", "5", "--coverage-hi", "3"],
     "coverage range [5, 3] is empty: --coverage-lo is above --coverage-hi"),
]


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

    def test_negative_seed_named_exit_1(self, tmp_path, capsys):
        assert run([
            "generate", "--blocks", 2, "--block-size", 5,
            "--p-in", 0.5, "--p-out", 0.1, "--seed", -1, "--output-dir", tmp_path,
        ]) == 1
        assert capsys.readouterr().err == "error: rng_seed must be >= 0, got -1\n"

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
        assert load_cover(g.ids, tmp_path / "caa_cover.txt") == expected

    def test_cpm_two_triangles(self, tmp_path):
        src = tmp_path / "g.tsv"
        src.write_text("a\tb\na\tc\nb\tc\nb\td\nc\td\n")
        assert run(["cpm", src, "--k", 3, "--output-dir", tmp_path]) == 0
        assert (tmp_path / "cpm_cover.txt").read_text() == "a b c d\n"

    def test_lp_matches_library(self, small_graph_file, tmp_path):
        assert run(["lp", small_graph_file, "--seed", 5, "--output-dir", tmp_path]) == 0
        g = load_edge_list(small_graph_file)
        expected = baselines.label_propagation(g, baselines.LpParams(rng_seed=5))
        assert load_cover(g.ids, tmp_path / "lp_cover.txt") == expected

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

    def test_bad_growing_threshold_named_exit_1(self, small_graph_file, tmp_path, capsys):
        assert run(["caa", small_graph_file, "--growing-threshold", 0,
                    "--output-dir", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: growing_threshold must be in (0, 1], got 0.0")

    @pytest.mark.parametrize("argv, message, inputs", [
        pytest.param(argv, message, inputs,
                     id=name if inputs == "present" else f"{name}-{inputs}")
        for name, argv, message in BAD_PARAMETERS for inputs in ("present", "missing")
    ])
    def test_bad_parameter_named_exit_1(self, argv, message, inputs, command_paths, tmp_path,
                                        capsys):
        # Missing, the inputs would exit 2 if the run read them first.
        if inputs == "missing":
            command_paths = {k: tmp_path / f"missing_{k}" for k in command_paths}
        argv = [argv[0], command_paths["graph"], *(a.format(**command_paths) for a in argv[1:])]
        outdir = tmp_path / "out"
        assert run([*argv, "--output-dir", outdir]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(outdir.glob("manifest_*.json"))

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

    @pytest.mark.parametrize("sweep, floor", [("growing", 3), ("overlapping", 2)])
    def test_bad_grid_value_exit_1_before_enumerating(self, sweep, floor, small_graph_file,
                                                     tmp_path, monkeypatch, capsys):
        def enumerate_maximal_cliques(*args, **kwargs):
            raise AssertionError("enumerated before the grid was checked")
        monkeypatch.setattr(cli, "enumerate_maximal_cliques", enumerate_maximal_cliques)
        assert run([
            "sweep", small_graph_file, "--sweep", sweep, "--grid", "0,0.5,1.5",
            "--min-clique-size", floor, "--output-dir", tmp_path,
        ]) == 1
        assert capsys.readouterr().err.count("error:") == 1
        assert not (tmp_path / f"sweep_{sweep}.csv").exists()

    @pytest.mark.parametrize("sweep, grid, named", [
        ("growing", "0.5,0,0.7", "growing_threshold must be in (0, 1], got 0.0"),
        ("overlapping", "0,0.5,1.5", "overlapping_threshold must be in [0, 1], got 1.5"),
        ("overlapping", "0,nan", "overlapping_threshold must be in [0, 1], got nan"),
        ("growing", "0.5,abc", "--grid value 'abc' is not a number"),
        ("overlapping", "0.5,abc", "--grid value 'abc' is not a number"),
    ])
    def test_bad_grid_value_named_exit_1(self, sweep, grid, named, small_graph_file,
                                         tmp_path, capsys):
        assert run(["sweep", small_graph_file, "--sweep", sweep, "--grid", grid,
                    "--output-dir", tmp_path]) == 1
        assert capsys.readouterr().err == f"error: {named}\n"

    def test_overlapping_sweep_accepts_floor_below_3(self, small_graph_file, tmp_path):
        assert run([
            "sweep", small_graph_file, "--sweep", "overlapping", "--grid", "0,1",
            "--min-clique-size", 2, "--output-dir", tmp_path,
        ]) == 0
        with open(tmp_path / "sweep_overlapping.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 2

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

    @pytest.fixture
    def two_communities(self, tmp_path, data_dir):
        """A graph and cover whose triangle u1-u3 is the one community of
        size 3 or more, and a tag file that also holds u4's tags."""
        graph_file = tmp_path / "g.tsv"
        graph_file.write_text("u1\tu2\nu1\tu3\nu2\tu3\nu4\tu5\n")
        cover_file = tmp_path / "cover.txt"
        cover_file.write_text("u1 u2 u3\nu4 u5\n")
        tags_file = tmp_path / "tags.tsv"
        tags_file.write_text((data_dir / "user_tags_sample.tsv").read_text()
                             + "u4\t#Lonely\t9\n")
        return graph_file, cover_file, tags_file

    def test_reads_no_adjacency_and_themes_as_full_tables(self, two_communities, tmp_path,
                                                          monkeypatch):
        graph_file, cover_file, tags_file = two_communities
        # The report from the whole graph and the whole tag table.
        g = load_edge_list(graph_file)
        sample = hashtags.sample_communities(load_cover(g.ids, cover_file), 3, 150, 50, 0)
        table = hashtags.load_hashtags(tags_file)
        expected = cli._write_json(tmp_path / "expected.json", [
            vars(hashtags.community_theme(g.ids, c, table)) for c in sample])

        def no_adjacency(*args, **kwargs):
            raise AssertionError("hashtag-report built the graph")
        monkeypatch.setattr(cli, "load_edge_list", no_adjacency)
        outdir = tmp_path / "out"
        assert run(["hashtag-report", *two_communities, "--size-lo", 3,
                    "--output-dir", outdir]) == 0
        assert (outdir / "hashtag_report.json").read_bytes() == expected.read_bytes()
        assert (outdir / "hashtag_report.txt").read_text() == (
            "community of 3 users | top tags: #gopdebate 166, #tcot 104, #trump 82, "
            "#pjnet 77, #usarmy 74, #pray 51, #unbornlivesmatter 45, #catholic 26, "
            "#jesus 25, #trump2016 25, #chooselife 22, #brexit 19, #freedom 5\n"
            "  mean pairwise top-10 jaccard: 0.083; top-tag penetration: 0.500; "
            "members without data: 1\n")

    def test_bad_line_of_unsampled_user_exit_2(self, two_communities, tmp_path, capsys):
        graph_file, cover_file, tags_file = two_communities
        lines = tags_file.read_text().splitlines(keepends=True)
        lines.insert(3, "u4\t#x\tmany\n")  # u4's community is below --size-lo
        tags_file.write_text("".join(lines))
        assert run(["hashtag-report", *two_communities, "--size-lo", 3,
                    "--output-dir", tmp_path]) == 2
        assert capsys.readouterr().err == f"error: {tags_file}:4: bad count 'many'\n"
        assert not (tmp_path / "hashtag_report.json").exists()

    def test_bare_hash_tag_exit_2(self, two_communities, tmp_path, capsys):
        tags_file = two_communities[2]
        tags_file.write_text(tags_file.read_text() + "u1\t#\t3\n")
        assert run(["hashtag-report", *two_communities, "--output-dir", tmp_path]) == 2
        line = len(tags_file.read_text().splitlines())
        assert capsys.readouterr().err == f"error: {tags_file}:{line}: empty user or hashtag\n"
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

    # A symlink loop and a 300-character name raise OSErrors that are not
    # FileNotFoundError or a directory error.
    @pytest.mark.parametrize("below", ["loop", "loop/sub", "x" * 300],
                             ids=["loop", "below-loop", "long-name"])
    def test_unusable_output_dir_exit_1(self, below, small_graph_file, tmp_path, capsys):
        (tmp_path / "loop").symlink_to("loop")
        outdir = tmp_path / below
        assert run(["caa", small_graph_file, "--output-dir", outdir]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and str(outdir) in err

    @pytest.mark.parametrize("name", ["loop", "x" * 300], ids=["loop", "long-name"])
    @pytest.mark.parametrize("command", ["caa", "metrics", "hashtag-report"])
    def test_os_error_on_input_exit_2(self, command, name, tmp_path, capsys, data_dir):
        (tmp_path / "loop").symlink_to("loop")
        graph = tmp_path / "g.tsv"
        graph.write_text("u1\tu2\nu1\tu3\nu2\tu3\n")
        bad = tmp_path / name  # the graph for caa, the cover for the others
        argv = {
            "caa": ["caa", bad],
            "metrics": ["metrics", graph, bad],
            "hashtag-report": ["hashtag-report", graph, bad,
                               data_dir / "user_tags_sample.tsv", "--size-lo", 1],
        }[command]
        assert run([*argv, "--output-dir", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and str(bad) in err
        assert not list((tmp_path / "out").iterdir())

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

    def test_byte_order_mark_triangle_is_one_community(self, tmp_path):
        src = tmp_path / "g.tsv"
        src.write_bytes("\ufeffa\tb\nb\tc\nc\ta\n".encode())
        assert run(["caa", src, "--output-dir", tmp_path]) == 0
        assert (tmp_path / "caa_cover.txt").read_text(encoding="utf-8") == "a b c\n"

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
        assert load_cover(g.ids, tmp_path / "caa_cover.txt") == [frozenset(range(1100))]


class TestTimeout:
    """--timeout-secs is one timer over the whole run of every subcommand."""

    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=EVERY_COMMAND_IDS)
    def test_slow_first_call_exit_3(self, argv, command_paths, tmp_path, monkeypatch,
                                    capsys):
        first = {"generate": "planted_partition",
                 "hashtag-report": "load_node_ids"}.get(argv[0], "load_edge_list")
        real = getattr(cli, first)

        def slow(*args, **kwargs):
            time.sleep(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, first, slow)
        handler = signal.getsignal(signal.SIGALRM)
        outdir = tmp_path / "out"
        started = time.monotonic()
        assert run([*(a.format(**command_paths) for a in argv),
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

    def test_cpm_one_large_clique_exit_0(self, tmp_path):
        # K120 at k = 6: one maximal clique, so one community of all 120 ids,
        # whose C(120, 5) 5-subsets are never listed. A child process under a
        # 1 GiB address-space cap and a timer, so that a blow-up fails there.
        g = complete_graph(120)
        f = tmp_path / "k120.tsv"
        save_edge_list(g, f)
        outdir = tmp_path / "out"
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run(
            [sys.executable, "-m", "cliquecomm.cli", "cpm", str(f), "--k", "6",
             "--timeout-secs", "10", "--output-dir", str(outdir)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        lines = (outdir / "cpm_cover.txt").read_text().splitlines()
        assert [sorted(line.split()) for line in lines] == [sorted(g.ids)]

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

    def test_max_rounds_caps_growth(self, small_graph_file, tmp_path):
        g = load_edge_list(small_graph_file)
        rounds = []
        default = caa.run_caa(g, rounds=rounds)
        assert max(rounds) >= 2
        assert run(["caa", small_graph_file, "--max-rounds", 1, "--output-dir", tmp_path]) == 0
        capped = load_cover(g.ids, tmp_path / "caa_cover.txt")
        assert capped == caa.run_caa(g, caa.CaaParams(max_rounds=1))
        assert capped != default
        manifest = json.loads((tmp_path / "manifest_caa.json").read_text())
        assert manifest["params"]["max_rounds"] == 1
        assert max(map(int, manifest["rounds_histogram"])) <= 1

    def test_rounds_histogram_counts_run_caa_rounds(self, small_graph_file, tmp_path):
        g = load_edge_list(small_graph_file)
        seeds = filter_overlapping(enumerate_maximal_cliques(g, 3), 0).cliques
        rounds = []
        caa.run_caa(g, rounds=rounds)
        # one count per kept seed, in seed order
        assert rounds == [caa.grow_community_with_rounds(g, s, 0.7)[1] for s in seeds]
        assert max(rounds) >= 1
        assert run(["caa", small_graph_file, "--output-dir", tmp_path]) == 0
        manifest = json.loads((tmp_path / "manifest_caa.json").read_text())
        assert manifest["seed_count"] == len(rounds)
        assert Counter(rounds) == {int(k): v for k, v in manifest["rounds_histogram"].items()}

    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=EVERY_COMMAND_IDS)
    def test_version_and_peak_rss(self, argv, command_paths, tmp_path):
        outdir = tmp_path / "out"
        assert run([*(a.format(**command_paths) for a in argv), "--output-dir", outdir]) == 0
        manifest = json.loads(
            (outdir / f"manifest_{argv[0].replace('-', '_')}.json").read_text())
        assert manifest["version"] == __version__
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        assert 0 < manifest["peak_rss_mib"] <= round(peak, 1)

    def test_every_run_writes_one(self, small_graph_file, tmp_path):
        assert run(["lp", small_graph_file, "--output-dir", tmp_path]) == 0
        manifest = json.loads((tmp_path / "manifest_lp.json").read_text())
        assert manifest["subcommand"] == "lp"
        assert str(small_graph_file) in manifest["inputs"]
        assert manifest["outputs"] == [str(tmp_path / "lp_cover.txt")]
        assert "duration_secs" in manifest
        assert manifest["params"]["seed"] == 0
