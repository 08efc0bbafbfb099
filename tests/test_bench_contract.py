"""The names and result attributes that the benchmark's tracer binds to.

bench/tracer.py wraps each function of its SPANS table by name and reads
counters from the wrapped calls' results. A renamed function or attribute
does not fail a traced run: that layer's metric is just missing from it.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cliquecomm.caa import grow_community_with_rounds, run_caa
from cliquecomm.cliques import enumerate_maximal_cliques, filter_overlapping
from cliquecomm.graph import load_edge_list

from conftest import two_k5

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
BENCHMARK = ROOT / "BENCHMARK.json"


@pytest.fixture(scope="module")
def tracer():
    if not TRACER.is_file():
        pytest.skip("bench/tracer.py is absent")
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_is_a_function_of_its_module(tracer):
    missing = [
        f"{mod_name}.{func}"
        for mod_name, funcs in tracer.SPANS.items()
        for func in funcs
        if not callable(getattr(importlib.import_module(f"cliquecomm.{mod_name}"), func, None))
    ]
    assert missing == []


def test_observed_results_have_the_read_attributes(tracer, tmp_path):
    g = two_k5()
    cliques = enumerate_maximal_cliques(g, 3)
    assert isinstance(cliques.cliques, list)
    assert isinstance(filter_overlapping(cliques, 0.5).cliques, list)

    f = tmp_path / "d.tsv"
    f.write_text("# note\na\tb\nb\ta\na\tb\n")
    edges = load_edge_list(f, directed=True).edges
    assert isinstance(edges, list) and len(edges) == 3  # one per edge line

    assert isinstance(run_caa(g), list)
    community, rounds = grow_community_with_rounds(g, cliques.cliques[0], 0.7)
    assert community == frozenset(cliques.cliques[0]) and rounds == 0


def write_inputs(directory):
    """Two K5s joined by one edge, the same edges in both directions, and
    a tag for every node."""
    g = two_k5()
    edges = [(g.ids[i], g.ids[j]) for i, j in g.edges()] + [("a0", "b0")]
    (directory / "g.tsv").write_text("".join(f"{a}\t{b}\n" for a, b in edges))
    (directory / "d.tsv").write_text(
        "".join(f"{a}\t{b}\n{b}\t{a}\n" for a, b in edges))
    (directory / "tags.tsv").write_text(
        "".join(f"{v}\t#{v[0]}\t1\n" for v in g.ids))


def test_traced_run_reports_every_layer(tracer, tmp_path):
    """A traced run of the benchmark's eight commands loses no span and no
    counter, and yields every per-layer metric BENCHMARK.json declares."""
    if not BENCHMARK.is_file():
        pytest.skip("BENCHMARK.json is absent")
    write_inputs(tmp_path)
    out = tmp_path / "out"
    ops = [
        ("mutualize", ["mutualize", tmp_path / "d.tsv"]),
        ("caa", ["caa", tmp_path / "g.tsv"]),
        ("metrics", ["metrics", tmp_path / "g.tsv", out / "caa_cover.txt"]),
        ("hashtag", ["hashtag-report", tmp_path / "g.tsv", out / "caa_cover.txt",
                     tmp_path / "tags.tsv", "--size-lo", "1"]),
        ("sweep_growing", ["sweep", tmp_path / "g.tsv", "--sweep", "growing",
                           "--grid", "0.5,0.9"]),
        ("lp", ["lp", tmp_path / "g.tsv"]),
        ("cpm", ["cpm", tmp_path / "g.tsv", "--k", "3"]),
        ("sweep_overlapping", ["sweep", tmp_path / "g.tsv", "--sweep", "overlapping",
                               "--grid", "0,1", "--min-clique-size", "3"]),
    ]
    spec = tmp_path / "spec.json"
    result_path = tmp_path / "result.json"
    spec.write_text(json.dumps({
        "trace": 1,
        "ops": [[name, [*map(str, argv), "--output-dir", str(out)]] for name, argv in ops],
        "result": str(result_path),
        "spans": str(tmp_path / "spans.json"),
    }))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(TRACER), str(spec)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

    result = json.loads(result_path.read_text())
    assert {r["name"]: r["rc"] for r in result["ops"]} == {name: 0 for name, _ in ops}
    assert result["absent"] == []
    names = [name for name, _ in ops]
    # bench/run.py adds these from the untraced runs and the run walls.
    reported = set(tracer.run_metrics(result, names))
    reported |= {f"cli.{op}.wall_s" for op in names} | {"trace.overhead_s", "cli.import_s"}
    declared = {m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    assert sorted(declared - reported) == []
