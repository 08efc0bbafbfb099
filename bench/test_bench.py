"""The benchmark's own checks, kept out of the timed runs.

    PYTHONPATH=src python3 -m pytest -q bench

Runs each workload once at input seed 0 through cliquecomm.cli.main, checks
every output against digests.json, and cross-checks the reference outputs
against networkx where it is installed (it is not a dependency).
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
import tracer
from cliquecomm.cli import main as cli_main
from cliquecomm.cliques import enumerate_maximal_cliques
from cliquecomm.graph import load_edge_list

SEED = 0


@pytest.fixture(scope="module")
def workload_dirs(tmp_path_factory):
    """name -> (input dir, output dir) after one run of each workload."""
    dirs = {}
    for name, wl in run.WORKLOADS.items():
        base = tmp_path_factory.mktemp(name)
        indir, outdir = base / "in", base / "out"
        run.write_inputs(run.make_inputs(name, SEED), indir)
        for op in wl.ops:
            assert cli_main(run.op_argv(op, indir, outdir)) == 0, op.name
        dirs[name] = (indir, outdir)
    return dirs


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names(run.ALL_OPS)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for m in spec["per_layer"] + spec["end_to_end"]:
        assert m["unit"] == run.unit_of(m["name"])


def test_inputs_follow_the_seed():
    for name in run.WORKLOADS:
        first = run.make_inputs(name, 5)
        assert run.make_inputs(name, 5) == first
        assert run.make_inputs(name, 5 + run.INPUT_SEEDS) == first
        assert run.make_inputs(name, 6) != first


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_outputs_match_reference_digests(workload_dirs, name):
    refs = run.load_references()["workloads"][name][str(SEED)]
    _, outdir = workload_dirs[name]
    for op in run.WORKLOADS[name].ops:
        assert run.check_outputs(op, outdir, refs) == [], op.name


def test_fingerprint_ignores_last_bit_float_noise(tmp_path):
    a, b = tmp_path / "a" / "metrics.json", tmp_path / "b" / "metrics.json"
    for path, eq in ((a, "0.07744236155739502"), (b, "0.07744236155739503")):
        path.parent.mkdir()
        path.write_text(f'{{"eq_total": {eq}, "community_count": 3}}\n')
    assert run.same_fingerprint(run.fingerprint(b), run.fingerprint(a))
    b.write_text('{"eq_total": 0.0774423616, "community_count": 3}\n')
    assert not run.same_fingerprint(run.fingerprint(b), run.fingerprint(a))


def _nx_graph(nx, path):
    return nx.read_edgelist(path, delimiter="\t", nodetype=str)


def _cover_ids(path):
    return {frozenset(line.split()) for line in path.read_text().splitlines() if line}


def test_maximal_clique_count_matches_networkx(workload_dirs):
    nx = pytest.importorskip("networkx")
    indir, _ = workload_dirs["dense-overlap"]
    ours = enumerate_maximal_cliques(load_edge_list(indir / "dense.tsv"), 3).cliques
    theirs = [c for c in nx.find_cliques(_nx_graph(nx, indir / "dense.tsv")) if len(c) >= 3]
    assert len(ours) == len(theirs)


def test_cpm_cover_matches_networkx(workload_dirs):
    nx = pytest.importorskip("networkx")
    indir, outdir = workload_dirs["sweep-baselines"]
    theirs = nx.community.k_clique_communities(_nx_graph(nx, indir / "planted.tsv"), 3)
    assert _cover_ids(outdir / "cpm_cover.txt") == {frozenset(c) for c in theirs}


def test_lp_modularity_matches_networkx(workload_dirs):
    nx = pytest.importorskip("networkx")
    indir, outdir = workload_dirs["sweep-baselines"]
    partition = _cover_ids(outdir / "lp_cover.txt")
    theirs = nx.community.modularity(_nx_graph(nx, indir / "planted.tsv"), partition)
    ours = json.loads((outdir / "metrics.json").read_text())["lp_cover"]["eq_total"]
    assert ours == pytest.approx(theirs, rel=1e-9)


def test_traced_growing_sweep_enumerates_three_times(workload_dirs, tmp_path):
    indir, _ = workload_dirs["sweep-baselines"]
    op = run.WORKLOADS["sweep-baselines"].ops[0]
    assert op.name == "sweep_growing"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "trace": 1,
        "ops": [[op.name, run.op_argv(op, indir, tmp_path / "out")]],
        "result": str(tmp_path / "result.json"),
        "spans": str(tmp_path / "spans.json"),
    }))
    env = run.child_env(Path(__file__).resolve().parents[1] / "src")
    subprocess.run([sys.executable, str(run.BENCH_DIR / "tracer.py"), str(spec)],
                   env=env, check=True, capture_output=True, timeout=120)
    result = json.loads((tmp_path / "result.json").read_text())
    metrics = tracer.run_metrics(result, [op.name])
    assert metrics["cliques.enumerate_calls.sweep_growing"] == 3
    assert metrics["trace.accounted_ratio"] >= 0.95
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert {s[2] for s in spans} >= {"cli.sweep_growing", "caa.run_caa"}


def test_missing_function_is_reported_absent():
    modules = {"graph": types.SimpleNamespace(load_edge_list=lambda path: None),
               "cli": types.SimpleNamespace(main=lambda argv=None: 0)}
    t = tracer.Tracer()
    t.install(modules)
    assert "graph.build_graph" in t.absent and "caa.run_caa" in t.absent
    assert "graph.load_edge_list" not in t.absent
    assert modules["graph"].load_edge_list.__wrapped__ is not None
