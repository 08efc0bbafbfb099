"""The names and result attributes that the benchmark's tracer binds to.

bench/tracer.py wraps each function of its SPANS table by name and reads
counters from the wrapped calls' results. A renamed function or attribute
does not fail a traced run: that layer's metric is just missing from it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from cliquecomm.caa import grow_community_with_rounds, run_caa
from cliquecomm.cliques import enumerate_maximal_cliques, filter_overlapping
from cliquecomm.graph import load_edge_list

from conftest import two_k5

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
    f.write_text("a\tb\nb\ta\n")
    assert isinstance(load_edge_list(f, directed=True).edges, list)

    assert isinstance(run_caa(g), list)
    community, rounds = grow_community_with_rounds(g, cliques.cliques[0], 0.7)
    assert community == cliques.cliques[0] and rounds == 0
