"""In-process runner for the benchmark's traced runs.

    python3 bench/tracer.py SPEC.json

SPEC.json names the commands to run through cliquecomm.cli.main, whether to
trace, and where to write the result. With tracing on, the package's public
functions are wrapped at every module that binds them by name, so a call
made through `from .graph import load_edge_list` in cli.py is seen as well
as one made inside graph.py. Each wrapper records a span: name, start, end
and the span that called it. Self time is a span's duration minus that of
the wrapped spans inside it. Functions called once per seed or community
are aggregated into a call count and total time instead of one span each.
Counters are read from the wrapped calls' arguments and results. Spans stay
in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
import traceback
from collections import defaultdict

# module -> public functions wrapped in it
SPANS = {
    "graph": ("load_edge_list", "build_graph", "mutualize", "save_edge_list",
              "save_cover", "load_cover", "sort_cover", "induced_subgraph"),
    "cliques": ("degeneracy_order", "enumerate_maximal_cliques", "sort_cliques",
                "filter_overlapping"),
    "caa": ("run_caa", "grow_community_with_rounds"),
    "baselines": ("label_propagation", "clique_percolation"),
    "metrics": ("evaluate", "extended_modularity", "triangle_participants"),
    "hashtags": ("load_hashtags", "community_theme"),
}
# Called once per seed or per community: aggregated, no span records.
AGGREGATED = {"caa.grow_community_with_rounds", "metrics.triangle_participants",
              "graph.induced_subgraph", "hashtags.community_theme"}
PACKAGE = "cliquecomm"

COUNTERS = (
    "graph.edge_lines", "graph.nodes", "graph.edges", "graph.bytes_read",
    "graph.bytes_written", "cliques.maximal_cliques", "cliques.max_clique_size",
    "cliques.enumerate_calls", "cliques.filter_calls", "caa.grow_calls",
    "caa.grow_rounds_total", "caa.members_admitted", "baselines.lp_communities",
    "baselines.cpm_communities", "metrics.communities_evaluated",
    "metrics.member_slots", "metrics.adjacency_scanned", "hashtags.records",
    "hashtags.communities_themed",
)


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [key, start, child seconds, span id]
        self.agg = {}  # key -> [calls, total seconds, self seconds]
        self.counters = defaultdict(float)
        self.spans = []  # [id, parent id, key, op, start, end]
        self.absent = []
        self.op = None

    # -- installation ------------------------------------------------------
    def install(self, modules: dict) -> None:
        """Wrap every SPANS function at each module that binds it by name."""
        for mod_name, funcs in SPANS.items():
            home = modules.get(mod_name)
            for func in funcs:
                key = f"{mod_name}.{func}"
                original = getattr(home, func, None)
                if original is None:
                    self.absent.append(key)
                    continue
                wrapper = self._wrap(key, original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        cli = modules["cli"]
        cli.main = self._wrap("cli", cli.main)

    def _wrap(self, key, fn):
        observe = getattr(self, "_observe_" + key.replace(".", "_"), None)
        aggregated = key in AGGREGATED

        def wrapper(*args, **kwargs):
            name = f"cli.{self.op}" if key == "cli" else key
            parent = self.stack[-1] if self.stack else None
            parent_id = parent[3] if parent else None
            # An aggregated call has no span; its children name its parent.
            frame = [name, time.perf_counter(), 0.0,
                     parent_id if aggregated else len(self.spans)]
            if not aggregated:
                self.spans.append([frame[3], parent_id, name, self.op, frame[1], None])
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                duration = end - frame[1]
                stats = self.agg.setdefault(name, [0, 0.0, 0.0])
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if not aggregated:
                    self.spans[frame[3]][5] = end
            if observe is not None:
                self._run_observer(observe, key, args, result, parent)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _run_observer(self, observe, key, args, result, parent):
        # Observer time is charged to the trace, not to the calling span.
        t0 = time.perf_counter()
        try:
            observe(args, result, parent[0] if parent else None)
        except Exception:  # a renamed field must not stop the traced run
            traceback.print_exc()
            self.absent.append(f"{key} (counters)")
        if parent is not None:
            parent[2] += time.perf_counter() - t0

    # -- counters, one method per wrapped function that has any -------------
    def _observe_graph_load_edge_list(self, args, result, parent):
        self.counters["graph.bytes_read"] += os.path.getsize(args[0])
        # A DirectedEdgeList; Graph.edges is a method.
        if isinstance(getattr(result, "edges", None), list):
            self.counters["graph.edge_lines"] += len(result.edges)

    def _observe_graph_build_graph(self, args, result, parent):
        if parent == "graph.load_edge_list" and isinstance(args[0], list):
            self.counters["graph.edge_lines"] += len(args[0])
        self.counters["graph.nodes"] += result.n
        self.counters["graph.edges"] += result.m

    def _observe_graph_mutualize(self, args, result, parent):
        self.counters["graph.mutual_edges"] += result.m
        self.counters["graph.directed_lines"] += len(args[0].edges)

    def _observe_graph_save_edge_list(self, args, result, parent):
        self.counters["graph.bytes_written"] += os.path.getsize(args[1])

    def _observe_graph_save_cover(self, args, result, parent):
        self.counters["graph.bytes_written"] += os.path.getsize(args[2])

    def _observe_graph_load_cover(self, args, result, parent):
        self.counters["graph.bytes_read"] += os.path.getsize(args[1])

    def _observe_cliques_enumerate_maximal_cliques(self, args, result, parent):
        self.counters["cliques.enumerate_calls"] += 1
        self.counters[f"cliques.enumerate_calls.{self.op}"] += 1
        self.counters["cliques.maximal_cliques"] += len(result.cliques)
        if result.cliques:
            self.counters["cliques.max_clique_size"] = max(
                self.counters["cliques.max_clique_size"],
                max(len(c) for c in result.cliques))

    def _observe_cliques_filter_overlapping(self, args, result, parent):
        self.counters["cliques.filter_calls"] += 1
        self.counters["cliques.filter_candidates"] += len(args[0].cliques)
        self.counters["cliques.filter_kept"] += len(result.cliques)

    def _observe_caa_grow_community_with_rounds(self, args, result, parent):
        community, rounds = result
        self.counters["caa.grow_calls"] += 1
        self.counters["caa.grow_rounds_total"] += rounds
        self.counters["caa.grow_zero_rounds"] += rounds == 0
        self.counters["caa.members_admitted"] += len(community) - len(args[1])

    def _observe_caa_run_caa(self, args, result, parent):
        self.counters["caa.communities"] += len(result)

    def _observe_baselines_label_propagation(self, args, result, parent):
        self.counters["baselines.lp_communities"] += len(result)

    def _observe_baselines_clique_percolation(self, args, result, parent):
        self.counters["baselines.cpm_communities"] += len(result)

    def _observe_metrics_evaluate(self, args, result, parent):
        g, cover = args[0], args[1]
        self.counters["metrics.communities_evaluated"] += len(cover)
        self.counters["metrics.member_slots"] += sum(len(c) for c in cover)
        adjacency = g.adjacency
        self.counters["metrics.adjacency_scanned"] += sum(
            len(adjacency[v]) for c in cover for v in c)

    def _observe_hashtags_load_hashtags(self, args, result, parent):
        self.counters["hashtags.records"] += sum(len(t) for t in result.values())

    def _observe_hashtags_community_theme(self, args, result, parent):
        self.counters["hashtags.communities_themed"] += 1


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def metric_names(op_names) -> list:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{m}.{f}.self_s" for m, funcs in SPANS.items() for f in funcs]
    names += list(COUNTERS)
    names += [f"cliques.enumerate_calls.{op}" for op in op_names]
    names += ["graph.mutual_ratio", "cliques.filter_keep_ratio",
              "caa.grow_zero_round_ratio", "caa.dedup_keep_ratio"]
    names += [f"cli.{op}.self_s" for op in op_names]
    names += [f"cli.{op}.wall_s" for op in op_names]
    names += ["cli.import_s", "trace.overhead_s", "trace.accounted_ratio"]
    return names


def run_metrics(result: dict, op_names) -> dict:
    """Per-layer metrics of one traced child's result."""
    agg, c = result["agg"], defaultdict(float, result["counters"])
    out = {}
    for mod, funcs in SPANS.items():
        for func in funcs:
            key = f"{mod}.{func}"
            if key not in result["absent"]:
                out[f"{key}.self_s"] = agg.get(key, [0, 0.0, 0.0])[2]
    for name in COUNTERS:
        out[name] = c[name]
    for op in op_names:
        out[f"cliques.enumerate_calls.{op}"] = c[f"cliques.enumerate_calls.{op}"]
        out[f"cli.{op}.self_s"] = agg.get(f"cli.{op}", [0, 0.0, 0.0])[2]
    out["graph.mutual_ratio"] = _ratio(2 * c["graph.mutual_edges"], c["graph.directed_lines"])
    out["cliques.filter_keep_ratio"] = _ratio(c["cliques.filter_kept"],
                                              c["cliques.filter_candidates"])
    out["caa.grow_zero_round_ratio"] = _ratio(c["caa.grow_zero_rounds"], c["caa.grow_calls"])
    out["caa.dedup_keep_ratio"] = _ratio(c["caa.communities"], c["caa.grow_calls"])
    # Share of each command's in-process wall that the spans' self times cover.
    out["trace.accounted_ratio"] = min(
        _ratio(result["self_by_op"].get(o["name"], 0.0), o["wall_s"])
        for o in result["ops"])
    return out


def layer_metrics(traced: list, untraced: list, op_names) -> dict:
    """Medians over runs; per-command walls come from the untraced runs."""
    per_run = [run_metrics(r, op_names) for r in traced]
    out = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    for op in op_names:
        walls = [o["wall_s"] for r in untraced for o in r["ops"] if o["name"] == op]
        out[f"cli.{op}.wall_s"] = statistics.median(walls) if walls else 0.0
    return out


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    import cliquecomm.cli as cli
    import_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        modules = {name: sys.modules[f"{PACKAGE}.{name}"]
                   for name in (*SPANS, "cli") if f"{PACKAGE}.{name}" in sys.modules}
        modules["__init__"] = sys.modules[PACKAGE]
        tracer = Tracer()
        tracer.install(modules)

    ops, self_by_op = [], {}
    for name, argv in spec["ops"]:
        if tracer is not None:
            tracer.op = name
            before = sum(v[2] for v in tracer.agg.values())
        t = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # report the command as failed and go on
            traceback.print_exc()
            rc = -1
        ops.append({"name": name, "rc": rc, "wall_s": time.perf_counter() - t})
        if tracer is not None:
            self_by_op[name] = sum(v[2] for v in tracer.agg.values()) - before

    result = {"import_s": import_s, "ops": ops, "self_by_op": self_by_op,
              "agg": {}, "counters": {}, "absent": []}
    if tracer is not None:
        result.update(agg=tracer.agg, counters=dict(tracer.counters),
                      absent=tracer.absent)
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "op", "start", "end"],
                       "spans": tracer.spans, "aggregated": tracer.agg}, fh)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
