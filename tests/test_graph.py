import logging
import random
from itertools import combinations

import pytest

from cliquecomm import graph as graph_module
from cliquecomm.errors import EdgeListParseError, InputError
from cliquecomm.graph import (
    DirectedEdgeList,
    Graph,
    build_graph,
    induced_subgraph,
    load_cover,
    load_edge_list,
    load_node_ids,
    mutualize,
    planted_partition,
    save_cover,
    save_edge_list,
    sort_cover,
)

from conftest import complete_graph, directed_edge_list, gnp, id_pairs, planted_block


def assert_graph_invariants(g):
    for i, nbrs in enumerate(g.adjacency):
        assert i not in nbrs
        for j in nbrs:
            assert i in g.adjacency[j]


class TestMutualize:
    def test_one_mutual_pair(self):
        g = mutualize(directed_edge_list([("a", "b"), ("b", "a"), ("a", "c")]))
        assert g.ids == ["a", "b"]
        assert g.m == 1
        assert_graph_invariants(g)

    def test_empty(self):
        g = mutualize(directed_edge_list([]))
        assert g.n == 0
        assert g.m == 0

    def test_self_loop_dropped(self):
        g = mutualize(directed_edge_list([("a", "a"), ("a", "b"), ("b", "a")]))
        assert g.ids == ["a", "b"]
        assert g.m == 1

    def test_isolated_node_dropped(self):
        g = mutualize(
            directed_edge_list([("a", "b"), ("b", "a"), ("c", "a"), ("d", "c")])
        )
        assert set(g.ids) == {"a", "b"}

    def test_idempotent_in_effect(self):
        rng = random.Random(3)
        edges = [
            (f"v{rng.randrange(20)}", f"v{rng.randrange(20)}") for _ in range(120)
        ]
        g1 = mutualize(directed_edge_list(edges))
        resym = [(g1.ids[i], g1.ids[j]) for i, j in g1.edges()]
        both_ways = resym + [(b, a) for a, b in resym]
        g2 = mutualize(directed_edge_list(both_ways))
        assert g1.ids == g2.ids
        assert g1.adjacency == g2.adjacency

    def test_edge_count_bound(self):
        rng = random.Random(9)
        edges = [
            (f"v{rng.randrange(15)}", f"v{rng.randrange(15)}") for _ in range(80)
        ]
        distinct = {e for e in edges if e[0] != e[1]}
        g = mutualize(directed_edge_list(edges))
        assert g.m <= len(distinct) // 2


class TestEdgeListIO:
    def test_directed_load(self, tmp_path):
        f = tmp_path / "e.tsv"
        f.write_text("a\tb\nb\ta\n")
        d = load_edge_list(f, directed=True)
        assert d.ids == ["a", "b"]
        assert d.edges == [(0, 1), (1, 0)]

    def test_directed_load_keeps_every_edge_line(self, tmp_path):
        # Index pairs into the sorted ids, one per edge line, in file order:
        # the duplicate line and the self-loop stay, the comment goes.
        f = tmp_path / "e.tsv"
        f.write_text("c\ta\n# b\td\na\tb\nc\ta\nb\tb\n")
        d = load_edge_list(f, directed=True)
        assert d.ids == ["a", "b", "c"]
        assert d.edges == [(2, 0), (0, 1), (2, 0), (1, 1)]

    @pytest.mark.parametrize("directed", [False, True])
    def test_invalid_utf8_names_file(self, tmp_path, directed):
        f = tmp_path / "e.tsv"
        f.write_bytes(b"a\tb\n\xff\xfe\tc\n")
        with pytest.raises(InputError, match="e.tsv: not UTF-8"):
            load_edge_list(f, directed=directed)

    def test_leading_byte_order_mark_dropped(self, tmp_path):
        f = tmp_path / "e.tsv"
        f.write_bytes("\ufeffa\tb\nb\tc\nc\ta\n".encode())
        g = load_edge_list(f)
        assert g.ids == ["a", "b", "c"] and g.m == 3
        d = load_edge_list(f, directed=True)
        assert d.ids == ["a", "b", "c"]
        assert d.edges == [(0, 1), (1, 2), (2, 0)]

    def test_undirected_load(self, tmp_path):
        f = tmp_path / "e.tsv"
        f.write_text("a\tb\n")
        g = load_edge_list(f)
        assert g.n == 2 and g.m == 1

    def test_comments_and_blanks_ignored(self, tmp_path):
        f = tmp_path / "e.tsv"
        f.write_text("# header\n\na\tb\n")
        assert load_edge_list(f).m == 1

    def test_wrong_field_count(self, tmp_path):
        f = tmp_path / "e.tsv"
        f.write_text("a\n")
        with pytest.raises(EdgeListParseError) as exc:
            load_edge_list(f)
        assert exc.value.line_number == 1

    @pytest.mark.parametrize(
        "text, lineno",
        [("a\tb\tc\nd\n", 1), ("a\tb\nc\nd\te\tf\n", 2), ("# h\na\tb\tc\nd\n", 2)],
    )
    def test_misplaced_tabs(self, tmp_path, text, lineno):
        # As many tabs as edge lines, but not one per line. The line number
        # counts the comment lines.
        f = tmp_path / "e.tsv"
        f.write_text(text)
        with pytest.raises(EdgeListParseError) as exc:
            load_edge_list(f)
        assert exc.value.line_number == lineno

    def test_empty_id(self, tmp_path):
        f = tmp_path / "e.tsv"
        f.write_text("a\tb\n\tb\n")
        with pytest.raises(EdgeListParseError) as exc:
            load_edge_list(f)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize("text", ["a\t#b\n", "a\t \n", "\x0b\ta\n"])
    def test_unwritable_id_rejected(self, tmp_path, text):
        # Written back smaller id first, these ids could read as a comment or blank line.
        f = tmp_path / "e.tsv"
        f.write_text("x\ty\n" + text)
        with pytest.raises(EdgeListParseError) as exc:
            load_edge_list(f)
        assert exc.value.line_number == 2

    def test_round_trip(self, tmp_path):
        g = gnp(12, 0.4, 5)
        f = tmp_path / "out.tsv"
        save_edge_list(g, f)
        g2 = load_edge_list(f)
        edges1 = {frozenset((g.ids[i], g.ids[j])) for i, j in g.edges()}
        edges2 = {frozenset((g2.ids[i], g2.ids[j])) for i, j in g2.edges()}
        assert edges1 == edges2

    def test_empty_file(self, tmp_path):
        f = tmp_path / "e.tsv"
        f.write_text("")
        assert load_edge_list(f).n == 0
        assert load_edge_list(f, directed=True).edges == []

    def test_only_comments(self, tmp_path):
        f = tmp_path / "e.tsv"
        f.write_text("# header\n#a\tb\n")
        assert load_edge_list(f).n == 0
        assert load_edge_list(f, directed=True).edges == []

    def test_crlf_takes_the_column_path(self, tmp_path, monkeypatch):
        f = tmp_path / "e.tsv"
        f.write_bytes(b"a\tb\r\nb\tc\r\nc\ta")
        monkeypatch.setattr(graph_module, "_locate_bad_line", None)  # the line loop
        d = load_edge_list(f, directed=True)
        assert id_pairs(d) == [("a", "b"), ("b", "c"), ("c", "a")]
        g = load_edge_list(f)
        assert g.ids == ["a", "b", "c"] and g.m == 3

    def test_comments_and_blanks_take_the_column_path(self, tmp_path, monkeypatch):
        clean = "a\tb\nb\tc\nc\ta\nc\tc\n"
        f, g = tmp_path / "clean.tsv", tmp_path / "commented.tsv"
        f.write_text(clean)
        monkeypatch.setattr(graph_module, "_locate_bad_line", None)  # the line loop
        want = load_edge_list(f)
        split, splits = graph_module._split, []
        monkeypatch.setattr(graph_module, "_split", lambda r: splits.append(r) or split(r))
        for header in ("# header", "# FromNodeId\tToNodeId"):
            g.write_text(f"{header}\n" + clean.replace("b\tc\n", "b\tc\n\n   \n\t\n") + "\n")
            splits.clear()
            got = load_edge_list(g)
            assert len(splits) == 1  # a first line starting with '#' skips the whole-file split
            assert (got.ids, got.adjacency) == (want.ids, want.adjacency)
            assert id_pairs(load_edge_list(g, directed=True)) == id_pairs(
                load_edge_list(f, directed=True)
            )

    def test_drop_counts_logged(self, tmp_path, caplog):
        f = tmp_path / "e.tsv"
        f.write_text("a\tb\nb\ta\nc\tc\na\tb\n")
        with caplog.at_level(logging.INFO, logger="cliquecomm.graph"):
            load_edge_list(f)
        assert caplog.messages == ["dropped 1 self-loops and 2 duplicate edges"]

    def test_node_ids_keep_self_loop_only_ids(self, tmp_path, monkeypatch):
        f = tmp_path / "e.tsv"
        f.write_text("b\tb\nc\ta\n# d\te\n")
        monkeypatch.setattr(graph_module, "_from_columns", None)  # no adjacency
        assert load_node_ids(f) == ["a", "b", "c"]

    @pytest.mark.parametrize("last", ["x\t#y", "x\t \u2028", "x\ty\tz", "x"])
    def test_bad_last_of_many_clean_lines(self, tmp_path, last):
        # The column path reads the whole file before it can reject it; the
        # line loop must still name the last line.
        f = tmp_path / "e.tsv"
        f.write_text("".join(f"n{i}\tn{i + 1}\n" for i in range(100_000)) + last + "\n")
        with pytest.raises(EdgeListParseError) as exc:
            load_edge_list(f)
        assert exc.value.line_number == 100_001


# Ids that an edge list or a cover file could not hold so that they load again.
UNWRITABLE_IDS = ["", " ", "\x0b", "\u2028", "#b", "a\tb", "a\nb", "a\rb",
                  "a b", " a", "a\x0bb", "a ", "a\xa0b"]


class TestIdRule:
    @pytest.mark.parametrize("bad", UNWRITABLE_IDS)
    def test_build_graph_rejects(self, bad):
        with pytest.raises(ValueError, match="node id"):
            build_graph([(bad, "a"), ("a", "c")])

    @pytest.mark.parametrize("bad", UNWRITABLE_IDS)
    def test_build_graph_rejects_extra_node(self, bad):
        with pytest.raises(ValueError, match="node id"):
            build_graph([("a", "c")], extra_nodes=[bad])

    @pytest.mark.parametrize("bad", UNWRITABLE_IDS)
    def test_mutualize_rejects(self, bad):
        # The check runs when the list is built, before mutualize sees it.
        with pytest.raises(ValueError, match="node id"):
            directed_edge_list([(bad, "a"), ("a", bad), ("a", "c")])

    def test_inner_specials_accepted(self, tmp_path):
        # '#' inside an id, not leading, round-trips.
        g = build_graph([("b#", "a#b")])
        f = tmp_path / "e.tsv"
        save_edge_list(g, f)
        back = load_edge_list(f)
        assert back.ids == g.ids and back.adjacency == g.adjacency


class TestInducedSubgraph:
    def test_k4_minus_one(self):
        g = complete_graph(4)
        sub = induced_subgraph(g, frozenset({0, 1, 2}))
        assert sub.n == 3 and sub.m == 3

    def test_singleton(self):
        g = complete_graph(4)
        sub = induced_subgraph(g, frozenset({2}))
        assert sub.n == 1 and sub.m == 0
        assert sub.ids == [g.ids[2]]

    def test_matches_brute_force_filter(self):
        g = gnp(10, 0.5, 21)
        members = frozenset(random.Random(0).sample(range(10), 5))
        sub = induced_subgraph(g, members)
        expected = {
            frozenset((g.ids[i], g.ids[j]))
            for i, j in g.edges()
            if i in members and j in members
        }
        got = {frozenset((sub.ids[i], sub.ids[j])) for i, j in sub.edges()}
        assert got == expected

    def test_full_subgraph_is_identity(self):
        g = gnp(9, 0.4, 2)
        sub = induced_subgraph(g, frozenset(range(g.n)))
        assert sub.ids == g.ids
        assert sub.adjacency == g.adjacency

    def test_out_of_range_member(self):
        g = complete_graph(3)
        with pytest.raises(IndexError):
            induced_subgraph(g, frozenset({0, 99}))


class TestIdOrder:
    def test_out_of_order_ids_rejected(self):
        with pytest.raises(ValueError):
            Graph(ids=["b", "a"], adjacency=[set(), set()])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Graph(ids=["a", "b", "b"], adjacency=[set(), set(), set()])

    def test_directed_out_of_order_ids_rejected(self):
        # mutualize would build a graph over ["b", "c"] from these.
        with pytest.raises(ValueError, match="strictly ascending"):
            DirectedEdgeList(["b", "a", "c"], [(0, 2), (2, 0), (1, 1)])

    @pytest.mark.parametrize("index", [2, -1])
    def test_directed_index_out_of_range_rejected(self, index):
        with pytest.raises(ValueError, match=f"edge index {index} is out of range for 2 ids"):
            DirectedEdgeList(["a", "b"], [(0, 1), (index, 0)])

    def test_planted_ids_ascending(self):
        # 12 blocks of 11: "10-0" < "2-0" and "0-10" < "0-2" as strings
        g = planted_partition(12, 11, 0.5, 0.05, 0)
        assert g.ids == sorted(set(g.ids))
        assert g.ids.index("10-0") < g.ids.index("2-0")
        assert g.ids.index("0-10") < g.ids.index("0-2")
        assert_graph_invariants(g)


class TestPlantedPartition:
    def test_degenerate_two_blocks(self):
        g = planted_partition(2, 5, 1.0, 0.0, 123)
        assert g.n == 10 and g.m == 20
        for i, j in g.edges():
            assert planted_block(g.ids[i]) == planted_block(g.ids[j])
        assert_graph_invariants(g)

    def test_single_block_complete(self):
        g = planted_partition(1, 4, 1.0, 0.0, 0)
        assert g.n == 4 and g.m == 6

    def test_deterministic(self):
        g1 = planted_partition(2, 50, 0.3, 0.01, 7)
        g2 = planted_partition(2, 50, 0.3, 0.01, 7)
        assert g1.ids == g2.ids
        assert g1.adjacency == g2.adjacency

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^rng_seed must be >= 0, got -1$"):
            planted_partition(2, 5, 0.5, 0.1, -1)

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            planted_partition(2, 5, 0.1, 0.5, 0)
        with pytest.raises(ValueError):
            planted_partition(2, 5, 1.5, 0.0, 0)

    def test_index_to_pair_inverts_every_index(self):
        for n in range(2, 41):
            pairs = list(combinations(range(n), 2))
            assert [graph_module._index_to_pair(k, n) for k in range(len(pairs))] == pairs

    def test_edge_rate_sane(self):
        g = planted_partition(3, 40, 0.5, 0.02, 13)
        intra_pairs = 3 * 40 * 39 // 2
        intra = sum(
            1
            for i, j in g.edges()
            if planted_block(g.ids[i]) == planted_block(g.ids[j])
        )
        assert abs(intra / intra_pairs - 0.5) < 0.08
        assert_graph_invariants(g)


class TestCoverIO:
    def test_round_trip(self, tmp_path):
        g = gnp(8, 0.6, 4)
        cover = sort_cover([frozenset({0, 1, 2}), frozenset({2, 3}), frozenset({4})])
        f = tmp_path / "cover.txt"
        save_cover(g, cover, f)
        assert load_cover(g.ids, f) == cover

    def test_unknown_id(self, tmp_path):
        g = complete_graph(3)
        f = tmp_path / "cover.txt"
        f.write_text("k00 k01\n  # note\nk00 nosuch other\n")
        # The error names the line and the first of its two unknown ids.
        with pytest.raises(EdgeListParseError, match=r"cover\.txt:3: unknown node id 'nosuch'$"):
            load_cover(g.ids, f)

    def test_indented_comment_skipped(self, tmp_path):
        g = complete_graph(3)
        f = tmp_path / "cover.txt"
        f.write_text("  # note\nk00 k01\n\t#k02 nosuch\n \t\n")
        assert load_cover(g.ids, f) == [frozenset({0, 1})]

    def test_invalid_utf8_names_file(self, tmp_path):
        g = complete_graph(3)
        f = tmp_path / "cover.txt"
        f.write_bytes(b"k00 k01\n\xff k02\n")
        with pytest.raises(InputError, match="cover.txt: not UTF-8"):
            load_cover(g.ids, f)

    def test_leading_byte_order_mark_dropped(self, tmp_path):
        g = complete_graph(3)
        f = tmp_path / "cover.txt"
        f.write_bytes("\ufeffk00 k01\nk02\n".encode())
        assert load_cover(g.ids, f) == [frozenset({0, 1}), frozenset({2})]

    def test_sort_order(self):
        g = gnp(6, 1.0, 0)
        cover = sort_cover(
            [frozenset({5}), frozenset({0, 1}), frozenset({2, 3}), frozenset({0, 1, 2})],
        )
        sizes = [len(c) for c in cover]
        assert sizes == [3, 2, 2, 1]
        # ties broken by sorted external ids
        assert sorted(g.ids[v] for v in cover[1]) < sorted(g.ids[v] for v in cover[2])

    def test_dedup(self):
        g = complete_graph(4)
        cover = sort_cover({frozenset({0, 1}), frozenset({1, 0})})
        assert len(cover) == 1
