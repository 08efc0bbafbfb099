import pytest

from cliquecomm.errors import EdgeListParseError, InputError
from cliquecomm.graph import build_graph
from cliquecomm.hashtags import (
    community_theme,
    jaccard,
    load_hashtags,
    normalize_tag,
    sample_communities,
    user_top_k,
)

EXPECTED_U1_ORDER = [
    ("pjnet", 77),
    ("usarmy", 74),
    ("pray", 51),
    ("unbornlivesmatter", 45),
    ("tcot", 31),
    ("catholic", 26),
    ("jesus", 25),
    ("trump2016", 25),
    ("chooselife", 22),
    ("brexit", 19),
]


class TestLoad:
    def test_invalid_utf8_names_file(self, tmp_path):
        f = tmp_path / "tags.tsv"
        f.write_bytes(b"u\t#a\t1\n\xff\xfe\t#b\t2\n")
        with pytest.raises(InputError, match="tags.tsv: not UTF-8"):
            load_hashtags(f)

    def test_sample_file(self, data_dir):
        table = load_hashtags(data_dir / "user_tags_sample.tsv")
        assert table["u1"]["pray"] == 51
        assert table["u2"]["gopdebate"] == 166

    def test_empty_file(self, tmp_path):
        f = tmp_path / "tags.tsv"
        f.write_text("")
        assert load_hashtags(f) == {}

    def test_duplicate_lines_summed(self, tmp_path):
        f = tmp_path / "tags.tsv"
        f.write_text("u\t#a\t3\nu\t#A\t2\n")
        assert load_hashtags(f) == {"u": {"a": 5}}

    def test_preserve_case(self, tmp_path):
        f = tmp_path / "tags.tsv"
        f.write_text("u\t#TGDN\t774\nu\t#tgdn\t759\n")
        folded = load_hashtags(f)
        kept = load_hashtags(f, preserve_case=True)
        assert folded == {"u": {"tgdn": 1533}}
        assert kept == {"u": {"TGDN": 774, "tgdn": 759}}

    def test_comment_and_blank_lines(self, tmp_path):
        f = tmp_path / "tags.tsv"
        f.write_text("// note\n\nu\t#x\t1\n")
        assert load_hashtags(f) == {"u": {"x": 1}}

    def test_malformed_line(self, tmp_path):
        f = tmp_path / "tags.tsv"
        f.write_text("u\t#x\n")
        with pytest.raises(EdgeListParseError):
            load_hashtags(f)

    def test_negative_count(self, tmp_path):
        f = tmp_path / "tags.tsv"
        f.write_text("u\t#x\t-1\n")
        with pytest.raises(EdgeListParseError):
            load_hashtags(f)

    def test_normalize_idempotent(self):
        for tag in ("#Pray", "Pray", "#tcot", "ümlaut"):
            once = normalize_tag(tag)
            assert normalize_tag(once) == once


class TestUserTopK:
    def test_sample_user_order(self, data_dir):
        table = load_hashtags(data_dir / "user_tags_sample.tsv")
        assert user_top_k(table, "u1", 10) == EXPECTED_U1_ORDER

    def test_fewer_than_k(self, data_dir):
        table = load_hashtags(data_dir / "user_tags_sample.tsv")
        assert len(user_top_k(table, "u2", 10)) == 3

    def test_tie_breaks_lexicographic(self):
        table = {"u": {"b": 5, "a": 5, "c": 1}}
        assert user_top_k(table, "u", 2) == [("a", 5), ("b", 5)]

    def test_unknown_user_empty(self):
        assert user_top_k({}, "ghost") == []

    def test_k_validation(self):
        with pytest.raises(ValueError):
            user_top_k({}, "u", 0)


class TestCommunityTheme:
    def make_graph(self, users):
        # star over the member set; topology is irrelevant to theming
        return build_graph([(users[0], u) for u in users[1:]])

    def test_identical_top_sets(self):
        users = ["a", "b", "c"]
        g = self.make_graph(users)
        table = {u: {"x": 5, "y": 3} for u in users}
        entry = community_theme(g, frozenset(range(3)), table)
        assert entry.mean_pairwise_jaccard == 1.0
        assert entry.top_tag_penetration == 1.0

    def test_disjoint_top_sets(self):
        users = ["a", "b"]
        g = self.make_graph(users)
        table = {"a": {"x": 1}, "b": {"y": 1}}
        entry = community_theme(g, frozenset(range(2)), table)
        assert entry.mean_pairwise_jaccard == 0.0

    def test_three_member_jaccard(self):
        users = ["a", "b", "c"]
        g = self.make_graph(users)
        table = {
            "a": {"a": 3, "b": 2, "c": 1},
            "b": {"a": 3, "b": 2, "d": 1},
            "c": {"a": 3, "e": 2, "f": 1},
        }
        entry = community_theme(g, frozenset(range(3)), table, k=3)
        assert entry.mean_pairwise_jaccard == pytest.approx(0.3, abs=1e-12)

    def test_aggregate_is_member_sum(self):
        users = ["a", "b", "c"]
        g = self.make_graph(users)
        table = {
            "a": {"x": 5, "y": 1},
            "b": {"x": 2},
            "c": {"y": 10, "z": 4},
        }
        entry = community_theme(g, frozenset(range(3)), table)
        got = dict(entry.top_tags)
        expected = {}
        for u in users:
            for t, c in table[u].items():
                expected[t] = expected.get(t, 0) + c
        assert got == expected

    def test_missing_members_reported(self):
        users = ["a", "b", "c"]
        g = self.make_graph(users)
        table = {"a": {"x": 1}}
        entry = community_theme(g, frozenset(range(3)), table)
        assert entry.members_with_data == 1
        assert entry.members_missing_data == 2
        assert entry.mean_pairwise_jaccard is None

    @pytest.mark.parametrize("top_k", [0, -2])
    def test_community_top_k_validation(self, top_k):
        g = self.make_graph(["a", "b"])
        with pytest.raises(ValueError, match="top_k_community"):
            community_theme(g, frozenset(range(2)), {"a": {"x": 1}}, top_k_community=top_k)

    def test_jaccard_properties(self):
        assert jaccard({1, 2}, {1, 2}) == 1.0
        assert jaccard({1}, {2}) == 0.0
        assert jaccard(set(), set()) == 0.0
        assert 0.0 <= jaccard({1, 2, 3}, {2, 3, 4}) <= 1.0


class TestSampleCommunities:
    def test_fewer_qualifying_returns_all(self):
        cover = [frozenset(range(i, i + 12)) for i in range(0, 100, 10)]
        assert sample_communities(cover, 10, 150, 50, 0) == cover

    def test_deterministic_sample(self):
        cover = [frozenset(range(i, i + 12)) for i in range(0, 1000, 10)]
        a = sample_communities(cover, 10, 150, 50, 7)
        b = sample_communities(cover, 10, 150, 50, 7)
        assert a == b
        assert len(a) == 50

    def test_inverted_range_rejected(self):
        cover = [frozenset(range(12))]
        with pytest.raises(ValueError, match=r"\[50, 10\] is empty"):
            sample_communities(cover, 50, 10, 3, 0)

    def test_bounds_exclude_all(self):
        cover = [frozenset(range(5))]
        assert sample_communities(cover, 10, 150, 3, 0) == []
