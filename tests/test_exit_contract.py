"""The CLI's exit-code contract as one property over drawn argv and files.

Every subcommand of the parser runs in-process on drawn flags and on input
files drawn as raw bytes. Whatever the input, main() returns 0 (success),
1 (usage), 2 (input) or 3 (resource or time) without raising; a failure
prints exactly one "error:" line, and a success lists only outputs that
exist, each of whose covers and edge lists reads back.
"""

import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from cliquecomm import cli
from cliquecomm.graph import load_cover, load_edge_list

pytest.importorskip("hypothesis")
from hypothesis import event, given, settings, strategies as st  # noqa: E402

PARSER = cli.build_parser()
SUBCOMMANDS = next(
    a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction)
).choices
FIXED_FLAGS = {"help", "output_dir", "timeout_secs"}  # drawn by the property itself
VALUES = ["0", "1", "2", "3", "-1", "0.5", "1.5", "nan", "inf", "-inf", "x", "",
          "1-3,4+", "1-3,4-2,3+", "0,0.5,1"]
# Values for the required flags that have no default.
GOOD_VALUES = {"--blocks": "2", "--block-size": "4", "--p-in": "0.9", "--p-out": "0.1",
               "--k": "3", "--grid": "0.5,1"}
BAD_BUDGETS = ["0", "-1", "nan", "inf"]

# Ids a file can hold, at most 12 so that a graph stays small (a NUL, a
# BOM inside an id and a long id among them), and ids it cannot: a leading
# '#', whitespace, invalid UTF-8, empty.
GOOD_IDS = [f"v{i}".encode() for i in range(9)] + [b"v\x00", "v\ufeff".encode(), b"L" * 300]
BAD_IDS = [b"#v", b"v\x0b", "v\x85".encode(), b"\xff\xfe", b""]
SKIPPED_LINES = [b"", b"   ", b"#", b"# a\tb"]
BAD_LINES = [b"\t", b"a\tb\tc", b"\x00", b"\xff", b" \t#x"]
TAGS, BAD_TAGS = [b"#a", b"b", b"#B"], [b"", b"#"]
COUNTS, BAD_COUNTS = [b"1", b"3", b"0"], [b"-1", b"x", b""]


def sometimes(draw, bad, good):
    """A value drawn from the strategy bad one time in eight, else good."""
    return draw(bad) if draw(st.integers(0, 7)) == 7 else good


@st.composite
def text_file(draw, records, clean):
    """records among skipped lines (and malformed ones unless clean), joined
    by one drawn line end, maybe after a BOM and without a final break."""
    extra = st.sampled_from(SKIPPED_LINES if clean else SKIPPED_LINES + BAD_LINES)
    lines = draw(st.permutations(records + draw(st.lists(extra, max_size=3))))
    end = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    bom = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
    return bom + end.join(lines) + draw(st.sampled_from([end, b""]))


@st.composite
def runs(draw, tmp):
    """(argv, output dir) for one drawn subcommand over files written under
    tmp. Clean files hold only good ids, and covers and tags only the
    graph's ids; other files may hold anything."""
    clean = not draw(st.booleans())
    ids = st.sampled_from(GOOD_IDS if clean else GOOD_IDS + BAD_IDS)
    edges = draw(st.lists(st.tuples(ids, ids), max_size=12))
    nodes = sorted({v for e in edges for v in e})
    members = st.sampled_from(nodes) if clean and nodes else ids
    sep = st.sampled_from([b" ", b"\t", b"  "])
    cover = st.lists(st.tuples(sep, st.lists(members, min_size=1, max_size=5)),
                     max_size=4).map(lambda cs: [s.join(c) for s, c in cs])
    tag = st.tuples(members, st.sampled_from(TAGS if clean else TAGS + BAD_TAGS),
                    st.sampled_from(COUNTS if clean else COUNTS + BAD_COUNTS))
    records = {
        "graph": [b"\t".join(e) for e in edges],
        "cover": draw(cover),
        "cover2": draw(cover),
        "hashtags": [b"\t".join(t) for t in draw(st.lists(tag, max_size=12))],
    }
    paths = {"graph": tmp / "g.tsv", "cover": tmp / "c1.txt", "cover2": tmp / "c2.txt",
             "hashtags": tmp / "tags.tsv"}
    for key, lines in records.items():
        paths[key].write_bytes(draw(text_file(lines, clean)))

    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    actions = SUBCOMMANDS[command]._actions
    argv = [command]
    loop = tmp / "loop"
    loop.symlink_to("loop")
    # Paths that open() cannot read, and that mkdir() cannot make.
    unreadable = st.sampled_from([tmp / "missing.tsv", tmp, paths["graph"] / "x", loop])
    unusable = st.sampled_from([paths["graph"], paths["graph"] / "sub", loop / "sub"])
    for action in actions:
        if action.option_strings:
            continue
        if action.dest == "covers":
            argv += draw(st.sampled_from([
                [paths["cover"]], [paths["cover"], paths["cover2"]],
                [paths["cover"], paths["cover"]]]))
        else:
            argv.append(sometimes(draw, unreadable, paths.get(action.dest, paths["graph"])))
    for action in actions:
        if not action.option_strings or action.dest in FIXED_FLAGS:
            continue
        if not (action.required or draw(st.booleans())):
            continue
        flag = action.option_strings[0]
        argv.append(flag)
        if action.nargs == 0:
            continue
        good = action.choices or [GOOD_VALUES.get(flag, action.default)]
        if good == [None]:
            good = VALUES
        argv.append(sometimes(draw, st.sampled_from(VALUES), draw(st.sampled_from(good))))
    outdir = sometimes(draw, unusable, tmp / "out")
    budget = sometimes(draw, st.sampled_from(BAD_BUDGETS), "10")
    argv += ["--output-dir", outdir, "--timeout-secs", budget]
    return [str(a) for a in argv], outdir


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_exit_contract(data):
    with tempfile.TemporaryDirectory() as d:
        argv, outdir = data.draw(runs(Path(d)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        event(f"{argv[0]} exits {code}")
        assert code in (0, 1, 2, 3)
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        if code:
            assert len(errors) == 1, err.getvalue()
            return
        assert not errors
        manifest = json.loads(
            (outdir / f"manifest_{argv[0].replace('-', '_')}.json").read_text())
        assert all(Path(p).is_file() for p in manifest["outputs"])
        for p in manifest["outputs"]:
            if p.endswith("_cover.txt"):
                load_cover(load_edge_list(argv[1]).ids, p)
            elif p.endswith(".tsv"):
                load_edge_list(p)
