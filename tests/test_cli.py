import argparse
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wordrep
from wordrep import Graph, VerificationError, build_family, format_graph, parse_graph
from wordrep.cli import _build_parser, main
from conftest import CROWN_ROWS, LADDER_ROWS, PETERSEN_WORD
from oracles import naive_represents


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_dict(out):
    data = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(": ")
        data[key] = value
    return data


# Deterministic `repnum` reports for graphs with R <= 2, byte for byte.
REPNUM_GOLDEN = {
    ("complete", 4): """command: repnum --graph -
inputs: 65974093d629
status: witness-found
rep-number: 1
witness: 1 2 3 4
k-1: witness-found nodes=0
nodes: 0
elapsed-ms: -
version: wordrep 0.1.0
""",
    ("cycle", 5): """command: repnum --graph -
inputs: 6e8c3a22fb7a
status: witness-found
rep-number: 2
witness: 1 2 5 1 4 5 3 4 2 3
k-1: exhausted nodes=0
k-2: witness-found nodes=25
nodes: 25
elapsed-ms: -
version: wordrep 0.1.0
""",
    ("ladder", 3): """command: repnum --graph -
inputs: f04767fe5da9
status: witness-found
rep-number: 2
witness: 2 1 3' 2' 3 3' 2 3 1' 2' 1 1'
k-1: exhausted nodes=0
k-2: witness-found nodes=93
nodes: 93
elapsed-ms: -
version: wordrep 0.1.0
""",
}


@pytest.fixture()
def prism_file(tmp_path):
    p = tmp_path / "pr3.txt"
    p.write_text(format_graph(build_family("prism", 3)))
    return str(p)


class TestBuild:
    def test_round_trip(self, capsys):
        code, out, _ = run(capsys, "build", "prism", "3")
        assert code == 0
        assert parse_graph(out) == build_family("prism", 3)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "g.txt"
        code, out, _ = run(capsys, "build", "cycle", "5", "--out", str(target))
        assert code == 0 and out == ""
        assert parse_graph(target.read_text()) == build_family("cycle", 5)

    def test_double_dash_ends_options(self, capsys):
        code, out, _ = run(capsys, "build", "--", "cycle", "3")
        assert code == 0
        assert parse_graph(out) == build_family("cycle", 3)
        # after `--` a token is a positional value, never an unknown option
        code, _, err = run(capsys, "build", "--", "--x", "3")
        assert code == 2 and "invalid choice: '--x'" in err

    def test_bad_size_is_usage_error(self, capsys):
        code, _, err = run(capsys, "build", "cycle", "2")
        assert code == 2 and "error" in err

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "build", "tesseract", "4")
        assert code == 2


class TestCheck:
    def test_true(self, capsys, prism_file):
        code, out, _ = run(
            capsys, "check",
            "--word", "1 2 3 1' 1 2' 2 3' 3 1' 1 2' 3' 1' 2 2' 3 3'",
            "--graph", prism_file,
        )
        assert code == 0
        assert report_dict(out)["result"] == "true"

    def test_false_lists_differences(self, capsys, tmp_path):
        g = tmp_path / "k2.txt"
        g.write_text("vertices: 1 2\n1 2\n")
        code, out, _ = run(capsys, "check", "--word", "1122", "--graph", str(g))
        assert code == 1
        rep = report_dict(out)
        assert rep["result"] == "false"
        assert rep["missing-edges"] == "1,2"

    def test_word_from_file(self, capsys, tmp_path):
        g = tmp_path / "k2.txt"
        g.write_text("vertices: 1 2\n1 2\n")
        w = tmp_path / "w.txt"
        w.write_text("1 2 1 2\n")
        code, out, _ = run(capsys, "check", "--word", str(w), "--graph", str(g))
        assert code == 0

    def test_alphabet_mismatch_is_usage_error(self, capsys, prism_file):
        code, _, err = run(capsys, "check", "--word", "1212", "--graph", prism_file)
        assert code == 2 and "alphabet mismatch" in err


class TestRepnum:
    def test_prism_report(self, capsys, prism_file):
        code, out, _ = run(capsys, "repnum", "--graph", prism_file)
        assert code == 0
        rep = report_dict(out)
        assert rep["rep-number"] == "3"
        assert rep["status"] == "witness-found"
        assert rep["k-1"].startswith("exhausted")
        assert rep["k-2"].startswith("exhausted")
        assert rep["orientation"].startswith("witness-found nodes=")
        assert rep["elapsed-ms"] == "-"
        assert rep["version"].startswith("wordrep ")

    def test_wheel5_not_representable(self, capsys, tmp_path):
        from wordrep import add_apex

        g = tmp_path / "w5.txt"
        g.write_text(format_graph(add_apex(build_family("cycle", 5), "a")))
        code, out, _ = run(capsys, "repnum", "--graph", str(g))
        assert code == 1
        rep = report_dict(out)
        assert rep["status"] == "not-word-representable"
        assert rep["rep-number"] == "-"
        assert [k for k in rep if k.startswith("k-")] == ["k-1", "k-2"]
        assert rep["orientation"].startswith("exhausted nodes=")

    @pytest.mark.parametrize("family,size", sorted(REPNUM_GOLDEN))
    def test_golden_reports(self, capsys, monkeypatch, family, size):
        text = format_graph(build_family(family, size))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "repnum", "--graph", "-")
        assert code == 0
        assert out == REPNUM_GOLDEN[family, size]

    @pytest.mark.parametrize(
        "argv", [["repnum"], ["find", "--k", "3"], ["orient"]], ids=["repnum", "find", "orient"]
    )
    def test_non_deterministic_prints_elapsed(self, capsys, prism_file, argv):
        code, out, _ = run(capsys, *argv, "--graph", prism_file, "--deterministic", "false")
        assert code == 0
        assert re.fullmatch(r"\d+\.\d", report_dict(out)["elapsed-ms"])

    @pytest.mark.parametrize(
        "value, code, err",
        [("true", 0, ""), ("maybe", 2, "argument --deterministic: expected true or false")],
        ids=["true", "maybe"],
    )
    def test_deterministic_values(self, capsys, prism_file, value, code, err):
        got, out, stderr = run(
            capsys, "repnum", "--graph", prism_file, "--deterministic", value
        )
        assert got == code and err in stderr
        if code == 0:
            assert report_dict(out)["elapsed-ms"] == "-"

    def test_empty_graph_prints_empty_witness(self, capsys, tmp_path):
        # the empty word is a witness, as `find --k 1` prints it
        g = tmp_path / "empty.graph"
        g.write_text("vertices:\n")
        code, out, _ = run(capsys, "repnum", "--graph", str(g))
        rep = report_dict(out)
        assert code == 0 and (rep["status"], rep["rep-number"]) == ("witness-found", "1")
        assert "witness: \n" in out and rep["witness"] == ""
        _, found, _ = run(capsys, "find", "--k", "1", "--graph", str(g))
        assert report_dict(found)["witness"] == ""

    def test_oversized_graph_refused(self, capsys, tmp_path):
        g = tmp_path / "big.txt"
        g.write_text(format_graph(build_family("complete", 11)))
        code, _, err = run(capsys, "repnum", "--graph", str(g))
        assert code == 2 and "at most 10" in err


class TestFind:
    def test_exhausted_exit_code(self, capsys, prism_file):
        code, out, _ = run(capsys, "find", "--graph", prism_file, "--k", "2")
        assert code == 1
        assert report_dict(out)["status"] == "exhausted"

    def test_found(self, capsys, prism_file):
        code, out, _ = run(capsys, "find", "--graph", prism_file, "--k", "3")
        assert code == 0
        assert report_dict(out)["status"] == "witness-found"

    def test_bad_k(self, capsys, prism_file):
        code, _, _ = run(capsys, "find", "--graph", prism_file, "--k", "0")
        assert code == 2

    def test_word_deeper_than_the_stack_aborts(self, capsys, tmp_path):
        g = tmp_path / "p3.graph"
        g.write_text(format_graph(build_family("path", 3)))
        code, out, err = run(capsys, "find", "--graph", str(g), "--k", "400")
        assert (code, err) == (1, "")
        assert report_dict(out)["status"] == "aborted"
        assert report_dict(out)["witness"] == "-"


class TestOrient:
    def test_found_writes_file(self, capsys, prism_file, tmp_path):
        target = tmp_path / "orient.txt"
        code, out, _ = run(
            capsys, "orient", "--graph", prism_file, "--out", str(target)
        )
        assert code == 0
        assert report_dict(out)["status"] == "semi-transitive"
        from wordrep import is_semi_transitive, parse_orientation

        assert is_semi_transitive(parse_orientation(target.read_text()))

    def test_none(self, capsys, tmp_path):
        from wordrep import add_apex

        g = tmp_path / "w5.txt"
        g.write_text(format_graph(add_apex(build_family("cycle", 5), "a")))
        code, out, _ = run(capsys, "orient", "--graph", str(g))
        assert code == 1
        assert report_dict(out)["status"] == "none"

    def test_witness_with_shortcut_is_verification_failure(
        self, capsys, monkeypatch, tmp_path
    ):
        from wordrep import Orientation

        # 1->2->3->4 with 1->4 but no 1->3: a shortcut
        arcs = [("1", "2"), ("2", "3"), ("3", "4"), ("1", "4")]
        c4 = Graph(["1", "2", "3", "4"], arcs)
        bad = Orientation(c4, arcs)
        monkeypatch.setattr("wordrep.orientations.exists_semi_transitive", lambda g: bad)
        g = tmp_path / "c4.txt"
        g.write_text(format_graph(c4))
        code, out, err = run(capsys, "orient", "--graph", str(g))
        assert code == 3 and out == ""
        assert "not semi-transitive" in err


class TestTables:
    def test_ladder_rows(self, capsys):
        code, out, _ = run(capsys, "tables", "ladder", "--max", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == [f"n={n}: {row}" for n, row in enumerate(LADDER_ROWS, 1)]

    def test_crown_rows(self, capsys):
        code, out, _ = run(capsys, "tables", "crown", "--max", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == [f"k={k}: {row}" for k, row in enumerate(CROWN_ROWS, 1)]


class TestChord:
    def test_svg_written(self, capsys, tmp_path):
        target = tmp_path / "d.svg"
        code, out, _ = run(
            capsys, "chord", "--word", "1 2 1 3 2 3", "--out", str(target)
        )
        assert code == 0
        rep = report_dict(out)
        assert rep["chords"] == "3" and rep["crossings"] == "2"
        svg = target.read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_svg_to_stdout(self, capsys):
        code, out, _ = run(capsys, "chord", "--word", "1212", "--out", "-")
        assert code == 0 and out.startswith("<svg")

    def test_non_two_uniform_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "chord", "--word", "123", "--out", str(tmp_path / "d.svg")
        )
        assert code == 2


class TestTransform:
    def test_add_leaf(self, capsys):
        code, out, _ = run(
            capsys, "transform", "add-leaf",
            "--word", "1 2 1 3 2 3", "--x", "3", "--y", "4",
        )
        assert code == 0
        rep = report_dict(out)
        assert rep["verified"] == "true" and rep["k"] == "2"

    def test_add_path_petersen(self, capsys, petersen):
        # re-inserting the last path vertex alone cannot join 1 and 8 here
        code, out, _ = run(
            capsys, "transform", "add-path", "--word", PETERSEN_WORD,
            "--x", "1", "--y", "8", "--length", "3",
        )
        assert code == 0
        rep = report_dict(out)
        assert "fallbacks" not in rep
        path = [("1", "p1"), ("p1", "p2"), ("p2", "8")]
        target = Graph(list(petersen.labels) + ["p1", "p2"], list(petersen.edges()) + path)
        assert naive_represents(rep["word"].split(), target)

    def test_combine_glue(self, capsys):
        code, out, _ = run(
            capsys, "transform", "combine", "--mode", "glue-vertex",
            "--word1", "x1 x x1 x", "--word2", "y y1 y y1",
            "--x", "x", "--y", "y", "--z", "z",
        )
        assert code == 0
        assert report_dict(out)["word"] == "x1 z x1 y1 z y1"

    def test_combine_equalizes(self, capsys):
        code, out, _ = run(
            capsys, "transform", "combine", "--mode", "connect-edge",
            "--word1", "a", "--word2", "b b b",
            "--x", "a", "--y", "b",
        )
        assert code == 0
        assert report_dict(out)["k"] == "3"

    def test_module(self, capsys):
        code, out, _ = run(
            capsys, "transform", "module",
            "--word", "1 2 1 2", "--x", "1",
            "--perm", "a b", "--perm", "b a",
        )
        assert code == 0
        rep = report_dict(out)
        assert rep["k"] == "2" and rep["verified"] == "true"

    def test_cycle_writes_out(self, capsys, tmp_path):
        target = tmp_path / "w.txt"
        code, out, _ = run(
            capsys, "transform", "cycle", "--n", "5", "--out", str(target)
        )
        assert code == 0
        assert target.read_text().strip() == report_dict(out)["word"]

    def test_tree(self, capsys, tmp_path):
        g = tmp_path / "t.txt"
        g.write_text("vertices: 1 2 3\n1 2\n2 3\n")
        code, out, _ = run(capsys, "transform", "tree", "--graph", str(g))
        assert code == 0
        assert report_dict(out)["word"] == "3 2 3 1 2 1"

    def test_cone(self, capsys):
        code, out, _ = run(
            capsys, "transform", "cone",
            "--perm", "1 2", "--perm", "2 1", "--apex", "a",
        )
        assert code == 0
        assert report_dict(out)["verified"] == "true"

    def test_rep_arith(self, capsys):
        code, out, _ = run(
            capsys, "transform", "rep-arith",
            "--k1", "1", "--k2", "2", "--n1", "3", "--n2", "4",
        )
        assert code == 0
        rep = report_dict(out)
        assert rep["connect-edge"] == "2" and rep["glue-vertex"] == "2"


class TestErrorPaths:
    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "repnum", "--graph", "/nonexistent/g.txt")
        assert code == 2

    def test_stdin_graph(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("vertices: 1 2\n1 2\n"))
        code, out, _ = run(capsys, "repnum", "--graph", "-")
        assert code == 0
        assert report_dict(out)["rep-number"] == "1"

    def test_usage_error_without_subcommand(self, capsys):
        assert run(capsys, )[0] == 2

    def test_verification_failure_maps_to_three(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise VerificationError("synthetic check failure")

        monkeypatch.setattr("wordrep.transforms.add_leaf", boom)
        code, _, err = run(
            capsys, "transform", "add-leaf",
            "--word", "1212", "--x", "1", "--y", "3",
        )
        assert code == 3 and "verification" in err

    def test_word_parse_error(self, capsys, tmp_path):
        g = tmp_path / "k2.txt"
        g.write_text("vertices: 1 2\n1 2\n")
        code, _, err = run(capsys, "check", "--word", "(12", "--graph", str(g))
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["build", "--deterministic", "true", "prism", "3"],
        ["tables", "ladder", "--max", "2", "--deterministic", "true"],
        ["transform", "--deterministic", "true", "cycle", "--n", "4"],
        ["transform", "cycle", "--n", "4", "--deterministic", "true"],
    ])
    def test_deterministic_only_where_time_is_printed(self, capsys, argv):
        # before a positional, argparse alone reads `true` as that positional
        # and reports "invalid choice: 'true'"
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.endswith("error: unrecognized arguments: --deterministic\n")

    def test_abbreviated_and_spaced_tokens_still_parse(self, capsys, tmp_path):
        g = tmp_path / "k2.graph"
        g.write_text("vertices: --a --b\n--a --b\n")
        code, out, _ = run(capsys, "repnum", "--det", "false", "--graph", str(g))
        assert code == 0 and "elapsed-ms: -" not in out
        code, out, _ = run(capsys, "check", "--word", "--a --b", "--graph", str(g))
        assert code == 0 and "result: true" in out


class TestTablesBounds:
    @pytest.mark.parametrize("which,value", [("ladder", "0"), ("crown", "-2")])
    def test_max_below_one_is_usage_error(self, capsys, which, value):
        code, out, err = run(capsys, "tables", which, "--max", value)
        assert code == 2 and out == ""
        assert err == f"error: --max must be at least 1, got {value}\n"


# Inputs of the golden corpus, written to the working directory.  `-` reads
# k2.graph from stdin.
GOLDEN_FILES = {
    "pr3.graph": (
        "vertices: 1 2 3 1' 2' 3'\n1 2\n1 3\n1 1'\n2 3\n2 2'\n3 3'\n"
        "1' 2'\n1' 3'\n2' 3'\n"
    ),
    "k2.graph": "vertices: 1 2\n1 2\n",
    "w5.graph": (
        "vertices: 1 2 3 4 5 a\n1 2\n2 3\n3 4\n4 5\n1 5\n"
        "1 a\n2 a\n3 a\n4 a\n5 a\n"
    ),
    "c10.graph": "".join(f"{i} {i % 10 + 1}\n" for i in range(1, 11)),
    "c11.graph": "".join(f"{i} {i % 11 + 1}\n" for i in range(1, 12)),
    "tree.graph": "vertices: 1 2 3 4\n1 2\n2 3\n2 4\n",
}

# name: (argv, exit code, stdout, stderr), byte for byte.  One invocation per
# subcommand and per transform op, then the error paths.  argparse wraps its
# usage text at $COLUMNS, which the tests pin to 80.
CLI_GOLDEN = {
    "build": (
        ["build", "prism", "3"],
        0,
        """vertices: 1 2 3 1' 2' 3'
1 2
1 3
1 1'
2 3
2 2'
3 3'
1' 2'
1' 3'
2' 3'
""",
        "",
    ),
    "build-out": (
        ["build", "cycle", "5", "--out", "c5.graph"],
        0,
        "",
        "",
    ),
    "check-true": (
        [
            "check", "--word", "1 2 3 1' 1 2' 2 3' 3 1' 1 2' 3' 1' 2 2' 3 3'",
            "--graph", "pr3.graph",
        ],
        0,
        """command: check --word '1 2 3 1'"'"' 1 2'"'"' 2 3'"'"' 3 1'"'"' 1 2'"'"' 3'"'"' 1'"'"' 2 2'"'"' 3 3'"'"'' --graph pr3.graph
inputs: 2b20695cc7c8
result: true
version: wordrep 0.1.0
""",
        "",
    ),
    "check-false": (
        ["check", "--word", "1122", "--graph", "k2.graph"],
        1,
        """command: check --word 1122 --graph k2.graph
inputs: 2679c7d9162a
result: false
extra-edges: -
missing-edges: 1,2
version: wordrep 0.1.0
""",
        "",
    ),
    "repnum": (
        ["repnum", "--graph", "pr3.graph"],
        0,
        """command: repnum --graph pr3.graph
inputs: 8cd58887b949
status: witness-found
rep-number: 3
witness: 1 2 3 1' 1 2' 2 3' 3 1' 1 2' 3' 1' 2 2' 3 3'
k-1: exhausted nodes=0
k-2: exhausted nodes=404
k-3: witness-found nodes=18
orientation: witness-found nodes=6
nodes: 422
elapsed-ms: -
version: wordrep 0.1.0
""",
        "",
    ),
    "repnum-stdin": (
        ["repnum", "--graph", "-"],
        0,
        """command: repnum --graph -
inputs: 70693a9b9819
status: witness-found
rep-number: 1
witness: 1 2
k-1: witness-found nodes=0
nodes: 0
elapsed-ms: -
version: wordrep 0.1.0
""",
        "",
    ),
    "find": (
        ["find", "--graph", "pr3.graph", "--k", "3"],
        0,
        """command: find --graph pr3.graph --k 3
inputs: 8cd58887b949
k: 3
status: witness-found
witness: 1 2 3 1' 1 2' 2 3' 3 1' 1 2' 3' 1' 2 2' 3 3'
nodes: 18
elapsed-ms: -
version: wordrep 0.1.0
""",
        "",
    ),
    "orient": (
        ["orient", "--graph", "pr3.graph"],
        0,
        """command: orient --graph pr3.graph
inputs: 8cd58887b949
status: semi-transitive
witness: 1->2 1->3 1->1' 2->3 2->2' 3->3' 1'->2' 1'->3' 2'->3'
elapsed-ms: -
version: wordrep 0.1.0
""",
        "",
    ),
    "orient-none": (
        ["orient", "--graph", "w5.graph"],
        1,
        """command: orient --graph w5.graph
inputs: 948e51e5b323
status: none
elapsed-ms: -
version: wordrep 0.1.0
""",
        "",
    ),
    "tables-ladder": (
        ["tables", "ladder", "--max", "3"],
        0,
        """n=1: 1 1' 1 1'
n=2: 1' 2 1 2' 2 1' 2' 1
n=3: 1 2' 1' 3 2 3' 3 2' 3' 1 2 1'
""",
        "",
    ),
    "tables-crown": (
        ["tables", "crown", "--max", "3"],
        0,
        """k=1: 1 1' 1' 1
k=2: 1 2' 2 1' 2 1' 1 2'
k=3: 1 2 3' 3 2' 1' 1 3 2' 2 3' 1' 2 3 1' 1 3' 2'
""",
        "",
    ),
    "chord": (
        ["chord", "--word", "1 2 1 3 2 3", "--out", "d.svg"],
        0,
        """command: chord --word '1 2 1 3 2 3' --out d.svg
inputs: 11cd2dae499d
chords: 3
crossings: 2
out: d.svg
version: wordrep 0.1.0
""",
        "",
    ),
    "chord-stdout": (
        ["chord", "--word", "1212", "--out", "-"],
        0,
        """<svg xmlns="http://www.w3.org/2000/svg" width="420" height="420" viewBox="0 0 420 420">
<circle cx="210" cy="210" r="160" fill="none" stroke="#888" stroke-width="1"/>
<line x1="210.0" y1="50.0" x2="210.0" y2="370.0" stroke="#1a6" stroke-width="1.5"/>
<circle cx="210.0" cy="50.0" r="2.5" fill="#136"/>
<text x="210.0" y="25.0" font-size="12" font-family="monospace" text-anchor="middle" dominant-baseline="middle">1</text>
<circle cx="210.0" cy="370.0" r="2.5" fill="#136"/>
<text x="210.0" y="395.0" font-size="12" font-family="monospace" text-anchor="middle" dominant-baseline="middle">1</text>
<line x1="370.0" y1="210.0" x2="50.0" y2="210.0" stroke="#1a6" stroke-width="1.5"/>
<circle cx="370.0" cy="210.0" r="2.5" fill="#136"/>
<text x="395.0" y="210.0" font-size="12" font-family="monospace" text-anchor="middle" dominant-baseline="middle">2</text>
<circle cx="50.0" cy="210.0" r="2.5" fill="#136"/>
<text x="25.0" y="210.0" font-size="12" font-family="monospace" text-anchor="middle" dominant-baseline="middle">2</text>
</svg>
""",
        "",
    ),
    "add-leaf": (
        [
            "transform", "add-leaf", "--word", "1 2 1 3 2 3", "--x", "3",
            "--y", "4",
        ],
        0,
        """command: transform add-leaf --word '1 2 1 3 2 3' --x 3 --y 4
word: 1 2 1 4 3 4 2 3
k: 2
length: 8
verified: true
version: wordrep 0.1.0
""",
        "",
    ),
    "add-path": (
        [
            "transform", "add-path", "--word", "1 2 3 1 2 3 1 2 3", "--x", "1",
            "--y", "2", "--length", "3",
        ],
        0,
        """command: transform add-path --word '1 2 3 1 2 3 1 2 3' --x 1 --y 2 --length 3
word: p1 1 p2 p1 2 3 1 p2 2 p1 p2 3 1 2 3
k: 3
length: 15
verified: true
version: wordrep 0.1.0
""",
        "",
    ),
    "combine-edge": (
        [
            "transform", "combine", "--mode", "connect-edge", "--word1", "a",
            "--word2", "b b b", "--x", "a", "--y", "b",
        ],
        0,
        """command: transform combine --mode connect-edge --word1 a --word2 'b b b' --x a --y b
word: a b a b a b
k: 3
length: 6
verified: true
version: wordrep 0.1.0
""",
        "",
    ),
    "combine-glue": (
        [
            "transform", "combine", "--mode", "glue-vertex", "--word1",
            "x1 x x1 x", "--word2", "y y1 y y1", "--x", "x", "--y", "y", "--z",
            "z",
        ],
        0,
        """command: transform combine --mode glue-vertex --word1 'x1 x x1 x' --word2 'y y1 y y1' --x x --y y --z z
word: x1 z x1 y1 z y1
k: 2
length: 6
verified: true
version: wordrep 0.1.0
""",
        "",
    ),
    "module": (
        [
            "transform", "module", "--word", "1 2 1 2", "--x", "1", "--perm",
            "a b", "--perm", "b a",
        ],
        0,
        """command: transform module --word '1 2 1 2' --x 1 --perm 'a b' --perm 'b a'
word: a b 2 b a 2
k: 2
length: 6
verified: true
version: wordrep 0.1.0
""",
        "",
    ),
    "ladder": (
        ["transform", "ladder", "--n", "3"],
        0,
        """command: transform ladder --n 3
word: 1 2' 1' 3 2 3' 3 2' 3' 1 2 1'
k: 2
length: 12
verified: true
version: wordrep 0.1.0
""",
        "",
    ),
    "crown": (
        ["transform", "crown", "--k", "3"],
        0,
        """command: transform crown --k 3
word: 1 2 3' 3 2' 1' 1 3 2' 2 3' 1' 2 3 1' 1 3' 2'
k: 3
length: 18
verified: true
version: wordrep 0.1.0
""",
        "",
    ),
    "tree": (
        ["transform", "tree", "--graph", "tree.graph"],
        0,
        """command: transform tree --graph tree.graph
word: 3 4 2 4 3 1 2 1
k: 2
length: 8
verified: true
version: wordrep 0.1.0
""",
        "",
    ),
    "cycle": (
        ["transform", "cycle", "--n", "5"],
        0,
        """command: transform cycle --n 5
word: 5 1 4 5 3 4 2 3 1 2
k: 2
length: 10
verified: true
version: wordrep 0.1.0
""",
        "",
    ),
    "cone": (
        ["transform", "cone", "--perm", "1 2", "--perm", "2 1", "--apex", "a"],
        0,
        """command: transform cone --perm '1 2' --perm '2 1' --apex a
word: 1 2 a 2 1 a
k: 2
length: 6
verified: true
version: wordrep 0.1.0
""",
        "",
    ),
    "rep-arith": (
        [
            "transform", "rep-arith", "--k1", "1", "--k2", "2", "--n1", "3",
            "--n2", "4",
        ],
        0,
        """command: transform rep-arith --k1 1 --k2 2 --n1 3 --n2 4
connect-edge: 2
glue-vertex: 2
version: wordrep 0.1.0
""",
        "",
    ),
    "usage": (
        [],
        2,
        "",
        """usage: wordrep [-h]
               {build,check,repnum,find,orient,tables,chord,transform} ...
wordrep: error: the following arguments are required: cmd
""",
    ),
    "unknown-command": (
        ["frobnicate"],
        2,
        "",
        """usage: wordrep [-h]
               {build,check,repnum,find,orient,tables,chord,transform} ...
wordrep: error: argument cmd: invalid choice: 'frobnicate' (choose from 'build', 'check', 'repnum', 'find', 'orient', 'tables', 'chord', 'transform')
""",
    ),
    "parse-error": (
        ["check", "--word", "(12", "--graph", "k2.graph"],
        2,
        "",
        """error: unbalanced '(' in word
""",
    ),
    "missing-file": (
        ["repnum", "--graph", "missing.graph"],
        2,
        "",
        """error: [Errno 2] No such file or directory: 'missing.graph'
""",
    ),
    "repnum-bound": (
        ["repnum", "--graph", "c11.graph"],
        2,
        "",
        """error: graph has 11 vertices; repnum runs an exhaustive search and supports at most 10
""",
    ),
    "find-bound": (
        ["find", "--graph", "c11.graph", "--k", "2"],
        2,
        "",
        """error: graph has 11 vertices; find runs an exhaustive search and supports at most 10
""",
    ),
    "orient-bound": (
        ["orient", "--graph", "c10.graph"],
        2,
        "",
        """error: graph has 10 vertices; orient runs an exhaustive search and supports at most 9
""",
    ),
    "find-k0": (
        ["find", "--graph", "pr3.graph", "--k", "0"],
        2,
        "",
        """error: k must be a positive integer
""",
    ),
    "orient-out": (
        ["orient", "--graph", "pr3.graph", "--out", "pr3.orient"],
        0,
        """command: orient --graph pr3.graph --out pr3.orient
inputs: 8cd58887b949
status: semi-transitive
witness: 1->2 1->3 1->1' 2->3 2->2' 3->3' 1'->2' 1'->3' 2'->3'
elapsed-ms: -
version: wordrep 0.1.0
""",
        "",
    ),
    "build-bad-family": (
        ["build", "tesseract", "4"],
        2,
        "",
        """usage: wordrep build [-h] [--out OUT]
                     {complete,path,cycle,prism,ladder,crown,petersen} size
wordrep build: error: argument family: invalid choice: 'tesseract' (choose from 'complete', 'path', 'cycle', 'prism', 'ladder', 'crown', 'petersen')
""",
    ),
    "transform-no-op": (
        ["transform"],
        2,
        "",
        """usage: wordrep transform [-h]
                         {add-leaf,add-path,combine,module,ladder,crown,tree,cycle,cone,rep-arith}
                         ...
wordrep transform: error: the following arguments are required: op
""",
    ),
    "add-path-no-length": (
        [
            "transform", "add-path", "--word", "1 2 3 1 2 3 1 2 3", "--x", "1",
            "--y", "2",
        ],
        2,
        "",
        """usage: wordrep transform add-path [-h] --word WORD --x X --y Y --length LENGTH
                                  [--out OUT]
wordrep transform add-path: error: the following arguments are required: --length
""",
    ),
}

# name: (file the invocation writes, its text), byte for byte.
GOLDEN_WRITES = {
    "orient-out": (
        "pr3.orient",
        """vertices: 1 2 3 1' 2' 3'
1 -> 2
1 -> 3
1 -> 1'
2 -> 3
2 -> 2'
3 -> 3'
1' -> 2'
1' -> 3'
2' -> 3'
""",
    ),
}

# Run also as `python -m wordrep.cli`, so the module entry point is covered.
MODULE_RUNS = ["build", "check-true", "ladder", "usage", "repnum-bound"]


def subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.fixture()
def golden_dir(tmp_path, monkeypatch):
    for name, text in GOLDEN_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    return tmp_path


class TestGoldenCorpus:
    @pytest.mark.parametrize("name", list(CLI_GOLDEN))
    def test_in_process(self, capsys, monkeypatch, golden_dir, name):
        argv, code, out, err = CLI_GOLDEN[name]
        monkeypatch.setattr("sys.stdin", io.StringIO(GOLDEN_FILES["k2.graph"]))
        assert run(capsys, *argv) == (code, out, err)
        if name in GOLDEN_WRITES:
            path, text = GOLDEN_WRITES[name]
            assert (golden_dir / path).read_text() == text

    def test_every_subcommand_and_op_is_pinned(self):
        commands = subcommands(_build_parser())
        want = {(c,) for c in commands if c != "transform"}
        want |= {("transform", op) for op in subcommands(commands["transform"])}
        pinned = {
            tuple(argv[:2]) if argv[:1] == ["transform"] else tuple(argv[:1])
            for argv, _, _, _ in CLI_GOLDEN.values()
        }
        assert want - pinned == set()

    @pytest.mark.parametrize("name", MODULE_RUNS)
    def test_module_entry_point(self, golden_dir, name):
        argv, code, out, err = CLI_GOLDEN[name]
        src = str(Path(wordrep.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "wordrep.cli", *argv],
            cwd=golden_dir,
            env=dict(os.environ, PYTHONPATH=src, COLUMNS="80"),
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
