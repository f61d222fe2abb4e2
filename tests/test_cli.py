import pytest

from wordrep import VerificationError, build_family, format_graph, parse_graph
from wordrep.cli import main
from conftest import CROWN_ROWS, LADDER_ROWS, PETERSEN_WORD


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
        import io

        text = format_graph(build_family(family, size))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "repnum", "--graph", "-")
        assert code == 0
        assert out == REPNUM_GOLDEN[family, size]

    def test_non_deterministic_prints_elapsed(self, capsys, prism_file):
        code, out, _ = run(
            capsys, "repnum", "--graph", prism_file, "--deterministic", "false"
        )
        assert code == 0
        assert report_dict(out)["elapsed-ms"] != "-"

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
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("vertices: 1 2\n1 2\n"))
        code, out, _ = run(capsys, "repnum", "--graph", "-")
        assert code == 0
        assert report_dict(out)["rep-number"] == "1"

    def test_usage_error_without_subcommand(self, capsys):
        assert run(capsys, )[0] == 2

    def test_verification_failure_maps_to_three(self, capsys, monkeypatch):
        import wordrep.cli as cli

        def boom(*args, **kwargs):
            raise VerificationError("synthetic check failure")

        monkeypatch.setattr(cli, "add_leaf", boom)
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
