"""What a process loads: `import wordrep` loads no submodule, each CLI
subcommand imports only the submodules it runs, and none of them loads
`dataclasses` or `inspect`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wordrep
from conftest import PETERSEN_WORD

SRC = str(Path(wordrep.__file__).resolve().parents[1])

PUBLIC_NAMES = [
    "__version__", "ABORTED", "EXHAUSTED", "FAMILIES", "NOT_REPRESENTABLE",
    "PETERSEN_EDGES", "WITNESS_FOUND", "Certificate", "ChordDiagram",
    "CombineMode", "CombinedRepNumbers", "Graph", "LinearOrderFamily",
    "Orientation", "ParseError", "RepNumberCertificate", "RepNumberInput",
    "ShortcutWitness", "UniformityProfile", "VerificationError", "Word",
    "add_apex", "add_leaf", "add_path", "alternates", "are_isomorphic",
    "build_family", "chord_diagram", "chord_svg", "chords_cross",
    "chromatic_number", "combine", "combined_rep_number", "concat_orders",
    "cone_word", "crossing_graph", "crown_perm_word", "cyclic_shift",
    "cycle_word", "derive_graph", "directed_cycle", "equalize_uniformity",
    "exists_semi_transitive", "extend_uniform", "fallback_counts",
    "find_k_uniform_representant", "find_permutational_representation",
    "find_shortcut", "find_transitive_orientation", "format_graph",
    "format_orientation", "format_word", "induced_subgraph",
    "initial_permutation", "is_acyclic", "is_semi_transitive",
    "is_shortcut_witness", "is_transitive", "ladder_word", "orient_by_order",
    "parse_graph", "parse_orientation", "parse_word", "permutation_blocks",
    "poset_dimension", "represents", "representation_number",
    "reverse", "substitute_module", "tree_word",
    "uniformity",
]

# The sorted wordrep.* modules left in sys.modules after the statement runs,
# and `dataclasses` and `inspect` if they are loaded: no statement below
# should load those, as together they take longer to import than any
# wordrep module, and every CLI process would pay for them.
LOADED = """
import sys
{statement}
print(*sorted(m for m in sys.modules if m == "wordrep" or m.startswith("wordrep.")
              or m in ("dataclasses", "inspect")))
"""

RUN_MAIN = """
import contextlib, io
from wordrep.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0
"""

CLI_BASE = ["cli", "errors", "graphs"]

PR3 = "vertices: 1 2 3 1' 2' 3'\n1 2\n1 3\n1 1'\n2 3\n2 2'\n3 3'\n1' 2'\n1' 3'\n2' 3'\n"

# case: (argv, the wordrep submodules it loads beyond CLI_BASE); one case per
# subcommand, then repnum once k = 2 has exhausted (R(Pr3) = 3), the only case
# that runs the orientation search, and `--perm` parsed without `search`
SUBCOMMAND_LOADS = {
    "build": (["build", "prism", "3"], []),
    "check": (["check", "--word", "1212", "--graph", "k2.graph"], ["words"]),
    "orient": (["orient", "--graph", "k2.graph"], ["orientations"]),
    "chord": (["chord", "--word", "1212", "--out", "-"], ["words", "chords"]),
    "find": (["find", "--graph", "k2.graph", "--k", "1"], ["words", "search"]),
    "repnum": (["repnum", "--graph", "k2.graph"], ["words", "search"]),
    "transform": (
        ["transform", "add-leaf", "--word", "1212", "--x", "1", "--y", "3"],
        ["words", "transforms"],
    ),
    "tables": (["tables", "ladder", "--max", "2"], ["words", "transforms"]),
    "repnum-pr3": (
        ["repnum", "--graph", "pr3.graph"],
        ["words", "orientations", "search"],
    ),
    "transform-cone": (
        ["transform", "cone", "--perm", "1 2", "--perm", "2 1", "--apex", "a"],
        ["words", "transforms"],
    ),
}


def loaded_modules(statement, *argv, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-c", LOADED.format(statement=statement), *argv],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=SRC),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def qualified(*names):
    return sorted(["wordrep"] + [f"wordrep.{n}" for n in names])


def test_import_loads_no_submodule():
    assert loaded_modules("import wordrep") == ["wordrep"]


def test_from_import_loads_only_the_owning_module():
    assert loaded_modules("from wordrep import Word") == qualified(
        "errors", "graphs", "words"
    )


def test_submodule_is_an_attribute_after_a_bare_import():
    got = loaded_modules("import wordrep\nwordrep.orientations")
    assert got == qualified("errors", "graphs", "orientations")


@pytest.mark.parametrize("sub", list(SUBCOMMAND_LOADS))
def test_subcommand_loads(tmp_path, sub):
    argv, extra = SUBCOMMAND_LOADS[sub]
    (tmp_path / "k2.graph").write_text("vertices: 1 2\n1 2\n")
    (tmp_path / "pr3.graph").write_text(PR3)
    got = loaded_modules(RUN_MAIN, *argv, cwd=tmp_path)
    assert got == qualified(*CLI_BASE, *extra)


def test_add_path_never_loads_search():
    # add_path, combine and cycle_word are direct constructions with no search
    statement = (
        "from itertools import combinations\n"
        "from wordrep import CombineMode, add_path, combine, cycle_word, parse_word\n"
        f"w = parse_word({PETERSEN_WORD!r})\n"
        "for x, y in combinations(w.alphabet, 2):\n"
        "    add_path(w, x, y, 3)\n"
        "w1, w2 = parse_word('a b a c b c'), parse_word('d e d e')\n"
        "for mode in (CombineMode('connect-edge'), CombineMode('glue-vertex', 'z')):\n"
        "    for x in w1.alphabet:\n"
        "        combine(w1, w2, x, 'e', mode)\n"
        "for n in range(3, 12):\n"
        "    cycle_word(n)"
    )
    assert loaded_modules(statement) == qualified("errors", "graphs", "transforms", "words")


def _empty_accumulator(value):
    if isinstance(value, ast.List):
        return not value.elts
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("Counter", "defaultdict"):
            return True
        return name in ("set", "dict", "list") and not value.args and not value.keywords
    return False


def test_no_module_level_accumulator():
    # results carry their own statistics; a module-level counter or cache
    # would be state shared by every caller in the process
    found = []
    for path in sorted(Path(SRC, "wordrep").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                if _empty_accumulator(node.value):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_all_keeps_the_public_names():
    assert sorted(wordrep.__all__) == sorted(PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) <= set(dir(wordrep))


def test_every_name_resolves():
    for name in PUBLIC_NAMES:
        value = getattr(wordrep, name)
        assert vars(wordrep)[name] is value, name  # bound on first use
        owner = getattr(value, "__module__", None)
        if owner is not None and owner.startswith("wordrep."):
            assert getattr(sys.modules[owner], name) is value, name


def test_star_import():
    namespace = {}
    exec("from wordrep import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert namespace["Word"] is wordrep.Word


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        wordrep.no_such_name
    with pytest.raises(ImportError):
        exec("from wordrep import no_such_name", {})
