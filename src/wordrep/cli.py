"""Command-line surface.

Reports are stable-order `key: value` lines on stdout, diagnostics go to
stderr.  Exit codes: 0 success/true, 1 false/exhausted/none, 2 usage or
parse error, 3 internal verification failure.  `repnum`, `find` and
`orient` take `--deterministic`; in deterministic mode (the default) their
elapsed times print as "-", so every report is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys
import time
from typing import TYPE_CHECKING

from . import __version__
from .errors import ParseError, VerificationError
from .graphs import FAMILIES, Graph, build_family, format_graph, parse_graph

if TYPE_CHECKING:
    from .words import LinearOrderFamily, Word

SEARCH_VERTEX_BOUND = 10
ORIENT_VERTEX_BOUND = 9


def _bool_arg(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {s!r}")


def _read_text(value: str) -> str:
    if value == "-":
        return sys.stdin.read()
    with open(value, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(value: str) -> Graph:
    return parse_graph(_read_text(value))


def _load_word(value: str, alphabet=None) -> Word:
    from .words import parse_word

    text = _read_text(value) if value == "-" or os.path.isfile(value) else value
    return parse_word(text, alphabet)


def _write_out(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _digest(*parts: str) -> str:
    import hashlib

    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()[:12]


def _ms(value: float, deterministic: bool) -> str:
    return "-" if deterministic else f"{value:.1f}"


class _Report:
    def __init__(self, args: argparse.Namespace):
        self.lines: list[tuple[str, str]] = []
        self.add("command", shlex.join(args._argv))

    def add(self, key: str, value: str) -> None:
        self.lines.append((key, value))

    def emit(self) -> None:
        for key, value in self.lines:
            print(f"{key}: {value}")
        print(f"version: wordrep {__version__}")


def _check_bound(n: int, bound: int, what: str) -> None:
    if n > bound:
        raise ValueError(
            f"graph has {n} vertices; {what} runs an exhaustive search and "
            f"supports at most {bound}"
        )


def cmd_build(args: argparse.Namespace) -> int:
    g = build_family(args.family, args.size)
    _write_out(args.out, format_graph(g))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .words import derive_graph, format_word, represents

    g = _load_graph(args.graph)
    w = _load_word(args.word, alphabet=g.labels)
    ok = represents(w, g)
    rep = _Report(args)
    rep.add("inputs", _digest(format_graph(g), format_word(w)))
    rep.add("result", "true" if ok else "false")
    if not ok:
        got = derive_graph(w)
        got_edges = {frozenset(e) for e in got.edges()}
        want_edges = {frozenset(e) for e in g.edges()}
        extra = sorted(tuple(sorted(e)) for e in got_edges - want_edges)
        missing = sorted(tuple(sorted(e)) for e in want_edges - got_edges)
        rep.add("extra-edges", " ".join(f"{a},{b}" for a, b in extra) or "-")
        rep.add("missing-edges", " ".join(f"{a},{b}" for a, b in missing) or "-")
    rep.emit()
    return 0 if ok else 1


def cmd_repnum(args: argparse.Namespace) -> int:
    from .search import WITNESS_FOUND, representation_number
    from .words import format_word

    g = _load_graph(args.graph)
    _check_bound(g.n, SEARCH_VERTEX_BOUND, "repnum")
    res = representation_number(g, args.max_k)
    rep = _Report(args)
    rep.add("inputs", _digest(format_graph(g)))
    rep.add("status", res.status)
    rep.add("rep-number", str(res.rep_number) if res.rep_number else "-")
    rep.add("witness", format_word(res.witness) if res.witness else "-")
    for k, cert in enumerate(res.per_k, start=1):
        rep.add(f"k-{k}", f"{cert.status} nodes={cert.nodes_explored}")
    if res.orientation is not None:
        orient = res.orientation
        rep.add("orientation", f"{orient.status} nodes={orient.nodes_explored}")
    rep.add("nodes", str(res.nodes_explored))
    rep.add("elapsed-ms", _ms(res.elapsed_ms, args.deterministic))
    rep.emit()
    return 0 if res.status == WITNESS_FOUND else 1


def cmd_find(args: argparse.Namespace) -> int:
    from .search import WITNESS_FOUND, find_k_uniform_representant
    from .words import Word, format_word

    g = _load_graph(args.graph)
    _check_bound(g.n, SEARCH_VERTEX_BOUND, "find")
    cert = find_k_uniform_representant(g, args.k)
    rep = _Report(args)
    rep.add("inputs", _digest(format_graph(g)))
    rep.add("k", str(args.k))
    rep.add("status", cert.status)
    rep.add(
        "witness",
        format_word(cert.witness) if isinstance(cert.witness, Word) else "-",
    )
    rep.add("nodes", str(cert.nodes_explored))
    rep.add("elapsed-ms", _ms(cert.elapsed_ms, args.deterministic))
    rep.emit()
    return 0 if cert.status == WITNESS_FOUND else 1


def cmd_orient(args: argparse.Namespace) -> int:
    from .orientations import exists_semi_transitive, format_orientation

    g = _load_graph(args.graph)
    _check_bound(g.n, ORIENT_VERTEX_BOUND, "orient")
    t0 = time.perf_counter()
    d = exists_semi_transitive(g)
    elapsed = (time.perf_counter() - t0) * 1000.0
    rep = _Report(args)
    rep.add("inputs", _digest(format_graph(g)))
    if d is None:
        rep.add("status", "none")
        rep.add("elapsed-ms", _ms(elapsed, args.deterministic))
        rep.emit()
        return 1
    rep.add("status", "semi-transitive")
    rep.add("witness", " ".join(f"{u}->{v}" for u, v in d.arcs()) or "-")
    rep.add("elapsed-ms", _ms(elapsed, args.deterministic))
    rep.emit()
    if args.out is not None:
        _write_out(args.out, format_orientation(d))
    return 0


def _parse_perm_args(perm_texts: list[str]) -> LinearOrderFamily:
    from .words import LinearOrderFamily, parse_word

    orders = tuple(tuple(parse_word(p).letters) for p in perm_texts)
    return LinearOrderFamily(orders)


def cmd_transform(args: argparse.Namespace) -> int:
    from . import transforms
    from .words import format_word, uniformity

    rep = _Report(args)
    if args.op == "rep-arith":
        nums = transforms.combined_rep_number(
            transforms.RepNumberInput(k1=args.k1, k2=args.k2, n1=args.n1, n2=args.n2)
        )
        rep.add("connect-edge", str(nums.connect_edge))
        rep.add("glue-vertex", str(nums.glue_vertex))
        rep.emit()
        return 0
    w = _TRANSFORMS[args.op][1](args, transforms)
    prof = uniformity(w)
    rep.add("word", format_word(w))
    rep.add("k", str(prof.k) if prof.k is not None else "non-uniform")
    rep.add("length", str(len(w)))
    rep.add("verified", "true")
    rep.emit()
    if args.out:
        _write_out(args.out, format_word(w) + "\n")
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    from .transforms import crown_perm_word, ladder_word
    from .words import format_word

    if args.max < 1:
        raise ValueError(f"--max must be at least 1, got {args.max}")
    if args.which == "ladder":
        for n in range(1, args.max + 1):
            print(f"n={n}: {format_word(ladder_word(n))}")
    else:
        for k in range(1, args.max + 1):
            print(f"k={k}: {format_word(crown_perm_word(k))}")
    return 0


def cmd_chord(args: argparse.Namespace) -> int:
    from .chords import chord_diagram, chord_svg, crossing_graph
    from .words import format_word

    w = _load_word(args.word)
    d = chord_diagram(w)
    svg = chord_svg(d)
    if args.out == "-":
        sys.stdout.write(svg)
        return 0
    _write_out(args.out, svg)
    rep = _Report(args)
    rep.add("inputs", _digest(format_word(w)))
    rep.add("chords", str(len(d.chords)))
    rep.add("crossings", str(crossing_graph(d).edge_count))
    rep.add("out", args.out)
    rep.emit()
    return 0


def _arg(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


DETERMINISTIC = _arg(
    "--deterministic",
    type=_bool_arg,
    default=True,
    metavar="BOOL",
    help="stable byte-identical reports (default true)",
)
GRAPH = _arg("--graph", required=True)
WORD = _arg("--word", required=True)
X = _arg("--x", required=True)
Y = _arg("--y", required=True)
K = _arg("--k", type=int, required=True)
N = _arg("--n", type=int, required=True)
PERM = _arg("--perm", action="append", required=True)
OUT = _arg("--out")


def _combine(args: argparse.Namespace, t) -> Word:
    mode = t.CombineMode(args.mode, args.z if args.mode == "glue-vertex" else None)
    w1, w2 = t.equalize_uniformity(_load_word(args.word1), _load_word(args.word2))
    return t.combine(w1, w2, args.x, args.y, mode)


# transform op: (options, build(args, transforms module) -> Word); rep-arith
# prints two numbers instead of a word.
_TRANSFORMS = {
    "add-leaf": (
        (WORD, X, Y, OUT),
        lambda a, t: t.add_leaf(_load_word(a.word), a.x, a.y),
    ),
    "add-path": (
        (WORD, X, Y, _arg("--length", type=int, required=True), OUT),
        lambda a, t: t.add_path(_load_word(a.word), a.x, a.y, a.length),
    ),
    "combine": (
        (
            _arg("--mode", choices=("connect-edge", "glue-vertex"), required=True),
            _arg("--word1", required=True),
            _arg("--word2", required=True),
            X,
            Y,
            _arg("--z", default="z", help="merged label for glue-vertex"),
            OUT,
        ),
        _combine,
    ),
    "module": (
        (WORD, X, PERM, OUT),
        lambda a, t: t.substitute_module(_load_word(a.word), a.x, _parse_perm_args(a.perm)),
    ),
    "ladder": ((N, OUT), lambda a, t: t.ladder_word(a.n)),
    "crown": ((K, OUT), lambda a, t: t.crown_perm_word(a.k)),
    "tree": ((GRAPH, OUT), lambda a, t: t.tree_word(_load_graph(a.graph))),
    "cycle": ((N, OUT), lambda a, t: t.cycle_word(a.n)),
    "cone": (
        (PERM, _arg("--apex", required=True), OUT),
        lambda a, t: t.cone_word(_parse_perm_args(a.perm), a.apex),
    ),
    "rep-arith": (
        tuple(_arg(f"--{f}", type=int, required=True) for f in ("k1", "k2", "n1", "n2")),
        None,
    ),
}

# subcommand: (help, options, handler); `transform` takes its ops from above.
_COMMANDS = {
    "build": (
        "emit a named family graph",
        (_arg("family", choices=FAMILIES), _arg("size", type=int), OUT),
        cmd_build,
    ),
    "check": (
        "verify a word against a graph",
        (
            _arg("--word", required=True, help="word: file, -, or literal tokens"),
            _arg("--graph", required=True, help="graph file or -"),
        ),
        cmd_check,
    ),
    "repnum": (
        "exact representation number",
        (DETERMINISTIC, GRAPH, _arg("--max-k", type=int)),
        cmd_repnum,
    ),
    "find": ("search a k-uniform representant", (DETERMINISTIC, GRAPH, K), cmd_find),
    "orient": (
        "find a semi-transitive orientation",
        (DETERMINISTIC, GRAPH, _arg("--out", help="write orientation text here")),
        cmd_orient,
    ),
    "tables": (
        "reproduce the word tables",
        (_arg("which", choices=("ladder", "crown")), _arg("--max", type=int, required=True)),
        cmd_tables,
    ),
    "chord": (
        "export a chord diagram SVG",
        (WORD, _arg("--out", required=True)),
        cmd_chord,
    ),
    "transform": ("apply a word construction", (), cmd_transform),
}


def _add_options(p: argparse.ArgumentParser, options) -> None:
    for flags, kwargs in options:
        p.add_argument(*flags, **kwargs)


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every subcommand; with a command, only that one declares its options.

    argparse hands the arguments to the one subcommand that argv names, so a
    process that runs one need not build the others' options or transform's
    ten ops.
    """
    parser = argparse.ArgumentParser(
        prog="wordrep",
        description="Word-representable graphs: verify, search, orient, construct.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (help_text, options, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command in (None, name):
            _add_options(p, options)
        p.set_defaults(func=handler)
    if command in (None, "transform"):
        ops = sub.choices["transform"].add_subparsers(dest="op", required=True)
        for op, (options, _) in _TRANSFORMS.items():
            _add_options(ops.add_parser(op), options)
    return parser


def _reject_unknown_options(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Fail on a `--name` token that the subcommand and op argv selects lack.

    Without this, argparse binds the value after an unknown flag placed before
    a positional to that positional and reports the value as an invalid
    choice.  Abbreviations and tokens with a space pass, as argparse takes
    them as an option and as a value.
    """
    table, declared = _COMMANDS, ["--help"]
    for tok in argv:
        if tok == "--":
            return
        if tok.startswith("--") and " " not in tok:
            name = tok.partition("=")[0]
            if not any(d.startswith(name) for d in declared):
                parser.error(f"unrecognized arguments: {name}")
        elif table is not None and not tok.startswith("-"):
            if tok not in table:
                return  # argparse reports the invalid choice
            options = _COMMANDS[tok][1] if table is _COMMANDS else _TRANSFORMS[tok][0]
            declared = ["--help", *(f for flags, _ in options for f in flags)]
            table = _TRANSFORMS if tok == "transform" else None


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argv[0] is the subcommand whenever it names one: the top level has no
    # option that takes a value
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        _reject_unknown_options(parser, argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args._argv = list(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
