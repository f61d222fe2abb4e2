"""Command-line surface.

Reports are stable-order `key: value` lines on stdout, diagnostics go to
stderr.  Exit codes: 0 success/true, 1 false/exhausted/none, 2 usage or
parse error, 3 internal verification failure.  In deterministic mode (the
default) reports are byte-identical across runs, so elapsed times print
as "-".
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
    from .search import LinearOrderFamily
    from .words import Word

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

    if value == "-":
        text = sys.stdin.read()
    elif os.path.isfile(value):
        with open(value, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = value
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


def _emit_word_report(args: argparse.Namespace, w: Word, extra=()) -> None:
    from .words import format_word, uniformity

    rep = _Report(args)
    prof = uniformity(w)
    rep.add("word", format_word(w))
    rep.add("k", str(prof.k) if prof.k is not None else "non-uniform")
    rep.add("length", str(len(w)))
    for key, value in extra:
        rep.add(key, value)
    rep.emit()


def _parse_perm_args(perm_texts: list[str]) -> LinearOrderFamily:
    from .search import LinearOrderFamily
    from .words import parse_word

    orders = tuple(tuple(parse_word(p).letters) for p in perm_texts)
    return LinearOrderFamily(orders)


def cmd_transform(args: argparse.Namespace) -> int:
    from .transforms import (
        CombineMode,
        RepNumberInput,
        add_leaf,
        add_path,
        combine,
        combined_rep_number,
        cone_word,
        crown_perm_word,
        cycle_word,
        equalize_uniformity,
        fallback_counts,
        ladder_word,
        substitute_module,
        tree_word,
    )
    from .words import format_word

    before = sum(fallback_counts().values())
    if args.op == "add-leaf":
        w = add_leaf(_load_word(args.word), args.x, args.y)
    elif args.op == "add-path":
        w = add_path(_load_word(args.word), args.x, args.y, args.length)
    elif args.op == "combine":
        mode = CombineMode(
            args.mode, args.z if args.mode == "glue-vertex" else None
        )
        w1 = _load_word(args.word1)
        w2 = _load_word(args.word2)
        w1, w2 = equalize_uniformity(w1, w2)
        w = combine(w1, w2, args.x, args.y, mode)
    elif args.op == "module":
        w = substitute_module(
            _load_word(args.word), args.x, _parse_perm_args(args.perm)
        )
    elif args.op == "ladder":
        w = ladder_word(args.n)
    elif args.op == "crown":
        w = crown_perm_word(args.k)
    elif args.op == "tree":
        w = tree_word(_load_graph(args.graph))
    elif args.op == "cycle":
        w = cycle_word(args.n)
    elif args.op == "cone":
        w = cone_word(_parse_perm_args(args.perm), args.apex)
    elif args.op == "rep-arith":
        nums = combined_rep_number(
            RepNumberInput(k1=args.k1, k2=args.k2, n1=args.n1, n2=args.n2)
        )
        rep = _Report(args)
        rep.add("connect-edge", str(nums.connect_edge))
        rep.add("glue-vertex", str(nums.glue_vertex))
        rep.emit()
        return 0
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown transform {args.op!r}")
    fallbacks = sum(fallback_counts().values()) - before
    _emit_word_report(
        args, w, extra=(("verified", "true"), ("fallbacks", str(fallbacks)))
    )
    if getattr(args, "out", None):
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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--deterministic",
        type=_bool_arg,
        default=True,
        metavar="BOOL",
        help="stable byte-identical reports (default true)",
    )

    parser = argparse.ArgumentParser(
        prog="wordrep",
        description="Word-representable graphs: verify, search, orient, construct.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("build", parents=[common], help="emit a named family graph")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("size", type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("check", parents=[common], help="verify a word against a graph")
    p.add_argument("--word", required=True, help="word: file, -, or literal tokens")
    p.add_argument("--graph", required=True, help="graph file or -")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("repnum", parents=[common], help="exact representation number")
    p.add_argument("--graph", required=True)
    p.add_argument("--max-k", type=int, default=None, dest="max_k")
    p.set_defaults(func=cmd_repnum)

    p = sub.add_parser("find", parents=[common], help="search a k-uniform representant")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_find)

    p = sub.add_parser(
        "orient", parents=[common], help="find a semi-transitive orientation"
    )
    p.add_argument("--graph", required=True)
    p.add_argument("--out", default=None, help="write orientation text here")
    p.set_defaults(func=cmd_orient)

    p = sub.add_parser("tables", parents=[common], help="reproduce the word tables")
    p.add_argument("which", choices=("ladder", "crown"))
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("chord", parents=[common], help="export a chord diagram SVG")
    p.add_argument("--word", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_chord)

    t = sub.add_parser("transform", parents=[common], help="apply a word construction")
    tsub = t.add_subparsers(dest="op", required=True)

    q = tsub.add_parser("add-leaf", parents=[common])
    q.add_argument("--word", required=True)
    q.add_argument("--x", required=True)
    q.add_argument("--y", required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_transform)

    q = tsub.add_parser("add-path", parents=[common])
    q.add_argument("--word", required=True)
    q.add_argument("--x", required=True)
    q.add_argument("--y", required=True)
    q.add_argument("--length", type=int, required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_transform)

    q = tsub.add_parser("combine", parents=[common])
    q.add_argument("--mode", choices=("connect-edge", "glue-vertex"), required=True)
    q.add_argument("--word1", required=True)
    q.add_argument("--word2", required=True)
    q.add_argument("--x", required=True)
    q.add_argument("--y", required=True)
    q.add_argument("--z", default="z", help="merged label for glue-vertex")
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_transform)

    q = tsub.add_parser("module", parents=[common])
    q.add_argument("--word", required=True)
    q.add_argument("--x", required=True)
    q.add_argument("--perm", action="append", required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_transform)

    q = tsub.add_parser("ladder", parents=[common])
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_transform)

    q = tsub.add_parser("crown", parents=[common])
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_transform)

    q = tsub.add_parser("tree", parents=[common])
    q.add_argument("--graph", required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_transform)

    q = tsub.add_parser("cycle", parents=[common])
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_transform)

    q = tsub.add_parser("cone", parents=[common])
    q.add_argument("--perm", action="append", required=True)
    q.add_argument("--apex", required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_transform)

    q = tsub.add_parser("rep-arith", parents=[common])
    q.add_argument("--k1", type=int, required=True)
    q.add_argument("--k2", type=int, required=True)
    q.add_argument("--n1", type=int, required=True)
    q.add_argument("--n2", type=int, required=True)
    q.set_defaults(func=cmd_transform)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
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
