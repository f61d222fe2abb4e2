"""`construct`: the polynomial side -- text, values, alternation, transforms.

The `words` and `graphs` layers and the transforms' post-verification do the
work here; the exhaustive search runs only through counted fallbacks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import oracles as o
from harness import Failed, Op, spread

TEXT_OPS = 80  # per kind: parse_word, format_word, Word, parse_graph, format_graph, Graph

PETERSEN_WORD = "1387296(10)7493541283(10)7685(10)194562"
PETERSEN_LETTERS = ["1", "3", "8", "7", "2", "9", "6", "10", "7", "4", "9", "3", "5", "4",
                    "1", "2", "8", "3", "10", "7", "6", "8", "5", "10", "1", "9", "4", "5",
                    "6", "2"]
# The pairs on which add_path(length 3) finishes within seconds; the other 24
# of the 45 pairs run the unbounded 3-uniform fallback (see CHANGES.md).
ADD_PATH_PAIRS = [(1, 2), (1, 3), (1, 5), (1, 6), (2, 3), (2, 7), (2, 8), (3, 4), (3, 5),
                  (3, 6), (3, 8), (3, 10), (4, 6), (4, 7), (4, 9), (4, 10), (5, 6), (6, 7),
                  (6, 9), (7, 8), (7, 10)]
LABEL_POOL = [str(i) for i in range(1, 16)] + ["a", "b", "x'", "y''", "12'", "v7"]


def random_word(rng: random.Random, n: int, k: int, prefix: str = "") -> list[str]:
    letters = [f"{prefix}{i}" for i in range(1, n + 1)] * k
    rng.shuffle(letters)
    return letters


def random_tree(rng: random.Random, n: int):
    labs = o.names(n)
    return labs, [(labs[rng.randrange(i)], labs[i]) for i in range(1, n)]


def flip_one_edge(rng: random.Random, labs, edges):
    pairs = {frozenset(e) for e in edges}
    a, b = rng.sample(labs, 2)
    pairs ^= {frozenset((a, b))}
    return [tuple(sorted(e)) for e in pairs]


@dataclass
class State:
    wr: object
    ops: list = field(default_factory=list)


def setup(wr, seed: int, tr, paths) -> State:
    rng = random.Random(seed)
    st = State(wr)
    W, G = wr.Word, wr.Graph

    def add(kind, expect, group, fn):
        st.ops.append(Op(group, fn, (kind, expect)))

    def call(name, fn, *args):
        return lambda tr: tr.call(name, fn, *args)

    # ---- text and value construction: many small calls
    for i in range(TEXT_OPS):
        letters = random_word(rng, 4 + i % 9, 1 + i % 3)
        letters = [LABEL_POOL[int(t) - 1] for t in letters]
        text = " ".join(letters) if i % 2 else o.contiguous_word_text(letters)
        add("parse_word", letters, "text", call("words.parse_word", wr.parse_word, text))
        word = tr.call("words.Word", W, letters)
        add("format_word", letters, "text", call("words.format_word", wr.format_word, word))
        add("Word", letters, "text", call("words.Word", W, list(letters)))
        n = 5 + i % 8
        labs = rng.sample(LABEL_POOL, n)
        edges = [(a, b) for j, a in enumerate(labs) for b in labs[j + 1:]
                 if rng.random() < 0.4]
        text = o.write_graph_text(labs, edges)
        add("parse_graph", (labs, edges), "text", call("graphs.parse_graph", wr.parse_graph, text))
        graph = tr.call("graphs.Graph", G, labs, edges)
        add("format_graph", (labs, edges), "text",
            call("graphs.format_graph", wr.format_graph, graph))
        add("Graph", (labs, edges), "text", call("graphs.Graph", G, labs, edges))

    # ---- alternation on long uniform words
    for i in range(8):
        letters = random_word(rng, 250, 2) if i < 4 else random_word(rng, 67, 3)
        labs = list(dict.fromkeys(letters))
        edges = [tuple(e) for e in o.alternating_pairs(letters)]
        word = tr.call("words.Word", W, letters)
        add("derive_graph", (labs, edges), "alternation",
            call("words.derive_graph", wr.derive_graph, word))
        want = i % 2 == 0
        target_edges = edges if want else flip_one_edge(rng, labs, edges)
        target = tr.call("graphs.Graph", G, labs, target_edges)
        add("represents", want, "alternation", call("words.represents", wr.represents, word, target))

    # ---- closed-form family words
    for n in (30, 40, 50, 60):
        add("family", (o.ladder(n), 2), "family", call("transforms.ladder_word", wr.ladder_word, n))
    for k in (12, 16, 20, 24):
        add("family", (o.crown(k), k), "family",
            call("transforms.crown_perm_word", wr.crown_perm_word, k))
    for n in (100, 150, 200, 250):
        add("family", (o.cycle(n), 2), "family", call("transforms.cycle_word", wr.cycle_word, n))
    for n in (100, 150, 200, 250):
        tree = random_tree(rng, n)
        g = tr.call("graphs.Graph", G, *tree)
        add("family", (tree, 2), "family", call("transforms.tree_word", wr.tree_word, g))

    # ---- transforms on represented words
    hosts = [PETERSEN_LETTERS] + [random_word(rng, 8 + i % 9, 2 + i % 2) for i in range(15)]
    for letters in hosts:
        host = tr.call("words.Word", W, letters)
        x = rng.choice(sorted(set(letters)))
        labs = list(dict.fromkeys(letters))
        edges = list(o.alternating_pairs(letters)) + [(x, "leaf")]
        add("word", (labs + ["leaf"], [tuple(e) for e in edges], o.uniformity(letters)),
            "transform", call("transforms.add_leaf", wr.add_leaf, host, x, "leaf"))
    for i in range(16):
        k = 2 + i % 2
        l1 = random_word(rng, 5 + i % 6, k, "a")
        l2 = random_word(rng, 5 + (i // 2) % 6, k, "b")
        x, y = rng.choice(sorted(set(l1))), rng.choice(sorted(set(l2)))
        g1, g2 = o.alternating_pairs(l1), o.alternating_pairs(l2)
        labs1, labs2 = list(dict.fromkeys(l1)), list(dict.fromkeys(l2))
        if i % 2:
            mode = tr.call("transforms.CombineMode", wr.CombineMode, "connect-edge")
            labs = labs1 + labs2
            edges = [tuple(e) for e in g1 | g2] + [(x, y)]
        else:
            mode = tr.call("transforms.CombineMode", wr.CombineMode, "glue-vertex", "z")
            labs = [t for t in labs1 if t != x] + ["z"] + [t for t in labs2 if t != y]
            ren = {x: "z", y: "z"}
            edges = [tuple(ren.get(t, t) for t in e) for e in g1 | g2]
        w1 = tr.call("words.Word", W, l1)
        w2 = tr.call("words.Word", W, l2)
        add("word", (labs, edges, None), "transform",
            call("transforms.combine", wr.combine, w1, w2, x, y, mode))
    for i in range(8):
        k = 2 + i % 2
        letters = random_word(rng, 6 + i, k)
        x = rng.choice(sorted(set(letters)))
        mods = [f"m{j}" for j in range(1, 4 + i % 2)]
        perms = [rng.sample(mods, len(mods)) for _ in range(k)]
        nbrs = {next(iter(e - {x})) for e in o.alternating_pairs(letters) if x in e}
        labs = [t for t in dict.fromkeys(letters) if t != x] + mods
        edges = [tuple(e) for e in o.alternating_pairs(letters) if x not in e]
        edges += o.order_graph(perms) + [(m, v) for m in mods for v in nbrs]
        host = tr.call("words.Word", W, letters)
        fam = tr.call("search.LinearOrderFamily", wr.LinearOrderFamily,
                      tuple(tuple(p) for p in perms))
        add("word", (labs, edges, k), "transform",
            call("transforms.substitute_module", wr.substitute_module, host, x, fam))
    for i in range(8):
        labs = o.names(6 + i % 5)
        perms = [rng.sample(labs, len(labs)) for _ in range(2 + i % 2)]
        edges = o.order_graph(perms) + [(v, "apex") for v in labs]
        fam = tr.call("search.LinearOrderFamily", wr.LinearOrderFamily,
                      tuple(tuple(p) for p in perms))
        add("word", (labs + ["apex"], edges, len(perms)), "transform",
            call("transforms.cone_word", wr.cone_word, fam, "apex"))

    # ---- chord diagrams of 2-uniform words
    for i in range(8):
        letters = random_word(rng, 30 + 10 * i, 2)
        word = tr.call("words.Word", W, letters)
        add("chord_diagram", letters, "chords",
            call("chords.chord_diagram", wr.chord_diagram, word))
        diagram = tr.call("chords.chord_diagram", wr.chord_diagram, word)
        add("crossing_graph", (letters, word), "chords",
            call("chords.crossing_graph", wr.crossing_graph, diagram))

    # ---- add_path on the Petersen word
    petersen = tr.call("words.parse_word", wr.parse_word, PETERSEN_WORD)
    for x, y in ADD_PATH_PAIRS:
        x, y = str(x), str(y)
        labs, edges = o.PETERSEN
        path_edges = [(x, "p1"), ("p1", "p2"), ("p2", y)]
        add("word", (labs + ["p1", "p2"], list(edges) + path_edges, None), "add_path",
            call("transforms.add_path", wr.add_path, petersen, x, y, 3))
    st.ops = spread(st.ops, seed)
    return st


def check_one(wr, kind, expect, res) -> str | None:
    if kind == "parse_word":
        return None if list(res.letters) == expect else f"parse_word gave {res.letters}"
    if kind == "format_word":
        return None if res.split() == expect else f"format_word gave {res!r}"
    if kind == "Word":
        if list(res.letters) != expect or list(res.alphabet) != list(dict.fromkeys(expect)):
            return f"Word holds {res.letters} over {res.alphabet}"
        return None
    if kind in ("parse_graph", "Graph", "format_graph", "derive_graph"):
        labs, edges = expect
        if kind == "format_graph":
            got_labs, got_edges = o.read_graph_text(res)
        else:
            got_labs, got_edges = list(res.labels), o.edge_set(res.edges())
        if sorted(got_labs) != sorted(labs) or got_edges != o.edge_set(edges):
            return f"{kind}: graph differs from its definition"
        if kind != "derive_graph" and got_labs != list(labs):
            return f"{kind}: vertex order {got_labs} differs from {labs}"
        return None
    if kind == "represents":
        return None if res is expect else f"represents gave {res}, want {expect}"
    if kind == "family":
        (labs, edges), k = expect
        err = o.word_error(list(res.letters), labs, edges, k=k)
        return f"family word: {err}" if err else None
    if kind == "word":
        labs, edges, k = expect
        err = o.word_error(list(res.letters), labs, edges, k=k)
        return f"transform output: {err}" if err else None
    if kind == "chord_diagram":
        first: dict[str, list[int]] = {}
        for p, t in enumerate(expect):
            first.setdefault(t, []).append(p)
        want = {(t, tuple(ps)) for t, ps in first.items()}
        got = {(t, tuple(ps)) for t, ps in res.chords}
        return None if got == want else "chord_diagram chords differ from letter positions"
    if kind == "crossing_graph":
        letters, word = expect
        got = o.edge_set(res.edges())
        if got != o.alternating_pairs(letters):
            return "crossing graph differs from the alternation graph"
        if res != wr.derive_graph(word):
            return "crossing graph differs from derive_graph"
        return None
    return f"unknown case kind {kind}"


def check(st: State, results) -> list[str]:
    errors = []
    for op, res in zip(st.ops, results):
        kind, expect = op.case
        if isinstance(res, Failed):
            continue
        err = check_one(st.wr, kind, expect, res)
        if err:
            errors.append(err)
    return errors


def digest(res):
    if isinstance(res, Failed):
        return repr(res)
    if hasattr(res, "letters"):
        return tuple(res.letters)
    if hasattr(res, "adj"):
        return tuple(res.labels), frozenset(frozenset(e) for e in res.edges())
    if hasattr(res, "chords"):
        return res.chords
    return res


TRANSFORMS = ("ladder_word", "crown_perm_word", "cycle_word", "tree_word", "add_leaf",
              "add_path", "combine", "substitute_module", "cone_word")


def layers(st: State, view) -> dict:
    # a fresh import starts the program's fallback counter at zero, and setup
    # calls no transform, so the counter holds this pass's fallbacks
    return {"transforms.fallbacks": (sum(st.wr.fallback_counts().values()), "count")}


def selftest(wr) -> list[tuple[str, bool]]:
    """Corrupt correct outputs and report whether the checker rejects each."""
    from types import SimpleNamespace as NS

    letters = ["1", "2", "1", "3", "2", "3"]
    tree = (o.path(3), 2)
    swapped = ["1", "1", "2", "3", "2", "3"]
    return [
        ("construct accepts a correct tree word",
         check_one(wr, "family", tree, NS(letters=tuple(letters))) is None),
        ("construct rejects a word with two letters swapped",
         check_one(wr, "family", tree, NS(letters=tuple(swapped))) is not None),
        ("construct rejects a wrong represents verdict",
         check_one(wr, "represents", True, False) is not None),
        ("construct rejects a parse that drops a prime",
         check_one(wr, "parse_word", ["1'", "2"], NS(letters=("1", "2"))) is not None),
    ]
