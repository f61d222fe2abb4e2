"""`repnum`: representation numbers of the paper's graphs and of random graphs.

The k-uniform search does nearly all the work, both to find witnesses and to
exhaust each k below R(G) for the lower bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

import oracles as o
from harness import Failed, Op, spread

RANDOM_GRAPHS = 201  # per round: 67 each on 4, 5 and 6 vertices
ROUNDS = 2  # rounds of the short calls in one pass; W5 is called once

NOT_REP = "not-representable"


def named_graphs():
    """(name, graph, R from theory) for the graphs the paper computes.

    R = 1 exactly for complete graphs; cycles, ladders and the crowns H2 = 2K2
    and H3 = C6 are circle graphs (R = 2); the prisms have R = 3, and
    H4 = Pr4 (the cube); the cone over H3 is the wheel W6, not a circle graph
    because C6 is not a permutation graph, and is 3-representable; the wheel
    W5 has no semi-transitive orientation, so it is not word-representable.
    """
    out = [(f"K{n}", o.complete(n), 1) for n in range(1, 7)]
    out += [(f"C{n}", o.cycle(n), 2) for n in range(4, 11)]
    out += [(f"L{n}", o.ladder(n), 2) for n in range(2, 6)]
    out += [(f"H{n}", o.crown(n), 2 if n < 4 else 3) for n in range(2, 5)]
    out += [("Pr3", o.prism(3), 3), ("Pr4", o.prism(4), 3)]
    out += [("W6", o.cone(o.crown(3), "c"), 3), ("W5", o.wheel(5), NOT_REP)]
    return out


def random_graphs(rng: random.Random):
    """Graphs on 4-6 vertices with a fixed schedule of edge counts.

    Only the edges are drawn, so every seed has the same mix of sizes and
    densities.  A draw of W5 is redrawn: W5 is measured once as a named graph,
    and a random copy would add its full exhaustive search to one seed only.
    """
    out = []
    for i in range(RANDOM_GRAPHS):
        n = 4 + i % 3
        labs = o.names(n)
        pairs = list(combinations(labs, 2))
        m = (i // 3 * 5) % (len(pairs) + 1)
        while True:
            edges = rng.sample(pairs, m)
            if not o.is_w5(o.bitmasks(labs, edges)):
                break
        out.append((f"rand{i}", (labs, edges), None))
    return out


def relabel(case, r: int):
    """Round r's copy of a case: the same graph with its labels renamed in order.

    The program works on vertex positions, so a copy costs what the original
    costs; the new labels keep a cache keyed on a graph's text from turning
    the later rounds into lookups.
    """
    name, (labs, edges), want = case
    new = {x: f"{x}.{r}" for x in labs}
    return f"{name}.{r}", ([new[x] for x in labs], [(new[a], new[b]) for a, b in edges]), want


@dataclass
class State:
    wr: object
    ops: list = field(default_factory=list)


def setup(wr, seed: int, tr, paths) -> State:
    st = State(wr)
    rng = random.Random(seed)
    named = named_graphs()
    cases = [(c, "w5") for c in named if c[0] == "W5"]
    for r in range(ROUNDS):
        cases += [(relabel(c, r), "families") for c in named if c[0] != "W5"]
        cases += [(relabel(c, r), "random") for c in random_graphs(rng)]
    for case, group in cases:
        _, (labs, edges), _ = case
        g = tr.call("graphs.Graph", wr.Graph, labs, edges)
        st.ops.append(Op(group, lambda tr, g=g: tr.call(
            "search.representation_number", wr.representation_number, g), case))
    # W5 is one long call: put it mid-pass, so that the short calls are timed
    # in two stretches, before and after it.  The rounds make those stretches
    # long enough to sample the machine's speed over more than a moment.
    st.ops = spread(st.ops, seed)
    w5 = next(op for op in st.ops if op.group == "w5")
    st.ops.remove(w5)
    st.ops.insert(len(st.ops) // 2, w5)
    return st


def expected_r(labs, edges, stated):
    """R from theory for the named graphs, from separate computations otherwise."""
    if stated is not None:
        return stated
    adj = o.bitmasks(labs, edges)
    if o.is_w5(adj):
        return NOT_REP
    if o.is_complete(adj):
        return 1
    if o.is_circle_graph(adj):
        return 2
    return 3  # R >= 3 here; the witness shows R <= 3


def check_one(wr, case, res) -> str | None:
    name, (labs, edges), stated = case
    want = expected_r(labs, edges, stated)
    if want == NOT_REP:
        if res.status != wr.NOT_REPRESENTABLE or res.witness is not None:
            return f"{name}: expected not word-representable, got {res.status}"
        return None
    if res.status != wr.WITNESS_FOUND or res.rep_number != want:
        return f"{name}: expected R = {want}, got {res.status} R = {res.rep_number}"
    err = o.word_error(list(res.witness.letters), labs, edges, k=want)
    if err:
        return f"{name}: witness: {err}"
    return None


def check(st: State, results) -> list[str]:
    errors = []
    for op, res in zip(st.ops, results):
        if isinstance(res, Failed):
            continue
        err = check_one(st.wr, op.case, res)
        if err:
            errors.append(err)
    return errors


def digest(res):
    if isinstance(res, Failed):
        return repr(res)
    wit = tuple(res.witness.letters) if res.witness is not None else None
    return res.status, res.rep_number, wit, tuple(c.nodes_explored for c in res.per_k)


def layers(st: State, view) -> dict:
    wr = st.wr
    certs = [c for r in view.results if not isinstance(r, Failed) for c in r.per_k]
    nodes = sum(c.nodes_explored for c in certs)
    exhausted = sum(c.nodes_explored for c in certs if c.status == wr.EXHAUSTED)
    witness = sum(c.nodes_explored for c in certs if c.status == wr.WITNESS_FOUND)
    span = "search.representation_number"
    total_ms = view.total(span)
    return {
        "search.kuniform.nodes": (nodes, "count"),
        "search.kuniform.exhausted_nodes": (exhausted, "count"),
        "search.kuniform.witness_nodes": (witness, "count"),
        "search.kuniform.nodes_per_ms": (nodes / total_ms, "1/ms"),
        "search.repnum.w5_ms": (view.total(span, lambda op, r: op.group == "w5"), "ms"),
        "search.repnum.families_ms": (
            view.total(span, lambda op, r: op.group == "families"), "ms"),
        "search.repnum.random_ms": (
            view.total(span, lambda op, r: op.group == "random"), "ms"),
    }


def selftest(wr) -> list[tuple[str, bool]]:
    """Corrupt correct outputs and report whether the checker rejects each."""
    from types import SimpleNamespace as NS

    c4 = ("C4", o.cycle(4), 2)
    good = ["1", "2", "4", "1", "3", "4", "2", "3"]
    assert o.word_error(good, *o.cycle(4), k=2) is None
    res = NS(status=wr.WITNESS_FOUND, rep_number=2, witness=NS(letters=tuple(good)))
    ok = check_one(wr, c4, res) is None
    swapped = list(good)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    bad_word = NS(status=wr.WITNESS_FOUND, rep_number=2, witness=NS(letters=tuple(swapped)))
    wrong_r = NS(status=wr.WITNESS_FOUND, rep_number=3, witness=NS(letters=tuple(good)))
    w5 = ("W5", o.wheel(5), NOT_REP)
    wrong_verdict = NS(status=wr.WITNESS_FOUND, rep_number=3, witness=NS(letters=tuple("123")))
    rand_w5 = ("rand", o.wheel(5), None)
    return [
        ("repnum accepts a correct witness", ok),
        ("repnum rejects a witness with two letters swapped",
         check_one(wr, c4, bad_word) is not None),
        ("repnum rejects a wrong R", check_one(wr, c4, wrong_r) is not None),
        ("repnum rejects a wrong verdict on W5", check_one(wr, w5, wrong_verdict) is not None),
        ("repnum derives 'not representable' for a random W5",
         check_one(wr, rand_w5, wrong_verdict) is not None),
    ]
