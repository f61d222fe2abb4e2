"""`orient`: semi-transitive orientations and shortcut detection.

Only the orientation kernel works here.  Its dead-state memo is on for
n <= 7 (the 6-vertex census) and off for n >= 8 (the 8-vertex graphs), so
both regimes run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

import oracles as o
from harness import Failed, Op, spread

CENSUS_NONE = 72  # 6! / |Aut W5| = 720 / 10 labelled copies of W5
N8_FOUND = 138
N8_NONE = 12
SHORTCUT_CASES = 300


def three_colourable(rng: random.Random, i: int):
    """A random 8-vertex graph with a planted proper 3-colouring.

    3-colourable graphs are semi-transitive (Halldorsson, Kitaev, Pyatkin), so
    an orientation must be found.
    """
    labs = o.names(8)
    colour = [rng.randrange(3) for _ in labs]
    p = 0.35 + 0.05 * (i % 12)
    edges = [
        (labs[a], labs[b])
        for a, b in combinations(range(8), 2)
        if colour[a] != colour[b] and rng.random() < p
    ]
    return labs, edges


def planted_w5(rng: random.Random):
    """A random 8-vertex graph with an induced W5 on six random vertices.

    An induced subgraph of a word-representable graph is word-representable
    and W5 is not, so no semi-transitive orientation may be found.
    """
    labs = o.names(8)
    order = rng.sample(range(8), 8)
    hub, rim, rest = order[0], order[1:6], order[6:]
    edges = {frozenset((hub, v)) for v in rim}
    edges |= {frozenset((rim[i], rim[(i + 1) % 5])) for i in range(5)}
    for a in rest:
        for b in range(8):
            if b != a and rng.random() < 0.5:
                edges.add(frozenset((a, b)))
    return labs, [tuple(labs[v] for v in sorted(e)) for e in edges]


def acyclic_orientation(rng: random.Random, i: int):
    """A random graph on 8-10 vertices directed along a random vertex order."""
    n = 8 + i % 3
    labs = o.names(n)
    p = 0.3 + 0.1 * (i % 5)
    edges = [(a, b) for a, b in combinations(labs, 2) if rng.random() < p]
    rank = {t: r for r, t in enumerate(rng.sample(labs, n))}
    arcs = [(a, b) if rank[a] < rank[b] else (b, a) for a, b in edges]
    return labs, edges, arcs


@dataclass
class Case:
    group: str  # n6 | n8 | shortcut
    labels: list
    edges: list
    expect_none: bool | None = None  # for n8, from theory
    arcs: list | None = None


@dataclass
class State:
    wr: object
    ops: list = field(default_factory=list)


def setup(wr, seed: int, tr, paths) -> State:
    rng = random.Random(seed)
    labs6 = o.names(6)
    pairs6 = list(combinations(labs6, 2))
    cases = [
        Case("n6", labs6, [p for b, p in enumerate(pairs6) if mask >> b & 1])
        for mask in range(1 << len(pairs6))
    ]
    n8 = [Case("n8", *three_colourable(rng, i), expect_none=False) for i in range(N8_FOUND)]
    n8 += [Case("n8", *planted_w5(rng), expect_none=True) for _ in range(N8_NONE)]
    cases += n8
    for i in range(SHORTCUT_CASES):
        labs, edges, arcs = acyclic_orientation(rng, i)
        cases.append(Case("shortcut", labs, edges, arcs=arcs))

    st = State(wr)
    for c in cases:
        g = tr.call("graphs.Graph", wr.Graph, c.labels, c.edges)
        if c.group == "shortcut":
            d = tr.call("orientations.Orientation", wr.Orientation, g, c.arcs)
            st.ops.append(Op(c.group, lambda tr, d=d: tr.call(
                "orientations.find_shortcut", wr.find_shortcut, d), c))
        else:
            st.ops.append(Op(c.group, lambda tr, g=g: tr.call(
                "orientations.exists_semi_transitive", wr.exists_semi_transitive, g), c))
    st.ops = spread(st.ops, seed)
    return st


def check_one(case: Case, res) -> str | None:
    adj = o.bitmasks(case.labels, case.edges)
    where = f"{case.group} graph {sorted(tuple(e) for e in case.edges)}"
    if case.group == "shortcut":
        out, err = o.arc_masks(case.labels, adj, case.arcs)
        oracle = next(o.shortcut_paths(adj, out), None) is not None
        if res is None:
            return f"{where}: no shortcut reported, oracle finds one" if oracle else None
        if not oracle:
            return f"{where}: shortcut reported, oracle finds none"
        return o.shortcut_witness_error(case.labels, adj, out, res.path, res.missing_pair)
    if res is None:
        if case.group == "n6":
            return None if o.is_w5(adj) else f"{where}: no orientation, but it is not W5"
        if not (case.expect_none and o.has_induced_w5(adj)):
            return f"{where}: no orientation, but no induced W5 proves that"
        return None
    if case.expect_none:
        return f"{where}: orientation of a graph with an induced W5"
    err = o.orientation_error(case.labels, adj, res.arcs())
    return f"{where}: {err}" if err else None


def check(st: State, results) -> list[str]:
    errors = []
    nones = 0
    for op, res in zip(st.ops, results):
        case = op.case
        if isinstance(res, Failed):
            continue
        if case.group == "n6" and res is None:
            nones += 1
        err = check_one(case, res)
        if err:
            errors.append(err)
    if nones != CENSUS_NONE:
        errors.append(f"6-vertex census: {nones} graphs without orientation, want {CENSUS_NONE}")
    return errors


def digest(res):
    if res is None or isinstance(res, Failed):
        return repr(res)
    if hasattr(res, "missing_pair"):
        return res.path, res.missing_pair
    return tuple(res.arcs())


def layers(st: State, view) -> dict:
    semi = "orientations.exists_semi_transitive"
    return {
        "orientations.semi.n6_ms": (view.total(semi, lambda op, r: op.group == "n6"), "ms"),
        "orientations.semi.n8_ms": (view.total(semi, lambda op, r: op.group == "n8"), "ms"),
        "orientations.semi.found_ms": (view.total(semi, lambda op, r: r is not None), "ms"),
        "orientations.semi.none_ms": (view.total(semi, lambda op, r: r is None), "ms"),
        "orientations.shortcut.ms": (view.total("orientations.find_shortcut"), "ms"),
    }


def selftest(wr) -> list[tuple[str, bool]]:
    """Corrupt correct outputs and report whether the checker rejects each."""
    from types import SimpleNamespace as NS

    labs, edges = o.cycle(4)
    good = [("1", "2"), ("2", "3"), ("4", "3"), ("1", "4")]
    flipped = [("2", "1")] + good[1:]
    c4 = Case("n8", labs, edges, expect_none=False)
    w5 = Case("n6", *o.wheel(5))
    planted = Case("n8", *o.wheel(5), expect_none=True)
    # 1->2->3->4 closed by 1->4 with 1, 3 non-adjacent: a shortcut
    sc_labs = o.names(4)
    sc_edges = [("1", "2"), ("2", "3"), ("3", "4"), ("1", "4"), ("2", "4")]
    sc = Case("shortcut", sc_labs, sc_edges, arcs=sc_edges)
    wit = NS(path=("1", "2", "3", "4"), missing_pair=("1", "3"))
    bad_wit = NS(path=("1", "2", "3", "4"), missing_pair=("2", "4"))
    no_sc = Case("shortcut", sc_labs, sc_edges, arcs=[("1", "2"), ("2", "3"), ("4", "3"),
                                                      ("1", "4"), ("2", "4")])
    return [
        ("orient accepts a semi-transitive orientation",
         check_one(c4, NS(arcs=lambda: good)) is None),
        ("orient rejects an orientation with a flipped arc",
         check_one(c4, NS(arcs=lambda: flipped)) is not None),
        ("orient rejects a wrong verdict: none on C4", check_one(c4, None) is not None),
        ("orient rejects a wrong verdict: an orientation of a planted W5",
         check_one(planted, NS(arcs=lambda: [])) is not None),
        ("orient accepts none on W5", check_one(w5, None) is None),
        ("shortcut accepts a true witness", check_one(sc, wit) is None),
        ("shortcut rejects a witness with a wrong missing pair",
         check_one(sc, bad_wit) is not None),
        ("shortcut rejects a wrong verdict: none where a shortcut exists",
         check_one(sc, None) is not None),
        ("shortcut rejects a wrong verdict: a shortcut where none exists",
         check_one(no_sc, wit) is not None),
    ]
