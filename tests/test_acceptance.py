"""Acceptance suite: one test (and one summary line) per criterion."""

import random
import time
from contextlib import contextmanager
from itertools import product

import pytest

import conftest
from conftest import CROWN_ROWS, LADDER_ROWS, PETERSEN_WORD
from oracles import (
    naive_represents,
    random_graph,
    random_tree,
    random_uniform_word,
)
from wordrep import (
    CombineMode,
    EXHAUSTED,
    Graph,
    LinearOrderFamily,
    NOT_REPRESENTABLE,
    Orientation,
    RepNumberInput,
    WITNESS_FOUND,
    Word,
    add_apex,
    add_leaf,
    add_path,
    build_family,
    chromatic_number,
    combine,
    combined_rep_number,
    cone_word,
    crown_perm_word,
    cycle_word,
    cyclic_shift,
    derive_graph,
    equalize_uniformity,
    exists_semi_transitive,
    extend_uniform,
    fallback_counts,
    find_k_uniform_representant,
    find_shortcut,
    find_transitive_orientation,
    format_word,
    is_shortcut_witness,
    ladder_word,
    parse_word,
    permutation_blocks,
    poset_dimension,
    representation_number,
    represents,
    reverse,
    substitute_module,
    tree_word,
    uniformity,
)


@contextmanager
def criterion(number, name, budget_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_LINES.append(
            f"criterion {number:>2} {name}: FAIL ({time.perf_counter() - t0:.2f} s)"
        )
        raise
    elapsed = time.perf_counter() - t0
    note = f" ({elapsed:.2f} s)"
    conftest.ACCEPTANCE_LINES.append(f"criterion {number:>2} {name}: PASS{note}")
    if budget_s is not None:
        assert elapsed < budget_s, f"budget {budget_s}s exceeded: {elapsed:.2f}s"


def rep_word(g):
    res = representation_number(g)
    assert res.status == WITNESS_FOUND
    return res.witness


def test_criterion_01_paper_word_verification():
    with criterion(1, "paper-word verification", budget_s=1.0):
        m_graph = Graph(
            ["1", "2", "3", "4"],
            [("1", "2"), ("2", "3"), ("2", "4"), ("3", "4")],
        )
        assert represents(parse_word("1213423"), m_graph)
        assert represents(parse_word("1234"), build_family("complete", 4))
        w = parse_word(PETERSEN_WORD)
        assert len(w) == 30
        assert represents(w, build_family("petersen", 10))


def test_criterion_02_ladder_table():
    with criterion(2, "ladder table byte-exact + verified", budget_s=1.0):
        for n, row in enumerate(LADDER_ROWS, start=1):
            w = ladder_word(n)
            assert format_word(w) == row
            assert naive_represents(w.letters, build_family("ladder", n))


def test_criterion_03_crown_table():
    with criterion(3, "crown table byte-exact + verified", budget_s=1.0):
        for k, row in enumerate(CROWN_ROWS, start=1):
            w = crown_perm_word(k)
            assert format_word(w) == row
            assert naive_represents(w.letters, build_family("crown", k))


def test_criterion_04_representation_numbers():
    with criterion(4, "representation numbers incl. prisms", budget_s=600.0):
        for n in range(1, 7):
            assert representation_number(build_family("complete", n)).rep_number == 1
        for family, size in [("cycle", 5), ("cycle", 6), ("ladder", 2), ("ladder", 3)]:
            res = representation_number(build_family(family, size))
            assert res.rep_number == 2, (family, size)

        res3 = representation_number(build_family("prism", 3))
        assert res3.rep_number == 3
        assert [c.status for c in res3.per_k] == [EXHAUSTED, EXHAUSTED, WITNESS_FOUND]
        assert naive_represents(res3.witness.letters, build_family("prism", 3))

        # the 8-vertex k=2 exhaustion is the mandatory lower-bound evidence
        res4 = representation_number(build_family("prism", 4))
        assert res4.rep_number == 3
        assert [c.status for c in res4.per_k] == [EXHAUSTED, EXHAUSTED, WITNESS_FOUND]
        assert res4.per_k[1].nodes_explored > 0
        assert naive_represents(res4.witness.letters, build_family("prism", 4))


def test_criterion_05_cone_over_crown3():
    with criterion(5, "apexed crown(3) needs three copies", budget_s=600.0):
        blocks = permutation_blocks(crown_perm_word(3))
        fam = LinearOrderFamily(tuple(tuple(b) for b in blocks))
        w = cone_word(fam, "a")
        target = add_apex(build_family("crown", 3), "a")
        assert naive_represents(w.letters, target)
        assert uniformity(w).k == 3
        cert = find_k_uniform_representant(target, 2)
        assert cert.status == EXHAUSTED
        res = representation_number(target)
        assert res.rep_number == 3


def test_criterion_06_equivalence_oracle():
    with criterion(6, "semi-transitivity equals representability", budget_s=600.0):
        rng = random.Random(2026)
        checked = 0
        non_rep = 0
        samples = [add_apex(build_family("cycle", 5), "a")]
        while len(samples) < 200:
            n = rng.randint(1, 6)
            samples.append(random_graph(rng, n, p=rng.choice((0.25, 0.5, 0.75))))
        for g in samples:
            semi = exists_semi_transitive(g) is not None
            res = representation_number(g)
            rep = res.status == WITNESS_FOUND
            assert semi == rep, g
            if rep:
                assert res.rep_number <= 6
            else:
                non_rep += 1
                assert res.status == NOT_REPRESENTABLE
            if chromatic_number(g) <= 3:
                assert rep, g
            checked += 1
        assert checked >= 200
        assert non_rep >= 1  # the wheel seed guarantees both branches ran


def test_criterion_07_shortcut_fixture(shortcut_digraph):
    with criterion(7, "shortcut witness on the six-vertex fixture", budget_s=1.0):
        w = find_shortcut(shortcut_digraph)
        assert w is not None
        assert is_shortcut_witness(shortcut_digraph, w)
        # independent re-check of every claim in the witness
        p = w.path
        assert len(p) >= 4
        for a, b in zip(p, p[1:]):
            assert shortcut_digraph.has_arc(a, b)
        assert shortcut_digraph.has_arc(p[0], p[-1])
        a, b = w.missing_pair
        assert a in p and b in p
        assert not shortcut_digraph.base.has_edge(a, b)


def test_criterion_08_transform_post_verification():
    with criterion(8, "25 random applications per transform", budget_s=600.0):
        rng = random.Random(818)

        def rand_rep(max_n, min_n=1):
            while True:
                g = random_graph(rng, rng.randint(min_n, max_n))
                res = representation_number(g)
                if res.status == WITNESS_FOUND:
                    return res.witness, g

        # add_leaf
        for _ in range(25):
            host, g = rand_rep(4)
            while uniformity(host).k < 2:
                host = extend_uniform(host)
            x = rng.choice(host.alphabet)
            out = add_leaf(host, x, "zz")
            want = {frozenset(e) for e in derive_graph(host).edges()}
            want.add(frozenset((x, "zz")))
            assert {frozenset(e) for e in derive_graph(out).edges()} == want

        # add_path
        for _ in range(25):
            host, g = rand_rep(4, min_n=2)
            while uniformity(host).k < 3:
                host = extend_uniform(host)
            x, y = rng.sample(list(host.alphabet), 2)
            length = rng.randint(3, 5)
            out = add_path(host, x, y, length)
            fresh = sorted(
                (t for t in out.alphabet if t not in host.alphabet),
                key=lambda t: int(t.rstrip("'")[1:]),
            )
            assert len(fresh) == length - 1
            got = derive_graph(out)
            chain = [x] + fresh + [y]
            for a, b in zip(chain, chain[1:]):
                assert got.has_edge(a, b)
            assert uniformity(out).k == 3

        # combine, both modes
        for mode_kind in ("connect-edge", "glue-vertex"):
            for _ in range(25):
                w1, g1 = rand_rep(4)
                w2, g2 = rand_rep(4)
                w2 = Word([t + "b" for t in w2.letters])
                w1, w2 = equalize_uniformity(w1, w2)
                x = rng.choice(w1.alphabet)
                y = rng.choice(w2.alphabet)
                mode = (
                    CombineMode("connect-edge", None)
                    if mode_kind == "connect-edge"
                    else CombineMode("glue-vertex", "m")
                )
                out = combine(w1, w2, x, y, mode)
                got = derive_graph(out)
                e1 = {frozenset(e) for e in derive_graph(w1).edges()}
                e2 = {frozenset(e) for e in derive_graph(w2).edges()}
                if mode_kind == "connect-edge":
                    want = e1 | e2 | {frozenset((x, y))}
                else:
                    relabel = lambda t: "m" if t in (x, y) else t
                    want = {
                        frozenset((relabel(a), relabel(b)))
                        for a, b in map(tuple, e1 | e2)
                    }
                assert {frozenset(e) for e in got.edges()} == want

        # substitute_module
        for _ in range(25):
            host, g = rand_rep(4)
            k = uniformity(host).k
            x = rng.choice(host.alphabet)
            base = [chr(ord("a") + i) for i in range(rng.randint(1, 3))]
            orders = []
            for _ in range(rng.randint(1, k)):
                p = base[:]
                rng.shuffle(p)
                orders.append(tuple(p))
            fam = LinearOrderFamily(tuple(orders))
            out = substitute_module(host, x, fam)
            got = derive_graph(out)
            module = derive_graph(fam.word())
            hostg = derive_graph(host)
            for a in module.labels:
                outside = [v for v in got.neighbors(a) if v not in module.labels]
                assert sorted(outside) == sorted(hostg.neighbors(x))

        # tree_word
        for _ in range(25):
            t = random_tree(rng, rng.randint(1, 8))
            w = tree_word(t)
            assert naive_represents(w.letters, t)

        # cycle_word
        for _ in range(25):
            n = rng.randint(3, 12)
            w = cycle_word(n)
            assert naive_represents(w.letters, build_family("cycle", n))

        counts = fallback_counts()
    conftest.ACCEPTANCE_LINES.append(
        f"criterion  8 note: fallback searches used = {counts if counts else 'none'}"
    )


def test_criterion_09_combined_rep_number_cross_check():
    with criterion(9, "combine arithmetic matches brute force", budget_s=600.0):
        five = {
            "K_1": Graph(["1"], []),
            "K_2": build_family("complete", 2),
            "K_3": build_family("complete", 3),
            "P_3": build_family("path", 3),
            "C_5": build_family("cycle", 5),
        }
        reps = {name: representation_number(g) for name, g in five.items()}
        for (name1, g1), (name2, g2) in product(five.items(), repeat=2):
            k1, k2 = reps[name1].rep_number, reps[name2].rep_number
            predicted = combined_rep_number(
                RepNumberInput(k1=k1, k2=k2, n1=g1.n, n2=g2.n)
            )
            h2 = g2.relabel({t: t + "b" for t in g2.labels})
            x, y = g1.labels[0], h2.labels[0]

            union_labels = list(g1.labels) + list(h2.labels)
            union_edges = list(g1.edges()) + list(h2.edges())
            connected = Graph(union_labels, union_edges + [(x, y)])
            got_connect = representation_number(connected).rep_number
            assert got_connect == predicted.connect_edge, (name1, name2)

            glued_labels = [t for t in union_labels if t not in (x, y)] + ["m"]
            seam = lambda t: "m" if t in (x, y) else t
            glued_edges = [(seam(a), seam(b)) for a, b in union_edges]
            glued = Graph(glued_labels, glued_edges)
            got_glue = representation_number(glued).rep_number
            assert got_glue == predicted.glue_vertex, (name1, name2)


def test_criterion_10_section6_demo():
    with criterion(10, "module and connect demos at c=3", budget_s=600.0):
        host = rep_word(build_family("prism", 3))
        fam = LinearOrderFamily(tuple(tuple("abcd") for _ in range(3)))
        out = substitute_module(host, "1", fam)
        got = derive_graph(out)
        assert uniformity(out).k == 3
        assert naive_represents(out.letters, got)
        # the expansion is not 3-colorable, which is what the argument needs
        chi = chromatic_number(got)
        assert chi == 6
        assert chi > 3

        # alternative demo: connect a 3-uniform prism word to K_4 by an edge
        k4 = Word(["a", "b", "c", "d"] * 3)
        host2, k4 = equalize_uniformity(host, k4)
        joined = combine(host2, k4, "1", "a", CombineMode("connect-edge", None))
        jg = derive_graph(joined)
        assert uniformity(joined).k == 3
        assert chromatic_number(jg) == 4
        assert jg.n == 10


@pytest.mark.xfail(
    strict=True,
    reason="the nine-vertex module expansion contains a six-clique, so its "
    "chromatic number is 6; the stated value 4 is unattainable",
)
def test_criterion_10_literal_chromatic_value():
    host = rep_word(build_family("prism", 3))
    fam = LinearOrderFamily(tuple(tuple("abcd") for _ in range(3)))
    out = substitute_module(host, "1", fam)
    conftest.ACCEPTANCE_LINES.append(
        "criterion 10 note: literal chromatic=4 reading FAILS as expected "
        "(true value 6); see the demo test for the working argument"
    )
    assert chromatic_number(derive_graph(out)) == 4


def test_criterion_11_poset_dimension():
    with criterion(11, "crown poset dimensions", budget_s=60.0):
        for k, expected in [(2, 2), (3, 3)]:
            g = build_family("crown", k)
            cert = find_transitive_orientation(g)
            assert cert.status == WITNESS_FOUND
            dim, fam = poset_dimension(cert.witness)
            assert dim == expected
            assert naive_represents(fam.word().letters, g)


def test_criterion_12_word_property_sweep():
    with criterion(12, "1000 random uniform words", budget_s=60.0):
        rng = random.Random(1212)
        for trial in range(1000):
            n = rng.randint(1, 6)
            k = rng.randint(1, 3)
            w = Word(random_uniform_word(rng, n, k))
            g = derive_graph(w)
            assert derive_graph(reverse(w)) == g
            for cut in range(len(w) + 1):
                assert derive_graph(cyclic_shift(w, cut)) == g
            ext = extend_uniform(w)
            assert uniformity(ext).k == k + 1
            assert derive_graph(ext) == g
            if k == 1:
                assert g.is_complete()
