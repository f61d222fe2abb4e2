import random
import time
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from wordrep import (
    CombineMode,
    CombinedRepNumbers,
    Graph,
    LinearOrderFamily,
    RepNumberInput,
    Word,
    add_apex,
    add_leaf,
    add_path,
    are_isomorphic,
    build_family,
    chromatic_number,
    combine,
    combined_rep_number,
    cone_word,
    crown_perm_word,
    cycle_word,
    derive_graph,
    equalize_uniformity,
    format_word,
    ladder_word,
    parse_word,
    permutation_blocks,
    representation_number,
    substitute_module,
    tree_word,
    uniformity,
)
from conftest import CROWN_ROWS, LADDER_ROWS, PETERSEN_WORD
from oracles import (
    naive_edge_set,
    naive_k_uniform_words,
    naive_represents,
    random_graph,
    random_tree,
    random_uniform_word,
)


# str(add_path(Petersen word, x, y, 3)) on the 21 pairs the benchmark runs
ADD_PATH_GOLDEN = {
    ("1", "2"):
        "p1 1 p2 p1 3 8 7 2 9 6 10 7 4 9 3 5 4 1 p2 2 p1 p2 8 3 10 7 6 8 5 10 1 9 4 5 6 2",
    ("1", "3"):
        "p1 1 p2 p1 9 4 5 6 2 1 3 8 7 2 9 6 10 7 4 9 p2 3 p1 p2 5 4 1 2 8 3 10 7 6 8 5 10",
    ("1", "5"):
        "p1 1 p2 p1 3 8 7 2 9 6 10 7 4 9 3 5 4 1 2 8 3 10 7 6 8 p2 5 p1 p2 10 1 9 4 5 6 2",
    ("1", "6"):
        "p1 1 p2 p1 3 8 7 2 9 6 10 7 4 9 3 5 4 1 2 8 3 10 7 p2 6 p1 p2 8 5 10 1 9 4 5 6 2",
    ("2", "3"):
        "p1 2 p2 p1 9 6 10 7 4 9 3 5 4 1 2 8 p2 3 p1 p2 10 7 6 8 5 10 1 9 4 5 6 2 1 3 8 7",
    ("2", "7"):
        "p1 2 p2 p1 9 6 10 7 4 9 3 5 4 1 2 8 3 10 p2 7 p1 p2 6 8 5 10 1 9 4 5 6 2 1 3 8 7",
    ("2", "8"):
        "p1 2 p2 p1 9 6 10 7 4 9 3 5 4 1 2 8 3 10 7 6 p2 8 p1 p2 5 10 1 9 4 5 6 2 1 3 8 7",
    ("3", "4"):
        "p1 3 p2 p1 8 7 2 9 6 10 7 4 9 3 5 p2 4 p1 p2 1 2 8 3 10 7 6 8 5 10 1 9 4 5 6 2 1",
    ("3", "5"):
        "p1 3 p2 p1 5 4 1 2 8 3 10 7 6 8 p2 5 p1 p2 10 1 9 4 5 6 2 1 3 8 7 2 9 6 10 7 4 9",
    ("3", "6"):
        "p1 3 p2 p1 5 4 1 2 8 3 10 7 6 8 5 10 1 9 4 5 p2 6 p1 p2 2 1 3 8 7 2 9 6 10 7 4 9",
    ("3", "8"):
        "p1 3 p2 p1 8 7 2 9 6 10 7 4 9 3 5 4 1 2 p2 8 p1 p2 3 10 7 6 8 5 10 1 9 4 5 6 2 1",
    ("3", "10"):
        "p1 3 p2 p1 5 4 1 2 8 3 10 7 6 8 5 p2 10 p1 p2 1 9 4 5 6 2 1 3 8 7 2 9 6 10 7 4 9",
    ("4", "6"):
        "p1 4 p2 p1 1 2 8 3 10 7 6 8 5 10 1 9 4 5 p2 6 p1 p2 2 1 3 8 7 2 9 6 10 7 4 9 3 5",
    ("4", "7"):
        "p1 4 p2 p1 1 2 8 3 10 7 6 8 5 10 1 9 4 5 6 2 1 3 8 p2 7 p1 p2 2 9 6 10 7 4 9 3 5",
    ("4", "9"):
        "p1 4 p2 p1 9 3 5 4 1 2 8 3 10 7 6 8 5 10 1 p2 9 p1 p2 4 5 6 2 1 3 8 7 2 9 6 10 7",
    ("4", "10"):
        "p1 4 p2 p1 9 3 5 4 1 2 8 3 10 7 6 8 5 p2 10 p1 p2 1 9 4 5 6 2 1 3 8 7 2 9 6 10 7",
    ("5", "6"):
        "p1 5 p2 p1 10 1 9 4 5 6 2 1 3 8 7 2 9 p2 6 p1 p2 10 7 4 9 3 5 4 1 2 8 3 10 7 6 8",
    ("6", "7"):
        "p1 6 p2 p1 2 1 3 8 7 2 9 6 10 p2 7 p1 p2 4 9 3 5 4 1 2 8 3 10 7 6 8 5 10 1 9 4 5",
    ("6", "9"):
        "p1 6 p2 p1 10 7 4 9 3 5 4 1 2 8 3 10 7 6 8 5 10 1 p2 9 p1 p2 4 5 6 2 1 3 8 7 2 9",
    ("7", "8"):
        "p1 7 p2 p1 4 9 3 5 4 1 2 8 3 10 7 6 p2 8 p1 p2 5 10 1 9 4 5 6 2 1 3 8 7 2 9 6 10",
    ("7", "10"):
        "p1 7 p2 p1 2 9 6 10 7 4 9 3 5 4 1 2 8 3 p2 10 p1 p2 7 6 8 5 10 1 9 4 5 6 2 1 3 8",
}


def path_word_ok(letters, x, y, length, out) -> bool:
    """out is 3-uniform and represents the host with x and y joined by p1, p2, ..."""
    chain = [x] + [f"p{i}" for i in range(1, length)] + [y]
    labels = list(dict.fromkeys(letters)) + chain[1:-1]
    edges = [tuple(e) for e in naive_edge_set(letters)] + list(zip(chain, chain[1:]))
    counts = Counter(out.letters)
    return set(counts.values()) == {3} and naive_represents(out.letters, Graph(labels, edges))


def rep_word(g):
    res = representation_number(g)
    assert res.witness is not None
    return res.witness


class TestLadderWords:
    def test_rows_byte_exact(self):
        for n, row in enumerate(LADDER_ROWS, start=1):
            assert format_word(ladder_word(n)) == row

    def test_verifies_against_ladders(self):
        for n in range(1, 8):
            w = ladder_word(n)
            assert uniformity(w).k == 2
            assert naive_represents(w.letters, build_family("ladder", n))

    def test_bad_size(self):
        with pytest.raises(ValueError):
            ladder_word(0)

    def test_non_integer_size_rejected(self):
        for n in (True, 2.0, "2"):
            with pytest.raises(ValueError, match="ladder size must be an integer"):
                ladder_word(n)


class TestCrownWords:
    def test_rows_byte_exact(self):
        for k, row in enumerate(CROWN_ROWS, start=1):
            assert format_word(crown_perm_word(k)) == row

    def test_verifies_against_crowns(self):
        for k in range(1, 7):
            w = crown_perm_word(k)
            assert naive_represents(w.letters, build_family("crown", k))

    def test_k_blocks_of_permutations(self):
        for k in range(2, 6):
            blocks = permutation_blocks(crown_perm_word(k))
            assert len(blocks) == k

    def test_non_integer_size_rejected(self):
        for k in (True, 2.0, None):
            with pytest.raises(ValueError, match="crown size must be an integer"):
                crown_perm_word(k)


class TestTreeWord:
    def test_path_fixture(self):
        t = Graph(["1", "2", "3"], [("1", "2"), ("2", "3")])
        assert format_word(tree_word(t)) == "3 2 3 1 2 1"

    def test_single_edge(self):
        t = Graph(["1", "2"], [("1", "2")])
        assert format_word(tree_word(t)) == "2 1 2 1"

    def test_single_vertex(self):
        t = Graph(["7"], [])
        assert format_word(tree_word(t)) == "7 7"

    def test_non_tree_rejected(self):
        with pytest.raises(ValueError):
            tree_word(build_family("cycle", 3))
        disconnected = Graph(["1", "2", "3", "4"], [("1", "2"), ("3", "4")])
        with pytest.raises(ValueError):
            tree_word(disconnected)

    @given(st.integers(min_value=1, max_value=8), st.randoms(use_true_random=False))
    def test_random_trees_verify(self, n, rng):
        t = random_tree(rng, n)
        w = tree_word(t)
        assert uniformity(w).k == 2
        assert naive_represents(w.letters, t)


class TestCycleWord:
    def test_triangle(self):
        w = cycle_word(3)
        assert derive_graph(w).is_complete()

    def test_small_cycles_verify(self):
        for n in range(3, 10):
            w = cycle_word(n)
            assert uniformity(w).k == 2
            assert naive_represents(w.letters, build_family("cycle", n))

    def test_closed_form(self):
        # the path word rooted at 2 is 1 n (n-1) n (n-2) (n-1) ... 1 2, and
        # the cycle word is that word with its first two letters swapped
        for n in range(3, 41):
            path = build_family("path", n)
            base = ["1", str(n)]
            base += [str(v) for m in range(n - 1, 0, -1) for v in (m, m + 1)]
            assert naive_represents(base, path), n
            assert cycle_word(n).letters == (str(n), "1", *base[2:]), n

    def test_hexagon_is_crown3(self):
        assert are_isomorphic(derive_graph(cycle_word(6)), build_family("crown", 3))

    def test_too_short(self):
        with pytest.raises(ValueError):
            cycle_word(2)

    def test_non_integer_length_rejected(self):
        for n in (True, 4.0, "4"):
            with pytest.raises(ValueError, match="cycle length must be an integer"):
                cycle_word(n)


class TestAddLeaf:
    def test_known_expansion(self):
        w = parse_word("1 2 1 3 2 3")
        out = add_leaf(w, "3", "4")
        target = Graph(
            ["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4")]
        )
        assert naive_represents(out.letters, target)
        assert uniformity(out).k == 2

    def test_one_uniform_host_rejected(self):
        with pytest.raises(ValueError):
            add_leaf(parse_word("123"), "1", "4")

    def test_label_collision_rejected(self):
        with pytest.raises(ValueError):
            add_leaf(parse_word("1212"), "1", "2")

    def test_absent_anchor_rejected(self):
        with pytest.raises(ValueError):
            add_leaf(parse_word("1212"), "9", "3")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.randoms(use_true_random=False))
    def test_random_hosts(self, n, rng):
        g = random_graph(rng, n)
        host = rep_word(g)
        while uniformity(host).k < 2:
            from wordrep import extend_uniform

            host = extend_uniform(host)
        x = rng.choice(host.alphabet)
        out = add_leaf(host, x, "leaf")
        want = {frozenset(e) for e in derive_graph(host).edges()}
        want.add(frozenset((x, "leaf")))
        assert {frozenset(e) for e in derive_graph(out).edges()} == want


class TestAddPath:
    def test_basic_chain(self):
        from wordrep import extend_uniform

        host = extend_uniform(parse_word("1 2 1 3 2 3"))
        out = add_path(host, "1", "3", 3)
        got = derive_graph(out)
        assert got.has_edge("1", "p1") and got.has_edge("p2", "3")
        assert got.has_edge("p1", "p2")
        assert not got.has_edge("p1", "3") and not got.has_edge("p2", "1")
        assert uniformity(out).k == 3

    def test_fresh_labels_avoid_collisions(self):
        from wordrep import extend_uniform

        base = Graph(["1", "2", "p1"], [("1", "2"), ("2", "p1")])
        host = rep_word(base)
        while uniformity(host).k < 3:
            host = extend_uniform(host)
        out = add_path(host, "1", "p1", 3)
        inner = [t for t in out.alphabet if t not in base.labels]
        assert len(inner) == 2 and all(t.startswith("p") for t in inner)

    def test_requires_three_uniform(self):
        with pytest.raises(ValueError):
            add_path(parse_word("1212"), "1", "2", 3)

    def test_length_below_three_rejected(self):
        from wordrep import extend_uniform

        host = extend_uniform(parse_word("1 2 1 3 2 3"))
        with pytest.raises(ValueError):
            add_path(host, "1", "3", 2)

    def test_non_integer_length_rejected(self):
        from wordrep import extend_uniform

        host = extend_uniform(parse_word("1 2 1 3 2 3"))
        for length in (True, 3.0, "3"):
            with pytest.raises(ValueError, match="path length must be an integer"):
                add_path(host, "1", "3", length)

    def test_golden_petersen_pairs(self):
        petersen = parse_word(PETERSEN_WORD)
        start = time.perf_counter()
        words = {
            (x, y, length): add_path(petersen, x, y, length)
            for x, y in permutations(petersen.alphabet, 2)
            for length in (3, 4, 5)
        }
        assert time.perf_counter() - start < 1.0
        for (x, y, length), out in words.items():
            assert path_word_ok(petersen.letters, x, y, length, out), (x, y, length)
        for (x, y), want in ADD_PATH_GOLDEN.items():
            assert str(words[x, y, 3]) == want, (x, y)

    @pytest.mark.parametrize("size", [2, 3])
    def test_every_small_word_verifies_by_oracle(self, size):
        labels = [str(i) for i in range(1, size + 1)]
        words = list(naive_k_uniform_words(labels, 3))
        assert len(words) == {2: 20, 3: 1680}[size]
        for letters in words:
            host = Word(letters)
            for x, y in permutations(labels, 2):
                out = add_path(host, x, y, 3)
                assert path_word_ok(letters, x, y, 3, out), (letters, x, y)

    def test_random_words_verify_by_oracle(self):
        rng = random.Random(7)
        for _ in range(2000):
            n = rng.randint(2, 9)
            length = rng.randint(3, 7)
            letters = random_uniform_word(rng, n, 3)
            x, y = rng.sample(sorted(set(letters)), 2)
            out = add_path(Word(letters), x, y, length)
            assert path_word_ok(letters, x, y, length, out), (letters, x, y, length)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=3, max_value=5),
        st.randoms(use_true_random=False),
    )
    def test_random_hosts(self, n, length, rng):
        from wordrep import extend_uniform

        g = random_graph(rng, n)
        host = rep_word(g)
        while uniformity(host).k < 3:
            host = extend_uniform(host)
        if uniformity(host).k != 3:
            return
        x, y = rng.sample(list(host.alphabet), 2) if n >= 2 else (None, None)
        out = add_path(host, x, y, length)
        got = derive_graph(out)
        fresh = sorted(
            (t for t in out.alphabet if t not in host.alphabet),
            key=lambda t: int(t.rstrip("'")[1:]),
        )
        assert len(fresh) == length - 1
        chain = [x] + fresh + [y]
        for a, b in zip(chain, chain[1:]):
            assert got.has_edge(a, b)


class TestCombine:
    def test_connect_edge_fixture(self):
        w1 = parse_word("x1 x x1 x")
        w2 = parse_word("y y1 y y1")
        out = combine(w1, w2, "x", "y", CombineMode("connect-edge", None))
        assert format_word(out) == "x1 x x1 y x y1 y y1"

    def test_glue_fixture(self):
        w1 = parse_word("x1 x x1 x")
        w2 = parse_word("y y1 y y1")
        out = combine(w1, w2, "x", "y", CombineMode("glue-vertex", "z"))
        assert format_word(out) == "x1 z x1 y1 z y1"
        path = Graph(["x1", "z", "y1"], [("x1", "z"), ("z", "y1")])
        assert naive_represents(out.letters, path)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            CombineMode("glue-vertex", None)
        with pytest.raises(ValueError):
            CombineMode("connect-edge", "z")
        with pytest.raises(ValueError):
            CombineMode("other", None)

    def test_k_mismatch_rejected(self):
        w1 = parse_word("a a")  # 2-uniform single vertex
        w2 = parse_word("b b b")
        with pytest.raises(ValueError):
            combine(w1, w2, "a", "b", CombineMode("connect-edge", None))

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            combine(
                parse_word("a"), parse_word("b"), "a", "b",
                CombineMode("connect-edge", None),
            )

    def test_alphabet_overlap_rejected(self):
        w = parse_word("1212")
        with pytest.raises(ValueError):
            combine(w, w, "1", "2", CombineMode("connect-edge", None))

    def test_glue_label_collision_rejected(self):
        w1 = parse_word("x1 x x1 x")
        w2 = parse_word("y y1 y y1")
        with pytest.raises(ValueError):
            combine(w1, w2, "x", "y", CombineMode("glue-vertex", "x1"))

    def test_connect_edge_structure(self):
        w1 = rep_word(build_family("cycle", 5))
        w2 = rep_word(build_family("complete", 3))
        w2 = Word([t + "b" for t in w2.letters])
        w1, w2 = equalize_uniformity(w1, w2)
        out = combine(w1, w2, "1", "2b", CombineMode("connect-edge", None))
        got = derive_graph(out)
        assert got.n == 8
        assert got.has_edge("1", "2b")
        assert got.degree("1") == 3  # two cycle neighbors plus the bridge

    def test_glue_vertex_structure(self):
        w1 = rep_word(build_family("cycle", 5))
        w2 = rep_word(build_family("complete", 3))
        w2 = Word([t + "b" for t in w2.letters])
        w1, w2 = equalize_uniformity(w1, w2)
        out = combine(w1, w2, "1", "2b", CombineMode("glue-vertex", "m"))
        got = derive_graph(out)
        assert got.n == 7
        assert got.degree("m") == 4  # inherits both neighborhoods
        assert not got.has_edge("2", "1b")

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def test_random_pairs(self, n1, n2, glue, rng):
        g1 = random_graph(rng, n1)
        g2 = random_graph(rng, n2)
        w1 = rep_word(g1)
        w2 = Word([t + "b" for t in rep_word(g2).letters])
        w1, w2 = equalize_uniformity(w1, w2)
        x = rng.choice(w1.alphabet)
        y = rng.choice(w2.alphabet)
        mode = CombineMode("glue-vertex", "m") if glue else CombineMode("connect-edge", None)
        out = combine(w1, w2, x, y, mode)
        k = uniformity(w1).k
        assert uniformity(out).k == k
        if glue:
            assert len(out) == len(w1) + len(w2) - k
        else:
            assert len(out) == len(w1) + len(w2)


class TestEqualize:
    def test_lifts_to_common_k(self):
        w1 = parse_word("121212")  # k=3
        w2 = parse_word("ab", alphabet=None)  # k=1
        a, b = equalize_uniformity(w1, w2)
        assert uniformity(a).k == uniformity(b).k == 3

    def test_minimum_two(self):
        a, b = equalize_uniformity(parse_word("12"), parse_word("ab"))
        assert uniformity(a).k == uniformity(b).k == 2

    def test_non_uniform_rejected(self):
        with pytest.raises(ValueError):
            equalize_uniformity(parse_word("1213423"), parse_word("12"))


class TestSubstituteModule:
    def test_k4_into_prism(self):
        host = rep_word(build_family("prism", 3))
        fam = LinearOrderFamily(
            tuple(tuple("abcd") for _ in range(3))
        )
        out = substitute_module(host, "1", fam)
        got = derive_graph(out)
        assert got.n == 9
        assert uniformity(out).k == 3
        # the module is complete and joins everything vertex 1 saw
        for m in "abcd":
            for nb in ("2", "3", "1'"):
                assert got.has_edge(m, nb)
        assert chromatic_number(got) == 6

    def test_occurrence_accounting(self):
        host = rep_word(build_family("prism", 3))
        fam = LinearOrderFamily(tuple(tuple("abcd") for _ in range(3)))
        out = substitute_module(host, "1", fam)
        k = uniformity(host).k
        assert len(out) == len(host) + k * (4 - 1)

    def test_more_orders_than_occurrences_rejected(self):
        host = parse_word("1212")
        fam = LinearOrderFamily((("a",), ("a",), ("a",)))
        with pytest.raises(ValueError):
            substitute_module(host, "1", fam)

    def test_label_collision_rejected(self):
        host = parse_word("1212")
        fam = LinearOrderFamily((("2",),))
        with pytest.raises(ValueError):
            substitute_module(host, "1", fam)

    def test_identity_module(self):
        host = parse_word("1 2 1 3 2 3")
        fam = LinearOrderFamily((("z",),))
        out = substitute_module(host, "2", fam)
        target = Graph(["1", "z", "3"], [("1", "z"), ("z", "3")])
        assert naive_represents(out.letters, target)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
        st.randoms(use_true_random=False),
    )
    def test_random_modules(self, n, m, rng):
        g = random_graph(rng, n)
        host = rep_word(g)
        k = uniformity(host).k
        x = rng.choice(host.alphabet)
        base = [chr(ord("a") + i) for i in range(m)]
        orders = []
        for _ in range(rng.randint(1, k)):
            p = base[:]
            rng.shuffle(p)
            orders.append(tuple(p))
        fam = LinearOrderFamily(tuple(orders))
        out = substitute_module(host, x, fam)
        got = derive_graph(out)
        module = derive_graph(fam.word())
        # module subgraph preserved
        for a in module.labels:
            for b in module.labels:
                if a < b:
                    assert got.has_edge(a, b) == module.has_edge(a, b)
        # each module vertex sees exactly x's old neighborhood outside
        for a in module.labels:
            outside = [v for v in got.neighbors(a) if v not in module.labels]
            assert sorted(outside) == sorted(derive_graph(host).neighbors(x))


class TestConeWord:
    def test_crown3_demo(self):
        blocks = permutation_blocks(crown_perm_word(3))
        fam = LinearOrderFamily(tuple(tuple(b) for b in blocks))
        out = cone_word(fam, "a")
        target = add_apex(build_family("crown", 3), "a")
        assert naive_represents(out.letters, target)
        assert uniformity(out).k == 3

    def test_apex_collision_rejected(self):
        fam = LinearOrderFamily((("1", "2"),))
        with pytest.raises(ValueError):
            cone_word(fam, "1")


class TestRepNumberArithmetic:
    def test_input_validation(self):
        with pytest.raises(ValueError):
            RepNumberInput(k1=0, k2=1, n1=1, n2=1)
        with pytest.raises(ValueError):
            RepNumberInput(k1=2, k2=1, n1=1, n2=1)  # one vertex forces k=1

    def test_two_singletons(self):
        out = combined_rep_number(RepNumberInput(k1=1, k2=1, n1=1, n2=1))
        assert out == CombinedRepNumbers(connect_edge=1, glue_vertex=1)

    def test_mixed(self):
        out = combined_rep_number(RepNumberInput(k1=1, k2=2, n1=3, n2=4))
        assert out.connect_edge == 2
        assert out.glue_vertex == 2

    def test_k3(self):
        out = combined_rep_number(RepNumberInput(k1=3, k2=2, n1=6, n2=5))
        assert out.connect_edge == 3
        assert out.glue_vertex == 3


class TestCombineSweep:
    def test_seeded_sweep_verifies_by_oracle(self):
        # combine is a direct construction; every result must represent the
        # joined graph, checked here by brute-force alternation
        rng = random.Random(7)
        for i in range(2000):
            k = rng.choice((2, 3, 4))
            one = [f"a{j}" for j in range(rng.randint(1, 5))] * k
            two = [f"b{j}" for j in range(rng.randint(1, 5))] * k
            rng.shuffle(one)
            rng.shuffle(two)
            x, y = rng.choice(one), rng.choice(two)
            e1, e2 = naive_edge_set(one), naive_edge_set(two)
            if i % 2:
                mode = CombineMode("connect-edge", None)
                want = e1 | e2 | {frozenset((x, y))}
            else:
                mode = CombineMode("glue-vertex", "z")
                want = {frozenset("z" if t == x else t for t in e) for e in e1}
                want |= {frozenset("z" if t == y else t for t in e) for e in e2}
            out = combine(Word(one), Word(two), x, y, mode)
            assert uniformity(out).k == k
            assert naive_edge_set(out.letters) == want, (one, two, x, y, mode)
