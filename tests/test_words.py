import random

import pytest
from hypothesis import given, settings, strategies as st

import wordrep.words
from wordrep import (
    Graph,
    ParseError,
    VerificationError,
    Word,
    add_leaf,
    alternates,
    concat_orders,
    cyclic_shift,
    derive_graph,
    build_family,
    extend_uniform,
    find_k_uniform_representant,
    find_permutational_representation,
    format_word,
    initial_permutation,
    parse_word,
    ladder_word,
    permutation_blocks,
    representation_number,
    represents,
    reverse,
    uniformity,
)
from oracles import (
    graph_edge_set,
    naive_alternates,
    naive_edge_set,
    naive_represents,
    random_uniform_word,
)


def seeded_letters(rng):
    """A shuffled word on up to 7 letters, each occurring one to three times."""
    alphabet = [f"v{i}" for i in range(rng.randint(1, 7))]
    letters = [x for x in alphabet for _ in range(rng.randint(1, 3))]
    rng.shuffle(letters)
    return letters


# Strategy: uniform words as shuffled multisets over a small alphabet.
@st.composite
def uniform_words(draw, max_n=6, max_k=3):
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=max_k))
    letters = [str(i + 1) for i in range(n)] * k
    letters = draw(st.permutations(letters))
    return Word(list(letters))


@st.composite
def arbitrary_words(draw, max_n=6, max_len=14):
    n = draw(st.integers(min_value=1, max_value=max_n))
    alphabet = [str(i + 1) for i in range(n)]
    body = draw(st.lists(st.sampled_from(alphabet), min_size=0, max_size=max_len))
    # every alphabet letter must occur at least once
    return Word(alphabet + body)


class TestWordConstruction:
    def test_first_bad_token_is_reported(self):
        # each distinct label is checked once, still in word order
        cases = [
            (["a", "a b", 3], "contains whitespace"),
            (["a", "a", 3, "b c"], "must be a string, got int"),
            (["a", ["x"], "a"], "must be a string, got list"),
            (["a", "", "#"], "empty label"),
            (["x", "y", "x", "->"], "'->' is reserved"),
            (["x", "y", "x", "vertices:"], "'vertices:' is reserved"),
        ]
        for letters, message in cases:
            with pytest.raises(ValueError, match=message):
                Word(letters)

    @pytest.mark.parametrize(
        "labels, message",
        [
            (["a", 5, "b c"], "label must be a string, got int"),
            (["a", ["x"], ""], "label must be a string, got list"),
            (["a", "", ["x"]], "empty label"),
            (["a", "b\tc", 3], "label 'b\\tc' contains whitespace"),
            (["a", "x#1", "->"], "label 'x#1' contains '#'"),
            (["a", "->", "vertices:"], "label '->' is reserved"),
            (["a", "vertices:", ""], "label 'vertices:' is reserved"),
            (["a", "b", "a", "c d"], "label 'c d' contains whitespace"),
        ],
        ids=["int", "list", "empty", "whitespace", "hash", "arrow", "header", "repeat"],
    )
    def test_word_and_graph_name_the_same_first_bad_label(self, labels, message):
        # letters and vertices pass one check, in first-occurrence order; a
        # repeat is a second occurrence in a word and a duplicate vertex in a
        # graph, which the graph reports only once every label is valid
        for build in (Word, Graph):
            with pytest.raises(ValueError) as exc:
                build(labels)
            assert str(exc.value) == message

    def test_repeated_labels_keep_positions(self):
        w = Word(iter(["x", "y", "x", "z", "y"]))
        assert w.alphabet == ("x", "y", "z")
        assert w.occurrences("x") == (0, 2)
        assert w.occurrences("y") == (1, 4)
        assert list(w) == ["x", "y", "x", "z", "y"]

    def test_equality_with_other_types(self):
        w = Word(["a", "b"])
        assert w.__eq__(1) is NotImplemented
        assert (w == 1) is False and w != 1 and w == Word(["a", "b"])


class TestParsing:
    def test_whitespace_tokens(self):
        w = parse_word("1 2' 1 2'")
        assert w.letters == ("1", "2'", "1", "2'")

    def test_contiguous_with_primes_and_groups(self):
        w = parse_word("1387296(10)7493541283(10)7685(10)194562")
        assert len(w) == 30
        assert w.count("10") == 3

    def test_contiguous_primes(self):
        w = parse_word("11'11'")
        assert w.letters == ("1", "1'", "1", "1'")

    def test_single_known_label(self):
        w = parse_word("10", alphabet=["10"])
        assert w.letters == ("10",)

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_word("   ")

    def test_unbalanced_group(self):
        with pytest.raises(ParseError):
            parse_word("1(10")

    def test_dangling_prime(self):
        with pytest.raises(ParseError):
            parse_word("'1")

    @pytest.mark.parametrize(
        "text, message",
        [("()", "empty '\\(\\)' group"), (")", "unbalanced '\\)'")],
        ids=["empty-group", "lone-close"],
    )
    def test_bad_parentheses(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_word(text)

    def test_format_round_trip(self):
        w = parse_word("1 2 1 3 2 3")
        assert parse_word(format_word(w)) == w


class TestAlternation:
    def test_known_positive(self):
        w = parse_word("31341232")
        assert alternates(w, "1", "3") is True

    def test_known_negative(self):
        w = parse_word("31341232")
        assert alternates(w, "3", "4") is False

    def test_single_occurrences_alternate(self):
        w = parse_word("xy", alphabet=None)
        assert alternates(w, "x", "y") is True

    def test_same_letter_rejected(self):
        w = parse_word("11")
        with pytest.raises(ValueError):
            alternates(w, "1", "1")

    def test_absent_letter_rejected(self):
        w = parse_word("11")
        with pytest.raises(ValueError):
            alternates(w, "1", "7")

    @given(arbitrary_words())
    def test_matches_naive_oracle(self, w):
        alphabet = sorted(w.alphabet)
        for i in range(len(alphabet)):
            for j in range(i + 1, len(alphabet)):
                x, y = alphabet[i], alphabet[j]
                assert alternates(w, x, y) == naive_alternates(w.letters, x, y)

    @given(arbitrary_words())
    def test_symmetric(self, w):
        alphabet = sorted(w.alphabet)
        for i in range(len(alphabet)):
            for j in range(i + 1, len(alphabet)):
                x, y = alphabet[i], alphabet[j]
                assert alternates(w, x, y) == alternates(w, y, x)


class TestDeriveGraph:
    def test_permutation_gives_complete(self):
        g = derive_graph(parse_word("1234"))
        assert g.is_complete() and g.n == 4

    def test_pendant_triangle(self):
        g = derive_graph(parse_word("1213423"))
        assert graph_edge_set(g) == {
            frozenset(p) for p in [("1", "2"), ("2", "3"), ("2", "4"), ("3", "4")]
        }

    def test_single_vertex(self):
        g = derive_graph(parse_word("11"))
        assert g.n == 1 and g.edge_count == 0

    @given(arbitrary_words())
    def test_matches_naive_oracle(self, w):
        assert graph_edge_set(derive_graph(w)) == naive_edge_set(w.letters)

    @pytest.mark.parametrize("seed", range(20))
    def test_labels_follow_alphabet(self, seed):
        w = Word(seeded_letters(random.Random(seed)))
        derived = derive_graph(w)
        assert derived.labels == w.alphabet
        assert derived == Graph(w.alphabet, derived.edges())


class TestRepresents:
    def test_non_alternating_pair(self):
        k2 = Graph(["1", "2"], [("1", "2")])
        assert represents(parse_word("1122"), k2) is False
        assert represents(parse_word("1212"), k2) is True

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_naive_oracle(self, seed):
        # the target's labels are shuffled; every other case flips one edge
        rng = random.Random(seed)
        letters = seeded_letters(rng)
        labs = sorted(set(letters))
        rng.shuffle(labs)
        edges = naive_edge_set(letters)
        if seed % 2 and len(labs) > 1:
            edges ^= {frozenset(rng.sample(labs, 2))}
        target = Graph(labs, [tuple(e) for e in edges])
        expect = naive_represents(letters, target)
        assert expect == (seed % 2 == 0 or len(labs) == 1)
        assert represents(Word(letters), target) is expect

    def test_alphabet_mismatch_names_difference(self):
        k2 = Graph(["1", "2"], [("1", "2")])
        with pytest.raises(ValueError, match="alphabet mismatch"):
            represents(parse_word("1133"), k2)


# producer -> a call that returns a proved word; each proof is words.verified
PROVED_WORDS = {
    "find_k_uniform_representant": lambda: find_k_uniform_representant(
        build_family("path", 3), 2
    ),
    "representation_number": lambda: representation_number(build_family("complete", 3)),
    "find_permutational_representation": lambda: find_permutational_representation(
        build_family("crown", 2), 2
    ),
    "extend_uniform": lambda: extend_uniform(parse_word("1212")),
    "add_leaf": lambda: add_leaf(parse_word("1212"), "1", "3"),
    "ladder_word": lambda: ladder_word(2),
}


class TestVerified:
    def test_returns_the_word(self):
        w = parse_word("1212")
        assert wordrep.words.verified(w, derive_graph(w), "test") is w

    def test_names_the_producer(self):
        with pytest.raises(VerificationError, match="^test produced a word that fails"):
            wordrep.words.verified(parse_word("1122"), build_family("complete", 2), "test")

    @pytest.mark.parametrize("producer", list(PROVED_WORDS))
    def test_every_proof_is_this_check(self, monkeypatch, producer):
        # with represents refuting everything, each producer must refuse its word
        monkeypatch.setattr(wordrep.words, "represents", lambda w, g: False)
        message = f"^{producer} produced a word that fails verification$"
        with pytest.raises(VerificationError, match=message):
            PROVED_WORDS[producer]()


class TestUniformity:
    def test_two_uniform(self):
        assert uniformity(parse_word("11'11'")).k == 2

    def test_non_uniform(self):
        prof = uniformity(parse_word("1213423"))
        assert prof.k is None
        assert dict(prof.counts) == {"1": 2, "2": 2, "3": 2, "4": 1}

    def test_permutation(self):
        assert uniformity(parse_word("123")).k == 1


class TestReverse:
    def test_known_word(self):
        assert format_word(reverse(parse_word("1213423"))) == "3 2 4 3 1 2 1"

    def test_palindrome(self):
        w = parse_word("121")
        assert reverse(w) == w

    @given(arbitrary_words())
    def test_involution_and_graph_preserved(self, w):
        assert reverse(reverse(w)) == w
        assert derive_graph(reverse(w)) == derive_graph(w)


class TestCyclicShift:
    def test_simple(self):
        assert format_word(cyclic_shift(parse_word("1212"), 1)) == "2 1 2 1"

    def test_period_two(self):
        w = parse_word("11'11'")
        assert cyclic_shift(w, 2) == w

    def test_non_uniform_rejected(self):
        with pytest.raises(ValueError):
            cyclic_shift(parse_word("1213423"), 1)

    @pytest.mark.parametrize("cut", [-1, 5, True, 1.0])
    def test_cut_out_of_range_rejected(self, cut):
        with pytest.raises(ValueError, match=f"cut must be in 0..4, got {cut}"):
            cyclic_shift(parse_word("1212"), cut)

    @given(uniform_words(), st.data())
    def test_graph_invariant(self, w, data):
        cut = data.draw(st.integers(min_value=0, max_value=len(w)))
        assert derive_graph(cyclic_shift(w, cut)) == derive_graph(w)


class TestInitialPermutation:
    def test_known(self):
        assert format_word(initial_permutation(parse_word("1213423"))) == "1 2 3 4"

    def test_permutation_fixed(self):
        w = parse_word("123")
        assert initial_permutation(w) == w

    def test_two_letters(self):
        assert format_word(initial_permutation(parse_word("2121"))) == "2 1"


class TestExtendUniform:
    def test_k2(self):
        assert format_word(extend_uniform(parse_word("1212"))) == "1 2 1 2 1 2"

    def test_primed_labels(self):
        out = extend_uniform(parse_word("11'11'"))
        assert uniformity(out).k == 3
        assert derive_graph(out) == derive_graph(parse_word("11'11'"))

    def test_permutation(self):
        out = extend_uniform(parse_word("123"))
        assert format_word(out) == "1 2 3 1 2 3"

    def test_non_uniform_rejected(self):
        with pytest.raises(ValueError, match="requires a uniform word"):
            extend_uniform(parse_word("1213423"))

    def test_empty_word_unchanged(self):
        assert extend_uniform(Word(())) == Word(())

    @given(uniform_words())
    def test_raises_k_and_preserves_graph(self, w):
        out = extend_uniform(w)
        assert uniformity(out).k == uniformity(w).k + 1
        assert derive_graph(out) == derive_graph(w)


class TestOneUniform:
    @given(st.integers(min_value=1, max_value=7), st.randoms(use_true_random=False))
    def test_permutations_derive_complete(self, n, rng):
        letters = [str(i + 1) for i in range(n)]
        rng.shuffle(letters)
        assert derive_graph(Word(letters)).is_complete()


class TestBlocks:
    def test_concat_and_split(self):
        w = concat_orders([("1", "2", "3"), ("3", "1", "2")])
        assert format_word(w) == "1 2 3 3 1 2"
        assert tuple(permutation_blocks(w)) == (("1", "2", "3"), ("3", "1", "2"))

    def test_blocks_reject_non_uniform(self):
        with pytest.raises(ValueError):
            permutation_blocks(parse_word("1213423"))

    @pytest.mark.parametrize(
        "letters, message",
        [((), "empty word has no permutation blocks"),
         (tuple("121122"), "block 2 is not a permutation")],
        ids=["empty", "not-a-permutation"],
    )
    def test_blocks_reject(self, letters, message):
        with pytest.raises(ValueError, match=message):
            permutation_blocks(Word(letters))


def test_thousand_random_uniform_words_mini():
    # smaller cousin of the acceptance sweep, distinct seed
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(1, 5)
        k = rng.randint(1, 3)
        w = Word(random_uniform_word(rng, n, k))
        g = derive_graph(w)
        assert derive_graph(reverse(w)) == g
        for cut in range(len(w) + 1):
            assert derive_graph(cyclic_shift(w, cut)) == g
        if k == 1:
            assert g.is_complete()
