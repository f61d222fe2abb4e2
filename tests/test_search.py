import hashlib
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from wordrep import (
    ABORTED,
    Certificate,
    EXHAUSTED,
    NOT_REPRESENTABLE,
    WITNESS_FOUND,
    Graph,
    LinearOrderFamily,
    Orientation,
    VerificationError,
    Word,
    add_apex,
    build_family,
    derive_graph,
    find_k_uniform_representant,
    find_permutational_representation,
    find_transitive_orientation,
    is_semi_transitive,
    is_transitive,
    orient_by_order,
    poset_dimension,
    representation_number,
    uniformity,
)
from oracles import (
    every_graph,
    naive_edge_set,
    naive_isomorphic,
    naive_k_uniform_words,
    naive_poset_dimension,
    naive_represents,
    naive_transitive_orientation_exists,
    random_graph,
)

# (status, witness, nodes_explored) at each k that representation_number
# tries.  The node counts pin the kernel's search order: a change of its
# state that keeps the order reproduces them exactly.
KERNEL_GOLDEN = {
    "C9": [
        (EXHAUSTED, None, 0),
        (WITNESS_FOUND, "1 2 9 1 8 9 7 8 6 7 5 6 4 5 3 4 2 3", 17409),
    ],
    "C8": [
        (EXHAUSTED, None, 0),
        (WITNESS_FOUND, "1 2 8 1 7 8 6 7 5 6 4 5 3 4 2 3", 2546),
    ],
    "L4": [
        (EXHAUSTED, None, 0),
        (WITNESS_FOUND, "2 1 3' 2' 4 3 4' 4 3' 4' 2 3 1' 2' 1 1'", 1950),
    ],
    "Pr3": [
        (EXHAUSTED, None, 0),
        (EXHAUSTED, None, 404),
        (WITNESS_FOUND, "1 2 3 1' 1 2' 2 3' 3 1' 1 2' 3' 1' 2 2' 3 3'", 18),
    ],
    "Pr4": [
        (EXHAUSTED, None, 0),
        (EXHAUSTED, None, 15434),
        (
            WITNESS_FOUND,
            "1 2 4 3 1' 1 2' 2 4' 1' 4 1 3' 3 4' 4 2' 1' 2 3' 2' 4' 3 3'",
            31611,
        ),
    ],
    "H4": [
        (EXHAUSTED, None, 0),
        (EXHAUSTED, None, 15434),
        (
            WITNESS_FOUND,
            "1 2 3 4 1' 2' 3' 4 4' 3 2 1' 1 4' 3' 2 2' 1 4 3' 3 2' 4' 1'",
            1162,
        ),
    ],
    "W6": [
        (EXHAUSTED, None, 1),
        (EXHAUSTED, None, 2749),
        (WITNESS_FOUND, "c 1 2 3' 3 1' 2' c 1 3 2' 2 1' 3' c 2 3 1' 1 2' 3'", 2302),
    ],
    "W5": [(EXHAUSTED, None, 1), (EXHAUSTED, None, 466)],
}

KERNEL_GRAPHS = {
    "C9": build_family("cycle", 9),
    "C8": build_family("cycle", 8),
    "L4": build_family("ladder", 4),
    "Pr3": build_family("prism", 3),
    "Pr4": build_family("prism", 4),
    "H4": build_family("crown", 4),
    "W6": add_apex(build_family("crown", 3), "c"),
    "W5": add_apex(build_family("cycle", 5), "a"),
}


class TestKUniformSearch:
    def test_complete_k1(self):
        cert = find_k_uniform_representant(build_family("complete", 4), 1)
        assert cert.status == WITNESS_FOUND
        assert uniformity(cert.witness).k == 1

    def test_path_k1_exhausted(self):
        cert = find_k_uniform_representant(build_family("path", 3), 1)
        assert cert.status == EXHAUSTED and cert.witness is None

    def test_path_k2(self):
        g = build_family("path", 4)
        cert = find_k_uniform_representant(g, 2)
        assert cert.status == WITNESS_FOUND
        assert naive_represents(cert.witness.letters, g)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            find_k_uniform_representant(build_family("path", 3), 0)

    @pytest.mark.parametrize("k", [1.5, 2.0, True, "2"])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(ValueError):
            find_k_uniform_representant(build_family("cycle", 5), k)

    def test_empty_graph(self):
        cert = find_k_uniform_representant(Graph([], []), 2)
        assert cert.status == WITNESS_FOUND and len(cert.witness) == 0

    def test_word_deeper_than_the_stack_aborts(self):
        # P3 at k = 400 needs a 1,200-letter word, one call per letter
        cert = find_k_uniform_representant(build_family("path", 3), 400)
        assert cert.status == ABORTED and cert.witness is None
        assert cert.nodes_explored > 0

    @pytest.mark.parametrize("k,nodes", [(32, 96), (40, 120)])
    def test_copy_counts_wider_than_five_bits(self, k, nodes):
        # each letter's copies left are a field of k.bit_length() bits
        cert = find_k_uniform_representant(build_family("path", 3), k)
        assert cert.status == WITNESS_FOUND and cert.nodes_explored == nodes
        assert " ".join(cert.witness.letters) == "2 1 3 " * (k - 1) + "2 3 1"

    def test_nodes_counted(self):
        cert = find_k_uniform_representant(build_family("cycle", 5), 2)
        assert cert.nodes_explored > 0
        assert cert.elapsed_ms >= 0
        assert "n=5" in cert.query and "k=2" in cert.query

    def test_deterministic_witness(self):
        g = build_family("cycle", 6)
        a = find_k_uniform_representant(g, 2)
        b = find_k_uniform_representant(g, 2)
        assert a.witness == b.witness

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.randoms(use_true_random=False))
    def test_found_witnesses_verify(self, n, rng):
        g = random_graph(rng, n)
        cert = find_k_uniform_representant(g, 2)
        if cert.status == WITNESS_FOUND:
            assert uniformity(cert.witness).k == 2
            assert naive_represents(cert.witness.letters, g)

    @pytest.mark.parametrize("name", list(KERNEL_GOLDEN))
    def test_golden_search_order(self, name):
        res = representation_number(KERNEL_GRAPHS[name])
        got = [
            (c.status, c.witness and " ".join(c.witness.letters), c.nodes_explored)
            for c in res.per_k
        ]
        assert got == KERNEL_GOLDEN[name]

    @pytest.mark.parametrize("k,max_n", [(1, 4), (2, 4), (3, 3)])
    def test_witness_exactly_when_one_exists(self, k, max_n):
        """Against every k-uniform word, for every labelled graph that small.

        Checks that the symmetry reductions and the final-copy pruning never
        cut the last witness away.
        """
        for n in range(1, max_n + 1):
            labels = [str(i) for i in range(1, n + 1)]
            reachable = {
                frozenset(naive_edge_set(w)) for w in naive_k_uniform_words(labels, k)
            }
            for g in every_graph(n):
                target = frozenset(map(frozenset, g.edges()))
                cert = find_k_uniform_representant(g, k)
                assert (cert.status == WITNESS_FOUND) == (target in reachable), (k, g.edges())
                if cert.witness is not None:
                    assert naive_edge_set(cert.witness.letters) == target


class TestRepresentationNumber:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_complete_is_one(self, n):
        res = representation_number(build_family("complete", n))
        assert res.rep_number == 1
        # the immediate answer for complete graphs skips the search
        assert res.per_k[-1].nodes_explored == 0

    @pytest.mark.parametrize(
        "family,size,expected",
        [
            ("cycle", 5, 2),
            ("cycle", 6, 2),
            ("ladder", 2, 2),
            ("ladder", 3, 2),
            ("path", 3, 2),
            ("crown", 3, 2),
            ("prism", 3, 3),
        ],
    )
    def test_known_values(self, family, size, expected):
        res = representation_number(build_family(family, size))
        assert res.status == WITNESS_FOUND
        assert res.rep_number == expected
        g = build_family(family, size)
        assert naive_represents(res.witness.letters, g)
        # every smaller k must come with an exhaustion certificate
        assert [c.status for c in res.per_k[:-1]] == [EXHAUSTED] * (expected - 1)
        assert res.per_k[-1].status == WITNESS_FOUND

    def test_wheel5_not_representable(self):
        w5 = add_apex(build_family("cycle", 5), "a")
        res = representation_number(w5)
        assert res.status == NOT_REPRESENTABLE
        assert res.rep_number is None
        # k = 1, 2 exhaust, then the orientation search proves the verdict
        assert [c.status for c in res.per_k] == [EXHAUSTED, EXHAUSTED]
        assert [c.nodes_explored for c in res.per_k] == [1, 466]
        assert res.orientation.status == EXHAUSTED
        assert res.orientation.nodes_explored > 0
        assert res.orientation.witness is None

    def test_max_k_cap_aborts(self):
        res = representation_number(build_family("prism", 3), max_k=2)
        assert res.status == ABORTED
        assert res.rep_number is None
        assert [c.status for c in res.per_k] == [EXHAUSTED, EXHAUSTED]
        assert res.orientation.status == WITNESS_FOUND

    def test_wheel5_max_k_1_never_reaches_orientation(self):
        res = representation_number(add_apex(build_family("cycle", 5), "a"), max_k=1)
        assert res.status == ABORTED
        assert res.orientation is None

    def test_wheel5_max_k_2_is_proof(self):
        res = representation_number(add_apex(build_family("cycle", 5), "a"), max_k=2)
        assert res.status == NOT_REPRESENTABLE
        assert res.orientation.status == EXHAUSTED

    def test_exhausted_bound_with_orientation_is_an_error(self, monkeypatch):
        # a clique size of n - 1 claims R <= 2; Pr3 has R = 3 and an
        # orientation, so the scan must fail loudly, not report a verdict
        monkeypatch.setattr("wordrep.search._greedy_clique_size", lambda g: g.n - 1)
        with pytest.raises(VerificationError):
            representation_number(build_family("prism", 3))

    def test_aborted_k_ends_the_scan(self, monkeypatch):
        # an aborted k proves nothing, so neither a verdict nor a failed
        # bound may follow from it
        def aborted(g, k):
            return Certificate(f"k={k}", ABORTED, None, 0, 0.0)

        monkeypatch.setattr("wordrep.search.find_k_uniform_representant", aborted)
        res = representation_number(build_family("prism", 3))
        assert res.status == ABORTED and res.orientation is None
        assert [c.status for c in res.per_k] == [ABORTED]

    def test_orientation_only_after_k2_exhausts(self):
        assert representation_number(build_family("cycle", 5)).orientation is None
        res = representation_number(build_family("prism", 3))
        assert res.orientation.status == WITNESS_FOUND
        assert is_semi_transitive(res.orientation.witness)

    @pytest.mark.parametrize("max_k", [1.5, True, "3"])
    def test_non_integer_max_k_rejected(self, max_k):
        with pytest.raises(ValueError):
            representation_number(build_family("cycle", 5), max_k=max_k)

    def test_nodes_sum(self):
        res = representation_number(build_family("cycle", 5))
        assert res.nodes_explored == sum(c.nodes_explored for c in res.per_k)


def test_census_six_vertices():
    """All 2^15 labelled graphs on six vertices, against counted orbits.

    The prism Pr3 is the only six-vertex graph with R = 3 and the wheel W5
    the only one that is not word-representable; their labelled copies
    number 6!/|Aut| = 720/12 and 720/10.  The sha256 of every (rep_number,
    witness letters, per-k (status, nodes)) pins the kernel's search order.
    """
    prism = build_family("prism", 3)
    w5 = add_apex(build_family("cycle", 5), "a")
    counts = {1: 0, 2: 0, 3: 0, None: 0}
    h = hashlib.sha256()
    for g in every_graph(6):
        res = representation_number(g)
        counts[res.rep_number] += 1
        per_k = [(c.status, c.nodes_explored) for c in res.per_k]
        h.update(repr((res.rep_number, res.witness and res.witness.letters, per_k)).encode())
        if res.rep_number is None:
            assert res.status == NOT_REPRESENTABLE
            assert naive_isomorphic(g, w5)
        elif res.rep_number == 3:
            assert naive_isomorphic(g, prism)
    assert counts == {1: 1, 2: (1 << 15) - 1 - 60 - 72, 3: 60, None: 72}
    want = "8d1a4b1c910825f6bd32abe58a59df88c15195430efa718eeb47197ae05c4e8f"
    assert h.hexdigest() == want


class TestTransitiveOrientationSearch:
    def test_complete_found(self):
        cert = find_transitive_orientation(build_family("complete", 4))
        assert cert.status == WITNESS_FOUND
        assert is_transitive(cert.witness)

    def test_odd_cycle_exhausted(self):
        cert = find_transitive_orientation(build_family("cycle", 5))
        assert cert.status == EXHAUSTED and cert.witness is None

    def test_even_cycle_found(self):
        cert = find_transitive_orientation(build_family("cycle", 6))
        assert cert.status == WITNESS_FOUND
        assert is_transitive(cert.witness)

    def test_crowns_found(self):
        for k in (2, 3, 4):
            cert = find_transitive_orientation(build_family("crown", k))
            assert cert.status == WITNESS_FOUND

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.randoms(use_true_random=False))
    def test_found_is_transitive(self, n, rng):
        g = random_graph(rng, n)
        cert = find_transitive_orientation(g)
        if cert.status == WITNESS_FOUND:
            assert is_transitive(cert.witness)

    # family -> (status, arcs or None, nodes_explored)
    @pytest.mark.parametrize(
        "family, size, status, arcs, nodes",
        [
            ("complete", 4, WITNESS_FOUND, "1>2 1>3 1>4 2>3 2>4 3>4", 6),
            ("cycle", 5, EXHAUSTED, None, 10),
            ("cycle", 6, WITNESS_FOUND, "1>2 1>6 3>2 3>4 5>4 5>6", 6),
            (
                "crown", 4, WITNESS_FOUND,
                "1>2' 1>3' 1>4' 2>1' 2>3' 2>4' 3>1' 3>2' 3>4' 4>1' 4>2' 4>3'",
                12,
            ),
        ],
    )
    def test_golden_arcs_and_nodes(self, family, size, status, arcs, nodes):
        cert = find_transitive_orientation(build_family(family, size))
        assert cert.status == status
        if arcs is None:
            assert cert.witness is None
        else:
            assert cert.witness.arcs() == [tuple(a.split(">")) for a in arcs.split()]
        assert cert.nodes_explored == nodes

    def test_golden_seeded_sample(self):
        rng = random.Random(99)
        certs = [
            find_transitive_orientation(random_graph(rng, 7 + i % 3)) for i in range(300)
        ]
        assert sum(c.nodes_explored for c in certs) == 6503
        assert sum(c.status == WITNESS_FOUND for c in certs) == 149

    def test_witness_digest_up_to_six_vertices(self):
        # sha256 of every (status, arcs) on the 33,868 labelled graphs with at
        # most six vertices, as the edge-branching search gave them
        h = hashlib.sha256()
        for g in (g for n in range(7) for g in every_graph(n)):
            cert = find_transitive_orientation(g)
            arcs = None if cert.witness is None else cert.witness.arcs()
            h.update(repr((cert.status, arcs)).encode())
        want = "bf6fcae0c5bbb49b22ca8e734503b650de32081c1a3883e323a16dfe79641d52"
        assert h.hexdigest() == want

    def test_crown_forty(self):
        # 80 vertices and 1,560 edges: each edge is placed once, in one class
        g = build_family("crown", 40)
        start = time.perf_counter()
        cert = find_transitive_orientation(g)
        assert time.perf_counter() - start < 0.5
        assert cert.status == WITNESS_FOUND and is_transitive(cert.witness)
        assert cert.nodes_explored == g.edge_count == 1560

    def test_two_dimensional_poset_plus_five_cycle(self):
        # the comparability graph of a 60-element poset of dimension 2 has a
        # transitive orientation; the disjoint C5's class holds its arcs both ways
        rng = random.Random(0)
        second = rng.sample(range(60), 60)
        labels = [f"p{i}" for i in range(60)] + [f"c{i}" for i in range(5)]
        edges = [
            (f"p{i}", f"p{j}")
            for i, j in combinations(range(60), 2)
            if second[i] < second[j]
        ]
        edges += [(f"c{i}", f"c{(i + 1) % 5}") for i in range(5)]
        g = Graph(labels, edges)
        cert = find_transitive_orientation(g)
        assert cert.status == EXHAUSTED and cert.witness is None
        assert cert.nodes_explored == g.edge_count + 5 == 903

    def test_status_matches_oracle_up_to_five_vertices(self):
        # every labelled graph on at most five vertices, both sides of the answer
        counts = {WITNESS_FOUND: 0, EXHAUSTED: 0}
        for g in (g for n in range(6) for g in every_graph(n)):
            status = find_transitive_orientation(g).status
            found = status == WITNESS_FOUND
            assert found == naive_transitive_orientation_exists(g), g
            counts[status] += 1
        assert counts[EXHAUSTED] > 0


class TestPosetDimension:
    def test_chain_is_one(self):
        g = build_family("complete", 4)
        d = orient_by_order(g, list(g.labels))
        dim, fam = poset_dimension(d)
        assert dim == 1 and len(fam.orders) == 1

    def test_empty_is_one(self):
        d = Orientation(Graph([]), [])
        assert poset_dimension(d) == (1, LinearOrderFamily(((),)))

    def test_antichain_is_two(self):
        g = Graph(["1", "2", "3"], [])
        d = orient_by_order(g, list(g.labels))
        dim, fam = poset_dimension(d)
        assert dim == 2

    def test_crown_dimensions(self):
        # crown(k) is the standard example S_k, of dimension k
        posets = {
            k: find_transitive_orientation(build_family("crown", k)).witness
            for k in range(2, 9)
        }
        start = time.perf_counter()
        dims = {k: poset_dimension(d) for k, d in posets.items()}
        assert time.perf_counter() - start < 1.0
        for k, (dim, fam) in dims.items():
            assert dim == k
            assert len(fam.orders) == k

    @staticmethod
    def comparability_posets(n, masks):
        labels = [str(i) for i in range(1, n + 1)]
        pairs = list(combinations(labels, 2))
        for mask in masks:
            g = Graph(labels, [p for t, p in enumerate(pairs) if mask >> t & 1])
            d = find_transitive_orientation(g).witness
            if d is not None:
                yield d

    def test_matches_oracle_up_to_five_vertices(self):
        count = 0
        for n in range(6):
            masks = range(1 << n * (n - 1) // 2)
            for d in self.comparability_posets(n, masks):
                assert poset_dimension(d)[0] == naive_poset_dimension(d), d
                count += 1
        assert count == 1088

    def test_matches_oracle_on_six_vertex_sample(self):
        rng = random.Random(606)
        masks = [rng.randrange(1 << 15) for _ in range(400)]
        posets = list(self.comparability_posets(6, masks))[:200]
        assert len(posets) == 200
        for d in posets:
            assert poset_dimension(d)[0] == naive_poset_dimension(d), d

    def test_realizer_is_sound(self):
        g = build_family("crown", 3)
        d = find_transitive_orientation(g).witness
        _, fam = poset_dimension(d)
        labels = d.base.labels
        for u in labels:
            for v in labels:
                if u == v:
                    continue
                in_all = all(
                    o.index(u) < o.index(v) for o in fam.orders
                )
                assert in_all == d.has_arc(u, v)

    def test_non_transitive_rejected(self):
        g = build_family("path", 3)
        d = orient_by_order(g, list(g.labels))
        with pytest.raises(ValueError):
            poset_dimension(d)

    def test_antichain_of_45_is_deeper_than_the_stack(self):
        # _fewest_classes takes one frame per critical pair: 870 fit, 1,980 do not
        antichain = lambda n: Orientation(Graph([str(i) for i in range(n)]), [])
        assert poset_dimension(antichain(30))[0] == 2
        with pytest.raises(RecursionError):
            poset_dimension(antichain(45))


class TestPermutationalRepresentation:
    def test_complete_k1(self):
        cert = find_permutational_representation(build_family("complete", 3), 1)
        assert cert.status == WITNESS_FOUND
        assert isinstance(cert.witness, LinearOrderFamily)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_crown_found_at_k_exhausted_below(self, k):
        g = build_family("crown", k)
        cert = find_permutational_representation(g, k)
        assert cert.status == WITNESS_FOUND
        assert naive_represents(cert.witness.word().letters, g)
        assert find_permutational_representation(g, k - 1).status == EXHAUSTED

    def test_cycle5_never(self):
        # no transitive orientation exists at all
        cert = find_permutational_representation(build_family("cycle", 5), 4)
        assert cert.status == EXHAUSTED

    def test_witness_word_verifies(self):
        g = build_family("crown", 2)
        cert = find_permutational_representation(g, 2)
        assert cert.status == WITNESS_FOUND
        assert naive_represents(cert.witness.word().letters, g)

    @pytest.mark.parametrize("k", [1.5, True, "2"])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(ValueError):
            find_permutational_representation(build_family("crown", 2), k)

    @pytest.mark.parametrize("n, status", [(30, WITNESS_FOUND), (45, ABORTED), (60, ABORTED)])
    def test_poset_deeper_than_the_stack_aborts(self, n, status):
        cert = find_permutational_representation(Graph([str(i) for i in range(n)]), 2)
        assert cert.status == status

    def test_padding_to_larger_k(self):
        g = build_family("crown", 2)
        cert = find_permutational_representation(g, 4)
        assert cert.status == WITNESS_FOUND
        assert len(cert.witness.orders) == 4
        assert naive_represents(cert.witness.word().letters, g)


class TestLinearOrderFamily:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LinearOrderFamily(())

    def test_rejects_mismatched_orders(self):
        with pytest.raises(ValueError):
            LinearOrderFamily((("1", "2"), ("1", "3")))

    def test_rejects_repeats(self):
        with pytest.raises(ValueError):
            LinearOrderFamily((("1", "1"),))

    def test_word(self):
        fam = LinearOrderFamily((("1", "2"), ("2", "1")))
        assert fam.word() == Word(["1", "2", "2", "1"])
