import hashlib
import random
import re
import sys
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from wordrep import (
    Graph,
    ShortcutWitness,
    add_apex,
    Orientation,
    ParseError,
    build_family,
    directed_cycle,
    exists_semi_transitive,
    find_shortcut,
    format_orientation,
    induced_subgraph,
    is_acyclic,
    is_semi_transitive,
    is_shortcut_witness,
    is_transitive,
    orient_by_order,
    parse_orientation,
    representation_number,
)
from wordrep import orientations
from wordrep.orientations import _closes_shortcut, _semi_transitive_search
from wordrep.search import WITNESS_FOUND
from oracles import (
    every_graph,
    naive_first_shortcut,
    naive_has_shortcut,
    naive_is_acyclic,
    random_graph,
)


@st.composite
def random_acyclic_orientations(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rng = draw(st.randoms(use_true_random=False))
    g = random_graph(rng, n)
    order = list(g.labels)
    rng.shuffle(order)
    return orient_by_order(g, order)


class TestOrientationBasics:
    def test_every_edge_directed_once(self):
        g = build_family("path", 3)
        for arcs, message in (
            ([("1", "2")], "edge (2, 3) left undirected"),
            ([("1", "2"), ("2", "1"), ("2", "3")], "edge (2, 1) directed more than once"),
            ([("1", "2"), ("1", "2"), ("2", "3")], "edge (1, 2) directed more than once"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Orientation(g, arcs)

    def test_arc_must_be_an_edge(self):
        g = build_family("path", 3)
        for arcs, message in (
            ([("1", "2"), ("1", "3")], "(1, 3) is not an edge of the base graph"),
            ([("1", "1"), ("2", "3")], "(1, 1) is not an edge of the base graph"),
            ([("1", "x")], "unknown vertex 'x'"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Orientation(g, arcs)

    @pytest.mark.parametrize(
        "out, message",
        [
            ([0b110, 0b100, 0b000], "(1, 3) is not an edge of the base graph"),
            ([0b010, 0b000, 0b000], "edge (2, 3) left undirected"),
            ([0b010, 0b100, 0b010], "edge (2, 3) directed more than once"),
            ([0b010, 0b100], "expected 3 out-masks over 3 vertices"),
            ([0b010, 0b1100, 0b000], "expected 3 out-masks over 3 vertices"),
            ([0b010, 0b100, -1], "expected 3 out-masks over 3 vertices"),
        ],
    )
    def test_from_masks_rejects(self, out, message):
        g = build_family("path", 3)
        with pytest.raises(ValueError, match=re.escape(message)):
            Orientation.from_masks(g, out)

    def test_from_masks_matches_arcs(self):
        g = build_family("path", 3)
        d = Orientation.from_masks(g, [0b000, 0b101, 0b000])
        assert d == Orientation(g, [("2", "1"), ("2", "3")])

    def test_arcs_ordered(self):
        g = build_family("path", 3)
        d = Orientation(g, [("2", "1"), ("2", "3")])
        assert d.arcs() == [("2", "1"), ("2", "3")]
        assert d.has_arc("2", "1") and not d.has_arc("1", "2")

    def test_value_semantics(self):
        g = build_family("path", 3)
        d = Orientation(g, [("2", "1"), ("2", "3")])
        same = Orientation(Graph(["3", "2", "1"], g.edges()), [("2", "3"), ("2", "1")])
        other = Orientation(g, [("1", "2"), ("2", "3")])
        assert d == same and hash(d) == hash(same)
        assert d != other and d != Orientation(build_family("path", 2), [("2", "1")])
        assert d.__eq__(g) is NotImplemented
        assert repr(d) == "Orientation(2->1, 2->3)"
        assert d.arc_count() == 2 and Orientation(Graph([]), []).arc_count() == 0

    def test_orient_by_order_needs_a_permutation(self):
        g = build_family("path", 3)
        for order in (["1", "1", "2"], ["1", "2"], ["1", "x"], ["1", "2", "3", "3"]):
            with pytest.raises(ValueError, match="^order is not a permutation of the vertex"):
                orient_by_order(g, order)
        with pytest.raises(ValueError, match="^unknown vertex 'x'$"):
            orient_by_order(g, ["1", "2", "x"])


class TestAcyclicity:
    def test_cycle_detected(self):
        g = build_family("cycle", 3)
        d = Orientation(g, [("1", "2"), ("2", "3"), ("3", "1")])
        cyc = directed_cycle(d)
        assert cyc is not None and cyc[0] == cyc[-1]
        assert not is_acyclic(d) and not is_semi_transitive(d)

    def test_order_orientations_acyclic(self):
        g = build_family("cycle", 5)
        d = orient_by_order(g, ["3", "1", "4", "2", "5"])
        assert is_acyclic(d)

    def test_long_path_and_cycle(self):
        # deeper than the recursion limit: every check walks without recursion
        n = sys.getrecursionlimit() + 100
        labs = [str(i) for i in range(n)]
        path = list(zip(labs, labs[1:]))
        d = orient_by_order(Graph(labs, path), labs)
        assert is_acyclic(d) and directed_cycle(d) is None
        assert find_shortcut(d) is None and is_semi_transitive(d)
        arcs = path + [(labs[-1], labs[0])]
        d = Orientation(Graph(labs, arcs), arcs)
        assert not is_acyclic(d) and not is_semi_transitive(d)
        assert directed_cycle(d) == (*labs, "0")
        with pytest.raises(ValueError, match="cyclic"):
            find_shortcut(d)

    def test_directed_cycle_matches_oracle(self):
        rng = random.Random(16)
        cyclic = 0
        for trial in range(3000):
            labs = [str(i) for i in range(rng.randint(2, 10))]
            edges = [e for e in combinations(labs, 2) if rng.random() < 0.5]
            if trial % 2:
                rank = {t: rng.random() for t in labs}
                arcs = [(a, b) if rank[a] < rank[b] else (b, a) for a, b in edges]
            else:
                arcs = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in edges]
            cyc = directed_cycle(Orientation(Graph(labs, edges), arcs))
            assert (cyc is None) == naive_is_acyclic(labs, arcs), arcs
            if cyc is not None:
                cyclic += 1
                assert cyc[0] == cyc[-1] and len(set(cyc[1:])) == len(cyc) - 1 >= 3
                assert set(zip(cyc, cyc[1:])) <= set(arcs)
        assert 600 < cyclic < 1500

    def test_find_shortcut_quotes_the_cycle(self, monkeypatch):
        # find_shortcut walks back inside its own topological order: it quotes
        # directed_cycle's cycle without calling it
        rng = random.Random(18)
        cases = []
        while len(cases) < 300:
            labs = [str(i) for i in range(rng.randint(3, 10))]
            edges = [e for e in combinations(labs, 2) if rng.random() < 0.5]
            arcs = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in edges]
            d = Orientation(Graph(labs, edges), arcs)
            if (cyc := directed_cycle(d)) is not None:
                cases.append((d, "orientation is cyclic: " + " -> ".join(cyc)))

        def boom(d):
            raise AssertionError("directed_cycle called")

        monkeypatch.setattr(orientations, "directed_cycle", boom)
        for d, message in cases:
            with pytest.raises(ValueError) as err:
                find_shortcut(d)
            assert str(err.value) == message


class TestTransitivity:
    def test_transitive_tournament(self):
        g = build_family("complete", 4)
        d = orient_by_order(g, ["2", "4", "1", "3"])
        assert is_transitive(d)

    def test_oriented_path_not_transitive(self):
        g = build_family("path", 3)
        d = Orientation(g, [("1", "2"), ("2", "3")])
        assert not is_transitive(d)

    @given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
    def test_any_order_on_complete_is_transitive(self, n, rng):
        g = build_family("complete", n) if n > 1 else Graph(["1"], [])
        order = list(g.labels)
        rng.shuffle(order)
        assert is_transitive(orient_by_order(g, order))


class TestFindShortcut:
    def test_fixture_witness(self, shortcut_digraph):
        w = find_shortcut(shortcut_digraph)
        assert w is not None
        assert is_shortcut_witness(shortcut_digraph, w)
        assert w.path == ("1", "2", "3", "4", "5")
        assert w.missing_pair == ("1", "4")
        assert not is_semi_transitive(shortcut_digraph)

    @pytest.mark.parametrize(
        "path, pair",
        [
            (("1", "2", "3"), ("1", "3")),  # too short
            (("1", "3", "2", "4", "5"), ("1", "4")),  # no arc 3 -> 2
            (("1", "2", "3", "4"), ("1", "4")),  # no closing arc 1 -> 4
            (("1", "2", "3", "4", "5"), ("1", "2")),  # an adjacent pair
            (("1", "2", "3", "4", "5"), ("2", "6")),  # 6 is off the path
            (("1", "2", "3", "4", "5"), ("1", "1")),  # not a pair
            (("1", "2", "x", "5"), ("1", "5")),  # x is not a vertex
            (("1", "2", "3", "4", "5"), ("1",)),  # one vertex
            (("1", "2", "3", "4", "5"), ("1", "2", "3")),  # three vertices
            (("1", "2", "3", "4", "5"), None),  # no pair at all
            (None, ("1", "3")),  # no path at all
            (5, ("1", "3")),  # a path that is not a sequence
        ],
    )
    def test_bad_witness_rejected(self, shortcut_digraph, path, pair):
        # the fixture's shortcut is 1 -> 2 -> 3 -> 4 -> 5 with 1, 4 non-adjacent
        assert not is_shortcut_witness(shortcut_digraph, ShortcutWitness(path, pair))

    def test_witness_repeating_a_vertex_rejected(self):
        # on a cyclic orientation a walk may pass every other check
        arcs = [("1", "2"), ("2", "3"), ("3", "1"), ("1", "4")]
        d = Orientation(Graph(["1", "2", "3", "4"], arcs), arcs)
        walk = ShortcutWitness(("1", "2", "3", "1", "4"), ("2", "4"))
        assert not is_shortcut_witness(d, walk)

    # seed -> (path, missing_pair) on random_graph(Random(seed), n, 0.6)
    # directed along a shuffled order; seeds 19, 26 and 30 return a path
    # longer than the shortest shortcut path for the same arc
    @pytest.mark.parametrize(
        "seed, n, want",
        [
            (0, 6, (("6", "1", "4", "3"), ("6", "4"))),
            (1, 7, None),
            (11, 8, (("1", "3", "6", "7", "2"), ("3", "7"))),
            (19, 7, (("2", "3", "4", "1", "6"), ("2", "1"))),
            (26, 8, (("2", "3", "1", "6", "8", "5"), ("2", "1"))),
            (30, 6, (("1", "2", "3", "4", "6"), ("2", "6"))),
            (0, 9, (("2", "3", "4", "1", "7"), ("2", "1"))),
            (2, 9, None),
            (3, 10, (("1", "2", "5", "10", "7"), ("1", "5"))),
            (7, 10, (("1", "7", "4", "6", "3"), ("1", "4"))),
        ],
    )
    def test_golden_witness(self, seed, n, want):
        rng = random.Random(seed)
        g = random_graph(rng, n, 0.6)
        order = list(g.labels)
        rng.shuffle(order)
        assert find_shortcut(orient_by_order(g, order)) == want

    def test_transitive_has_none(self):
        g = build_family("complete", 5)
        d = orient_by_order(g, list(g.labels))
        assert find_shortcut(d) is None
        assert is_semi_transitive(d)

    def test_cyclic_rejected(self):
        g = build_family("cycle", 3)
        d = Orientation(g, [("1", "2"), ("2", "3"), ("3", "1")])
        with pytest.raises(ValueError, match="cyclic"):
            find_shortcut(d)

    def test_short_paths_never_shortcut(self):
        # an oriented triangle with a transitive closure is fine at 3 vertices
        g = build_family("complete", 3)
        d = orient_by_order(g, list(g.labels))
        assert find_shortcut(d) is None

    @settings(max_examples=60)
    @given(random_acyclic_orientations())
    def test_matches_naive_oracle(self, d):
        got = find_shortcut(d)
        assert (got is not None) == naive_has_shortcut(d)
        if got is not None:
            assert is_shortcut_witness(d, got)
        assert got == naive_first_shortcut(d)

    def test_witness_digest(self):
        # sha256 of every witness repr over 20,000 seeded orientations, pinned
        # from a depth-first search over every path of each arc's interval
        rng = random.Random(5)
        digest = hashlib.sha256()
        found = 0
        for _ in range(20000):
            n = rng.randint(2, 11)
            g = random_graph(rng, n, rng.choice((0.2, 0.4, 0.6, 0.8, 0.9)))
            order = list(g.labels)
            rng.shuffle(order)
            w = find_shortcut(orient_by_order(g, order))
            found += w is not None
            digest.update(repr(w).encode())
        assert found == 8712
        assert digest.hexdigest()[:16] == "bba445640ad3c5b1"

    @staticmethod
    def cocktail_party(m, drop=()):
        """K_{2 x m} directed along its labels 0a 0b 1a 1b ..., less the `drop` edges."""
        labels = [f"{i}{s}" for i in range(m) for s in "ab"]
        edges = [
            (a, b)
            for a, b in combinations(labels, 2)
            if a[:-1] != b[:-1] and (a, b) not in drop
        ]
        return orient_by_order(Graph(labels, edges), labels)

    def test_transitive_cocktail_party_in_polynomial_time(self):
        # most intervals of this transitive orientation are not cliques, yet
        # every path through one is: enumerating the paths takes exponential time
        d = self.cocktail_party(20)
        assert d.base.n == 40 and d.arc_count() == 760
        start = time.perf_counter()
        assert find_shortcut(d) is None
        assert is_semi_transitive(d)
        assert time.perf_counter() - start < 0.5

    def test_cocktail_party_less_one_edge(self):
        d = self.cocktail_party(20, drop=[("0a", "2a")])
        start = time.perf_counter()
        w = find_shortcut(d)
        assert time.perf_counter() - start < 0.5
        assert w == (("0a", "1a", "2a", "3a"), ("0a", "2a"))


def _descendant_masks(adj, order):
    """Descendants of each vertex of order when each edge runs forward in it."""
    pos = {v: i for i, v in enumerate(order)}
    desc = [0] * len(adj)
    for x in order:
        stack = [x]
        while stack:
            y = stack.pop()
            for z in order:
                if adj[y] >> z & 1 and pos[z] > pos[y] and not desc[x] >> z & 1:
                    desc[x] |= 1 << z
                    stack.append(z)
    return desc


class TestClosesShortcut:
    def test_matches_naive_oracle(self):
        # the new sink w of each prefix of a random vertex order: the rule
        # must say whether the order-induced orientation has a shortcut ending
        # at w, which is whether it has any, while no shorter prefix has one
        rng = random.Random(18)
        verdicts = []
        for _ in range(300):
            g = random_graph(rng, rng.randint(5, 8), rng.choice((0.4, 0.6, 0.8)))
            order = rng.sample(range(g.n), g.n)
            clean = True
            for k in range(1, g.n + 1):
                w = order[k - 1]
                desc = _descendant_masks(g.adj, order[:k])
                anc = [sum(1 << x for x in order[: k - 1] if desc[x] >> y & 1) for y in range(g.n)]
                got = _closes_shortcut(g.adj, anc, w, anc[w])
                labs = [g.labels[i] for i in order[:k]]
                d = orient_by_order(induced_subgraph(g, labs), labs)
                assert got == naive_has_shortcut(d, end=g.labels[w]), (g.edges(), labs)
                if clean:
                    assert got == naive_has_shortcut(d), (g.edges(), labs)
                verdicts.append((clean, got))
                clean = clean and not got
        firsts = sum(got for clean, got in verdicts if clean)
        later = sum(got for clean, got in verdicts if not clean)
        assert 100 < firsts < 300 and later > 100


class TestExistsSemiTransitive:
    def test_cycle5_found(self):
        d = exists_semi_transitive(build_family("cycle", 5))
        assert d is not None
        assert is_acyclic(d) and find_shortcut(d) is None

    def test_wheel5_none(self):
        w5 = add_apex(build_family("cycle", 5), "a")
        assert exists_semi_transitive(w5) is None

    def test_prism_found(self):
        assert exists_semi_transitive(build_family("prism", 3)) is not None

    def test_deterministic(self):
        g = build_family("cycle", 6)
        assert exists_semi_transitive(g) == exists_semi_transitive(g)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.randoms(use_true_random=False))
    def test_agrees_with_representability(self, n, rng):
        g = random_graph(rng, n)
        found = exists_semi_transitive(g) is not None
        rep = representation_number(g).status == WITNESS_FOUND
        assert found == rep


# (family, size, arcs of the orientation found, nodes placed); the dead-state
# memo acts at every n, so it cuts Pr4 and the Petersen graph
SEARCH_GOLDEN = [
    ("prism", 3, "1>2 1>3 1>1' 2>3 2>2' 3>3' 1'>2' 1'>3' 2'>3'", 6),
    ("cycle", 7, "1>2 1>7 2>3 3>4 4>5 5>6 7>6", 8),
    ("prism", 4, "1>2 1>4 1>1' 2>3 2>2' 3>3' 4>3 4>4' 1'>2' 1'>4' 2'>3' 4'>3'", 35),
    ("crown", 4, "1>2' 1>3' 1>4' 2>1' 2>3' 2>4' 3>1' 3>2' 3>4' 4>1' 4>2' 4>3'", 8),
    ("petersen", 10, "1>2 1>5 1>6 2>3 2>7 3>4 3>8 4>9 5>4 5>10 6>8 6>9 7>9 7>10 8>10", 84),
]


class TestSemiTransitiveSearch:
    @pytest.mark.parametrize("family, size, arcs, nodes", SEARCH_GOLDEN)
    def test_golden_arcs_and_nodes(self, family, size, arcs, nodes):
        d, got_nodes = _semi_transitive_search(build_family(family, size))
        assert d.arcs() == [tuple(a.split(">")) for a in arcs.split()]
        assert got_nodes == nodes

    # exhausted with the dead-state memo on: W5 (n = 6), and W5 with a
    # pendant vertex at its hub (n = 7)
    @pytest.mark.parametrize("pendant, nodes", [(False, 476), (True, 1579)])
    def test_golden_memo_exhaustion(self, pendant, nodes):
        g = add_apex(build_family("cycle", 5), "a")
        if pendant:
            g = Graph(g.labels + ("p",), g.edges() + [("a", "p")])
        assert _semi_transitive_search(g) == (None, nodes)

    def test_golden_memo_exhaustion_nine_vertices(self):
        # W5 plus three isolated vertices: the memo is on at n >= 8 too
        w5 = add_apex(build_family("cycle", 5), "a")
        g = Graph(w5.labels + ("x", "y", "z"), w5.edges())
        assert _semi_transitive_search(g) == (None, 8152)

    def test_seven_vertex_census(self):
        # 853 connected seven-vertex graphs (OEIS A001349), 25 of them not
        # word-representable (Akgun, Gent, Kitaev and Zantema, J. Integer
        # Seq. 2019)
        nx = pytest.importorskip("networkx")
        atlas = [
            a for a in nx.graph_atlas_g()
            if a.number_of_nodes() == 7 and nx.is_connected(a)
        ]
        graphs = [
            Graph(map(str, a.nodes), [(str(u), str(v)) for u, v in a.edges])
            for a in atlas
        ]
        assert len(graphs) == 853
        assert sum(exists_semi_transitive(g) is None for g in graphs) == 25

    def test_golden_small_and_eight_vertex_sample(self):
        # every labelled graph on at most 5 vertices, then 200 seeded
        # eight-vertex graphs: the node total and a digest of every witness
        sample = [g for n in range(6) for g in every_graph(n)]
        rng = random.Random(18)
        sample += [random_graph(rng, 8) for _ in range(200)]
        results = [_semi_transitive_search(g) for g in sample]
        assert sum(nodes for _, nodes in results) == 115584
        arcs = "".join(repr(None if d is None else d.arcs()) for d, _ in results)
        assert hashlib.sha256(arcs.encode()).hexdigest()[:16] == "b991dab95b57e0b0"

    def test_search_runs_no_walk_and_no_path_dfs(self, monkeypatch):
        # the goldens above, with find_shortcut's path walk made to fail: the
        # search decides from its ancestor masks alone
        def boom(*args):
            raise AssertionError("walk or DFS called")

        monkeypatch.setattr(orientations, "_shortcut_path", boom)
        for case in SEARCH_GOLDEN[2::2]:  # Pr4 and Petersen
            self.test_golden_arcs_and_nodes(*case)
        self.test_golden_memo_exhaustion(False, 476)  # W5

    def test_golden_seven_vertex_sample(self):
        rng = random.Random(77)
        results = [_semi_transitive_search(random_graph(rng, 7)) for _ in range(300)]
        assert sum(nodes for _, nodes in results) == 13488
        assert sum(d is None for d, _ in results) == 6


class TestOrientationText:
    def test_round_trip(self):
        g = build_family("prism", 3)
        d = exists_semi_transitive(g)
        assert parse_orientation(format_orientation(d)) == d

    def test_label_starting_with_vertices_round_trips(self):
        g = Graph(["vertices:1", "2"], [("vertices:1", "2")])
        d = Orientation(g, [("vertices:1", "2")])
        assert format_orientation(d) == "vertices: vertices:1 2\nvertices:1 -> 2\n"
        assert parse_orientation(format_orientation(d)) == d

    def test_parse_error_line_numbers(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_orientation("vertices: 1 2\n1 -> 2\n2 -> 1\n")

    def test_missing_arrow(self):
        with pytest.raises(ParseError):
            parse_orientation("vertices: 1 2\n1 2\n")

    @pytest.mark.parametrize(
        "text,line",
        [
            ("vertices: -> b\n", 1),
            ("# header\nvertices: a b a\n", 2),
            ("vertices: a b\na -> b\nb -> c\n", 3),
        ],
    )
    def test_header_errors_carry_line_number(self, text, line):
        with pytest.raises(ParseError, match=f"line {line}:"):
            parse_orientation(text)
