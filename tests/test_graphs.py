import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

import wordrep
from wordrep import (
    Graph,
    ParseError,
    add_apex,
    are_isomorphic,
    build_family,
    chromatic_number,
    format_graph,
    induced_subgraph,
    parse_graph,
)
from wordrep.graphs import topological_order, validate_label
from oracles import (
    every_graph,
    graph_edge_set,
    naive_chromatic_number,
    naive_isomorphic,
    random_graph,
)


class TestGraphBasics:
    def test_edges_ordered_by_index(self):
        g = Graph(["b", "a", "c"], [("c", "a"), ("b", "a")])
        assert g.edges() == [("b", "a"), ("a", "c")]

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(["a"], [("a", "a")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError):
            Graph(["a"], [("a", "b")])

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError):
            Graph(["a", "a"], [])

    def test_unknown_vertex_index(self):
        with pytest.raises(ValueError, match="unknown vertex 'zz'"):
            build_family("path", 3).index("zz")

    def test_whitespace_labels_rejected_exactly(self):
        spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
        assert len(spaces) == 29
        for c in spaces + [chr(c) for c in range(128)]:
            for label in (c, f"a{c}b"):
                if c.isspace():
                    with pytest.raises(ValueError, match="contains whitespace"):
                        validate_label(label)
                elif c != "#":
                    assert validate_label(label) == label

    def test_label_validation(self):
        # the first bad label or endpoint is named, in validate_label's words
        cases = [
            (["has space"], [], "label 'has space' contains whitespace"),
            ([""], [], "empty label"),
            (["a", "b c", ""], [], "label 'b c' contains whitespace"),
            (["ok", 5], [], "label must be a string, got int"),
            (["->"], [], "label '->' is reserved"),
            (["a", "vertices:"], [], "label 'vertices:' is reserved"),
            (["a", "a", "b c"], [], "label 'b c' contains whitespace"),
            (["x#1"], [], "label 'x#1' contains '#'"),
            (["a", "a"], [], "duplicate vertex label 'a'"),
            (["a", "b"], [("y", "z")], "edge endpoint 'y' is not a vertex"),
            (["a", "b"], [("a", "z")], "edge endpoint 'z' is not a vertex"),
        ]
        for labels, edges, message in cases:
            with pytest.raises(ValueError) as exc:
                Graph(labels, edges)
            assert str(exc.value) == message

    @pytest.mark.parametrize("n", [*range(13), 250])
    def test_edges_and_text_match_double_loop(self, n):
        # n = 250 is a random tree; the labels are shuffled so that index
        # order differs from label order
        rng = random.Random(n)
        labs = [str(i) for i in range(n)]
        rng.shuffle(labs)
        if n == 250:
            drawn = [{frozenset((labs[rng.randrange(i)], labs[i])) for i in range(1, n)}]
        else:
            pairs = [frozenset(p) for p in combinations(labs, 2)]
            drawn = [{e for e in pairs if rng.random() < p} for p in (0.2, 0.5, 0.9)]
        for chosen in drawn:
            g = Graph(labs, [tuple(e) for e in chosen])
            want = [(a, b) for i, a in enumerate(labs) for b in labs[i + 1 :]
                    if frozenset((a, b)) in chosen]
            assert g.edges() == want
            back = parse_graph(format_graph(g))
            assert back == g and back.labels == g.labels

    def test_equality_ignores_declaration_order(self):
        g1 = Graph(["a", "b"], [("a", "b")])
        g2 = Graph(["b", "a"], [("b", "a")])
        assert g1 == g2 and hash(g1) == hash(g2)
        assert g1.__eq__(1) is NotImplemented and (g1 == 1) is False

    def test_hash_builds_no_edge_list(self, monkeypatch):
        def no_edges(self):
            raise AssertionError("hash built an edge list")

        monkeypatch.setattr(Graph, "edges", no_edges)
        g1 = Graph(["c", "a", "b"], [("a", "b"), ("b", "c")])
        g2 = Graph(["a", "b", "c"], [("c", "b"), ("b", "a")])
        assert hash(g1) == hash(g2)

    @pytest.mark.parametrize("seed", range(30))
    def test_equality_and_hash_match_edge_sets(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(1, 8))
        labs = list(g.labels)
        rng.shuffle(labs)
        pairs = list(combinations(g.labels, 2))
        for order in (g.labels, labs):
            copy = Graph(order, [(b, a) for a, b in g.edges()])
            assert copy == g and g == copy and hash(copy) == hash(g)
            kept, absent = g.edges(), [p for p in pairs if not g.has_edge(*p)]
            if kept and absent:
                kept.remove(rng.choice(kept))
                moved = Graph(order, kept + [rng.choice(absent)])
                assert graph_edge_set(moved) != graph_edge_set(g)
                assert moved != g and g != moved
        assert g != Graph(labs[:-1], []) and g != Graph(labs[:-1] + ["new"], [])

    def test_neighbors_and_degree(self):
        g = build_family("path", 3)
        assert g.neighbors("2") == ("1", "3")
        assert g.degree("2") == 2

    def test_relabel(self):
        g = build_family("path", 2).relabel({"1": "x"})
        assert g.has_edge("x", "2")


class TestFamilies:
    def test_complete(self):
        g = build_family("complete", 5)
        assert g.n == 5 and g.edge_count == 10 and g.is_complete()

    def test_path(self):
        g = build_family("path", 5)
        assert g.edge_count == 4
        assert g.degree("1") == 1 and g.degree("3") == 2

    def test_cycle(self):
        g = build_family("cycle", 5)
        assert g.edge_count == 5
        assert all(g.degree(v) == 2 for v in g.labels)

    def test_prism(self):
        g = build_family("prism", 3)
        assert g.n == 6 and g.edge_count == 9
        assert all(g.degree(v) == 3 for v in g.labels)

    def test_ladder(self):
        # 2n vertices and 3n-2 edges
        for n in range(1, 6):
            g = build_family("ladder", n)
            assert g.n == 2 * n and g.edge_count == 3 * n - 2

    def test_crown(self):
        g = build_family("crown", 3)
        assert g.n == 6 and g.edge_count == 6
        assert not g.has_edge("1", "1'")
        assert g.has_edge("1", "2'")

    def test_petersen(self, petersen):
        assert petersen.n == 10 and petersen.edge_count == 15
        assert all(petersen.degree(v) == 3 for v in petersen.labels)
        with pytest.raises(ValueError):
            build_family("petersen", 9)

    def test_too_small_sizes_rejected(self):
        with pytest.raises(ValueError):
            build_family("cycle", 2)
        with pytest.raises(ValueError):
            build_family("prism", 2)
        with pytest.raises(ValueError):
            build_family("unknown", 3)

    @pytest.mark.parametrize(
        "family, least",
        [("complete", 1), ("path", 1), ("ladder", 1), ("crown", 1), ("cycle", 3), ("prism", 3)],
    )
    def test_size_below_family_minimum_rejected(self, family, least):
        msg = f"{family} family needs size >= {least}, got {least - 1}"
        with pytest.raises(ValueError, match=msg):
            build_family(family, least - 1)
        assert build_family(family, least).n >= least

    @pytest.mark.parametrize(
        "family, size",
        [("complete", True), ("crown", True), ("ladder", 2.0), ("petersen", 10.0)],
    )
    def test_non_integer_size_rejected(self, family, size):
        # True once built K1 and crown(1); 2.0 failed inside range()
        with pytest.raises(ValueError, match="must be an integer"):
            build_family(family, size)


class TestBuilders:
    def test_add_apex(self):
        g = add_apex(build_family("cycle", 5), "a")
        assert g.n == 6 and g.degree("a") == 5

    def test_add_apex_collision(self):
        with pytest.raises(ValueError):
            add_apex(build_family("cycle", 5), "3")

    def test_induced_subgraph(self):
        g = induced_subgraph(build_family("cycle", 5), ["1", "2", "4"])
        assert graph_edge_set(g) == {frozenset(("1", "2"))}
        with pytest.raises(ValueError, match="unknown vertex 'z'"):
            induced_subgraph(build_family("cycle", 5), ["1", "z"])

    def test_induced_subgraph_names_the_first_unknown_vertex(self):
        # the message must not follow set iteration order, which moves with
        # the hash seed
        code = (
            "from wordrep import build_family, induced_subgraph\n"
            "try:\n"
            "    induced_subgraph(build_family('path', 3), ['x', 'y', 'z'])\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(wordrep.__file__).resolve().parents[1])
        for seed in "123":
            proc = subprocess.run(
                [sys.executable, "-c", code],
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                stdin=subprocess.DEVNULL,
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert (proc.stdout, proc.stderr) == ("unknown vertex 'x'\n", ""), seed


class TestIsomorphism:
    def test_cycle6_is_crown3(self):
        assert are_isomorphic(build_family("cycle", 6), build_family("crown", 3))

    def test_crown4_is_prism4(self):
        assert are_isomorphic(build_family("crown", 4), build_family("prism", 4))

    def test_crown2_is_two_disjoint_edges(self):
        two_edges = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        assert are_isomorphic(build_family("crown", 2), two_edges)
        assert not are_isomorphic(build_family("crown", 2), build_family("cycle", 4))

    def test_negative_same_degree_sequence(self):
        # C_6 and two triangles: both 2-regular on 6 vertices
        two_triangles = Graph(
            [str(i) for i in range(1, 7)],
            [("1", "2"), ("2", "3"), ("1", "3"), ("4", "5"), ("5", "6"), ("4", "6")],
        )
        assert not are_isomorphic(build_family("cycle", 6), two_triangles)

    def test_petersen_not_prism5(self, petersen):
        assert not are_isomorphic(petersen, build_family("prism", 5))

    def test_degree_sequences_decide_before_search(self):
        # P4, the star K1,3 and a triangle plus a vertex: 4 vertices and 3
        # edges each, different degree sequences
        star = Graph(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("a", "d")])
        triangle = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "c")])
        path = build_family("path", 4)
        assert not are_isomorphic(path, star) and not are_isomorphic(path, triangle)

        class Unread(list):  # iterable, but any lookup by index fails
            def __getitem__(self, i):
                raise AssertionError("the search ran")

        def degrees_only(g):
            return SimpleNamespace(n=g.n, edge_count=g.edge_count, adj=Unread(g.adj))

        assert not are_isomorphic(degrees_only(path), degrees_only(triangle))

    def test_empty_graphs(self):
        assert are_isomorphic(Graph([]), Graph([]))
        assert not are_isomorphic(Graph([]), Graph(["a"]))

    def test_matches_naive_oracle(self):
        # a relabelled copy; in every other case one edge of it moves to a
        # non-adjacent pair, which keeps the edge count
        rng = random.Random(17)
        same = 0
        for i in range(500):
            g = random_graph(rng, rng.randint(3, 7), rng.uniform(0.2, 0.8))
            ren = dict(zip(g.labels, rng.sample(g.labels, g.n)))
            edges = {frozenset((ren[a], ren[b])) for a, b in g.edges()}
            pairs = {frozenset(p) for p in combinations(g.labels, 2)}
            if i % 2 and edges and pairs - edges:
                gone = rng.choice(sorted(edges, key=sorted))
                edges = edges - {gone} | {rng.choice(sorted(pairs - edges, key=sorted))}
            h = Graph(g.labels, [tuple(e) for e in edges])
            got = are_isomorphic(g, h)
            assert got == naive_isomorphic(g, h), (g.edges(), h.edges())
            same += got
        assert same == 383  # 250 copies and 133 moved copies

    @given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
    def test_random_relabel_is_isomorphic(self, n, rng):
        g = random_graph(rng, n)
        perm = list(g.labels)
        rng.shuffle(perm)
        h = g.relabel({old: "v" + new for old, new in zip(g.labels, perm)})
        assert are_isomorphic(g, h)


class TestTopologicalOrder:
    def test_least_ready_index_first(self):
        # on a cycle the order stops once no vertex is ready
        rng = random.Random(16)
        complete = 0
        for _ in range(500):
            n = rng.randint(0, 9)
            inn = [
                sum(1 << j for j in range(n) if j != i and rng.random() < 0.2)
                for i in range(n)
            ]
            placed = 0
            for x in topological_order(inn):
                ready = (v for v in range(n) if not (placed >> v & 1 or inn[v] & ~placed))
                assert x == next(ready)
                placed |= 1 << x
            left = [v for v in range(n) if not placed >> v & 1]
            assert all(inn[v] & ~placed for v in left)
            complete += not left
        assert 100 < complete < 400


class TestChromaticNumber:
    @pytest.mark.parametrize(
        "graph,chi",
        [
            (build_family("complete", 4), 4),
            (build_family("path", 5), 2),
            (build_family("cycle", 5), 3),
            (build_family("cycle", 6), 2),
            (build_family("crown", 4), 2),
            (build_family("prism", 3), 3),
            (add_apex(build_family("cycle", 5), "a"), 4),
            (Graph(["1"], []), 1),
            (Graph(["1", "2", "3"], []), 1),
            (Graph([], []), 0),
        ],
    )
    def test_known_values(self, graph, chi):
        assert chromatic_number(graph) == chi

    def test_petersen(self, petersen):
        assert chromatic_number(petersen) == 3

    def test_matches_naive_oracle(self):
        # every labelled graph on at most 5 vertices, then 200 seeded 6-vertex ones
        graphs = [g for n in range(6) for g in every_graph(n)]
        rng = random.Random(18)
        graphs += [random_graph(rng, 6, rng.random()) for _ in range(200)]
        assert len(graphs) == 1300
        for g in graphs:
            want = naive_chromatic_number(g.labels, g.edges())
            assert chromatic_number(g) == want, g.edges()


class TestGraphText:
    def test_round_trip(self):
        g = build_family("prism", 3)
        assert parse_graph(format_graph(g)) == g

    def test_comments_and_isolated_vertices(self):
        g = parse_graph("# example\nvertices: a b c\na b\n")
        assert g.n == 3 and g.edge_count == 1

    def test_edges_only(self):
        g = parse_graph("1 2\n2 3\n")
        assert g.n == 3

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("1 2\n1 2 3\n")

    def test_unknown_vertex_with_header(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("vertices: 1 2\n1 3\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("vertices: 1 2\nvertices: 1 2\n", "line 2: duplicate vertices header"),
            ("1 2\nvertices: 1 2\n", "line 2: vertices header must precede edges"),
            ("1 2\n3 3\n", "line 2: loop edge at '3'"),
        ],
        ids=["duplicate-header", "header-after-edge", "loop"],
    )
    def test_header_and_loop_errors(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_graph(text)

    def test_label_starting_with_vertices_round_trips(self):
        # only a line whose first token is exactly `vertices:` is a header
        g = Graph(["vertices:1", "2"], [("vertices:1", "2")])
        assert format_graph(g) == "vertices: vertices:1 2\nvertices:1 2\n"
        assert parse_graph(format_graph(g)) == g
        assert parse_graph("vertices:1 2\n") == g
        assert parse_graph("vertices:\t2 vertices:1\n") == Graph(["2", "vertices:1"])
        with pytest.raises(ParseError, match="line 1: label 'vertices:' is reserved"):
            parse_graph("vertices: vertices: 2\n")

    @given(st.integers(min_value=1, max_value=7), st.randoms(use_true_random=False))
    def test_random_round_trip(self, n, rng):
        g = random_graph(rng, n)
        assert parse_graph(format_graph(g)) == g
