"""Independent naive re-implementations used as test oracles.

Everything here is deliberately written the slow, obvious way so the
library under test never shares code paths with its own checker.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, product

from wordrep import Graph, Orientation


def naive_alternates(letters, x, y) -> bool:
    sub = [c for c in letters if c == x or c == y]
    if not sub:
        return True
    return all(a != b for a, b in zip(sub, sub[1:]))


def naive_edge_set(letters) -> set[frozenset]:
    alphabet = sorted(set(letters))
    out = set()
    for x, y in combinations(alphabet, 2):
        if naive_alternates(letters, x, y):
            out.add(frozenset((x, y)))
    return out


def naive_k_uniform_words(labels, k: int):
    """Each word with exactly k copies of every label, once, by brute force."""
    left = {x: k for x in labels}
    word: list = []

    def walk():
        if len(word) == k * len(left):
            yield tuple(word)
            return
        for x in labels:
            if left[x]:
                left[x] -= 1
                word.append(x)
                yield from walk()
                word.pop()
                left[x] += 1

    yield from walk()


def graph_edge_set(g: Graph) -> set[frozenset]:
    return {frozenset(e) for e in g.edges()}


def naive_represents(letters, g: Graph) -> bool:
    if set(letters) != set(g.labels):
        return False
    return naive_edge_set(letters) == graph_edge_set(g)


def _simple_paths(d: Orientation):
    labels = d.base.labels

    def walk(path):
        yield path
        for nxt in labels:
            if nxt not in path and d.has_arc(path[-1], nxt):
                yield from walk(path + [nxt])

    for start in labels:
        yield from walk([start])


def naive_has_shortcut(d: Orientation, end: str | None = None) -> bool:
    """Directed path on >= 4 vertices, closed by an arc, with a hole.

    With `end`, only paths that end at that vertex count.
    """
    for path in _simple_paths(d):
        if len(path) < 4 or end not in (None, path[-1]):
            continue
        if not d.has_arc(path[0], path[-1]):
            continue
        for a, b in combinations(path, 2):
            if not d.base.has_edge(a, b):
                return True
    return False


def naive_first_shortcut(d: Orientation):
    """The shortcut a scan in index order meets first, as (path, pair), or None.

    Arcs u -> v are taken by (u, v) index, and the simple u-v paths of each in
    lexicographic index order; pair is the path's first non-adjacent pair in
    `combinations` order.
    """
    labels = d.base.labels

    def paths(path, v):
        if path[-1] == v:
            yield path
            return
        for nxt in labels:
            if nxt not in path and d.has_arc(path[-1], nxt):
                yield from paths(path + [nxt], v)

    for u, v in product(labels, repeat=2):
        if not d.has_arc(u, v):
            continue
        for path in paths([u], v):
            holes = [(a, b) for a, b in combinations(path, 2) if not d.base.has_edge(a, b)]
            if len(path) >= 4 and holes:
                return tuple(path), holes[0]
    return None


def naive_is_acyclic(labels, arcs) -> bool:
    """No vertex reaches itself: grow every reach set until none grows."""
    reach = {v: {b for a, b in arcs if a == v} for v in labels}
    grown = True
    while grown:
        grown = False
        for v in labels:
            more = set().union(*(reach[w] for w in reach[v])) - reach[v]
            if more:
                reach[v] |= more
                grown = True
    return all(v not in reach[v] for v in labels)


def naive_chromatic_number(labels, edges) -> int:
    """The least c for which some map of the vertices to c colours is proper."""
    for c in range(len(labels) + 1):
        for colours in product(range(c), repeat=len(labels)):
            colour = dict(zip(labels, colours))
            if all(colour[a] != colour[b] for a, b in edges):
                return c
    raise AssertionError("n colours always suffice")


def naive_transitive_orientation_exists(g: Graph) -> bool:
    """Try all 2^m directions of the edges; u->v and v->w must give u->w."""
    edges = g.edges()
    for flips in product((False, True), repeat=len(edges)):
        arcs = {(b, a) if f else (a, b) for (a, b), f in zip(edges, flips)}
        if all((u, w) in arcs for u, v in arcs for x, w in arcs if x == v):
            return True
    return False


def naive_poset_dimension(d: Orientation) -> int:
    """Least t such that t arc-respecting permutations intersect to the arcs."""
    labels = d.base.labels
    arcs = set(d.arcs())
    before = []
    for p in permutations(labels):
        pairs = set(combinations(p, 2))
        if arcs <= pairs:
            before.append(pairs)
    for t in range(1, len(before) + 1):
        for family in combinations(before, t):
            if set.intersection(*family) == arcs:
                return t
    raise AssertionError("the arc relation is not a partial order")


def naive_isomorphic(g: Graph, h: Graph) -> bool:
    """Backtracking search for an edge-preserving bijection from g onto h."""
    gl, hl = list(g.labels), list(h.labels)
    if len(gl) != len(hl) or len(g.edges()) != len(h.edges()):
        return False
    image: dict = {}

    def extend(i: int) -> bool:
        if i == len(gl):
            return True
        u = gl[i]
        for x in hl:
            if x in image.values():
                continue
            if any(g.has_edge(u, v) != h.has_edge(x, image[v]) for v in gl[:i]):
                continue
            image[u] = x
            if extend(i + 1):
                return True
            del image[u]
        return False

    return extend(0)


def every_graph(n):
    """All 2^C(n, 2) labelled graphs on the vertices 1..n."""
    labs = [str(i) for i in range(1, n + 1)]
    pairs = list(combinations(labs, 2))
    for mask in range(1 << len(pairs)):
        yield Graph(labs, [p for b, p in enumerate(pairs) if mask >> b & 1])


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    labels = [str(i + 1) for i in range(n)]
    edges = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Graph(labels, edges)


def random_tree(rng: random.Random, n: int) -> Graph:
    labels = [str(i + 1) for i in range(n)]
    edges = []
    for i in range(1, n):
        edges.append((labels[rng.randrange(i)], labels[i]))
    return Graph(labels, edges)


def random_uniform_word(rng: random.Random, n: int, k: int) -> list[str]:
    letters = [str(i + 1) for i in range(n)] * k
    rng.shuffle(letters)
    return letters
