"""Immutable labelled graphs with bitset adjacency, built-in families, and text I/O.

Vertices are string labels kept in a fixed order; adjacency is one integer
bitmask per vertex.  All operations treat graphs as values: nothing mutates
an existing instance.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ParseError

_RESERVED = frozenset(("->", "vertices:"))  # tokens of the text formats


def validate_label(label: object) -> str:
    """Return the label if it is a valid vertex token (see check_labels)."""
    check_labels((label,))
    return label


def check_labels(labels: Sequence[object]) -> None:
    """Raise ValueError naming the first bad label, if there is one.

    Labels are non-empty strings without whitespace or '#', and '->' and
    'vertices:' are reserved, so labels survive the text formats.  One join
    and one split test every label; only a fault walks them one by one.
    """
    try:
        text = " ".join(labels)
    except TypeError:  # a non-string label
        text = "#"
    if "#" not in text and text.split() == list(labels) and _RESERVED.isdisjoint(labels):
        return
    for label in labels:
        if not isinstance(label, str):
            raise ValueError(f"label must be a string, got {type(label).__name__}")
        if not label:
            raise ValueError("empty label")
        if label.split() != [label]:
            raise ValueError(f"label {label!r} contains whitespace")
        if "#" in label:
            raise ValueError(f"label {label!r} contains '#'")
        if label in _RESERVED:
            raise ValueError(f"label {label!r} is reserved")


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def in_masks(out: Sequence[int]) -> list[int]:
    """The in-neighbour bitmasks of the digraph with out-neighbour masks out."""
    inn = [0] * len(out)
    for i, m in enumerate(out):
        for j in iter_bits(m):
            inn[j] |= 1 << i
    return inn


def topological_order(inn: Sequence[int]) -> list[int]:
    """The vertices in the order that always takes the least ready index first.

    inn[x] is the bitmask of x's in-neighbours, and x is ready once all of
    them are placed.  On a directed cycle the order stops early: every
    vertex it leaves out has an in-neighbour that is also left out.
    """
    out = in_masks(inn)
    waiting = [m.bit_count() for m in inn]
    ready = sum(1 << x for x, w in enumerate(waiting) if not w)
    order = []
    while ready:
        low = ready & -ready
        ready ^= low
        order.append(x := low.bit_length() - 1)
        for y in iter_bits(out[x]):
            waiting[y] -= 1
            if not waiting[y]:
                ready |= 1 << y
    return order


def is_int(value: object) -> bool:
    """True for an int that is not a bool (bool is an int subclass)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_size(what: str, value: object, minimum: int | None = None) -> None:
    # a float size would fail later inside range()
    if not is_int(value):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{what} must be at least {minimum}, got {value}")


class Graph:
    """Undirected simple graph over string vertex labels."""

    __slots__ = ("labels", "adj")

    def __init__(self, labels: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        labs = tuple(labels)
        check_labels(labs)
        n = len(labs)
        index = dict(zip(labs, range(n)))
        if len(index) != n:
            seen: set[str] = set()
            dup = next(l for l in labs if l in seen or seen.add(l))
            raise ValueError(f"duplicate vertex label {dup!r}")
        adj = [0] * n
        for a, b in edges:
            i, j = index.get(a), index.get(b)
            if i is None or j is None:
                raise ValueError(f"edge endpoint {a if i is None else b!r} is not a vertex")
            if i == j:
                raise ValueError(f"loop at {a!r} not allowed")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        self.labels = labs
        self.adj = tuple(adj)

    @classmethod
    def _from_masks(cls, labels: tuple[str, ...], adj: Sequence[int]) -> "Graph":
        # checks nothing: labels must be valid and distinct, masks symmetric and loop-free
        g = cls.__new__(cls)
        g.labels, g.adj = labels, tuple(adj)
        return g

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown vertex {label!r}") from None

    def has_vertex(self, label: str) -> bool:
        return label in self.labels

    def has_edge(self, a: str, b: str) -> bool:
        return bool(self.adj[self.index(a)] >> self.index(b) & 1)

    def degree(self, label: str) -> int:
        return self.adj[self.index(label)].bit_count()

    def neighbors(self, label: str) -> tuple[str, ...]:
        return tuple(self.labels[j] for j in iter_bits(self.adj[self.index(label)]))

    def edges(self) -> list[tuple[str, str]]:
        """Edges as label pairs, ordered by vertex index."""
        labels, out = self.labels, []
        for i, m in enumerate(self.adj):
            m >>= i + 1  # the neighbours after i, shifted so that bit 0 is i + 1
            j = i
            while m:
                step = (m & -m).bit_length()  # from the last neighbour j to the next
                j += step
                m >>= step
                out.append((labels[i], labels[j]))
        return out

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def is_complete(self) -> bool:
        return self.edge_count * 2 == self.n * (self.n - 1)

    def relabel(self, mapping: dict[str, str]) -> "Graph":
        """New graph with labels replaced per mapping (missing keys keep their label)."""
        new = [mapping.get(l, l) for l in self.labels]
        return Graph(new, [(mapping.get(a, a), mapping.get(b, b)) for a, b in self.edges()])

    def __eq__(self, other: object) -> bool:
        # value equality: same vertex set and same edge set, label order ignored
        if not isinstance(other, Graph):
            return NotImplemented
        if self.labels == other.labels:
            return self.adj == other.adj
        if set(self.labels) != set(other.labels):
            return False
        return self._adj_in(other.labels) == other.adj

    def __hash__(self) -> int:
        order = tuple(sorted(self.labels))
        return hash((order, self._adj_in(order)))

    def _adj_in(self, order: Sequence[str]) -> tuple[int, ...]:
        # adj re-indexed to order, a permutation of labels
        pos = [order.index(l) for l in self.labels]
        moved = (sum(1 << pos[j] for j in iter_bits(m)) for m in self.adj)
        return tuple(m for _, m in sorted(zip(pos, moved)))

    def __repr__(self) -> str:
        return f"Graph({self.n} vertices, {self.edge_count} edges)"


def _canon(n: int) -> list[str]:
    return [str(i) for i in range(1, n + 1)]


# Fixed labelling: outer cycle 1..5, spokes i-(i+5), inner pentagram on 6..10.
PETERSEN_EDGES: tuple[tuple[str, str], ...] = (
    ("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("1", "5"),
    ("1", "6"), ("2", "7"), ("3", "8"), ("4", "9"), ("5", "10"),
    ("6", "8"), ("8", "10"), ("7", "10"), ("7", "9"), ("6", "9"),
)

FAMILIES = ("complete", "path", "cycle", "prism", "ladder", "crown", "petersen")


def build_family(family: str, size: int) -> Graph:
    """Build a named graph family member with canonical labels.

    complete/path/cycle use labels 1..n; prism, ladder and crown use 1..n plus
    1'..n'.  The ladder has rails 1-..-n and 1'-..-n' with rungs (i, i'); the
    prism is the ladder plus the two edges (n, 1) and (n', 1') that close its
    rails; the crown is the complete bipartite graph minus the perfect
    matching (i, i').
    """
    fam = family.lower()
    if fam not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose one of {', '.join(FAMILIES)}")
    _check_size(f"{fam} size", size)
    if fam == "petersen":
        if size != 10:
            raise ValueError("petersen family has exactly 10 vertices")
        return Graph(_canon(10), PETERSEN_EDGES)
    n = size
    least = {"complete": 1, "path": 1, "ladder": 1, "crown": 1, "cycle": 3, "prism": 3}[fam]
    if n < least:
        raise ValueError(f"{fam} family needs size >= {least}, got {n}")

    if fam == "complete":
        labs = _canon(n)
        return Graph(labs, combinations(labs, 2))
    if fam == "path":
        labs = _canon(n)
        return Graph(labs, zip(labs, labs[1:]))
    if fam == "cycle":
        labs = _canon(n)
        return Graph(labs, zip(labs, labs[1:] + labs[:1]))
    plain = _canon(n)
    primed = [f"{l}'" for l in plain]
    if fam in ("ladder", "prism"):
        edges = [*zip(plain, plain[1:]), *zip(primed, primed[1:]), *zip(plain, primed)]
        if fam == "prism":
            edges += [(plain[-1], plain[0]), (primed[-1], primed[0])]
        return Graph(plain + primed, edges)
    # crown: complete bipartite minus the matching
    cross = [(plain[i], primed[j]) for i in range(n) for j in range(n) if i != j]
    return Graph(plain + primed, cross)


def add_apex(g: Graph, label: str) -> Graph:
    """Add a new vertex adjacent to every existing vertex."""
    if g.has_vertex(label):
        raise ValueError(f"vertex {label!r} already present")
    return Graph(g.labels + (label,), g.edges() + [(label, v) for v in g.labels])


def induced_subgraph(g: Graph, keep: Iterable[str]) -> Graph:
    """Subgraph induced by the given vertices, keeping g's vertex order."""
    keep_set = dict.fromkeys(keep)  # ordered, unlike a set: the first unknown is named
    for v in keep_set:
        if not g.has_vertex(v):
            raise ValueError(f"unknown vertex {v!r}")
    labs = [l for l in g.labels if l in keep_set]
    edges = [(a, b) for a, b in g.edges() if a in keep_set and b in keep_set]
    return Graph(labs, edges)


def _union(*graphs: Graph) -> Graph:
    """The graph on every vertex and every edge of the given graphs."""
    labels = dict.fromkeys(l for g in graphs for l in g.labels)
    return Graph(labels, [e for g in graphs for e in g.edges()])


def _read_pairs(
    text: str, split: Callable[[str], Sequence[str]]
) -> tuple[list[str], list[tuple[int, str, str]]]:
    """Read the line format shared by graph and orientation text.

    '#' starts a comment.  An optional header, a line whose first token is
    ``vertices:``, fixes the vertices and their order before any other line;
    without it, vertices are the tokens in first-use order.  ``split(line)``
    returns the two tokens of every other line or raises ValueError.  Returns
    the labels and the ``(line, a, b)`` pairs; every error is a ParseError
    naming its line.
    """
    header = False
    order: dict[str, None] = {}  # the vertices, in header or first-use order
    pairs: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.split(None, 1)[0] == "vertices:":
                if header:
                    raise ValueError("duplicate vertices header")
                if pairs:
                    raise ValueError("vertices header must precede edges")
                toks = line.split()[1:]
                order = dict.fromkeys(toks)
                if len(order) != len(toks):
                    raise ValueError("duplicate vertex in header")
                check_labels(toks)
                header = True
                continue
            a, b = split(line)
            if a == b:
                raise ValueError(f"loop edge at {a!r}")
            for tok in (a, b):
                if tok not in order:
                    if header:
                        raise ValueError(f"vertex {tok!r} not in header")
                    order[validate_label(tok)] = None
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        pairs.append((lineno, a, b))
    return list(order), pairs


def _split_edge(line: str) -> list[str]:
    toks = line.split()
    if len(toks) != 2:
        raise ValueError(f"expected two vertex tokens, got {len(toks)}")
    return toks


def parse_graph(text: str) -> Graph:
    """Parse the graph text format.

    Format: optional leading header ``vertices: tok tok ...``, then one edge
    per line as two whitespace-separated tokens.  '#' starts a comment.
    Isolated vertices exist only if listed in the header.
    """
    labels, pairs = _read_pairs(text, _split_edge)
    return Graph(labels, [(a, b) for _, a, b in pairs])


def format_graph(g: Graph) -> str:
    """Serialize a graph to its text format (round-trips through parse_graph)."""
    lines = ["vertices: " + " ".join(g.labels)]
    lines.extend(a + " " + b for a, b in g.edges())
    return "\n".join(lines) + "\n"
