"""Acyclic orientations, shortcut detection, and semi-transitivity decisions.

An orientation is semi-transitive when it is acyclic and contains no
shortcut: a directed path v1 -> ... -> vk (k >= 4) together with the arc
v1 -> vk such that some pair of path vertices is non-adjacent.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .errors import ParseError
from .graphs import Graph, _read_pairs, in_masks, iter_bits, topological_order


class Orientation:
    """A direction for every edge of a base graph.

    Arcs are stored as out-neighbor bitmasks indexed like the base graph's
    labels.  Every base edge must be directed exactly one way.
    """

    __slots__ = ("base", "out")

    def __init__(self, base: Graph, arcs: Iterable[tuple[str, str]]):
        out = [0] * base.n
        for u, v in arcs:
            i, j = base.index(u), base.index(v)
            if (out[i] >> j | out[j] >> i) & 1:
                raise ValueError(f"edge ({u}, {v}) directed more than once")
            out[i] |= 1 << j
        self.base = base
        self.out = _checked_masks(base, out)

    @classmethod
    def from_masks(cls, base: Graph, out: Sequence[int]) -> "Orientation":
        """The orientation with an arc i -> j for every bit j of out[i].

        Raises ValueError unless the masks direct every base edge exactly
        one way and nothing else.
        """
        d = cls.__new__(cls)
        d.base = base
        d.out = _checked_masks(base, out)
        return d

    def has_arc(self, u: str, v: str) -> bool:
        return bool(self.out[self.base.index(u)] >> self.base.index(v) & 1)

    def arcs(self) -> list[tuple[str, str]]:
        labs = self.base.labels
        out = []
        for i in range(self.base.n):
            for j in iter_bits(self.out[i]):
                out.append((labs[i], labs[j]))
        return out

    def arc_count(self) -> int:
        return sum(m.bit_count() for m in self.out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Orientation):
            return NotImplemented
        if self.base != other.base:
            return False
        return set(self.arcs()) == set(other.arcs())

    def __hash__(self) -> int:
        return hash((self.base, frozenset(self.arcs())))

    def __repr__(self) -> str:
        body = ", ".join(f"{u}->{v}" for u, v in self.arcs())
        return f"Orientation({body})"


def _checked_masks(base: Graph, out: Sequence[int]) -> tuple[int, ...]:
    """out as a tuple, once it directs every edge of base exactly one way.

    That holds when every i has out[i] & in[i] == 0 and out[i] | in[i] == adj[i].
    """
    n = base.n
    adj = base.adj
    labs = base.labels
    if len(out) != n or any(m < 0 or m >> n for m in out):
        raise ValueError(f"expected {n} out-masks over {n} vertices")
    inn = in_masks(out)
    for i in range(n):
        if not out[i] & inn[i] and out[i] | inn[i] == adj[i]:
            continue
        for bad, msg in (
            (out[i] & ~adj[i], "({}, {}) is not an edge of the base graph"),
            (out[i] & inn[i], "edge ({}, {}) directed more than once"),
            (adj[i] & ~(out[i] | inn[i]), "edge ({}, {}) left undirected"),
        ):
            if bad:
                raise ValueError(msg.format(labs[i], labs[(bad & -bad).bit_length() - 1]))
    return tuple(out)


class ShortcutWitness(NamedTuple):
    """A directed path plus its closing arc and one non-adjacent vertex pair.

    path lists at least four vertices; consecutive ones are joined by arcs,
    the arc path[0] -> path[-1] is present, and missing_pair names two path
    vertices that are non-adjacent in the base graph.
    """

    path: tuple[str, ...]
    missing_pair: tuple[str, str]


def is_shortcut_witness(d: Orientation, w: ShortcutWitness) -> bool:
    """Re-check a witness from scratch against the orientation."""
    p = w.path
    try:
        if len(p) < 4 or len(set(p)) != len(p) or not all(map(d.base.has_vertex, p)):
            return False
    except TypeError:  # not a sequence of labels
        return False
    if any(not d.has_arc(p[i], p[i + 1]) for i in range(len(p) - 1)):
        return False
    if not d.has_arc(p[0], p[-1]):
        return False
    try:
        a, b = w.missing_pair
    except (TypeError, ValueError):  # not a pair
        return False
    if a not in p or b not in p or a == b:
        return False
    return not d.base.has_edge(a, b)


def directed_cycle(d: Orientation) -> tuple[str, ...] | None:
    """A directed cycle as a label sequence with first == last, or None."""
    inn = in_masks(d.out)
    order = topological_order(inn)
    return None if len(order) == d.base.n else _cycle(d.base.labels, inn, order)


def _cycle(labs: Sequence[str], inn: Sequence[int], order: list[int]) -> tuple[str, ...]:
    """A directed cycle, given the in-masks and their topological order, cut short.

    A walk goes back from the least vertex that the order leaves out, to the
    least left-out in-neighbour, until a vertex repeats; the cycle through it
    is returned in arc order, from it back to it.
    """
    left = (1 << len(inn)) - 1 - sum(1 << x for x in order)
    seen: dict[int, int] = {}
    x = (left & -left).bit_length() - 1
    while x not in seen:
        seen[x] = len(seen)
        back = inn[x] & left
        x = (back & -back).bit_length() - 1
    return tuple(labs[i] for i in reversed([*seen][seen[x] :] + [x]))


def is_acyclic(d: Orientation) -> bool:
    return directed_cycle(d) is None


def is_transitive(d: Orientation) -> bool:
    """True when u->v and v->t always imply the arc u->t."""
    for u in range(d.base.n):
        for v in iter_bits(d.out[u]):
            if d.out[v] & ~d.out[u]:
                return False
    return True


def orient_by_order(g: Graph, order: Sequence[str]) -> Orientation:
    """Direct every edge from the earlier vertex to the later one in `order`.

    The result is acyclic by construction; `order` must be a permutation of
    the vertex set.
    """
    if len(order) != g.n or {g.index(t) for t in order} != set(range(g.n)):
        raise ValueError("order is not a permutation of the vertex set")
    out, seen = [0] * g.n, 0
    for i in map(g.index, order):
        out[i] = g.adj[i] & ~seen
        seen |= 1 << i
    return Orientation.from_masks(g, out)


def _shortcut_path(
    adj: Sequence[int], out: Sequence[int], desc: Sequence[int], anc: Sequence[int],
    u: int, v: int,
) -> list[int] | None:
    """The first u->v path, in successor index order, whose vertices are not a clique.

    With the arc u->v it is a shortcut (a non-adjacent pair needs four vertices).
    After u, a u->v path runs in span = desc[u] & anc[v] | v, and x in span is
    late when desc[x] & span holds a non-neighbour of x.  A prefix on the set
    `on`, ending at y, extends to a u->v path that is no clique exactly when
    (1) a vertex of `on` or of ahead = desc[y] & span is non-adjacent to one of
    `on`, or (2) ahead holds a late vertex: a y-v path through it (and, for (2),
    its non-neighbour) extends the prefix, simple as the digraph is acyclic.
    Conversely, a non-adjacent pair a, b of an extension, a first, lies in the
    prefix or has b ahead, which is (1), or has both ahead, with a late: (2).
    So the walk tests [u], then steps to the least successor whose prefix still
    extends (one does: the extension's next vertex), and reaches v on the
    lexicographically least qualifying path, which a depth-first search over
    successors in index order returns first.
    """
    span = desc[u] & anc[v] | 1 << v
    late = sum(1 << x for x in iter_bits(span) if desc[x] & span & ~adj[x])
    path: list[int] = []
    on, common, step = 0, -1, 1 << u
    while step:
        for y in iter_bits(step):
            on_y, common_y = on | 1 << y, common & (adj[y] | 1 << y)
            ahead = desc[y] & span
            if (on_y | ahead) & ~common_y or ahead & late:
                break
        else:  # only [u] can fail: the prefix before a step always extends
            return None
        path.append(y)
        on, common, step = on_y, common_y, out[y] & span
    return path


def find_shortcut(d: Orientation) -> ShortcutWitness | None:
    """Search the orientation for a shortcut.

    Cyclic input is rejected, quoting a directed cycle.  Arcs are scanned in
    index order; for each arc u->v, `_shortcut_path` walks greedily, on the
    ancestor masks built along the topological order and the descendant masks
    that transpose them, to the first u-v path carrying a non-adjacent vertex
    pair.  The first one found is returned, in polynomial time.
    """
    n = d.base.n
    adj = d.base.adj
    out = d.out
    labs = d.base.labels
    inn = in_masks(out)
    order = topological_order(inn)
    if len(order) < n:
        raise ValueError("orientation is cyclic: " + " -> ".join(_cycle(labs, inn, order)))
    anc = [0] * n
    for v in order:
        for u in iter_bits(inn[v]):
            anc[v] |= anc[u] | 1 << u
    desc = in_masks(anc)

    for u in range(n):
        for v in iter_bits(out[u]):
            path = _shortcut_path(adj, out, desc, anc, u, v)
            if path is not None:
                a, b = next((x, y) for x, y in combinations(path, 2) if not adj[x] >> y & 1)
                return ShortcutWitness(tuple(labs[t] for t in path), (labs[a], labs[b]))
    return None


def is_semi_transitive(d: Orientation) -> bool:
    """True when the orientation is acyclic and has no shortcut."""
    try:
        return find_shortcut(d) is None
    except ValueError:  # the only one find_shortcut raises: d is cyclic
        return False


def exists_semi_transitive(g: Graph) -> Orientation | None:
    """A semi-transitive orientation of g, or None when no orientation works.

    Vertex orders, which give every acyclic orientation, are enumerated in
    index order; the least successful one is the witness, with in-masks
    adj & anc.  A prefix dies once the arcs into its newest vertex, a sink,
    close a shortcut, which `_closes_shortcut` decides from the ancestor masks.
    A node's state is its call's arguments: those masks, the placed set and
    the dead-state memo key; a child gets copies, so nothing is undone on
    return.  The key (the placed set in bits 0..n-1, each placed w's ancestor
    mask at bit (w + 1) * n) fixes every arc: adjacent ancestors are tails.
    """
    return _semi_transitive_search(g)[0]


def _closes_shortcut(adj: Sequence[int], anc: Sequence[int], w: int, anc_w: int) -> bool:
    """True when the arcs into the new sink w complete a shortcut.

    anc[x] is the ancestor mask of each x placed before w, anc_w that of w,
    and w's tails are adj[w] & anc_w.  Lemma: one closes exactly when some
    tail u reaches an x in anc_w (u in anc[x]) non-adjacent to u or to w.  If
    so, u-x and x-w paths join into one (the digraph is acyclic) with a vertex
    between the non-adjacent pair: with u -> w, a shortcut.  Conversely, a
    shortcut u = v1 -> ... -> vk = w has non-adjacent va, vb, a + 1 < b: if
    b = k, x = va fits u (a > 1, as u -> w); if a = 1, x = vb does; otherwise
    va is non-adjacent to w, or va is a tail reaching x = vb, non-adjacent to it.
    """
    tails = adj[w] & anc_w
    return any(anc[x] & tails & ~(adj[x] if tails >> x & 1 else 0) for x in iter_bits(anc_w))


def _semi_transitive_search(g: Graph) -> tuple[Orientation | None, int]:
    """exists_semi_transitive plus its node count: vertices placed on a prefix."""
    n = g.n
    adj = g.adj
    full = (1 << n) - 1
    dead: set[int] = set()
    nodes = 0

    def place(placed: int, key: int, anc: list[int]) -> list[int] | None:
        nonlocal nodes
        if placed == full:
            return in_masks([adj[w] & anc[w] for w in range(n)])
        if key in dead:
            return None
        for w in iter_bits(full & ~placed):
            anc_w = tails = adj[w] & placed
            for t in iter_bits(tails):
                anc_w |= anc[t]
            if not _closes_shortcut(adj, anc, w, anc_w):
                nodes += 1
                kid_anc = anc.copy()
                kid_anc[w] = anc_w
                found = place(placed | 1 << w, key | 1 << w | anc_w << (w + 1) * n, kid_anc)
                if found is not None:
                    return found
        dead.add(key)
        return None

    out = place(0, 0, [0] * n)
    return (None if out is None else Orientation.from_masks(g, out)), nodes


def _split_arc(line: str) -> tuple[str, str]:
    toks = line.split()
    if len(toks) != 3 or toks[1] != "->":
        raise ValueError(f"expected `u -> v`, got {line!r}")
    return toks[0], toks[2]


def parse_orientation(text: str) -> Orientation:
    """Parse orientation text: the graph format with `u -> v` arc lines."""
    labels, pairs = _read_pairs(text, _split_arc)
    seen: set[frozenset[str]] = set()
    for lineno, u, v in pairs:
        key = frozenset((u, v))
        if key in seen:
            raise ParseError(f"line {lineno}: edge ({u}, {v}) directed more than once")
        seen.add(key)
    arcs = [(u, v) for _, u, v in pairs]
    return Orientation(Graph(labels, arcs), arcs)


def format_orientation(d: Orientation) -> str:
    """Serialize an orientation (round-trips through parse_orientation)."""
    lines = ["vertices: " + " ".join(d.base.labels)]
    lines.extend(f"{u} -> {v}" for u, v in d.arcs())
    return "\n".join(lines) + "\n"
