"""Certified exhaustive searches and the exponential graph invariants.

A search for a word, an orientation or a permutational representation returns
a Certificate: a witness re-checked by an independent oracle (words.verified,
transitivity, realizer intersection), or an exhaustion claim covering the whole
space under the documented symmetry reductions; Golumbic's theorem refutes a
transitive orientation instead.  poset_dimension returns a realizer re-checked
by intersection, and chromatic_number and are_isomorphic a bare answer.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .errors import VerificationError
from .graphs import Graph, in_masks, is_int, iter_bits, topological_order
from .words import LinearOrderFamily, Word, verified

if TYPE_CHECKING:
    from .orientations import Orientation

WITNESS_FOUND = "witness-found"
EXHAUSTED = "exhausted"
ABORTED = "aborted"
NOT_REPRESENTABLE = "not-word-representable"


def _ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


def _check_positive(name: str, value: object) -> None:
    # a float k would recurse without end
    if not is_int(value) or value <= 0:
        raise ValueError(f"{name} must be a positive integer")


class Certificate(NamedTuple):
    """Outcome record of one search.

    status is "witness-found", "exhausted", or "aborted"; witness is a Word,
    an Orientation, or a LinearOrderFamily when found, else None.
    """

    query: str
    status: str
    witness: object | None
    nodes_explored: int
    elapsed_ms: float


class RepNumberCertificate(NamedTuple):
    """Minimal-k outcome with the per-k certificates that support it."""

    query: str
    status: str  # witness-found | not-word-representable | aborted
    rep_number: int | None
    witness: Word | None
    per_k: tuple[Certificate, ...]
    nodes_explored: int
    elapsed_ms: float
    orientation: Certificate | None = None  # set once k = 2 has exhausted


def find_k_uniform_representant(g: Graph, k: int) -> Certificate:
    """Search for a k-uniform word representing g.

    Left-to-right backtracking over letters with remaining copies, in
    ascending vertex index at each position, on bitmasks packed into ints.
    Field c of since (n bits at bit n*c) holds the letters placed after c's
    last copy, and every letter while c is unplaced.  Invariant: the
    prefix's subsequence on a pair {c, d} ends in c exactly when d is not in
    field c, so placing c repeats a letter on exactly those pairs.  safe
    holds the letters whose field holds all their neighbours, and only they
    are tried: placing c empties field c and adds c to the others, so c
    leaves safe unless isolated, and only its neighbours can join.  live[c]
    holds the non-edges at c whose subsequence still alternates; field c of
    rem (k.bit_length() bits) counts c's copies left, and two and avail hold
    the letters with at least two and at least one left.  c's final copy is
    refused when a live non-edge not repeated by it has at most one copy
    left (it could never repeat).  A neighbour d never has two copies left
    then: the subsequence on {c, d} alternates and ends in d, so d has
    placed k - 1 or k copies.  A node's state is the arguments of its call;
    a child gets new ints, and a copy of live when a non-edge dies, so
    nothing is undone on return and only the word placed so far is shared
    along the path.  Two symmetry reductions, both sound for exhaustion:
    (a) the word starts with a fixed maximum-degree vertex, justified by
    rotating any representant to such a start; (b) of a word and its
    rotated reverse (which share that first letter) only the one whose
    second letter does not exceed its last letter is enumerated.  A word
    too long for the stack (one call per letter) ends it "aborted".
    """
    _check_positive("k", k)
    t0 = time.perf_counter()
    n = g.n
    adj = g.adj
    labs = g.labels
    total = n * k
    query = f"k-uniform-representant n={n} m={g.edge_count} k={k}"
    start = max(range(n), key=lambda i: (adj[i].bit_count(), -i), default=0)
    full = (1 << n) - 1
    ones = ((1 << n * n) - 1) // full if n else 0  # bit 0 of every since field
    width = k.bit_length()  # a field of rem holds k
    low = (1 << width) - 1
    word_idx: list[int] = []
    nodes = 0

    def extend(
        pos: int, since: int, rem: int, live: list[int], two: int, avail: int, safe: int
    ) -> bool:
        nonlocal nodes
        if pos == total:
            return True
        cands = 1 << start if pos == 0 else avail & safe
        if pos == total - 1 and total >= 3:
            cands &= ~((1 << word_idx[1]) - 1)
        while cands:
            bc = cands & -cands
            cands ^= bc
            c = bc.bit_length() - 1
            seen = since >> n * c & full
            final = not two & bc
            if final and live[c] & seen & ~two:
                continue
            died = live[c] & ~seen
            kid_live = live
            if died:
                kid_live = live.copy()
                kid_live[c] ^= died
                for d in iter_bits(died):
                    kid_live[d] ^= bc
            nodes += 1
            word_idx.append(c)
            after = (since | bc * ones) & ~(full << n * c)
            kid_rem = rem - (1 << width * c)
            kid_safe = safe
            if adj[c]:
                kid_safe ^= bc
                for d in iter_bits(adj[c] & ~safe):
                    if not adj[d] & ~(after >> n * d):
                        kid_safe |= 1 << d
            kid_two = two & ~bc if kid_rem >> width * c & low < 2 else two
            kid_avail = avail & ~bc if final else avail
            if extend(pos + 1, after, kid_rem, kid_live, kid_two, kid_avail, kid_safe):
                return True
            word_idx.pop()
        return False

    live = [full & ~adj[c] & ~(1 << c) for c in range(n)]
    rem = k * ((1 << width * n) - 1) // low
    try:
        found = extend(0, full * ones, rem, live, full if k >= 2 else 0, full, full)
    except RecursionError:
        return Certificate(query, ABORTED, None, nodes, _ms(t0))
    if found:
        w = verified(Word(labs[c] for c in word_idx), g, "find_k_uniform_representant")
        return Certificate(query, WITNESS_FOUND, w, nodes, _ms(t0))
    return Certificate(query, EXHAUSTED, None, nodes, _ms(t0))


def _orientation_certificate(g: Graph) -> Certificate:
    from .orientations import _semi_transitive_search, is_semi_transitive

    t0 = time.perf_counter()
    query = f"semi-transitive-orientation n={g.n} m={g.edge_count}"
    d, nodes = _semi_transitive_search(g)
    if d is None:
        return Certificate(query, EXHAUSTED, None, nodes, _ms(t0))
    if not is_semi_transitive(d):
        raise VerificationError("found orientation is not semi-transitive")
    return Certificate(query, WITNESS_FOUND, d, nodes, _ms(t0))


def representation_number(g: Graph, max_k: int | None = None) -> RepNumberCertificate:
    """Minimal k admitting a k-uniform representant, with per-k certificates.

    Complete graphs answer 1 immediately with a permutation witness.  A
    k-representable graph is also (k+1)-representable, so the first success
    in the ascending scan is minimal.  When k = 2 exhausts, the
    semi-transitive orientation search runs once: g is word-representable
    exactly when it has such an orientation (Halldorsson-Kitaev-Pyatkin), so
    an exhausted search proves "not-word-representable".  Otherwise the scan
    goes on up to 2(n - c) for a greedy clique size c, which bounds R(G) for
    every representable graph (same authors); exhausting that bound
    contradicts the theorem and raises VerificationError.  Stopping at an
    explicit max_k below the answer, or at a k whose search aborts, yields
    "aborted", as nothing was proved.
    The orientation verdict is kept on the result; nodes_explored counts the
    k-uniform searches only.
    """
    t0 = time.perf_counter()
    query = f"representation-number n={g.n} m={g.edge_count}"
    if max_k is not None:
        _check_positive("max_k", max_k)
        query += f" max-k={max_k}"

    if g.is_complete():
        w = verified(Word(g.labels), g, "representation_number")
        sub = f"k-uniform-representant n={g.n} m={g.edge_count} k=1"
        cert = Certificate(sub, WITNESS_FOUND, w, 0, 0.0)
        return RepNumberCertificate(query, WITNESS_FOUND, 1, w, (cert,), 0, _ms(t0))

    per: list[Certificate] = []
    orient: Certificate | None = None
    k = 0
    while max_k is None or k < max_k:
        k += 1
        per.append(cert := find_k_uniform_representant(g, k))
        if cert.status != EXHAUSTED:  # found, or aborted: a longer word aborts too
            break
        if k == 2:
            orient = _orientation_certificate(g)
            if orient.status == EXHAUSTED:
                return RepNumberCertificate(
                    query, NOT_REPRESENTABLE, None, None, tuple(per),
                    sum(c.nodes_explored for c in per), _ms(t0), orient,
                )
        if k > 1 and k == 2 * (g.n - _greedy_clique_size(g)):
            raise VerificationError(
                f"k = {k} exhausted for a graph with a semi-transitive orientation"
            )
    found = cert.status == WITNESS_FOUND
    return RepNumberCertificate(
        query, WITNESS_FOUND if found else ABORTED, k if found else None, cert.witness,
        tuple(per), sum(c.nodes_explored for c in per), _ms(t0), orient,
    )


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test by backtracking with degree pruning.

    Exponential in the worst case; intended for graphs of up to ~10 vertices.
    match takes a stack frame per vertex: 1,100 vertices raise RecursionError.
    """
    n = g1.n
    if n != g2.n or g1.edge_count != g2.edge_count:
        return False
    deg1 = [m.bit_count() for m in g1.adj]
    deg2 = [m.bit_count() for m in g2.adj]
    if sorted(deg1) != sorted(deg2):
        return False
    # map vertices in descending-degree order; high-degree first fails fastest
    order = sorted(range(n), key=lambda i: -deg1[i])
    image = [-1] * n  # image[p] is read only once p is mapped on this branch

    def match(pos: int, used: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        for w in range(n):
            if used >> w & 1 or deg2[w] != deg1[v]:
                continue
            if all(
                (g1.adj[v] >> p & 1) == (g2.adj[w] >> image[p] & 1) for p in order[:pos]
            ):
                image[v] = w
                if match(pos + 1, used | 1 << w):
                    return True
        return False

    return match(0, 0)


def _greedy_clique_size(g: Graph) -> int:
    """Size of a clique grown greedily by common-neighbourhood degree."""
    adj = g.adj
    cand = (1 << g.n) - 1
    size = 0
    while cand:
        v = max(iter_bits(cand), key=lambda i: ((adj[i] & cand).bit_count(), -i))
        size += 1
        cand &= adj[v]
    return size


def _fewest_classes(items: Sequence, empty: object, join: Callable, t: int) -> list:
    """A split of items into the fewest classes, searched from t classes up.

    join(cls, item) returns cls grown by item, or None when the item does not
    fit.  Each item in turn tries the open classes first to last, then, while
    fewer than t are open, one new class that starts as empty; so classes
    open in order of first use and no split recurs with its classes renamed.
    t rises by one until a split exists.  Started at most at the fewest
    possible count, the first t that succeeds is that count and the split
    has exactly t classes: one with fewer would have succeeded earlier.
    """

    def fill(p: int, classes: list) -> list | None:
        if p == len(items):
            return classes
        for c, cls in enumerate(classes + [empty] if len(classes) < t else classes):
            grown = join(cls, items[p])
            if grown is not None:
                found = fill(p + 1, classes[:c] + [grown] + classes[c + 1 :])
                if found is not None:
                    return found
        return None

    while (classes := fill(0, [])) is None:
        t += 1
    return classes


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number: _fewest_classes over vertices by falling degree.

    The search starts at the size of a greedy clique, which no colouring
    undercuts.  Practical for graphs of up to ~12 vertices.  _fewest_classes
    takes a stack frame per vertex: 1,100 vertices raise RecursionError.
    """
    adj = g.adj
    order = sorted(range(g.n), key=lambda i: -adj[i].bit_count())
    join = lambda m, v: None if m & adj[v] else m | 1 << v
    return len(_fewest_classes(order, 0, join, _greedy_clique_size(g)))


def find_transitive_orientation(g: Graph) -> Certificate:
    """Find a transitive orientation by Golumbic's TRO decomposition.

    Arc ab forces ac when bc is a non-edge, and cb when ac is a non-edge
    (Gamma-forcing); an arc's implication class is its closure.  The first
    edge left in index order is oriented i -> j, its class is closed in the
    graph of the edges left, and its edges leave.  By Golumbic (Algorithmic
    Graph Theory and Perfect Graphs, 1980, Thm 5.4) g is a comparability
    graph exactly when no class holds an arc both ways, and then the union
    of the classes is transitive, so nothing backtracks.  nodes_explored
    counts the arcs placed in a class.
    """
    from .orientations import Orientation, is_transitive

    t0 = time.perf_counter()
    n = g.n
    query = f"transitive-orientation n={n} m={g.edge_count}"
    left = list(g.adj)
    out = [0] * n
    nodes = 0
    for i in range(n):
        for j in range(i + 1, n):
            if not left[i] >> j & 1:
                continue
            cls = [0] * n
            cls[i] = 1 << j
            stack = [(i, j)]
            while stack:
                a, b = stack.pop()
                nodes += 1
                forced = [(a, c) for c in iter_bits(left[a] & ~left[b] & ~(1 << b))]
                forced += [(c, b) for c in iter_bits(left[b] & ~left[a] & ~(1 << a))]
                for x, y in forced:
                    if not cls[x] >> y & 1:
                        cls[x] |= 1 << y
                        stack.append((x, y))
            inn = in_masks(cls)
            if any(o & m for o, m in zip(cls, inn)):
                return Certificate(query, EXHAUSTED, None, nodes, _ms(t0))
            out = [o | c for o, c in zip(out, cls)]
            left = [m & ~(c | r) for m, c, r in zip(left, cls, inn)]
    d = Orientation.from_masks(g, out)
    if not is_transitive(d):
        raise VerificationError("completed orientation is not transitive")
    return Certificate(query, WITNESS_FOUND, d, nodes, _ms(t0))


def poset_dimension(d: Orientation) -> tuple[int, LinearOrderFamily]:
    """Minimal number of linear extensions intersecting exactly to d.

    The input must be transitive.  A critical pair (a, b) is an incomparable
    pair with D(a) a subset of D(b) and U(b) a subset of U(a), where D and U
    are the strict down- and up-sets.  Linear extensions realize d exactly
    when every critical pair has b below a in one of them (Trotter,
    Combinatorics and Partially Ordered Sets, 1992), and a set of critical
    pairs fits in one extension exactly when d plus the arcs b -> a stays
    acyclic.  So the dimension is a hypergraph chromatic number on the
    critical pairs (Felsner and Trotter, Dimension, graph and hypergraph
    coloring, Order 17, 2000), found by _fewest_classes from t = 1.
    Each member is the topological order of its class that takes the least
    ready index first; the realizer is re-verified by intersection equality.
    _fewest_classes takes one stack frame per critical pair, so more pairs
    than the recursion limit (an antichain of 45 has 1,980) raise RecursionError.
    """
    from .orientations import is_transitive

    if not is_transitive(d):
        raise ValueError("orientation is not transitive")
    n = d.base.n
    labs = d.base.labels
    out = d.out
    inn = in_masks(out)
    critical = [
        (a, b)
        for a in range(n)
        for b in range(n)
        if a != b
        and not (out[a] | inn[a]) >> b & 1
        and not inn[a] & ~inn[b]
        and not out[b] & ~out[a]
    ]

    def join(below: list[int], pair: tuple[int, int]) -> list[int] | None:
        # below[x]: the vertices below x once the class's arcs are added
        a, b = pair
        if below[b] >> a & 1:
            return None  # a is already below b: b -> a would close a cycle
        low = below[b] | 1 << b
        return [m | low if x == a or m >> a & 1 else m for x, m in enumerate(below)]

    classes = _fewest_classes(critical, inn, join, 1)
    orders = [topological_order(below) for below in classes or [inn]]
    positions = [[e.index(v) for v in range(n)] for e in orders]
    for i in range(n):
        for j in range(n):
            before_all = i != j and all(pos[i] < pos[j] for pos in positions)
            if before_all != bool(out[i] >> j & 1):
                raise VerificationError("realizer intersection mismatch")
    fam = LinearOrderFamily(tuple(tuple(labs[v] for v in e) for e in orders))
    return len(orders), fam


def find_permutational_representation(g: Graph, k: int) -> Certificate:
    """Search for k vertex permutations whose concatenation represents g.

    Such a family exists exactly when g has a transitive orientation whose
    poset dimension is at most k.  Golumbic's theorem refutes comparability,
    and the dimension does not depend on the orientation chosen, so each
    "exhausted" is a proof.  A realizer smaller than k is padded by repeating
    its own orders from the start, which leaves the intersection unchanged.
    A poset_dimension too deep for the stack ends the search "aborted".
    """
    from .orientations import Orientation

    _check_positive("k", k)
    t0 = time.perf_counter()
    query = f"permutational-representation n={g.n} m={g.edge_count} k={k}"
    base = find_transitive_orientation(g)
    nodes = base.nodes_explored
    if base.status != WITNESS_FOUND:
        return Certificate(query, EXHAUSTED, None, nodes, _ms(t0))
    assert isinstance(base.witness, Orientation)
    try:
        dim, realizer = poset_dimension(base.witness)
    except RecursionError:  # more critical pairs than stack frames
        return Certificate(query, ABORTED, None, nodes, _ms(t0))
    if dim > k:
        return Certificate(query, EXHAUSTED, None, nodes, _ms(t0))
    fam = LinearOrderFamily(tuple(realizer.orders[i % dim] for i in range(k)))
    verified(fam.word(), g, "find_permutational_representation")
    return Certificate(query, WITNESS_FOUND, fam, nodes, _ms(t0))
