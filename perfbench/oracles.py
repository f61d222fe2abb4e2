"""Benchmark-side checkers that share no code with `wordrep`.

Everything here works on plain label lists, edge sets and adjacency
bitmasks, and is written from the definitions: alternation, the graph
families, isomorphism, chord diagrams, acyclicity and shortcuts.  The
benchmark checks the program's outputs with these functions only.
"""

from __future__ import annotations

from itertools import combinations


def edge_set(edges) -> set[frozenset]:
    return {frozenset(e) for e in edges}


def bitmasks(labels, edges) -> list[int]:
    """Adjacency bitmasks indexed like `labels`."""
    idx = {t: i for i, t in enumerate(labels)}
    adj = [0] * len(labels)
    for a, b in edges:
        i, j = idx[a], idx[b]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


# ---------------------------------------------------------------- words


def alternating_pairs(letters) -> set[frozenset]:
    """Pairs of letters that alternate in the word.

    Cut the word at the occurrences of x: x and y alternate exactly when y
    occurs once in every segment between two copies of x, and at most once
    before the first and after the last copy of x.
    """
    alphabet = list(dict.fromkeys(letters))
    idx = {t: i for i, t in enumerate(alphabet)}
    seq = [idx[t] for t in letters]
    n = len(alphabet)
    full = (1 << n) - 1
    out: set[frozenset] = set()
    for x in range(n):
        inner = full
        outer_bad = 0
        seen = multi = 0
        met_x = False
        for c in seq:
            if c == x:
                if met_x:
                    inner &= seen & ~multi
                else:
                    outer_bad |= multi
                    met_x = True
                seen = multi = 0
                continue
            bit = 1 << c
            if seen & bit:
                multi |= bit
            seen |= bit
        outer_bad |= multi
        partners = inner & ~outer_bad & ~(1 << x)
        for y in bits(partners >> (x + 1) << (x + 1)):
            out.add(frozenset((alphabet[x], alphabet[y])))
    return out


def uniformity(letters) -> int | None:
    counts: dict[str, int] = {}
    for t in letters:
        counts[t] = counts.get(t, 0) + 1
    values = set(counts.values())
    return values.pop() if len(values) == 1 else None


def word_error(letters, labels, edges, k: int | None = None) -> str | None:
    """None when the word represents the graph (and is k-uniform if k is given)."""
    letters = list(letters)
    if set(letters) != set(labels):
        return f"alphabet {sorted(set(letters))} differs from vertices {sorted(labels)}"
    if k is not None and uniformity(letters) != k:
        return f"word is not {k}-uniform"
    got, want = alternating_pairs(letters), edge_set(edges)
    if got != want:
        extra = sorted(tuple(sorted(e)) for e in got - want)[:3]
        missing = sorted(tuple(sorted(e)) for e in want - got)[:3]
        return f"alternation graph differs: extra {extra}, missing {missing}"
    return None


def order_graph(perms) -> list[tuple[str, str]]:
    """Edges of a concatenation of permutations: pairs ordered alike in all."""
    pos = [{t: i for i, t in enumerate(p)} for p in perms]
    return [
        (a, b)
        for a, b in combinations(perms[0], 2)
        if len({q[a] < q[b] for q in pos}) == 1
    ]


# ---------------------------------------------------------------- text


def read_graph_text(text: str) -> tuple[list[str], set[frozenset]]:
    """Vertices and edges of the graph text format, read from its definition."""
    labels: list[str] = []
    edges: set[frozenset] = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            labels = line[len("vertices:"):].split()
            continue
        a, b = line.split()
        for t in (a, b):
            if t not in labels:
                labels.append(t)
        edges.add(frozenset((a, b)))
    return labels, edges


def write_graph_text(labels, edges) -> str:
    lines = ["vertices: " + " ".join(labels)]
    lines += [f"{a} {b}" for a, b in edges]
    return "\n".join(lines) + "\n"


def contiguous_word_text(letters) -> str:
    """A word as one contiguous string, multi-character tokens in parentheses."""
    out = []
    for t in letters:
        stem = t.rstrip("'")
        primes = t[len(stem):]
        out.append((stem if len(stem) == 1 else f"({stem})") + primes)
    return "".join(out)


# ---------------------------------------------------------------- families


def names(n: int) -> list[str]:
    return [str(i) for i in range(1, n + 1)]


def primed(n: int) -> list[str]:
    return [f"{i}'" for i in range(1, n + 1)]


def ring(labels) -> list[tuple[str, str]]:
    return [(labels[i], labels[(i + 1) % len(labels)]) for i in range(len(labels))]


def complete(n):
    labs = names(n)
    return labs, list(combinations(labs, 2))


def path(n):
    labs = names(n)
    return labs, list(zip(labs, labs[1:]))


def cycle(n):
    labs = names(n)
    return labs, ring(labs)


def ladder(n):
    a, b = names(n), primed(n)
    return a + b, list(zip(a, a[1:])) + list(zip(b, b[1:])) + list(zip(a, b))


def prism(n):
    a, b = names(n), primed(n)
    return a + b, ring(a) + ring(b) + list(zip(a, b))


def crown(n):
    """Complete bipartite K(n,n) minus the perfect matching i - i'."""
    a, b = names(n), primed(n)
    return a + b, [(a[i], b[j]) for i in range(n) for j in range(n) if i != j]


def cone(graph, apex: str):
    labs, edges = graph
    return labs + [apex], list(edges) + [(v, apex) for v in labs]


def wheel(n: int):
    """The wheel W_n: an n-cycle plus a hub joined to every cycle vertex."""
    return cone(cycle(n), "c")


PETERSEN = (
    names(10),
    [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "1"),
     ("1", "6"), ("2", "7"), ("3", "8"), ("4", "9"), ("5", "10"),
     ("6", "8"), ("8", "10"), ("10", "7"), ("7", "9"), ("9", "6")],
)


# ---------------------------------------------------------------- isomorphism


def degrees(adj) -> list[int]:
    return [bin(m).count("1") for m in adj]


def isomorphic(adj1, adj2) -> bool:
    """Backtracking vertex matching with degree and adjacency consistency."""
    n = len(adj1)
    if n != len(adj2):
        return False
    d1, d2 = degrees(adj1), degrees(adj2)
    if sorted(d1) != sorted(d2):
        return False
    order = sorted(range(n), key=lambda v: -d1[v])
    image = [-1] * n
    used = 0

    def extend(pos: int) -> bool:
        nonlocal used
        if pos == n:
            return True
        v = order[pos]
        for w in range(n):
            if used >> w & 1 or d2[w] != d1[v]:
                continue
            if any(
                (adj1[v] >> order[q] & 1) != (adj2[w] >> image[order[q]] & 1)
                for q in range(pos)
            ):
                continue
            image[v] = w
            used |= 1 << w
            if extend(pos + 1):
                return True
            used &= ~(1 << w)
        image[v] = -1
        return False

    return extend(0)


def is_w5(adj) -> bool:
    """The wheel W5: a hub of degree 5 over five vertices inducing a 5-cycle."""
    if len(adj) != 6:
        return False
    for hub in range(6):
        if adj[hub] != 0b111111 & ~(1 << hub):
            continue
        rim = 0b111111 & ~(1 << hub)
        if all(bin(adj[v] & rim).count("1") == 2 for v in bits(rim)):
            # a 2-regular graph on five vertices is a 5-cycle
            return True
    return False


def induced(adj, keep) -> list[int]:
    pos = {v: i for i, v in enumerate(keep)}
    return [sum(1 << pos[u] for u in bits(adj[v]) if u in pos) for v in keep]


def has_induced_w5(adj) -> bool:
    return any(is_w5(induced(adj, s)) for s in combinations(range(len(adj)), 6))


# ---------------------------------------------------------------- circle graphs

_CIRCLE: dict[int, dict[tuple, list[tuple[int, ...]]]] = {}


def _matchings(points: list[int]):
    if not points:
        yield []
        return
    a = points[0]
    for i in range(1, len(points)):
        rest = points[1:i] + points[i + 1:]
        for m in _matchings(rest):
            yield [(a, points[i])] + m


def circle_graphs(n: int) -> dict[tuple, list[tuple[int, ...]]]:
    """Crossing graphs of all chord diagrams on 2n points, by degree sequence.

    A 2-uniform word is a chord diagram, and two letters alternate exactly
    when their chords cross, so these are the graphs with R <= 2.
    """
    if n not in _CIRCLE:
        found: set[tuple[int, ...]] = set()
        for m in _matchings(list(range(2 * n))):
            adj = [0] * n
            for i, j in combinations(range(n), 2):
                (a, b), (c, d) = m[i], m[j]
                if (a < c < b) != (a < d < b):
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
            found.add(tuple(adj))
        table: dict[tuple, list[tuple[int, ...]]] = {}
        for adj in found:
            table.setdefault(tuple(sorted(degrees(adj))), []).append(adj)
        _CIRCLE[n] = table
    return _CIRCLE[n]


def is_circle_graph(adj) -> bool:
    cands = circle_graphs(len(adj)).get(tuple(sorted(degrees(adj))), [])
    return any(isomorphic(adj, c) for c in cands)


def is_complete(adj) -> bool:
    n = len(adj)
    return all(adj[i] == ((1 << n) - 1) & ~(1 << i) for i in range(n))


# ---------------------------------------------------------------- orientations


def arc_masks(labels, adj, arcs) -> tuple[list[int] | None, str | None]:
    """Out-neighbour masks of an arc list that directs every edge exactly once."""
    idx = {t: i for i, t in enumerate(labels)}
    out = [0] * len(labels)
    for a, b in arcs:
        i, j = idx[a], idx[b]
        if not adj[i] >> j & 1:
            return None, f"arc {a}->{b} is not an edge"
        if (out[i] >> j | out[j] >> i) & 1:
            return None, f"edge {a}-{b} directed twice"
        out[i] |= 1 << j
    for i, j in combinations(range(len(labels)), 2):
        if adj[i] >> j & 1 and not (out[i] >> j | out[j] >> i) & 1:
            return None, f"edge {labels[i]}-{labels[j]} left undirected"
    return out, None


def acyclic(out) -> bool:
    n = len(out)
    indeg = [0] * n
    for i in range(n):
        for j in bits(out[i]):
            indeg[j] += 1
    ready = [i for i in range(n) if indeg[i] == 0]
    done = 0
    while ready:
        i = ready.pop()
        done += 1
        for j in bits(out[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    return done == n


def shortcut_paths(adj, out):
    """Every simple directed path on >= 4 vertices closed by an arc and not a clique."""
    n = len(adj)

    def clique(mask: int) -> bool:
        return all(mask & ~adj[v] & ~(1 << v) == 0 for v in bits(mask))

    def walk(p: list[int], mask: int):
        for y in bits(out[p[-1]] & ~mask):
            q = p + [y]
            if len(q) >= 4 and out[q[0]] >> y & 1 and not clique(mask | 1 << y):
                yield q
            yield from walk(q, mask | 1 << y)

    for s in range(n):
        yield from walk([s], 1 << s)


def orientation_error(labels, adj, arcs) -> str | None:
    """None when the arcs form a semi-transitive orientation of the graph."""
    out, err = arc_masks(labels, adj, arcs)
    if err:
        return err
    if not acyclic(out):
        return "orientation has a directed cycle"
    hit = next(shortcut_paths(adj, out), None)
    if hit is not None:
        return "orientation has a shortcut " + "->".join(labels[v] for v in hit)
    return None


def shortcut_witness_error(labels, adj, out, path, pair) -> str | None:
    """None when (path, pair) is a shortcut of the orientation."""
    idx = {t: i for i, t in enumerate(labels)}
    p = [idx[t] for t in path]
    if len(p) < 4 or len(set(p)) != len(p):
        return "shortcut path is shorter than 4 vertices or repeats one"
    if any(not out[a] >> b & 1 for a, b in zip(p, p[1:])):
        return "shortcut path uses a missing arc"
    if not out[p[0]] >> p[-1] & 1:
        return "shortcut path is not closed by an arc"
    a, b = (idx[t] for t in pair)
    if a == b or a not in p or b not in p or adj[a] >> b & 1:
        return "shortcut missing pair is not a non-adjacent pair of the path"
    return None
