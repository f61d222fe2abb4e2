"""Constructive word builders for graph operations and families.

Every builder is a direct construction, with no search: its output passes
words.verified against a target built independently from graph values (a
union of graphs, a relabelling, an induced subgraph or an apex); a mismatch
raises VerificationError.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import Graph, _check_size, _union, add_apex, build_family
from .graphs import induced_subgraph, validate_label
from .words import LinearOrderFamily, Word, derive_graph, extend_uniform, uniformity
from .words import verified


def fallback_counts() -> dict[str, int]:
    """Always empty: no transform falls back to search.

    Kept only because the benchmark (perfbench/wl_construct.py) still reads it.
    """
    return {}


class _CombineMode(NamedTuple):
    kind: str
    merged_label: str | None


class CombineMode(_CombineMode):
    """How two disjoint represented graphs are joined.

    kind is "connect-edge" (add an edge between x and y) or "glue-vertex"
    (identify x and y into one new vertex); merged_label names the glued
    vertex and is required exactly in the glue case.
    """

    __slots__ = ()

    def __new__(cls, kind: str, merged_label: str | None = None) -> CombineMode:
        if kind not in ("connect-edge", "glue-vertex"):
            raise ValueError(f"unknown combine mode {kind!r}")
        if kind == "glue-vertex" and merged_label is None:
            raise ValueError("glue-vertex mode needs a merged_label")
        if kind == "connect-edge" and merged_label is not None:
            raise ValueError("connect-edge mode takes no merged_label")
        return super().__new__(cls, kind, merged_label)


class _RepNumberInput(NamedTuple):
    k1: int
    k2: int
    n1: int
    n2: int


class RepNumberInput(_RepNumberInput):
    """Representation numbers and vertex counts of two graphs to be joined."""

    __slots__ = ()

    def __new__(cls, k1: int, k2: int, n1: int, n2: int) -> RepNumberInput:
        for name, value in (("k1", k1), ("k2", k2), ("n1", n1), ("n2", n2)):
            _check_size(name, value, 1)
        for n, k in ((n1, k1), (n2, k2)):
            if n == 1 and k != 1:
                raise ValueError("a single-vertex graph has representation number 1")
        return super().__new__(cls, k1, k2, n1, n2)


class CombinedRepNumbers(NamedTuple):
    """Representation numbers of the edge-connected and glued results."""

    connect_edge: int
    glue_vertex: int


def _require_uniform(w: Word, minimum: int, what: str) -> int:
    prof = uniformity(w)
    if prof.k is None:
        raise ValueError(f"{what} must be uniform")
    if prof.k < minimum:
        raise ValueError(f"{what} must be at least {minimum}-uniform, got k={prof.k}")
    return prof.k


def _leaf_letters(letters, x: str, y: str) -> list[str]:
    # y x y for the first x, x for the second, y x for each later one
    out: list[str] = []
    seen = 0
    for t in letters:
        if t == x:
            seen += 1
            out += (y, x, y) if seen == 1 else (x,) if seen == 2 else (y, x)
        else:
            out.append(t)
    return out


def add_leaf(w: Word, x: str, y: str) -> Word:
    """Extend a k-uniform word (k >= 2) by a pendant vertex y hanging off x.

    y is wrapped immediately around the first occurrence of x and placed just
    before each of its third through last occurrences: the y-y contact next
    to the first x breaks alternation with every letter except x, while the
    x,y letters themselves interleave perfectly.
    """
    _require_uniform(w, 2, "add_leaf input")
    if x not in w.alphabet:
        raise ValueError(f"vertex {x!r} does not occur in the word")
    if y in w.alphabet:
        raise ValueError(f"label {y!r} is already taken")
    target = _union(derive_graph(w), Graph([x, y], [(x, y)]))
    return verified(Word(_leaf_letters(w.letters, x, y)), target, "add_leaf")


def equalize_uniformity(w1: Word, w2: Word) -> tuple[Word, Word]:
    """Lift both uniform words to the same k = max(k1, k2, 2)."""
    k1 = _require_uniform(w1, 1, "first word")
    k2 = _require_uniform(w2, 1, "second word")
    k = max(k1, k2, 2)
    for _ in range(k - k1):
        w1 = extend_uniform(w1)
    for _ in range(k - k2):
        w2 = extend_uniform(w2)
    return w1, w2


def _fresh_label(taken: set[str], stem: str) -> str:
    label = stem
    while label in taken:
        label += "'"
    return label


def _blocks_without(letters, sep: str) -> list[list[str]]:
    blocks: list[list[str]] = [[]]
    for t in letters:
        if t == sep:
            blocks.append([])
        else:
            blocks[-1].append(t)
    return blocks


def _glue_words(l1, l2, x: str, y: str, z: str) -> Word:
    # the interleaving A1 z (A2 B1) z ... z (Ak B(k-1)) z Bk of combine
    i = len(l1) - l1[::-1].index(x)
    j = l2.index(y)
    a = _blocks_without(l1[i:] + l1[:i], x)[:-1]  # empty block after the last x
    b = _blocks_without(l2[j:] + l2[:j], y)[1:]  # empty block before the first y
    letters = list(a[0])
    for ai, bi in zip(a[1:], b):
        letters += [z, *ai, *bi]
    letters += [z, *b[-1]]
    return Word(letters)


def combine(w1: Word, w2: Word, x: str, y: str, mode: CombineMode) -> Word:
    """Join two uniformly represented graphs by an edge or at a vertex.

    Both words must be k-uniform for one common k >= 2 (equalize_uniformity
    lifts mismatched inputs) over disjoint alphabets, with x in the first and
    y in the second.  connect-edge keeps all vertices and adds the edge
    (x, y); glue-vertex merges x and y into the fresh vertex mode.merged_label.

    This is the construction of Kitaev and Pyatkin ("On representable
    graphs", 2008), with no search.  To glue, rotate w1 to end on its last x
    and w2 to start on its first y, which keeps both graphs because the words
    are uniform: A1 x A2 x ... Ak x and y B1 y B2 ... y Bk, where no A holds
    x and no B holds y.  The result is

        A1 z A2 B1 z A3 B2 z ... z Ak B(k-1) z Bk.

    Restricted to the first side plus z it is the rotated w1 with x renamed
    z, and restricted to the second side plus z it is the rotated w2 with y
    renamed z, so both graphs survive with z in the place of x and of y.  A
    letter a of the first side and a letter b of the second, with c_i copies
    of a in A_i and d_i copies of b in B_i, read

        a^(c1+c2) b^d1 a^c3 b^d2 ... a^ck b^(d(k-1)+dk),

    at most k - 1 runs of a, so two of a's k copies meet and a, b do not
    alternate.  connect-edge first hangs a fresh leaf t off x (add_leaf's
    rule, which keeps the word k-uniform) and glues t to y, so y's new
    neighbour is x alone.  The result is checked against the target graph.
    """
    k1 = _require_uniform(w1, 2, "first word")
    k2 = _require_uniform(w2, 2, "second word")
    if k1 != k2:
        raise ValueError(f"words must share one uniformity, got k={k1} and k={k2}")
    overlap = set(w1.alphabet) & set(w2.alphabet)
    if overlap:
        raise ValueError(f"alphabets overlap on {sorted(overlap)}")
    if x not in w1.alphabet:
        raise ValueError(f"vertex {x!r} does not occur in the first word")
    if y not in w2.alphabet:
        raise ValueError(f"vertex {y!r} does not occur in the second word")

    g1 = derive_graph(w1)
    g2 = derive_graph(w2)

    if mode.kind == "connect-edge":
        target = _union(g1, g2, Graph([x, y], [(x, y)]))
        tmp = _fresh_label(set(w1.alphabet) | set(w2.alphabet), "t")
        result = _glue_words(_leaf_letters(w1.letters, x, tmp), w2.letters, tmp, y, y)
    else:
        z = mode.merged_label
        assert z is not None
        kept = (set(w1.alphabet) - {x}) | (set(w2.alphabet) - {y})
        if z in kept:
            raise ValueError(f"merged label {z!r} collides with a kept vertex")
        target = _union(g1.relabel({x: z}), g2.relabel({y: z}))
        result = _glue_words(w1.letters, w2.letters, x, y, z)
    return verified(result, target, "combine")


def combined_rep_number(inp: RepNumberInput) -> CombinedRepNumbers:
    """Representation numbers after connecting by an edge / gluing at a vertex.

    With k = max(k1, k2): two single vertices give (1, 1); when exactly one
    side is a single vertex the glued graph keeps R = k while the edge-joined
    graph gets max(k, 2); when both sides have at least two vertices both
    results get max(k, 2).
    """
    k = max(inp.k1, inp.k2)
    if inp.n1 == 1 and inp.n2 == 1:
        return CombinedRepNumbers(connect_edge=1, glue_vertex=1)
    if min(inp.n1, inp.n2) == 1:
        return CombinedRepNumbers(connect_edge=max(k, 2), glue_vertex=k)
    return CombinedRepNumbers(connect_edge=max(k, 2), glue_vertex=max(k, 2))


def substitute_module(w: Word, x: str, module_perms: LinearOrderFamily) -> Word:
    """Replace vertex x by a permutationally represented module.

    The i-th occurrence of x in the k-uniform word w is replaced by the i-th
    module permutation (the family is repeated cyclically when it is shorter
    than k, which leaves its intersection unchanged).  Module vertices inherit
    x's outside neighborhood; inside the module the permutations decide.
    """
    k = _require_uniform(w, 1, "substitute_module input")
    if x not in w.alphabet:
        raise ValueError(f"vertex {x!r} does not occur in the word")
    perms = module_perms.orders
    if len(perms) > k:
        raise ValueError(
            f"module uses {len(perms)} permutations but the word is only "
            f"{k}-uniform; extend the word first"
        )
    module_labels = perms[0]
    collision = set(module_labels) & (set(w.alphabet) - {x})
    if collision:
        raise ValueError(f"module labels collide with the host word: {sorted(collision)}")

    host = derive_graph(w)
    nbrs = host.neighbors(x)
    join = Graph([*module_labels, *nbrs], [(m, u) for m in module_labels for u in nbrs])
    rest = induced_subgraph(host, [t for t in host.labels if t != x])
    target = _union(rest, derive_graph(module_perms.word()), join)

    occ = {p: i for i, p in enumerate(w.occurrences(x))}
    letters: list[str] = []
    for i, t in enumerate(w.letters):
        if i in occ:
            letters.extend(perms[occ[i] % len(perms)])
        else:
            letters.append(t)
    return verified(Word(letters), target, "substitute_module")


def ladder_word(n: int) -> Word:
    """The inductive 2-uniform representant of the ladder with n rungs.

    Start from 1 1' 1 1'; to grow from i to i+1 rungs, replace the factor
    i' i by (i+1)' i' (i+1) (i+1)' i (i+1) and reverse the whole word.
    """
    _check_size("ladder size", n, 1)
    letters = ["1", "1'", "1", "1'"]
    for i in range(1, n):
        a, ap = str(i), str(i) + "'"
        b, bp = str(i + 1), str(i + 1) + "'"
        at = next(
            p
            for p in range(len(letters) - 1)
            if letters[p] == ap and letters[p + 1] == a
        )
        letters[at : at + 2] = [bp, ap, b, bp, a, b]
        letters.reverse()
    return verified(Word(letters), build_family("ladder", n), "ladder_word")


def crown_perm_word(k: int) -> Word:
    """The permutational 2k-letter-per-block representant of the crown graph.

    For m = k down to 1 the block lists the unprimed vertices except m in
    ascending order, then m' m, then the primed vertices except m' in
    descending order.  k = 1 keeps the special 2-uniform word 1 1' 1' 1 for
    the edgeless pair, which is not a permutation concatenation.
    """
    _check_size("crown size", k, 1)
    if k == 1:
        return verified(
            Word(["1", "1'", "1'", "1"]), build_family("crown", 1), "crown_perm_word"
        )
    letters: list[str] = []
    for m in range(k, 0, -1):
        others = [i for i in range(1, k + 1) if i != m]
        letters += [str(i) for i in others]
        letters += [f"{m}'", str(m)]
        letters += [f"{i}'" for i in reversed(others)]
    return verified(Word(letters), build_family("crown", k), "crown_perm_word")


def _tree_word_rooted(t: Graph, root: str) -> list[str]:
    letters = [root, root]
    placed = {root}
    queue = [root]
    while queue:
        x = queue.pop(0)
        for y in sorted(t.neighbors(x)):
            if y in placed:
                continue
            at = letters.index(x)
            letters[at : at + 1] = [y, x, y]
            placed.add(y)
            queue.append(y)
    return letters


def tree_word(t: Graph) -> Word:
    """A 2-uniform representant of a tree by repeated leaf insertion.

    Rooted at the lexicographically least label, the word starts as r r and
    each child y of an already placed vertex x (in breadth-first, label-sorted
    order) replaces the first occurrence of x by y x y.
    """
    if t.n == 0:
        raise ValueError("a tree must have at least one vertex")
    if t.edge_count != t.n - 1:
        raise ValueError("not a tree: edge count differs from vertex count - 1")
    letters = _tree_word_rooted(t, min(t.labels))
    if len(letters) < 2 * t.n:  # the walk missed a vertex
        raise ValueError("not a tree: the graph is disconnected")
    return verified(Word(letters), t, "tree_word")


def cycle_word(n: int) -> Word:
    """A 2-uniform representant of the n-cycle.

    The path 1 - 2 - ... - n gains its closing edge by one adjacent swap.
    Rooted at 2, the tree induction gives 1 2 1 2 and then wraps each new
    vertex around the first copy of the previous one, which sits at index
    1, so the path word reads 1 n (n-1) n ... and 1, n, which are not
    adjacent in the path, occur as 1 n n 1.  Swapping letters 0 and 1 turns
    that into n 1 n 1 and changes how no other pair interleaves, so the
    result represents the cycle.  It is checked against the target graph.
    """
    _check_size("cycle length", n, 3)
    letters = _tree_word_rooted(build_family("path", n), "2")
    letters[0], letters[1] = letters[1], letters[0]
    return verified(Word(letters), build_family("cycle", n), "cycle_word")


def cone_word(perms: LinearOrderFamily, apex: str) -> Word:
    """Insert an all-adjacent apex after each permutation of a family.

    The apex alternates with every letter (one occurrence per block on each
    side) and the blocks keep representing the base graph, so the result
    represents the base graph plus an apex.
    """
    validate_label(apex)
    if apex in perms.orders[0]:
        raise ValueError(f"apex label {apex!r} collides with the base alphabet")
    target = add_apex(derive_graph(perms.word()), apex)
    letters: list[str] = []
    for p in perms.orders:
        letters += list(p)
        letters.append(apex)
    return verified(Word(letters), target, "cone_word")


def add_path(w: Word, x: str, y: str, length: int) -> Word:
    """Join x and y through a fresh path with `length` edges (length >= 3).

    This is the paper's path theorem made constructive; the word stays
    3-uniform and each fresh vertex costs one linear pass, with no search.
    The first length - 3 internal vertices hang off x as a chain of pendant
    leaves (add_leaf's insertion rule); let u be the last vertex of that
    chain (x itself when length == 3).  The two remaining fresh vertices a
    and b join u to y.  The word is rotated to an occurrence X of u, which
    keeps the graph because the word is uniform, and read as X M y R, where
    the stretch M runs up to, but not including, the second y after X; the
    result is

        a X b a M b y a b R.

    For letters with three copies, a alternates with z exactly when z occurs
    once in each of the two stretches between a's copies.  a's stretches are
    {X, b} and M + {b, y}, so a alternates with u and b only, provided M
    holds exactly one u.  b's stretches are {a} + M and {y, a}, and M holds
    exactly one y, so b alternates with a and y only.  Deleting a and b gives
    back the rotated word, so no other pair changes.

    Such an X always exists.  Let g1, g2, g3 be the numbers of y in the
    cyclic stretches that follow u's three copies; they sum to 3.  When X
    is the copy that opens stretch i, M holds exactly one u if g_i <= 1 and
    g_i + g_(i+1) >= 2, i.e. the second y falls in the next stretch.  If
    every g_i is 1, any i works; otherwise some g_j >= 2, and i = j - 1 has
    g_i <= 1 and g_i + g_j >= 2.  The result is checked against the target
    graph.
    """
    k = _require_uniform(w, 3, "add_path input")
    if k != 3:
        raise ValueError(f"add_path needs a 3-uniform word, got k={k}")
    _check_size("path length", length, 3)
    if x not in w.alphabet or y not in w.alphabet:
        raise ValueError("both endpoints must occur in the word")
    if x == y:
        raise ValueError("endpoints must be distinct")

    taken = set(w.alphabet)
    internal: list[str] = []
    for i in range(1, length):
        lab = _fresh_label(taken, f"p{i}")
        taken.add(lab)
        internal.append(lab)

    chain = [x, *internal, y]
    target = _union(derive_graph(w), Graph(chain, zip(chain, chain[1:])))

    letters = list(w.letters)
    u = x
    for lab in internal[:-2]:
        letters = _leaf_letters(letters, u, lab)
        u = lab
    a, b = internal[-2:]
    for s in (i for i, t in enumerate(letters) if t == u):
        rot = letters[s:] + letters[:s]
        j = [i for i, t in enumerate(rot) if t == y][1]
        if rot[1:j].count(u) == 1:
            break  # a site exists (see above); if not, verified fails
    out = [a, u, b, a, *rot[1:j], b, y, a, b, *rot[j + 1 :]]
    return verified(Word(out), target, "add_path")
