"""Words over vertex labels, letter alternation, and the graphs they derive.

A word w represents a graph G when two letters alternate in w exactly if the
corresponding vertices are adjacent in G.  Words are immutable; letters are
stored as a tuple of label tokens with a derived occurrence map.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import ParseError, VerificationError
from .graphs import Graph, check_labels, is_int


class Word:
    """Immutable sequence of vertex labels.

    The alphabet is ordered by first occurrence.  Occurrence positions per
    letter are precomputed and ascending.
    """

    __slots__ = ("letters", "alphabet", "_occ")

    def __init__(self, letters: Iterable[str]):
        lets = tuple(letters)
        occ: dict[str, list[int]] = {}
        try:
            for i, t in enumerate(lets):
                occ.setdefault(t, []).append(i)
        except TypeError:  # an unhashable letter: check every letter, in word order
            alphabet = lets
        else:
            alphabet = tuple(occ)
        check_labels(alphabet)  # its first bad letter is the word's first bad letter
        self.letters = lets
        self.alphabet = alphabet
        self._occ = {t: tuple(ps) for t, ps in occ.items()}

    def occurrences(self, label: str) -> tuple[int, ...]:
        try:
            return self._occ[label]
        except KeyError:
            raise ValueError(f"letter {label!r} does not occur") from None

    def count(self, label: str) -> int:
        return len(self._occ.get(label, ()))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __str__(self) -> str:
        return " ".join(self.letters)

    def __repr__(self) -> str:
        return f"Word({' '.join(self.letters)!r})"


class UniformityProfile(NamedTuple):
    """Occurrence counts per letter (alphabet order) and the common count, if any."""

    counts: tuple[tuple[str, int], ...]
    k: int | None

    @property
    def is_uniform(self) -> bool:
        return self.k is not None

    def as_dict(self) -> dict[str, int]:
        return dict(self.counts)


def _merged_alternates(px: Sequence[int], py: Sequence[int]) -> bool:
    # merge two ascending position lists; alternation fails on two equal
    # letters in a row, or two or more trailing copies of one letter
    i = j = 0
    last = 0
    while i < len(px) and j < len(py):
        if px[i] < py[j]:
            cur = 1
            i += 1
        else:
            cur = 2
            j += 1
        if cur == last:
            return False
        last = cur
    rest, who = (len(px) - i, 1) if i < len(px) else (len(py) - j, 2)
    if rest >= 2 or (rest == 1 and last == who):
        return False
    return True


def alternates(w: Word, x: str, y: str) -> bool:
    """True when deleting every letter except x and y leaves a strictly alternating word."""
    if x == y:
        raise ValueError("alternation needs two distinct letters")
    return _merged_alternates(w.occurrences(x), w.occurrences(y))


def _alternation_masks(w: Word, labels: Sequence[str]) -> list[int]:
    """Adjacency masks of w's alternation graph, indexed in the order of labels."""
    occ = [w._occ[x] for x in labels]
    adj = [0] * len(occ)
    for i, px in enumerate(occ):
        for j in range(i + 1, len(occ)):
            if _merged_alternates(px, occ[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def derive_graph(w: Word) -> Graph:
    """w's alternation graph on w.alphabet, in that order, built from its masks unchecked."""
    return Graph._from_masks(w.alphabet, _alternation_masks(w, w.alphabet))


def represents(w: Word, g: Graph) -> bool:
    """True when w's alternation graph equals g.

    The word's alphabet must equal the vertex set exactly; any difference is
    rejected, naming the offending labels.  No graph is built: w's alternation
    masks, taken in g's vertex order, are compared with g.adj.
    """
    ws, gs = set(w.alphabet), set(g.labels)
    if ws != gs:
        only_g, only_w = sorted(gs - ws), sorted(ws - gs)
        raise ValueError(f"alphabet mismatch: only in graph {only_g}, only in word {only_w}")
    return tuple(_alternation_masks(w, g.labels)) == g.adj


def verified(w: Word, g: Graph, what: str) -> Word:
    """w, once it represents g; else VerificationError names its producer `what`."""
    if not represents(w, g):
        raise VerificationError(f"{what} produced a word that fails verification")
    return w


def uniformity(w: Word) -> UniformityProfile:
    """Occurrence profile; k is the common count when all letters agree, else None."""
    counts = tuple((t, len(w._occ[t])) for t in w.alphabet)
    ks = {c for _, c in counts} or {0}  # the empty word is 0-uniform
    return UniformityProfile(counts, ks.pop() if len(ks) == 1 else None)


def reverse(w: Word) -> Word:
    """The reversed word; it derives the same graph."""
    return Word(w.letters[::-1])


def cyclic_shift(w: Word, cut: int) -> Word:
    """Rotate a k-uniform word, moving the first `cut` letters to the end.

    Only uniform words may be rotated: rotation preserves the derived graph
    exactly for them.  Non-uniform input is rejected.
    """
    if uniformity(w).k is None:
        raise ValueError("cyclic shift requires a uniform word")
    if not is_int(cut) or not 0 <= cut <= len(w):
        raise ValueError(f"cut must be in 0..{len(w)}, got {cut}")
    return Word(w.letters[cut:] + w.letters[:cut])


def initial_permutation(w: Word) -> Word:
    """The alphabet in order of first occurrence, as a 1-uniform word."""
    return Word(w.alphabet)


def extend_uniform(w: Word) -> Word:
    """Lift a k-uniform word to (k+1)-uniform, preserving the derived graph.

    Prepends the initial permutation; the result is verified against the
    original derived graph.
    """
    if uniformity(w).k is None:
        raise ValueError("extend_uniform requires a uniform word")
    if len(w) == 0:
        return w
    return verified(Word(w.alphabet + w.letters), derive_graph(w), "extend_uniform")


def concat_orders(orders: Iterable[Sequence[str]]) -> Word:
    """Concatenate vertex orders into one word."""
    return Word([x for p in orders for x in p])


class _LinearOrderFamily(NamedTuple):
    orders: tuple[tuple[str, ...], ...]


class LinearOrderFamily(_LinearOrderFamily):
    """A non-empty list of vertex permutations over one common vertex set."""

    __slots__ = ()

    def __new__(cls, orders: tuple[tuple[str, ...], ...]) -> LinearOrderFamily:
        if not orders:
            raise ValueError("a linear order family must contain at least one order")
        base = set(orders[0])
        for p in orders:
            if len(set(p)) != len(p) or set(p) != base or len(p) != len(orders[0]):
                raise ValueError("orders must all be permutations of one vertex set")
        return super().__new__(cls, orders)

    def word(self) -> Word:
        return concat_orders(self.orders)


def permutation_blocks(w: Word) -> tuple[tuple[str, ...], ...]:
    """Split a permutational word into its consecutive permutation blocks.

    The word length must be a multiple of the alphabet size and every block
    of that size must be a permutation of the alphabet.
    """
    n = len(w.alphabet)
    if n == 0:
        raise ValueError("empty word has no permutation blocks")
    if len(w) % n:
        raise ValueError(f"length {len(w)} is not a multiple of alphabet size {n}")
    want = set(w.alphabet)
    blocks = []
    for i in range(0, len(w), n):
        block = w.letters[i : i + n]
        if set(block) != want:
            raise ValueError(f"block {i // n + 1} is not a permutation of the alphabet")
        blocks.append(block)
    return tuple(blocks)


def _scan_contiguous(s: str) -> list[str]:
    # one character per token, '(..)' groups multi-character tokens,
    # trailing apostrophes attach to the preceding token
    toks: list[str] = []
    i = 0
    while i < len(s):
        c = s[i]
        if c == "(":
            j = s.find(")", i)
            if j < 0:
                raise ParseError("unbalanced '(' in word")
            tok = s[i + 1 : j]
            if not tok:
                raise ParseError("empty '()' group in word")
            i = j + 1
        elif c == ")":
            raise ParseError("unbalanced ')' in word")
        elif c == "'":
            raise ParseError(f"dangling apostrophe at position {i}")
        else:
            tok = c
            i += 1
        while i < len(s) and s[i] == "'":
            tok += "'"
            i += 1
        toks.append(tok)
    return toks


def parse_word(text: str, alphabet: Iterable[str] | None = None) -> Word:
    """Parse word text.

    Whitespace-separated tokens are taken as written.  A contiguous string is
    split into single-character tokens, with '(..)' grouping a multi-character
    token and apostrophes attaching to the previous token.  When an alphabet
    is supplied and the whole string is one known label, it parses as that
    single letter.
    """
    toks = text.split()
    if not toks:
        raise ParseError("empty word text")
    if len(toks) > 1 or alphabet is not None and toks[0] in set(alphabet):
        return Word(toks)
    return Word(_scan_contiguous(toks[0]))


def format_word(w: Word) -> str:
    """Serialize a word as whitespace-separated tokens (round-trips through parse_word)."""
    return " ".join(w.letters)
