"""Chord diagrams of 2-uniform words and their crossing graphs.

A 2-uniform word over n letters marks 2n points on a circle; each letter's
two occurrence positions form a chord.  Two chords cross exactly when the
corresponding letters alternate in the word, so the crossing graph of the
diagram equals the derived graph.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .graphs import Graph
from .words import Word, uniformity


class ChordDiagram(NamedTuple):
    """Positions 0..2n-1 on a circle, one chord per letter."""

    chords: tuple[tuple[str, tuple[int, int]], ...]

    @property
    def point_count(self) -> int:
        return 2 * len(self.chords)


def chord_diagram(w: Word) -> ChordDiagram:
    """Build the diagram of a 2-uniform word; other profiles are rejected."""
    prof = uniformity(w)
    if prof.k != 2:
        raise ValueError(f"chord diagrams need a 2-uniform word, got k={prof.k}")
    chords = tuple(
        (t, (w.occurrences(t)[0], w.occurrences(t)[1])) for t in w.alphabet
    )
    return ChordDiagram(chords)


def chords_cross(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """True when exactly one endpoint of b lies strictly inside a's arc."""
    lo, hi = min(a), max(a)
    return (lo < b[0] < hi) != (lo < b[1] < hi)


def crossing_graph(d: ChordDiagram) -> Graph:
    """Graph on the chord labels with edges between crossing chords."""
    labels = [t for t, _ in d.chords]
    edges = [
        (labels[i], labels[j])
        for i in range(len(d.chords))
        for j in range(i + 1, len(d.chords))
        if chords_cross(d.chords[i][1], d.chords[j][1])
    ]
    return Graph(labels, edges)


def _point(center: float, radius: float, pos: int, total: int) -> tuple[float, float]:
    angle = 2.0 * math.pi * pos / total - math.pi / 2.0
    return (
        round(center + radius * math.cos(angle), 3),
        round(center + radius * math.sin(angle), 3),
    )


def chord_svg(d: ChordDiagram) -> str:
    """Self-contained SVG of the diagram, geometry rounded to 3 decimals."""
    size = 420.0
    center = size / 2.0
    radius = 160.0
    label_radius = 185.0
    total = max(d.point_count, 1)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:g}" height="{size:g}" '
        f'viewBox="0 0 {size:g} {size:g}">',
        f'<circle cx="{center:g}" cy="{center:g}" r="{radius:g}" '
        'fill="none" stroke="#888" stroke-width="1"/>',
    ]
    for label, (a, b) in d.chords:
        x1, y1 = _point(center, radius, a, total)
        x2, y2 = _point(center, radius, b, total)
        lines.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            'stroke="#1a6" stroke-width="1.5"/>'
        )
        for pos in (a, b):
            px, py = _point(center, radius, pos, total)
            lines.append(f'<circle cx="{px}" cy="{py}" r="2.5" fill="#136"/>')
            lx, ly = _point(center, label_radius, pos, total)
            lines.append(
                f'<text x="{lx}" y="{ly}" font-size="12" font-family="monospace" '
                f'text-anchor="middle" dominant-baseline="middle">{_escape(label)}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
