"""Singularity removal graphs.

Vertices are the constraint blocks of a partition; two blocks are adjacent
when they share a row or a column label, so proper colorings are exactly
the symbol assignments a Latin Square may use.  The graph is therefore the
union of 2M cliques ("lines"), one per row label and one per column label,
each holding the blocks that meet it.  A graph is its lines, each a set
of distinct vertices: it equals a graph of the same order, vertex blocks
and lines, and clique certificates, colorings and the vital subgraph are
read off them.  A `build_srg` graph also keeps its partition's label
grid, which names the vital vertices; it takes no part in equality, hash
or repr, and `from_lines` and `induced` graphs have none.
Adjacency is one bitmask per vertex, the OR of its lines' bitmaps
(the graphs are small, n <= M^2, and coloring searches hammer edge
queries), built the first time a search, an edge listing or a degree
count reads it, so a graph that is only certified, colored from its
grid, compared or hashed never pays for it.  Searches read the masks as
they are and break ties by degree through one mask per distinct degree,
cached the same way; the edge listing reads mask bits from the top down.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from lsnc.constraint import ConstraintPartition, build_constraints
from lsnc.errors import CertificateMismatchError
from lsnc.signal_set import SignalSet, make_square_qam

__all__ = [
    "RemovalGraph",
    "build_srg",
    "vital_subgraph",
    "qam_clique_certificate",
    "QAM_CLIQUE_STATES",
    "to_dot",
]


@dataclass(frozen=True)
class RemovalGraph:
    """Undirected graph over block indices: every two vertices of a line
    are adjacent.  Its fields `n`, `vertex_block` and `lines` give its
    equality, hash and repr, so one edge set given as different lines
    makes different graphs.  Build one with `from_lines`.  `labels` is the
    label grid of the partition `build_srg` read, its vertex per cell (row
    major, -1 on a cell no block covers), and None on any other graph."""

    n: int
    vertex_block: tuple[int, ...]  # vertex -> block index in the source partition
    lines: tuple[tuple[int, ...], ...]
    labels: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_lines(
        cls, n: int, lines: Sequence[tuple[int, ...]], vertex_block: tuple[int, ...] | None = None
    ) -> RemovalGraph:
        """Graph on vertices 0..n-1 whose cliques are `lines`.  The first
        line that names a vertex outside 0..n-1, or one vertex twice, raises
        ValueError naming it and that vertex: every line is a set."""
        lines = tuple(lines)
        for i, line in enumerate(lines):
            if len(set(line)) < len(line) or not all(0 <= v < n for v in line):
                v = next(v for j, v in enumerate(line) if v not in range(n) or v in line[:j])
                why = " twice" if v in range(n) else f", not in range({n})"
                raise ValueError(f"line {i} names vertex {v}{why}")
        return cls(n, tuple(range(n)) if vertex_block is None else vertex_block, lines)

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """One mask per vertex: bit u of adj[v] is set when u != v share a
        line.  Built from the lines on first use."""
        return _line_masks(self.n, self.lines)

    @cached_property
    def degree_classes(self) -> tuple[int, ...]:
        """One mask per distinct degree, highest first, holding the vertices
        of that degree.  Built on first use, so a graph that is never
        searched never counts its degrees."""
        classes: dict[int, int] = {}
        for v, mask in enumerate(self.adj):
            d = mask.bit_count()
            classes[d] = classes.get(d, 0) | 1 << v
        return tuple(classes[d] for d in sorted(classes, reverse=True))

    def edges(self) -> list[tuple[int, int]]:
        """Edges (u, v), u < v, in ascending order."""
        out = []
        for u, mask in enumerate(self.adj):
            mask >>= u + 1
            above = []  # u's neighbors above u, highest first: bit_length finds each
            while mask:
                top = mask.bit_length()
                above.append(u + top)
                mask ^= 1 << top - 1
            out += zip(itertools.repeat(u), reversed(above))
        return out

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adj)) // 2

    def induced(self, keep: Sequence[int]) -> RemovalGraph:
        """Subgraph on the ascending vertices `keep`, renumbered 0.. in that
        order: its lines are the lines restricted to them, less those left
        with fewer than two, and each keeps its block.  It has no label grid."""
        pos = {v: i for i, v in enumerate(keep)}
        lines = []
        for line in self.lines:
            kept = tuple(pos[v] for v in line if v in pos)
            if len(kept) >= 2:
                lines.append(kept)
        return RemovalGraph(len(keep), tuple(self.vertex_block[v] for v in keep), tuple(lines))


def _line_masks(n: int, lines: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """Adjacency masks of the union of the cliques `lines` on n vertices:
    each line's bitmap is built once and ORed into the mask of every
    vertex on it."""
    masks = [0] * n
    size = (n + 7) // 8
    for line in lines:
        buf = bytearray(size)
        for v in line:
            buf[v >> 3] |= 1 << (v & 7)
        bits = int.from_bytes(buf, "little")
        for v in line:
            mask = masks[v]
            masks[v] = mask | bits if mask else bits
    # A vertex on any line has its own bit set; one on none has mask 0.
    # Cleared in place, so no second set of n masks is ever alive.
    for v, mask in enumerate(masks):
        if mask:
            masks[v] = mask ^ (1 << v)
    return tuple(masks)


def build_srg(partition: ConstraintPartition) -> RemovalGraph:
    """Graph on all blocks; its lines are the blocks meeting each row, then
    the blocks meeting each column, ascending.  Row r's line is the sorted
    labels of row r of the partition's label grid, and column c's line the
    sorted labels of its stride-M slice from c, less the -1 of cells no
    block covers.

    A block that holds two cells of one row or column (each block is a
    whole row at fade 0) raises ValueError naming the first such line: a
    Latin square cannot give both cells the block's one symbol, and a
    label outside -1..n-1 raises ValueError.  The graph keeps the label
    grid: vertex i is block i."""
    m, labels, n = partition.m, partition.labels, len(partition.blocks)
    if not -1 <= min(labels, default=-1) <= max(labels, default=-1) < n:
        raise ValueError(f"label grid spans {min(labels)}..{max(labels)}, not within -1..{n - 1}")
    grid_lines = [labels[i:i + m] for i in range(0, m * m, m)] + [labels[c::m] for c in range(m)]
    lines = []
    for i, grid_line in enumerate(grid_lines):
        line = sorted(grid_line)
        if line[0] < 0:
            del line[:line.count(-1)]
        if len(set(line)) < len(line):
            where = f"row {i + 1}" if i < m else f"column {i + 1 - m}"
            raise ValueError(
                f"a constraint block holds two cells of {where}, so no Latin square removes"
                " this partition (each block is a whole row at fade 0)"
            )
        lines.append(tuple(line))
    return RemovalGraph(n, tuple(range(n)), tuple(lines), labels)


def vital_subgraph(graph: RemovalGraph) -> RemovalGraph:
    """Induced subgraph on the vertices whose label fills two or more cells
    of the label grid (multi-cell blocks), or ValueError if there is none."""
    if graph.labels is None:
        raise ValueError("the graph keeps no label grid, so it has no vital vertices")
    cells = Counter(graph.labels)
    return graph.induced([v for v in range(graph.n) if cells[v] >= 2])


# The eight singular fade states Theorem-1-style cliques cover, reachable
# from -1-j by conjugation, column negation, and transposition.
QAM_CLIQUE_STATES = (
    -1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j,
    -0.5 - 0.5j, -0.5 + 0.5j, 0.5 - 0.5j, 0.5 + 0.5j,
)


def _label_perm(s_set: SignalSet, f) -> dict[int, int]:
    """label -> label of the point that f maps its point to, f acting on
    the integer (x, y) coordinates of `s_set.exact_points`."""
    label = {p: lab for lab, p in enumerate(s_set.exact_points, 1)}
    return {lab: label[f(*p)] for lab, p in enumerate(s_set.exact_points, 1)}


def qam_clique_certificate(m: int, s: complex) -> tuple[int, ...]:
    """An (M+1)-clique in the removal graph of square M-QAM at s.

    For s = -1-j the clique is the M blocks meeting row sqrt(M)+2 plus the
    block of cell (2, (M-sqrt(M)+2)/2); the other seven states of
    QAM_CLIQUE_STATES reuse it through the symmetry that carries -1-j
    there, its labels permuted exactly on the integer points.  Pairwise
    adjacency is checked; a failure raises CertificateMismatchError.
    Certifies chi >= M+1, i.e. these states cost at least one extra symbol.
    """
    s_set = make_square_qam(m)
    side = math.isqrt(m)
    cells = [(side + 2, c) for c in range(1, m + 1)] + [(2, (m - side + 2) // 2)]

    # The eight (conjugate, negate column, transpose) choices, applied in
    # that order, carry -1-j onto the eight states; the cells move with it.
    conj = _label_perm(s_set, lambda x, y: (x, -y))
    neg = _label_perm(s_set, lambda x, y: (-x, -y))
    for do_conj, do_neg, do_transpose in itertools.product((False, True), repeat=3):
        t, moved = -1 - 1j, cells
        if do_conj:
            t, moved = t.conjugate(), [(conj[r], conj[c]) for r, c in moved]
        if do_neg:
            t, moved = -t, [(r, neg[c]) for r, c in moved]
        if do_transpose:
            t, moved = 1 / t, [(c, r) for r, c in moved]
        if abs(t - s) <= 1e-9:
            break
    else:
        raise ValueError(f"no clique certificate at fade state {s}")

    partition = build_constraints(s_set, s)
    return _certified_clique(build_srg(partition), partition, moved)


def row_clique(graph: RemovalGraph, partition: ConstraintPartition) -> tuple[int, ...]:
    """Vertices of the blocks meeting grid row 1 — a clique of size m.

    No constraint holds two cells of the same row (the superposition map is
    injective along rows), so a row meets m distinct blocks, and any two of
    them are adjacent through that shared row label.  The pairwise adjacency
    is re-checked here so the returned clique is a certificate that the
    chromatic number is at least m.
    """
    cells = [(1, c) for c in range(1, partition.m + 1)]
    return _certified_clique(graph, partition, cells)


def _certified_clique(
    graph: RemovalGraph, partition: ConstraintPartition, cells: list[tuple[int, int]]
) -> tuple[int, ...]:
    """The sorted blocks of `cells`, checked to be one per cell and pairwise
    adjacent in `graph`, that is, each two on a common line; a failure
    raises CertificateMismatchError.  A line holding all of them certifies
    at once; otherwise the first pair that shares no line is named."""
    try:
        vertices = sorted({partition.block_of(cell) for cell in cells})
    except KeyError as err:
        raise CertificateMismatchError(err.args[0]) from None
    if len(vertices) != len(cells):
        raise CertificateMismatchError(f"cells span {len(vertices)} blocks, expected {len(cells)}")
    members = {v: i for i, v in enumerate(vertices)}
    met = [0] * len(vertices)  # met[i]: places of the members sharing a line with member i
    for line in graph.lines:
        on = members.keys() & line
        if len(on) == len(vertices):
            return tuple(vertices)
        if len(on) > 1:
            mask = sum(1 << members[v] for v in on)
            for v in on:
                met[members[v]] |= mask
    everyone = (1 << len(vertices)) - 1
    for i, mask in enumerate(met):
        # Sharing a line is symmetric, so at the first member i that misses
        # one, the missing member lies above i: the first unshared pair.
        missing = everyone & ~mask & ~(1 << i)
        if missing:
            j = (missing & -missing).bit_length() - 1
            raise CertificateMismatchError(f"blocks {vertices[i]} and {vertices[j]} are not adjacent")
    return tuple(vertices)


def to_dot(graph: RemovalGraph) -> str:
    """DOT text; vertex labels are 1-indexed block indices."""
    lines = ["graph removal_graph {"]
    for v in range(graph.n):
        lines.append(f'  v{v} [label="{graph.vertex_block[v] + 1}"];')
    for u, v in graph.edges():
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
