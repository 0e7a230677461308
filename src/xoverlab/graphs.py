"""Simple undirected graphs with payload vertices, plus Hamming graph helpers.

Vertices are stored in a fixed canonical order; every derived quantity
(adjacency, distances, and the partial-cube labels and antipodes built on
them) refers to vertex indices, so that outputs are deterministic and the
payloads are read only to print them.

Distances have one encoding, the distance spheres: ``distances()[v][r]`` is
the bitmask of the vertices at distance r from v.  They are grown for all
sources at once, since the ball of radius r + 1 around v is the union of the
radius-r balls of v and its neighbours: O(diam * E) big-integer ORs of V
bits.  Connectivity, diameter, geodesic intervals, distance half-spaces and
antipodes are all read off these spheres.  ``_hamming_edges`` finds the
pairs one letter apart on packed indices for ``word_graph`` (so for
``hamming_graph`` and ``transit_graph``) and ``matroid.tope_graph``.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from .words import AlphabetSpec, DEFAULT_BUDGET, WordSet


def _bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _low(mask: int) -> int:
    """Index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


class SimpleGraph:
    """Immutable simple graph; vertices carry arbitrary hashable payloads."""

    __slots__ = ("_vertices", "_edges", "_adj", "_dist")

    def __init__(self, vertices: Sequence[Hashable], edges: Iterable[tuple[int, int]]):
        self._vertices = tuple(vertices)
        m = len(self._vertices)
        if len(set(self._vertices)) != m:
            raise ValueError("duplicate vertex payloads")
        edge_set: set[tuple[int, int]] = set()
        for i, j in edges:
            if not (0 <= i < m and 0 <= j < m):
                raise ValueError(f"edge ({i}, {j}) out of range")
            if i == j:
                raise ValueError(f"self loop at vertex {i}")
            edge_set.add((i, j) if i < j else (j, i))
        self._edges = tuple(sorted(edge_set))
        adj: list[list[int]] = [[] for _ in range(m)]
        for i, j in self._edges:
            adj[i].append(j)
            adj[j].append(i)
        self._adj = tuple(map(tuple, adj))
        self._dist: tuple[tuple[int, ...], ...] | None = None

    @property
    def vertices(self) -> tuple[Hashable, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return len(self._edges)

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    def distances(self) -> tuple[tuple[int, ...], ...]:
        """Distance spheres: entry [v][r] is the bitmask of the vertices at
        distance r from v.  A vertex unreachable from v lies in no sphere of
        v, and v's row ends with its last nonempty sphere."""
        if self._dist is None:
            ball = [1 << v for v in range(self.n)]
            rows = [[b] for b in ball]
            while True:
                grown = []
                for adj, b in zip(self._adj, ball):
                    for w in adj:
                        b |= ball[w]
                    grown.append(b)
                if grown == ball:
                    break
                for row, new, old in zip(rows, grown, ball):
                    if new != old:
                        row.append(new & ~old)
                ball = grown
            self._dist = tuple(map(tuple, rows))
        return self._dist


def is_connected(g: SimpleGraph) -> bool:
    if g.n == 0:
        return True
    return sum(s.bit_count() for s in g.distances()[0]) == g.n


def diameter(g: SimpleGraph) -> int:
    if not is_connected(g):
        raise ValueError("diameter of a disconnected graph is undefined")
    return max(map(len, g.distances())) - 1


def hamming_graph(spec: AlphabetSpec, budget: int = DEFAULT_BUDGET) -> SimpleGraph:
    """Graph on all words of the alphabet, edges between words at distance 1."""
    spec.check_budget(budget)
    return word_graph(WordSet.from_indices(range(spec.size), spec))


def _hamming_edges(indices: Sequence[int], sizes: Sequence[int]) -> list[tuple[int, int]]:
    """Pairs (i, j) of positions in indices whose packed indices over these
    alphabet sizes differ in one letter.  Adding d * s to v raises its letter
    of place value s and size a by d, keeping the rest, iff
    v % (s * a) + d * s < s * a."""
    at = {v: i for i, v in enumerate(indices)}
    edges: list[tuple[int, int]] = []
    stride = 1
    for a in reversed(sizes):
        span = stride * a
        for step in range(stride, span, stride):
            edges += [(i, j) for v, i in at.items()
                      if v % span + step < span and (j := at.get(v + step)) is not None]
        stride = span
    return edges


def word_graph(words: WordSet) -> SimpleGraph:
    """Graph on a word set with edges between members at Hamming distance 1.

    Same result as inducing the full Hamming graph on the set, without
    materialising the ambient space or reading letters.
    """
    return SimpleGraph(words.members,
                       _hamming_edges(words.sorted_indices, words.spec.sizes))
