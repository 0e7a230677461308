"""Simple undirected graphs with payload vertices, plus Hamming graph helpers.

Vertices are stored in a fixed canonical order; every derived quantity
(adjacency, distances) refers to vertex indices so that outputs
are deterministic.

Distances have one encoding, the distance spheres: ``distances()[v][r]`` is
the bitmask of the vertices at distance r from v.  They are grown for all
sources at once, since the ball of radius r + 1 around v is the union of the
radius-r balls of v and its neighbours: O(diam * E) big-integer ORs of V
bits.  Connectivity, diameter, geodesic intervals, distance half-spaces and
antipodes are all read off these spheres.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from .words import AlphabetSpec, DEFAULT_BUDGET, WordSet


class SimpleGraph:
    """Immutable simple graph; vertices carry arbitrary hashable payloads."""

    __slots__ = ("_vertices", "_edges", "_adj", "_index", "_dist")

    def __init__(self, vertices: Sequence[Hashable], edges: Iterable[tuple[int, int]]):
        self._vertices = tuple(vertices)
        m = len(self._vertices)
        self._index = {v: i for i, v in enumerate(self._vertices)}
        if len(self._index) != m:
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
        self._adj = tuple(tuple(sorted(a)) for a in adj)
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

    def index_of(self, payload: Hashable) -> int:
        try:
            return self._index[payload]
        except KeyError:
            raise ValueError(f"vertex {payload!r} not in graph") from None

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._adj[i]

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


def degree_sequence(g: SimpleGraph) -> tuple[int, ...]:
    """Vertex degrees in non-increasing order."""
    return tuple(sorted((g.degree(i) for i in range(g.n)), reverse=True))


def hamming_graph(spec: AlphabetSpec, budget: int = DEFAULT_BUDGET) -> SimpleGraph:
    """Graph on all words of the alphabet, edges between words at distance 1."""
    spec.check_budget(budget)
    return word_graph(WordSet.from_indices(range(spec.size), spec))


def word_graph(words: WordSet) -> SimpleGraph:
    """Graph on a word set with edges between members at Hamming distance 1.

    Same result as inducing the full Hamming graph on the set, without
    materialising the ambient space.
    """
    members = words.members
    spec = words.spec
    if spec is None:
        return SimpleGraph([], [])
    index_of = {w.index: i for i, w in enumerate(members)}
    strides = spec._strides
    edges = []
    for i, w in enumerate(members):
        base = w.index
        for pos, (letter, a) in enumerate(zip(w.letters, spec.sizes)):
            stride = strides[pos]
            for other in range(letter + 1, a):
                j = index_of.get(base + (other - letter) * stride)
                if j is not None:
                    edges.append((i, j))
    return SimpleGraph(members, edges)
