"""Simple undirected graphs with payload vertices, plus Hamming graph helpers.

Vertices are stored in a fixed canonical order; every derived quantity
(adjacency, distances, intervals) refers to vertex indices so that outputs
are deterministic.
"""

from __future__ import annotations

from collections import deque
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
        """All-pairs distances by BFS; -1 for unreachable pairs."""
        if self._dist is None:
            rows = []
            for s in range(self.n):
                row = [-1] * self.n
                row[s] = 0
                q = deque([s])
                while q:
                    u = q.popleft()
                    du = row[u]
                    for v in self._adj[u]:
                        if row[v] < 0:
                            row[v] = du + 1
                            q.append(v)
                rows.append(tuple(row))
            self._dist = tuple(rows)
        return self._dist

    def induced(self, indices: Iterable[int]) -> "SimpleGraph":
        keep = sorted(set(indices))
        remap = {old: new for new, old in enumerate(keep)}
        verts = [self._vertices[i] for i in keep]
        edges = [
            (remap[i], remap[j])
            for i, j in self._edges
            if i in remap and j in remap
        ]
        return SimpleGraph(verts, edges)


def is_connected(g: SimpleGraph) -> bool:
    if g.n == 0:
        return True
    return all(d >= 0 for d in g.distances()[0])


def diameter(g: SimpleGraph) -> int:
    if not is_connected(g):
        raise ValueError("diameter of a disconnected graph is undefined")
    return max(max(row) for row in g.distances())


def degree_sequence(g: SimpleGraph) -> tuple[int, ...]:
    """Vertex degrees in non-increasing order."""
    return tuple(sorted((g.degree(i) for i in range(g.n)), reverse=True))


def geodesic_interval(g: SimpleGraph, x: Hashable, y: Hashable) -> set[Hashable]:
    """Vertices on shortest x,y-paths.  Requires x and y to be connected."""
    i, j = g.index_of(x), g.index_of(y)
    dist = g.distances()
    dij = dist[i][j]
    if dij < 0:
        raise ValueError(f"vertices {x!r} and {y!r} lie in different components")
    return {
        g.vertices[z]
        for z in range(g.n)
        if dist[i][z] >= 0 and dist[z][j] >= 0 and dist[i][z] + dist[z][j] == dij
    }


def hamming_graph(spec: AlphabetSpec, budget: int = DEFAULT_BUDGET) -> SimpleGraph:
    """Graph on all words of the alphabet, edges between words at distance 1."""
    spec.check_budget(budget)
    return word_graph(WordSet.from_indices(range(spec.size), spec))


def induced_subgraph(g: SimpleGraph, words: WordSet | Iterable[Hashable]) -> SimpleGraph:
    """Subgraph of g induced on the given vertex payloads."""
    payloads = words.members if isinstance(words, WordSet) else tuple(words)
    return g.induced(g.index_of(p) for p in payloads)


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
