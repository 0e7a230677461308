"""Partial-cube recognition and the structure statistics built on it.

Recognition uses distance half-spaces (Djokovic 1973, Winkler 1984; see
Eppstein, "Recognizing partial cubes in quadratic time", JGAA 2011, sec. 2).
For an edge uv, W_uv is the set of vertices closer to u than to v; in a
partial cube the edges crossing W_uv form one cut class, and the classes
partition the edges.  Each class is read off two rows of the cached distance
matrix, and the resulting side labeling is accepted only when it is an
isometry into the hypercube: O(V*E) + O(V^2) in all.  Everything downstream
(cut sizes, antipodal maps, VC dimension, cube minors, quadrangulation
statistics) consumes either the graph or the returned embedding.

Vertex labels are plain 0/1 strings, one coordinate per cut class, so empty
labelings (single-vertex graphs) stay representable.  Class order, and hence
coordinate order, is fixed by the smallest edge in each class; the side of a
cut containing vertex index 0 is labeled 0.  All outputs are therefore
reproducible byte for byte.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

import networkx as nx

from .graphs import SimpleGraph, degree_sequence, diameter, is_connected
from .words import Word

Edge = tuple[int, int]


def _require_connected(g: SimpleGraph) -> None:
    if not is_connected(g):
        raise ValueError("graph must be connected")


@dataclass(frozen=True)
class PartialCubeEmbedding:
    """Isometric binary labeling of a graph together with its cut classes.

    labels maps every vertex payload to a 0/1 string whose i-th character
    says on which side of cut i the vertex lies; cuts lists the edge classes
    in the same coordinate order.
    """

    labels: Mapping[object, str]
    cuts: tuple[tuple[Edge, ...], ...]

    @property
    def word_length(self) -> int:
        return len(self.cuts)


def is_partial_cube(g: SimpleGraph) -> PartialCubeEmbedding | None:
    """Embedding of g into a hypercube, or None when g is not a partial cube.

    Half-space method (Djokovic 1973, Winkler 1984): the first edge uv with
    no class yet, in sorted edge order, cuts the vertices into
    W_uv = {w : d(w,u) < d(w,v)} and the rest; its class is every edge
    crossing that cut.  A vertex equidistant from u and v (g is not
    bipartite) or a crossing edge already in an earlier class rejects g
    early.  The side labeling must then reproduce all graph distances.  The
    cuts are disjoint, hence independent in the cut space, so there are at
    most V - 1 of them: O(V*E) for the cuts plus O(V^2) for the isometry
    check, on the cached distance matrix.
    """
    _require_connected(g)
    dist = g.distances()
    edges = g.edges
    classed: set[Edge] = set()
    cuts: list[tuple[Edge, ...]] = []
    masks = [0] * g.n
    for u, v in edges:
        if (u, v) in classed:
            continue
        du, dv = dist[u], dist[v]
        if any(a == b for a, b in zip(du, dv)):
            return None
        near = [a < b for a, b in zip(du, dv)]
        cut = tuple(e for e in edges if near[e[0]] != near[e[1]])
        if not classed.isdisjoint(cut):
            return None
        classed.update(cut)
        cuts.append(cut)
        masks = [(m << 1) | (side != near[0]) for m, side in zip(masks, near)]
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if (masks[i] ^ masks[j]).bit_count() != dist[i][j]:
                return None
    for i, j in edges:  # isometry forces bipartiteness; keep it checked
        if masks[i].bit_count() % 2 == masks[j].bit_count() % 2:
            raise RuntimeError("edge joins labels of equal parity")
    c = len(cuts)
    labels = {
        g.vertices[v]: format(masks[v], f"0{c}b") if c else ""
        for v in range(g.n)
    }
    return PartialCubeEmbedding(labels, tuple(cuts))


def cut_sizes(e: PartialCubeEmbedding) -> tuple[int, ...]:
    """Edge count of each cut class, in coordinate order."""
    return tuple(len(c) for c in e.cuts)


def is_antipodal(g: SimpleGraph) -> dict | None:
    """Map sending each vertex to its unique farthest vertex, if one exists.

    Every vertex must have exactly one vertex at distance diameter(g);
    otherwise the result is None.
    """
    _require_connected(g)
    dist = g.distances()
    diam = diameter(g)
    out = {}
    for i in range(g.n):
        far = [j for j in range(g.n) if dist[i][j] == diam]
        if len(far) != 1:
            return None
        out[g.vertices[i]] = g.vertices[far[0]]
    return out


def _masks_and_length(words: Iterable) -> tuple[list[int], int]:
    masks: list[int] = []
    n = -1
    for w in words:
        if isinstance(w, Word):
            for size in w.spec.sizes:
                if size != 2:
                    raise ValueError("VC dimension needs binary words")
            mask, length = w.index, w.spec.n
        else:
            text = str(w)
            if text and set(text) - {"0", "1"}:
                raise ValueError("VC dimension needs binary words")
            mask, length = int(text, 2) if text else 0, len(text)
        if n < 0:
            n = length
        elif n != length:
            raise ValueError("words must share a common length")
        masks.append(mask)
    return masks, max(n, 0)


def _largest_full_projection(masks: list[int], n: int) -> int:
    """Largest t with some t-subset of bit positions realizing all patterns.

    Sizes are tried in increasing order; shattering is monotone, so the
    search may stop at the first size with no witness.
    """
    if not masks:
        return -1
    distinct = set(masks)
    bits = [1 << b for b in range(n)]
    best = 0
    for t in range(1, n + 1):
        if len(distinct) < 1 << t or not any(
            len({m & keep for m in distinct}) == 1 << t
            for keep in map(sum, combinations(bits, t))
        ):
            break
        best = t
    return best


def vc_dimension(words) -> int:
    """Largest coordinate set shattered by the given binary words.

    Accepts Words or 0/1 strings of a common length; the empty family has
    dimension -1 by convention.
    """
    masks, n = _masks_and_length(words)
    return _largest_full_projection(masks, n)


def largest_cube_minor_dim(e: PartialCubeEmbedding) -> int:
    """Largest d such that keeping d cut coordinates and merging equal
    labels yields the full d-cube vertex set."""
    n = e.word_length
    masks = [int(lbl, 2) if lbl else 0 for lbl in e.labels.values()]
    return max(_largest_full_projection(masks, n), 0)


def degree_profile(g: SimpleGraph) -> dict[int, int]:
    """Histogram degree -> vertex count."""
    out: dict[int, int] = {}
    for d in degree_sequence(g):
        out[d] = out.get(d, 0) + 1
    return dict(sorted(out.items()))


def is_planar_quadrangulation(g: SimpleGraph) -> tuple[bool, int | None]:
    """Whether g is planar and bipartite with every face a 4-cycle.

    On success the second component is the quadrangle count |E| - |V| + 2;
    the face walk uses the certificate embedding of the planarity test,
    which is face-unique for the 2-connected graphs this is applied to.
    """
    _require_connected(g)
    if g.n < 4:
        raise ValueError("need at least 4 vertices")
    color = [-1] * g.n
    color[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if color[w] < 0:
                color[w] = 1 - color[u]
                queue.append(w)
            elif color[w] == color[u]:
                return False, None
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    ok, embedding = nx.check_planarity(nxg)
    if not ok:
        return False, None
    visited: set[tuple[int, int]] = set()
    for u, v in g.edges:
        for a, b in ((u, v), (v, u)):
            if (a, b) in visited:
                continue
            face = embedding.traverse_face(a, b, mark_half_edges=visited)
            if len(face) != 4:
                return False, None
    return True, g.m - g.n + 2
