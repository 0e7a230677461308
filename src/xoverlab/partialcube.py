"""Partial-cube recognition and the structure statistics built on it.

Recognition uses distance half-spaces (Djokovic 1973, Winkler 1984; see
Eppstein, "Recognizing partial cubes in quadratic time", JGAA 2011, sec. 2).
For an edge uv, W_uv is the set of vertices closer to u than to v; in a
partial cube the edges crossing W_uv form one cut class, and the classes
partition the edges.  Each edge's half-space is a union of intersections of
the graph's distance spheres, so recognition costs O(diam * E) bitmask
operations plus O(V * E) for the cuts, with no scan over vertex pairs.
Everything downstream (cut sizes, antipodal maps, VC dimension, cube minors,
quadrangulation statistics) consumes the graph or the returned embedding.

Vertex labels are plain 0/1 strings, one coordinate per cut class, so empty
labelings (single-vertex graphs) stay representable.  Class order, and hence
coordinate order, is fixed by the smallest edge in each class; the side of a
cut containing vertex index 0 is labeled 0.  All outputs are therefore
reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import and_, or_
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

    Half-space method (Djokovic 1973, Winkler 1984) on every edge uv in
    sorted order.  With S the spheres, W_uv = U_r S_u[r] & S_v[r+1] holds the
    vertices closer to u, and a nonempty tie set U_r S_u[r] & S_v[r] (g is
    not bipartite) rejects g.  The first edge with no class defines one: its
    side is W_uv and its cut every edge crossing W_uv, which must not meet
    an earlier class.  Every later edge of a class must have W_uv equal to
    the class side or its complement.  The disjoint cuts cover the edges, so
    each edge flips one label bit, and the labels are isometric exactly when
    every W_uv is a class side: a step away from any vertex flips a bit on
    which the nearer endpoint agrees with it, and conversely.  The cuts are
    independent in the cut space, so there are at most V - 1 of them.
    """
    _require_connected(g)
    spheres = g.distances()
    edges = g.edges
    full = (1 << g.n) - 1
    class_of: dict[Edge, int] = {}
    sides: list[int] = []
    cuts: list[tuple[Edge, ...]] = []
    for u, v in edges:
        su, sv = spheres[u], spheres[v]
        if reduce(or_, map(and_, su, sv), 0):
            return None
        near = reduce(or_, map(and_, su, sv[1:]), 0)
        c = class_of.get((u, v))
        if c is None:
            cut = tuple(e for e in edges if (near >> e[0] ^ near >> e[1]) & 1)
            if any(e in class_of for e in cut):
                return None
            class_of.update(dict.fromkeys(cut, len(cuts)))
            sides.append(full ^ near if near & 1 else near)
            cuts.append(cut)
        elif near != sides[c] and near != full ^ sides[c]:
            return None
    labels = {
        x: "".join("1" if side >> i & 1 else "0" for side in sides)
        for i, x in enumerate(g.vertices)
    }
    return PartialCubeEmbedding(labels, tuple(cuts))


def cut_sizes(e: PartialCubeEmbedding) -> tuple[int, ...]:
    """Edge count of each cut class, in coordinate order."""
    return tuple(len(c) for c in e.cuts)


def is_antipodal(g: SimpleGraph) -> dict | None:
    """Map sending each vertex to its unique farthest vertex, if one exists.

    Every vertex's sphere at radius diameter(g) must hold exactly one
    vertex; otherwise the result is None.
    """
    _require_connected(g)
    diam = diameter(g)
    out = {}
    for x, row in zip(g.vertices, g.distances()):
        far = row[diam] if len(row) > diam else 0
        if far.bit_count() != 1:
            return None
        out[x] = g.vertices[far.bit_length() - 1]
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

    On success the second component is the quadrangle count |E| - |V| + 2.
    Bipartiteness is read off the parity of vertex 0's distance spheres.  In
    a connected planar bipartite graph on n >= 4 vertices every face walk
    has length at least 4, so Euler's formula with 2|E| >= 4|F| gives
    |E| <= 2n - 4, with equality exactly when every face is a 4-cycle (only
    the 3-vertex path has a length-4 face walk that is no cycle).  That
    holds in every embedding, so the edge count is tested before planarity.
    """
    _require_connected(g)
    if g.n < 4:
        raise ValueError("need at least 4 vertices")
    odd = reduce(or_, g.distances()[0][1::2], 0)
    if any(not (odd >> u ^ odd >> v) & 1 for u, v in g.edges):
        return False, None
    if g.m != 2 * g.n - 4:
        return False, None
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    if not nx.check_planarity(nxg)[0]:
        return False, None
    return True, g.m - g.n + 2
