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

The VC dimension of words, cut labels and topes is one depth-first search of
the shattered position sets, plus each one's failed one-position extensions;
it is LOGNP-complete in general (Papadimitriou and Yannakakis, JCSS 53, 1996).

Planarity, asked only of quadrangulation candidates, is the path embedding
of Demoucron, Malgrange and Pertuiset (1964; Gibbons, "Algorithmic Graph
Theory", 1985, sec. 5.4) on neighbour bitmasks.  Bridges and faces are
vertex masks, a round costs O(V + E) bitmask operations and there are at
most E - V + 1 rounds, so a candidate (E = 2V - 4) costs O(V * (V + E)).
The library needs no graph package; networkx is used by the tests only, as
the planarity oracle.

Vertex labels are bitmasks by vertex index, one bit per cut class, cut 1
the most significant as in packed binary words, so a single-vertex graph has
the label 0 over no cuts.  Class order, and hence coordinate order, is fixed
by the smallest edge in each class; the side of a cut containing vertex
index 0 is labeled 0.  All outputs are therefore reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import and_, or_, xor
from typing import Iterable

from .graphs import SimpleGraph, _bits, _low, diameter, is_connected
from .words import Word

Edge = tuple[int, int]


def _require_connected(g: SimpleGraph) -> None:
    if not is_connected(g):
        raise ValueError("graph must be connected")


@dataclass(frozen=True)
class PartialCubeEmbedding:
    """Isometric binary labeling of a graph together with its cut classes.

    labels[v] is vertex v's label, a mask over the cuts whose bit for cut i
    (1-based, cut 1 the most significant) says on which side of it v lies,
    so ``f"{labels[v]:0{word_length}b}"`` spells it; cuts lists the edge
    classes in the same coordinate order.
    """

    labels: tuple[int, ...]
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
    labels = [0] * g.n
    for c, side in enumerate(reversed(sides)):
        for v in _bits(side):
            labels[v] |= 1 << c
    return PartialCubeEmbedding(tuple(labels), tuple(cuts))


def cut_sizes(e: PartialCubeEmbedding) -> tuple[int, ...]:
    """Edge count of each cut class, in coordinate order."""
    return tuple(len(c) for c in e.cuts)


def is_antipodal(g: SimpleGraph) -> tuple[int, ...] | None:
    """Index of each vertex's unique farthest vertex, by vertex index.

    Every vertex's sphere at radius diameter(g) must hold exactly one
    vertex; otherwise the result is None.
    """
    _require_connected(g)
    diam = diameter(g)
    out = []
    for row in g.distances():
        far = row[diam] if len(row) > diam else 0
        if far.bit_count() != 1:
            return None
        out.append(far.bit_length() - 1)
    return tuple(out)


def _largest_full_projection(masks: Iterable[int], n: int) -> int:
    """Size of the largest bit-position set that the masks shatter, or -1.

    A shattered S keeps its 2^|S| projection classes as member bitmasks;
    S + b, b after S, is shattered when column b splits every class.  Constant
    columns and repeats of a column or its complement add no shattered pair
    and are dropped.  A branch stops when 2^(|S|+1) exceeds the member count
    or the columns left cannot beat the best size found.
    """
    members = set(masks)
    if not members:
        return -1
    full = (1 << len(members)) - 1
    rows = "".join(map(format, members, repeat(f"0{n}b")))
    cols = sorted({min(c, full ^ c) for c in (int(rows[b::n], 2) for b in range(n))} - {0})
    cap = len(members).bit_length() - 1
    best = 0

    def extend(classes: list[int], start: int, size: int) -> None:
        nonlocal best
        best = max(best, size)
        for j in range(start, len(cols)):
            if size == cap or size + len(cols) - j <= best:
                return
            lo = list(map(and_, classes, repeat(cols[j])))
            if 0 not in lo:
                hi = list(map(xor, classes, lo))
                if 0 not in hi:
                    extend(lo + hi, j + 1, size + 1)

    extend([full], 0, 0)
    return best


def vc_dimension(words: Iterable[Word]) -> int:
    """Largest coordinate set shattered by the given binary words.

    Takes ``Word``s over one binary alphabet, read as their packed indices;
    anything else, such as a 0/1 string, raises ``ValueError``.  The empty
    family has dimension -1 by convention.  The search costs each shattered set
    it visits plus that set's failed one-position extensions.
    """
    words = list(words)
    if not all(isinstance(w, Word) and w.spec.is_binary for w in words):
        raise ValueError("VC dimension needs binary words")
    lengths = {w.spec.n for w in words}
    if len(lengths) > 1:
        raise ValueError("words must share a common length")
    return _largest_full_projection([w.index for w in words], max(lengths, default=0))


def largest_cube_minor_dim(e: PartialCubeEmbedding) -> int:
    """Largest d such that keeping d cut coordinates and merging equal
    labels yields the full d-cube vertex set."""
    return max(_largest_full_projection(e.labels, e.word_length), 0)


def degree_profile(g: SimpleGraph) -> dict[int, int]:
    """Histogram degree -> vertex count."""
    out: dict[int, int] = {}
    for v in range(g.n):
        d = g.degree(v)
        out[d] = out.get(d, 0) + 1
    return dict(sorted(out.items()))


def _route(adj: list[int], start: int, inner: int, targets: int) -> list[int]:
    """Shortest path from start through the vertices of inner to the first
    vertex met in targets (breadth first, lowest indices first)."""
    parent = {start: -1}
    frontier = seen = 1 << start
    while frontier:
        grown = 0
        for v in _bits(frontier):
            hit = adj[v] & targets
            if hit:
                path = [_low(hit)]
                while v >= 0:
                    path.append(v)
                    v = parent[v]
                return path[::-1]
            new = adj[v] & inner & ~seen
            seen |= new
            grown |= new
            parent.update(dict.fromkeys(_bits(new), v))
        frontier = grown
    raise RuntimeError("no path between the attachments")


def _planar_block(adj: list[int]) -> bool:
    """Whether the connected graph with neighbour masks adj (n >= 3) is a
    planar block: planar, and 2-connected (no cut vertex).

    Demoucron, Malgrange and Pertuiset's path embedding (1964; Gibbons,
    Algorithmic Graph Theory, 1985, sec. 5.4).  The embedded subgraph H
    starts as the edge from vertex 0 to its first neighbour, with one face.
    A bridge of H is a chord between embedded vertices or a component of
    G - H with its attachment mask; it fits the faces whose boundary holds
    all its attachments.  Each round a bridge that fits no face makes G
    non-planar, and a component with one attachment hangs on a cut vertex.
    Otherwise a bridge that fits exactly one face, else any bridge, has a
    path between two of its attachments routed through a face it fits,
    which splits in two; so H stays 2-connected and every face a cycle.  G
    passes when no bridge is left.  Only the routed bridge changes: its
    remainder yields the new chords and components, and only the bridges
    that fitted the split face are fitted again.
    """
    a = _low(adj[0])
    faces = [[0, a]]
    on = [0] * len(adj)
    on[0] = on[a] = 1
    bridges: list[list[int]] = []  # [attachments, component or 0, faces]
    path, placed, fresh, f = [0, a], 1 | 1 << a, 0, 0
    rest = ((1 << len(adj)) - 1) ^ placed
    while True:
        # new chords start at the last path's inner vertices, the only new
        # ones; a chord joining two of them is listed from its lower end
        for before, u, after in zip(path, path[1:], path[2:]):
            ends = adj[u] & placed & ~(1 << before | 1 << after)
            ends &= ~(fresh & ((2 << u) - 1))
            bridges += ([1 << u | 1 << w, 0, 0] for w in _bits(ends))
        while rest:
            comp = frontier = rest & -rest
            reach = 0
            while frontier:
                for v in _bits(frontier):
                    reach |= adj[v]
                frontier = reach & rest & ~comp
                comp |= frontier
            att = reach & placed
            if att & (att - 1) == 0:
                return False
            bridges.append([att, comp, 0])
            rest ^= comp
        for bridge in bridges:
            if not bridge[2] or bridge[2] >> f & 1:
                bridge[2] = reduce(and_, map(on.__getitem__, _bits(bridge[0])),
                                   (1 << len(faces)) - 1)
                if not bridge[2]:
                    return False
        if not bridges:
            return True
        pick = next((br for br in bridges if br[2] & (br[2] - 1) == 0), bridges[0])
        bridges.remove(pick)
        att, comp, fit = pick
        x = _low(att)
        if comp:
            path = [x] + _route(adj, _low(adj[x] & comp), comp, att ^ 1 << x)
        else:
            path = [x, att.bit_length() - 1]
        fresh = sum(1 << v for v in path[1:-1])
        placed |= fresh
        rest = comp & ~placed
        f, new = _low(fit), len(faces)
        boundary = faces[f]
        i = boundary.index(x)
        turned = boundary[i:] + boundary[:i]
        k = turned.index(path[-1])
        faces[f] = turned[:k + 1] + path[-2:0:-1]
        faces.append(turned[k:] + path[:-1])
        for v in turned[k + 1:]:
            on[v] ^= 1 << f | 1 << new
        for v in path:
            on[v] |= 1 << f | 1 << new


def is_planar_quadrangulation(g: SimpleGraph) -> tuple[bool, int | None]:
    """Whether g is planar and bipartite with every face a 4-cycle.

    On success the second component is the quadrangle count |E| - |V| + 2.
    Bipartiteness is read off the parity of vertex 0's distance spheres.  In
    a connected planar bipartite graph on n >= 4 vertices every face walk
    has length at least 4, so Euler's formula with 2|E| >= 4|F| gives
    |E| <= 2n - 4, with equality exactly when every face is a 4-cycle (only
    the 3-vertex path has a length-4 face walk that is no cycle).  That
    holds in every embedding, so the edge count is tested before planarity.
    A cut vertex would lie twice on some face walk, so a quadrangulation is
    2-connected, and the remaining test is whether g is a planar block: the
    bridge/face rounds of _planar_block, which also reject a cut vertex.
    """
    _require_connected(g)
    if g.n < 4:
        raise ValueError("need at least 4 vertices")
    odd = reduce(or_, g.distances()[0][1::2], 0)
    if any(not (odd >> u ^ odd >> v) & 1 for u, v in g.edges):
        return False, None
    if g.m != 2 * g.n - 4 or not _planar_block([row[1] for row in g.distances()]):
        return False, None
    return True, g.m - g.n + 2
