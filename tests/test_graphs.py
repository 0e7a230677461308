import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xoverlab.graphs import (
    SimpleGraph,
    diameter,
    degree_sequence,
    hamming_graph,
    is_connected,
    word_graph,
)
from xoverlab.axioms import table_from_interval
from xoverlab.words import AlphabetSpec, Word, WordSet, hamming_distance


def bfs_distances(g):
    """All-pairs distances by a BFS from every source; -1 when unreachable.

    The literal oracle for the distance spheres of ``SimpleGraph.distances``.
    """
    rows = []
    for s in range(g.n):
        row = [-1] * g.n
        row[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if row[w] < 0:
                    row[w] = row[u] + 1
                    queue.append(w)
        rows.append(row)
    return rows


def spheres_of(row):
    """A BFS distance row read as spheres: entry r holds the vertices at
    distance r, up to the largest finite distance."""
    return tuple(
        sum(1 << z for z, d in enumerate(row) if d == r)
        for r in range(max(row) + 1)
    )


@st.composite
def connected_graphs(draw):
    """Connected graphs on at most 8 vertices: a random spanning tree plus
    extra edges, restricted to the tree's bipartition half of the time."""
    n = draw(st.integers(min_value=1, max_value=8))
    parents = [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
    depth = [0]
    for p in parents:
        depth.append(depth[p] + 1)
    bipartite = draw(st.booleans())
    pairs = [
        (i, j) for i in range(n) for j in range(i + 1, n)
        if not bipartite or (depth[i] + depth[j]) % 2
    ]
    extra = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    tree = {(p, i) for i, p in enumerate(parents, start=1)}
    return SimpleGraph(list(range(n)), tree | extra)


@st.composite
def any_graphs(draw):
    """Graphs on at most 9 vertices with an arbitrary edge set, so mostly
    disconnected ones, isolated vertices included."""
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=n)) if pairs else set()
    return SimpleGraph(list(range(n)), edges)


def seeded_graphs(seed=12, count=250):
    """A fixed sweep for the literal-oracle tests: arbitrary graphs on at
    most 10 vertices at every density (odd cycles, non-planar and
    disconnected graphs among them), then induced subgraphs of Q_d, d <= 5,
    on random vertex sets and on randomly grown connected ones (partial
    cubes, quadrangulations and bipartite graphs that are neither)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 10)
        p = rng.random()
        out.append(SimpleGraph(list(range(n)), [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        ]))
    for grow in (False, True) * (count // 2):
        d = rng.randint(1, 5)
        size = rng.randint(1, 1 << d)
        if grow:
            keep = {rng.randrange(1 << d)}
            while len(keep) < size:
                keep.add(rng.choice(sorted(keep)) ^ 1 << rng.randrange(d))
        else:
            keep = rng.sample(range(1 << d), size)
        index = {w: i for i, w in enumerate(sorted(keep))}
        out.append(SimpleGraph(sorted(keep), [
            (i, index[w | 1 << b]) for w, i in index.items()
            for b in range(d) if not w >> b & 1 and w | 1 << b in index
        ]))
    return out


def path3():
    # edges are pairs of vertex indices, payloads ride along
    return SimpleGraph(["a", "b", "c"], [(0, 1), (1, 2)])


def test_edges_normalized_and_sorted():
    g = SimpleGraph([2, 0, 1], [(1, 0), (2, 1)])
    assert g.edges == ((0, 1), (1, 2))
    assert g.vertices == (2, 0, 1)


def test_self_loop_and_duplicate_vertex_rejected():
    with pytest.raises(ValueError):
        SimpleGraph(["a"], [(0, 0)])
    with pytest.raises(ValueError):
        SimpleGraph(["a", "a"], [])


def test_distances_and_diameter():
    g = path3()
    assert g.distances() == (
        (0b001, 0b010, 0b100), (0b010, 0b101), (0b100, 0b010, 0b001))
    assert diameter(g) == 2


def test_disconnected():
    g = SimpleGraph([0, 1, 2], [(0, 1)])
    assert not is_connected(g)
    assert g.distances() == ((0b001, 0b010), (0b010, 0b001), (0b100,))
    # vertex 2 lies in no sphere of vertex 0
    assert not any(sphere >> 2 & 1 for sphere in g.distances()[0])
    with pytest.raises(ValueError):
        diameter(g)


@settings(max_examples=150, deadline=None)
@given(st.one_of(connected_graphs(), any_graphs()))
def test_spheres_equal_the_bfs(g):
    assert g.distances() == tuple(map(spheres_of, bfs_distances(g)))
    assert is_connected(g) == all(d >= 0 for d in bfs_distances(g)[0])
    if is_connected(g):
        assert diameter(g) == max(map(max, bfs_distances(g)))


def test_spheres_equal_the_bfs_on_the_seeded_sweep():
    for g in seeded_graphs():
        assert g.distances() == tuple(map(spheres_of, bfs_distances(g)))


def test_degree_sequence():
    g = SimpleGraph(range(4), [(0, 1), (0, 2), (0, 3)])
    assert degree_sequence(g) == (3, 1, 1, 1)


def test_geodesic_interval_on_cycle():
    # C_4: both shortest paths between opposite corners
    g = SimpleGraph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    table = table_from_interval(g)
    assert table.entry_indices(0, 2) == {0, 1, 2, 3}
    assert table.entry_indices(0, 1) == {0, 1}


def test_hamming_graph_cube():
    spec = AlphabetSpec((2, 2, 2))
    g = hamming_graph(spec)
    assert g.n == 8 and g.m == 12
    assert degree_sequence(g) == (3,) * 8
    assert diameter(g) == 3


def test_hamming_graph_mixed():
    spec = AlphabetSpec((2, 3))
    g = hamming_graph(spec)
    # K_2 x K_3 cartesian product: 6 vertices, degree 1+2
    assert g.n == 6 and g.m == 9
    assert degree_sequence(g) == (3,) * 6


def induced(g, payloads):
    """Subgraph of g induced on the given vertex payloads, in g's order."""
    keep = sorted(g.index_of(p) for p in payloads)
    new = {old: i for i, old in enumerate(keep)}
    edges = [(new[i], new[j]) for i, j in g.edges if i in new and j in new]
    return SimpleGraph([g.vertices[i] for i in keep], edges)


def test_word_graph_matches_induced_subgraph():
    spec = AlphabetSpec((2, 2, 2))
    words = WordSet([Word.parse(t, spec) for t in ("000", "001", "011", "111")])
    direct = word_graph(words)
    ambient = induced(hamming_graph(spec), words.members)
    assert direct.vertices == ambient.vertices
    assert direct.edges == ambient.edges
    for u, v in direct.edges:
        assert hamming_distance(direct.vertices[u], direct.vertices[v]) == 1
