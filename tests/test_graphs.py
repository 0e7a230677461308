import pytest

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
    d = g.distances()
    assert d[0][2] == 2
    assert diameter(g) == 2


def test_disconnected():
    g = SimpleGraph([0, 1, 2], [(0, 1)])
    assert not is_connected(g)
    assert g.distances()[0][2] == -1
    with pytest.raises(ValueError):
        diameter(g)


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
