"""Partial-cube pipeline tests.

All numeric expectations below (cut sizes, quadrangle counts, degree
histograms, VC dimensions) were computed independently by brute force before
being frozen here.
"""

import random
from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_graphs import bfs_distances, connected_graphs, seeded_graphs
from xoverlab import AlphabetSpec, Word, rset
from xoverlab.crossover import transit_graph
from xoverlab.graphs import SimpleGraph, hamming_graph, is_connected
from xoverlab.partialcube import (
    PartialCubeEmbedding,
    _require_connected,
    cut_sizes,
    degree_profile,
    is_antipodal,
    is_partial_cube,
    is_planar_quadrangulation,
    largest_cube_minor_dim,
    vc_dimension,
)

B3 = AlphabetSpec.parse("2^3")
B4 = AlphabetSpec.parse("2^4")
B5 = AlphabetSpec.parse("2^5")


def cyc(m):
    return SimpleGraph(list(range(m)), [(i, (i + 1) % m) for i in range(m)])


def k23():
    return SimpleGraph(list(range(5)), [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])


def rgraph(k, n):
    spec = AlphabetSpec.parse(f"2^{n}")
    return transit_graph(k, Word.parse("0" * n, spec), Word.parse("1" * n, spec))


def label_masks(emb):
    return {v: int(lbl, 2) if lbl else 0 for v, lbl in emb.labels.items()}


# Literal oracle: the edge parallelism relation built pair by pair (O(E^2)),
# its connected components as classes, and each class split off by removing
# it and searching the rest.  is_partial_cube must agree with it exactly.

Edge = tuple[int, int]


@dataclass(frozen=True)
class ParallelRelation:
    """Edge parallelism: uv is related to xy when each edge's endpoints lie
    in the geodesic interval spanned by the other's.

    Reflexive and symmetric by construction.  Transitivity is a property of
    the input graph, not of this container, so it is exposed as a query.
    """

    edges: tuple[Edge, ...]
    relation: frozenset[tuple[Edge, Edge]]

    def related(self, e: Edge, f: Edge) -> bool:
        return (e, f) in self.relation if e <= f else (f, e) in self.relation

    def classes(self) -> list[list[Edge]]:
        """Connected components of the relation, ordered by smallest edge."""
        comp: dict[Edge, int] = {}
        order: list[list[Edge]] = []
        for e in self.edges:
            if e in comp:
                continue
            comp[e] = len(order)
            bucket = [e]
            queue = deque([e])
            while queue:
                cur = queue.popleft()
                for f in self.edges:
                    if f not in comp and self.related(cur, f):
                        comp[f] = comp[e]
                        bucket.append(f)
                        queue.append(f)
            order.append(sorted(bucket))
        return order

    def is_transitive(self) -> bool:
        for bucket in self.classes():
            for e, f in combinations(bucket, 2):
                if not self.related(e, f):
                    return False
        return True


def parallel_relation(g: SimpleGraph) -> ParallelRelation:
    _require_connected(g)
    dist = bfs_distances(g)

    def between(z: int, a: int, b: int) -> bool:
        return dist[a][z] + dist[z][b] == dist[a][b]

    def oriented(u: int, v: int, x: int, y: int) -> bool:
        return (
            between(v, u, y)
            and between(x, u, y)
            and between(u, v, x)
            and between(y, v, x)
        )

    pairs: set[tuple[Edge, Edge]] = set()
    edges = g.edges
    for a in range(len(edges)):
        u, v = edges[a]
        for b in range(a, len(edges)):
            x, y = edges[b]
            if oriented(u, v, x, y) or oriented(u, v, y, x):
                pairs.add((edges[a], edges[b]))
    return ParallelRelation(edges, frozenset(pairs))


def _split_sides(g: SimpleGraph, removed: frozenset[Edge]) -> list[set[int]]:
    seen = [False] * g.n
    parts: list[set[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        part = {s}
        seen[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                e = (u, w) if u < w else (w, u)
                if e in removed or seen[w]:
                    continue
                seen[w] = True
                part.add(w)
                queue.append(w)
        parts.append(part)
    return parts


def literal_is_partial_cube(g: SimpleGraph) -> PartialCubeEmbedding | None:
    """Embedding of g into a hypercube, or None when g is not a partial cube.

    The parallelism relation must be transitive, every class must be a cut
    whose removal leaves exactly two components, and the induced side
    labeling must reproduce all graph distances.
    """
    _require_connected(g)
    rel = parallel_relation(g)
    if not rel.is_transitive():
        return None
    classes = rel.classes()
    masks = [0] * g.n
    for c, bucket in enumerate(classes):
        parts = _split_sides(g, frozenset(bucket))
        if len(parts) != 2:
            return None
        one = parts[0] if 0 not in parts[0] else parts[1]
        for v in one:
            masks[v] |= 1 << (len(classes) - 1 - c)
    dist = bfs_distances(g)
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if (masks[i] ^ masks[j]).bit_count() != dist[i][j]:
                return None
    for i, j in g.edges:  # isometry forces bipartiteness; keep it checked
        if masks[i].bit_count() % 2 == masks[j].bit_count() % 2:
            raise RuntimeError("edge joins labels of equal parity")
    c = len(classes)
    labels = {
        g.vertices[v]: format(masks[v], f"0{c}b") if c else ""
        for v in range(g.n)
    }
    return PartialCubeEmbedding(labels, tuple(tuple(b) for b in classes))


class TestParallelRelation:
    def test_c4_opposite_edges(self):
        rel = parallel_relation(cyc(4))
        distinct = sorted((e, f) for (e, f) in rel.relation if e != f)
        assert distinct == [((0, 1), (2, 3)), ((0, 3), (1, 2))]

    def test_k3_only_reflexive(self):
        g = SimpleGraph([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
        rel = parallel_relation(g)
        assert all(e == f for (e, f) in rel.relation)
        assert all(rel.related(e, e) for e in rel.edges)

    def test_related_ignores_argument_order(self):
        rel = parallel_relation(cyc(4))
        assert rel.related((2, 3), (0, 1))
        assert not rel.related((0, 1), (1, 2))

    def test_classes_order_and_content(self):
        rel = parallel_relation(cyc(4))
        assert rel.classes() == [[(0, 1), (2, 3)], [(0, 3), (1, 2)]]
        assert rel.is_transitive()

    def test_disconnected_rejected(self):
        g = SimpleGraph([0, 1, 2, 3], [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            parallel_relation(g)


class TestIsPartialCube:
    def test_c6_embeds_with_three_cuts(self):
        emb = is_partial_cube(cyc(6))
        assert emb is not None
        assert emb.word_length == 3
        assert cut_sizes(emb) == (2, 2, 2)

    def test_c5_rejected_by_cut_splitting(self):
        # the relation on an odd cycle is trivially transitive (all classes
        # singletons); the oracle's rejection must come from the
        # two-components condition
        assert parallel_relation(cyc(5)).is_transitive()
        assert literal_is_partial_cube(cyc(5)) is None
        assert is_partial_cube(cyc(5)) is None

    def test_k23_rejected_by_intransitivity(self):
        assert not parallel_relation(k23()).is_transitive()
        assert literal_is_partial_cube(k23()) is None
        assert is_partial_cube(k23()) is None

    def test_k4_rejected(self):
        g = SimpleGraph(list(range(4)), [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert is_partial_cube(g) is None

    def test_path_is_a_partial_cube(self):
        g = SimpleGraph(list(range(4)), [(0, 1), (1, 2), (2, 3)])
        emb = is_partial_cube(g)
        assert emb is not None
        assert cut_sizes(emb) == (1, 1, 1)

    def test_single_vertex(self):
        emb = is_partial_cube(SimpleGraph(["x"], []))
        assert emb is not None
        assert emb.word_length == 0
        assert emb.labels["x"] == ""

    def test_hypercube_embeds_onto_itself(self):
        emb = is_partial_cube(hamming_graph(B3))
        assert emb is not None
        assert emb.word_length == 3
        assert sorted(emb.labels.values()) == sorted(
            format(i, "03b") for i in range(8)
        )

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=2, max_value=8))
    def test_even_cycles_embed(self, t):
        emb = is_partial_cube(cyc(2 * t))
        assert emb is not None
        assert emb.word_length == t
        assert cut_sizes(emb) == (2,) * t

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=1, max_value=3))
    def test_odd_cycles_rejected(self, t):
        assert is_partial_cube(cyc(2 * t + 1)) is None

    def test_rset_graphs_embed(self):
        for n in range(2, 6):
            for k in range(1, n):
                emb = is_partial_cube(rgraph(k, n))
                assert emb is not None, (k, n)

    def test_embedding_is_isometric(self):
        for g in (cyc(8), rgraph(2, 4), rgraph(3, 5), hamming_graph(B3)):
            emb = is_partial_cube(g)
            masks = label_masks(emb)
            dist = bfs_distances(g)
            for i in range(g.n):
                for j in range(g.n):
                    lhs = (masks[g.vertices[i]] ^ masks[g.vertices[j]]).bit_count()
                    assert lhs == dist[i][j]

    def test_labels_start_at_zero_vertex(self):
        # the side of every cut containing vertex index 0 is the 0 side
        for g in (cyc(6), rgraph(2, 4)):
            emb = is_partial_cube(g)
            assert emb.labels[g.vertices[0]] == "0" * emb.word_length

    def test_c4_labels(self):
        emb = is_partial_cube(cyc(4))
        assert emb.labels == {0: "00", 1: "10", 2: "11", 3: "01"}


def assert_matches_oracle(g):
    """is_partial_cube equals the literal oracle: verdict, labels, cuts."""
    fast, lit = is_partial_cube(g), literal_is_partial_cube(g)
    assert (fast is None) == (lit is None), g.edges
    if fast is not None:
        assert list(fast.labels.items()) == list(lit.labels.items())
        assert fast.cuts == lit.cuts
    return fast


def is_bipartite(g):
    # connected g: bipartite iff no edge joins two vertices of one BFS layer
    d0 = bfs_distances(g)[0]
    return all((d0[i] + d0[j]) % 2 for i, j in g.edges)


class TestAgainstLiteralOracle:
    @pytest.mark.parametrize("d", range(1, 8))
    def test_rset_graphs(self, d):
        for k in range(1, 7):
            assert assert_matches_oracle(rgraph(k, d)) is not None, (k, d)

    def test_cycles(self):
        for m in range(3, 10):
            emb = assert_matches_oracle(cyc(m))
            assert (emb is not None) == (m % 2 == 0), m

    def test_small_negatives_and_cube(self):
        k4 = SimpleGraph(list(range(4)), [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert assert_matches_oracle(k23()) is None
        assert assert_matches_oracle(k4) is None
        assert assert_matches_oracle(hamming_graph(B3)) is not None

    def test_every_connected_graph_on_five_vertices(self):
        # all labeled graphs on up to 5 vertices, so every kind of verdict
        # occurs: odd cycles, bipartite non-partial cubes, partial cubes
        kinds = {"odd": 0, "bipartite": 0, "cube": 0}
        for n in range(1, 6):
            pairs = list(combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
                g = SimpleGraph(list(range(n)), edges)
                if not is_connected(g):
                    continue
                emb = assert_matches_oracle(g)
                if emb is not None:
                    kinds["cube"] += 1
                elif is_bipartite(g):
                    kinds["bipartite"] += 1
                else:
                    kinds["odd"] += 1
        assert min(kinds.values()) > 0, kinds

    @settings(max_examples=200, deadline=None)
    @given(connected_graphs())
    def test_random_connected_graphs(self, g):
        assert_matches_oracle(g)

    def test_r4_d10_representative(self):
        # V = 512, E = 1,860; the oracle takes seconds here, so only the
        # shape is pinned
        g = rgraph(4, 10)
        assert (g.n, g.m) == (512, 1860)
        emb = is_partial_cube(g)
        assert emb.word_length == 10
        assert cut_sizes(emb) == (186,) * 10
        assert len(set(emb.labels.values())) == 512


class TestSeededSweepAgainstLiteralOracles:
    """Every graph question read off the distance spheres equals its literal
    oracle on the seeded sweep; disconnected graphs are refused by both."""

    def test_partial_cube_antipodes_and_quadrangulation(self):
        kinds = Counter()
        for g in seeded_graphs():
            if not is_connected(g):
                kinds["disconnected"] += 1
                for fn in (is_partial_cube, literal_is_partial_cube,
                           is_antipodal, literal_is_antipodal,
                           is_planar_quadrangulation,
                           literal_is_planar_quadrangulation):
                    with pytest.raises(ValueError, match="connected"):
                        fn(g)
                continue
            emb = assert_matches_oracle(g)
            kinds["partial cube" if emb else
                  "bipartite" if is_bipartite(g) else "odd"] += 1
            anti = is_antipodal(g)
            assert anti == literal_is_antipodal(g), g.edges
            kinds["antipodal"] += anti is not None
            kinds["non-planar"] += not nx.check_planarity(nx_graph(g))[0]
            if g.n >= 4:
                quad = is_planar_quadrangulation(g)
                assert quad == literal_is_planar_quadrangulation(g), g.edges
                kinds["quadrangulation"] += quad[0]
        assert len(kinds) == 7 and min(kinds.values()) > 0, kinds


class TestCutSizes:
    def test_r2_cut_sizes(self):
        assert cut_sizes(is_partial_cube(rgraph(2, 4))) == (6, 6, 6, 6)
        assert cut_sizes(is_partial_cube(rgraph(2, 5))) == (8, 8, 8, 8, 8)

    def test_cycle_cut_sizes(self):
        assert cut_sizes(is_partial_cube(cyc(8))) == (2, 2, 2, 2)


def literal_is_antipodal(g):
    """The antipodal map by a scan of every pair of BFS distances."""
    _require_connected(g)
    dist = bfs_distances(g)
    diam = max(map(max, dist))
    out = {}
    for i in range(g.n):
        far = [j for j in range(g.n) if dist[i][j] == diam]
        if len(far) != 1:
            return None
        out[g.vertices[i]] = g.vertices[far[0]]
    return out


class TestAntipodal:
    def test_cube_map_is_complementation(self):
        g = hamming_graph(B3)
        anti = is_antipodal(g)
        assert anti is not None
        for w in B3.iter_words():
            assert anti[w].index == w.index ^ 0b111

    def test_rset_graph_map_is_interval_complement(self):
        for k, n in ((1, 4), (2, 4), (2, 5), (3, 5)):
            g = rgraph(k, n)
            anti = is_antipodal(g)
            assert anti is not None, (k, n)
            full = (1 << n) - 1
            for w, wbar in anti.items():
                assert wbar.index == w.index ^ full

    def test_specific_pairing(self):
        anti = is_antipodal(rgraph(2, 4))
        assert str(anti[Word.parse("0110", B4)]) == "1001"

    def test_path_not_antipodal(self):
        assert is_antipodal(SimpleGraph([0, 1, 2], [(0, 1), (1, 2)])) is None

    def test_star_not_antipodal(self):
        g = SimpleGraph(list(range(4)), [(0, 1), (0, 2), (0, 3)])
        assert is_antipodal(g) is None

    def test_even_cycle_opposite_vertices(self):
        anti = is_antipodal(cyc(6))
        assert anti == {i: (i + 3) % 6 for i in range(6)}

    def test_single_vertex_is_its_own_antipode(self):
        assert is_antipodal(SimpleGraph(["v"], [])) == {"v": "v"}

    @settings(max_examples=200, deadline=None)
    @given(connected_graphs())
    def test_random_connected_graphs(self, g):
        assert is_antipodal(g) == literal_is_antipodal(g)


class TestVcDimension:
    def test_spec_values(self):
        r25 = rset(2, Word.parse("00000", B5), Word.parse("11111", B5))
        assert vc_dimension(r25.members) == 3
        assert vc_dimension(list(B3.iter_words())) == 3
        r14 = rset(1, Word.parse("0000", B4), Word.parse("1111", B4))
        assert vc_dimension(r14.members) == 2

    def test_empty_family(self):
        assert vc_dimension([]) == -1

    def test_string_input(self):
        assert vc_dimension(["00", "01", "10", "11"]) == 2
        assert vc_dimension(["000", "011", "101", "110"]) == 2

    def test_singleton(self):
        assert vc_dimension(["0101"]) == 0

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="binary"):
            vc_dimension(["012"])
        ternary = AlphabetSpec.parse("3,3")
        with pytest.raises(ValueError, match="binary"):
            vc_dimension([Word.parse("02", ternary)])

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError, match="common length"):
            vc_dimension(["00", "111"])

    def test_rset_formula_small_sweep(self):
        # dimension min(k+1, d) for crossover sets, exhaustive over d at n=5
        for n in range(1, 6):
            spec = AlphabetSpec.parse(f"2^{n}")
            zero = Word.parse("0" * n, spec)
            for d in range(n + 1):
                y = Word.from_index((1 << d) - 1, spec)
                for k in range(1, 5):
                    got = vc_dimension(rset(k, zero, y).members)
                    assert got == min(k + 1, d), (n, d, k)


def literal_vc_dimension(words):
    """Largest t with some t-set of positions whose tuple projections of
    the words take all 2^t values, trying every size; -1 when empty."""
    words = [str(w) for w in words]
    if not words:
        return -1
    n = len(words[0])
    return max(
        t
        for t in range(n + 1)
        for positions in combinations(range(n), t)
        if len({tuple(w[p] for p in positions) for w in words}) == 1 << t
    )


class TestVcDimensionAgainstLiteral:
    def test_random_binary_families(self):
        rng = random.Random(2024)
        dims = Counter()
        for _ in range(300):
            n = rng.randint(1, 8)
            size = rng.randint(1, min(1 << n, rng.choice((4, 16, 64, 256))))
            family = [format(m, f"0{n}b") for m in rng.sample(range(1 << n), size)]
            want = literal_vc_dimension(family)
            assert vc_dimension(family) == want, family
            dims[want] += 1
        assert len(dims) >= 5  # the sample spans many dimensions


class TestCubeMinor:
    def test_spec_values(self):
        assert largest_cube_minor_dim(is_partial_cube(rgraph(2, 5))) == 3
        assert largest_cube_minor_dim(is_partial_cube(cyc(8))) == 2
        assert largest_cube_minor_dim(is_partial_cube(hamming_graph(B3))) == 3

    def test_single_vertex(self):
        assert largest_cube_minor_dim(is_partial_cube(SimpleGraph(["v"], []))) == 0

    def test_agrees_with_vc_of_labels(self):
        for g in (cyc(6), cyc(10), rgraph(1, 4), rgraph(2, 4), rgraph(3, 6)):
            emb = is_partial_cube(g)
            assert largest_cube_minor_dim(emb) == vc_dimension(emb.labels.values())

    def test_agrees_with_vc_of_members(self):
        for k, n in ((1, 3), (1, 5), (2, 4), (2, 6), (3, 5)):
            spec = AlphabetSpec.parse(f"2^{n}")
            r = rset(k, Word.parse("0" * n, spec), Word.parse("1" * n, spec))
            emb = is_partial_cube(transit_graph(k, r.parents[0], r.parents[1]))
            assert largest_cube_minor_dim(emb) == vc_dimension(r.members), (k, n)


class TestDegrees:
    def test_r2_profiles(self):
        assert degree_profile(rgraph(2, 4)) == {3: 8, 4: 6}
        assert degree_profile(rgraph(2, 5)) == {3: 10, 4: 10, 5: 2}

    def test_r1_graphs_are_cycles(self):
        assert degree_profile(rgraph(1, 4)) == {2: 8}
        assert degree_profile(rgraph(1, 6)) == {2: 12}

    def test_min_max_above_threshold(self):
        # min degree k+1 and max degree n for antipodal pairs with
        # k > 1 and n > k+1 (one-point graphs are 2-regular cycles)
        for k, n in ((2, 4), (2, 5), (3, 6), (4, 7)):
            degrees = degree_profile(rgraph(k, n))
            assert (min(degrees), max(degrees)) == (k + 1, n), (k, n)


def nx_graph(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


def literal_is_planar_quadrangulation(g):
    """Bipartite by BFS layers, planar, and every face of the planarity
    certificate's embedding a walk of length 4."""
    _require_connected(g)
    if g.n < 4:
        raise ValueError("need at least 4 vertices")
    if not is_bipartite(g):
        return False, None
    ok, embedding = nx.check_planarity(nx_graph(g))
    if not ok:
        return False, None
    visited = set()
    for u, v in g.edges:
        for a, b in ((u, v), (v, u)):
            if (a, b) in visited:
                continue
            face = embedding.traverse_face(a, b, mark_half_edges=visited)
            if len(face) != 4:
                return False, None
    return True, g.m - g.n + 2


def grid(rows, cols):
    return SimpleGraph(
        [(r, c) for r in range(rows) for c in range(cols)],
        [(r * cols + c, r * cols + c + 1)
         for r in range(rows) for c in range(cols - 1)]
        + [(r * cols + c, (r + 1) * cols + c)
           for r in range(rows - 1) for c in range(cols)],
    )


class TestPlanarQuadrangulation:
    def test_r2_quadrangulations(self):
        assert is_planar_quadrangulation(rgraph(2, 4)) == (True, 12)
        assert is_planar_quadrangulation(rgraph(2, 5)) == (True, 20)

    def test_cube_and_square(self):
        assert is_planar_quadrangulation(hamming_graph(B3)) == (True, 6)
        assert is_planar_quadrangulation(cyc(4)) == (True, 2)

    def test_k23_is_a_quadrangulation_but_not_a_partial_cube(self):
        # the two verdicts are independent: K_{2,3} has three quad faces
        assert is_planar_quadrangulation(k23()) == (True, 3)
        assert is_partial_cube(k23()) is None

    def test_negatives(self):
        assert is_planar_quadrangulation(hamming_graph(B4)) == (False, None)
        k4 = SimpleGraph(list(range(4)), [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert is_planar_quadrangulation(k4) == (False, None)
        path = SimpleGraph(list(range(4)), [(0, 1), (1, 2), (2, 3)])
        assert is_planar_quadrangulation(path) == (False, None)
        assert is_planar_quadrangulation(cyc(6)) == (False, None)

    def test_k33_with_a_pendant_vertex_is_rejected(self):
        # bipartite with m = 2n - 4, but not planar
        g = SimpleGraph(list(range(7)),
                        [(i, j) for i in range(3) for j in range(3, 6)] + [(0, 6)])
        assert (g.n, g.m) == (7, 10)
        assert literal_is_planar_quadrangulation(g) == (False, None)
        assert is_planar_quadrangulation(g) == (False, None)

    def test_bipartite_planar_graphs_that_are_not_quadrangulations(self):
        tree = SimpleGraph(list(range(6)), [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
        square_with_tail = SimpleGraph(
            list(range(5)), [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)])
        two_squares_at_a_vertex = SimpleGraph(
            list(range(7)),
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)])
        cube_less_a_vertex = SimpleGraph(
            list(range(1, 8)), [(i - 1, (i ^ 1 << b) - 1) for i in range(1, 8)
                                for b in range(3) if i < i ^ 1 << b])
        for g in (tree, square_with_tail, two_squares_at_a_vertex,
                  cube_less_a_vertex, grid(2, 3), grid(3, 3), cyc(8)):
            assert is_bipartite(g)
            assert literal_is_planar_quadrangulation(g) == (False, None)
            assert is_planar_quadrangulation(g) == (False, None)

    @settings(max_examples=200, deadline=None)
    @given(connected_graphs())
    def test_random_connected_graphs(self, g):
        if g.n >= 4:
            assert (is_planar_quadrangulation(g)
                    == literal_is_planar_quadrangulation(g))

    def test_preconditions(self):
        with pytest.raises(ValueError, match="connected"):
            is_planar_quadrangulation(SimpleGraph([0, 1, 2, 3], [(0, 1), (2, 3)]))
        with pytest.raises(ValueError, match="4 vertices"):
            is_planar_quadrangulation(SimpleGraph([0, 1, 2], [(0, 1), (1, 2)]))


class TestR2StructureSweep:
    """Exact structure of two-point crossover graphs on antipodal pairs."""

    @pytest.mark.parametrize("t", [4, 5, 6, 7])
    def test_theorem_values(self, t):
        g = rgraph(2, t)
        assert g.n == t * t - t + 2
        assert g.m == 2 * t * t - 2 * t
        emb = is_partial_cube(g)
        assert emb is not None
        assert cut_sizes(emb) == (2 * t - 2,) * t
        merged = {}
        for d, c in ((t, 2), (4, t * t - 3 * t), (3, 2 * t)):
            if c:
                merged[d] = merged.get(d, 0) + c
        assert degree_profile(g) == dict(sorted(merged.items()))
        assert is_planar_quadrangulation(g) == (True, t * t - t)
