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
from xoverlab.crossover import _patterns, transit_graph
from xoverlab.graphs import SimpleGraph, hamming_graph, is_connected
from xoverlab.matroid import om_from_rset
from xoverlab.partialcube import (
    PartialCubeEmbedding,
    _largest_full_projection,
    _planar_block,
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


def bwords(*texts):
    return [Word.parse(t, AlphabetSpec.parse(f"2^{len(t)}")) for t in texts]


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
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, w in g.edges:
        if (u, w) not in removed:
            adj[u].append(w)
            adj[w].append(u)
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
            for w in adj[u]:
                if seen[w]:
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
    return PartialCubeEmbedding(tuple(masks), tuple(tuple(b) for b in classes))


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
        assert emb.labels == (0,)

    def test_hypercube_embeds_onto_itself(self):
        emb = is_partial_cube(hamming_graph(B3))
        assert emb is not None
        assert emb.word_length == 3
        assert sorted(emb.labels) == list(range(8))

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
            labels = is_partial_cube(g).labels
            dist = bfs_distances(g)
            for i in range(g.n):
                for j in range(g.n):
                    assert (labels[i] ^ labels[j]).bit_count() == dist[i][j]

    def test_labels_start_at_zero_vertex(self):
        # the side of every cut containing vertex index 0 is the 0 side
        for g in (cyc(6), rgraph(2, 4)):
            emb = is_partial_cube(g)
            assert emb.labels[0] == 0

    def test_c4_labels(self):
        # cut 1 is the most significant bit, as in packed binary words
        emb = is_partial_cube(cyc(4))
        assert emb.labels == (0b00, 0b10, 0b11, 0b01)
        assert [f"{m:02b}" for m in emb.labels] == ["00", "10", "11", "01"]


def assert_matches_oracle(g):
    """is_partial_cube equals the literal oracle: verdict, labels, cuts."""
    fast, lit = is_partial_cube(g), literal_is_partial_cube(g)
    assert (fast is None) == (lit is None), g.edges
    if fast is not None:
        assert fast.labels == lit.labels
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
        assert len(set(emb.labels)) == 512


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
    """The antipode indices by a scan of every pair of BFS distances."""
    _require_connected(g)
    dist = bfs_distances(g)
    diam = max(map(max, dist))
    out = []
    for i in range(g.n):
        far = [j for j in range(g.n) if dist[i][j] == diam]
        if len(far) != 1:
            return None
        out.append(far[0])
    return tuple(out)


class TestAntipodal:
    def test_cube_map_is_complementation(self):
        g = hamming_graph(B3)
        anti = is_antipodal(g)
        assert anti is not None
        assert sorted(g.vertices, key=lambda w: w.index) == list(B3.iter_words())
        for w, j in zip(g.vertices, anti, strict=True):
            assert g.vertices[j].index == w.index ^ 0b111

    def test_rset_graph_map_is_interval_complement(self):
        for k, n in ((1, 4), (2, 4), (2, 5), (3, 5)):
            g = rgraph(k, n)
            anti = is_antipodal(g)
            assert anti is not None, (k, n)
            full = (1 << n) - 1
            for w, j in zip(g.vertices, anti, strict=True):
                assert g.vertices[j].index == w.index ^ full

    def test_specific_pairing(self):
        g = rgraph(2, 4)
        anti = is_antipodal(g)
        assert str(g.vertices[anti[g.vertices.index(Word.parse("0110", B4))]]) == "1001"

    def test_path_not_antipodal(self):
        assert is_antipodal(SimpleGraph([0, 1, 2], [(0, 1), (1, 2)])) is None

    def test_star_not_antipodal(self):
        g = SimpleGraph(list(range(4)), [(0, 1), (0, 2), (0, 3)])
        assert is_antipodal(g) is None

    def test_even_cycle_opposite_vertices(self):
        anti = is_antipodal(cyc(6))
        assert anti == tuple((i + 3) % 6 for i in range(6))

    def test_single_vertex_is_its_own_antipode(self):
        assert is_antipodal(SimpleGraph(["v"], [])) == (0,)

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

    def test_word_input(self):
        assert vc_dimension(bwords("00", "01", "10", "11")) == 2
        assert vc_dimension(bwords("000", "011", "101", "110")) == 2

    def test_singleton(self):
        assert vc_dimension(bwords("0101")) == 0

    @pytest.mark.parametrize("family", [["00", "01"], ["0101"], [""]])
    def test_rejects_strings(self, family):
        with pytest.raises(ValueError, match="binary words"):
            vc_dimension(family)
        with pytest.raises(ValueError, match="binary words"):
            vc_dimension(bwords("11") + family)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="binary"):
            vc_dimension(["012"])
        ternary = AlphabetSpec.parse("3,3")
        with pytest.raises(ValueError, match="binary"):
            vc_dimension([Word.parse("02", ternary)])

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError, match="common length"):
            vc_dimension(bwords("00", "111"))

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


def literal_full_projection(masks, n):
    """Largest t with some t-subset of bit positions realizing all patterns,
    -1 when there are no masks: the subset scan that projects every member
    onto every t-subset.  Sizes are tried in increasing order; shattering is
    monotone, so the scan may stop at the first size with no witness."""
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


@st.composite
def mask_families(draw):
    """(n, masks) for n <= 9, with duplicates or without."""
    n = draw(st.integers(0, 9))
    masks = st.integers(0, (1 << n) - 1)
    return n, draw(st.lists(masks, max_size=min(1 << n, 96)) | st.sets(masks).map(list))


class TestVcDimensionAgainstLiteral:
    def test_random_binary_families(self):
        rng = random.Random(2024)
        dims = Counter()
        for _ in range(300):
            n = rng.randint(1, 9)
            size = rng.randint(1, min(1 << n, rng.choice((4, 16, 64, 256))))
            spec = AlphabetSpec.parse(f"2^{n}")
            family = [Word.from_index(m, spec) for m in rng.sample(range(1 << n), size)]
            want = literal_full_projection([w.index for w in family], n)
            assert vc_dimension(family) == want, family
            dims[want] += 1
        assert len(dims) >= 5  # the sample spans many dimensions

    def test_seeded_masks_with_duplicates(self):
        rng = random.Random(33)
        dims = Counter()
        for _ in range(1500):
            n = rng.randint(0, 9)
            size = rng.randint(0, rng.choice((4, 16, 64, 512)))
            masks = [rng.randrange(1 << n) for _ in range(size)]
            want = literal_full_projection(masks, n)
            assert _largest_full_projection(masks, n) == want, (masks, n)
            dims[want] += 1
        assert set(range(-1, 8)) <= set(dims)

    @settings(max_examples=300, deadline=None)
    @given(mask_families())
    def test_hypothesis_families(self, family):
        n, masks = family
        assert _largest_full_projection(masks, n) == literal_full_projection(masks, n)

    def test_every_crossover_pattern_set(self):
        for k in range(1, 8):
            for t in range(1, 12):
                masks = _patterns(k, t)
                got = _largest_full_projection(masks, t)
                assert got == literal_full_projection(masks, t) == min(k + 1, t), (k, t)

    def test_om_topes(self):
        for n in range(2, 9):
            for k in range(1, n):
                masks = [tope.pos for tope in om_from_rset(k, n).topes]
                got = _largest_full_projection(masks, n)
                assert got == literal_full_projection(masks, n) == k + 1, (k, n)

    @pytest.mark.parametrize("masks,n,want", [
        ([], 0, -1), ([], 4, -1), ([0], 0, 0), ([0, 0, 0], 0, 0),
        ([5], 3, 0), ([5, 5, 5], 3, 0), ([0, 1, 1, 0], 1, 1),
        ([0b011, 0b011, 0b101, 0b101, 0b110], 3, 1),
        ([0b00, 0b01, 0b10, 0b11] * 3, 2, 2),
        (list(range(1 << 7)), 7, 7), (list(range(1 << 7))[::-1] * 2, 7, 7),
    ])
    def test_edge_cases(self, masks, n, want):
        assert _largest_full_projection(masks, n) == want
        assert literal_full_projection(masks, n) == want

    def test_equal_and_complementary_columns(self):
        # position 2 repeats position 0 and position 3 complements it, so
        # only one of the three can join a shattered set
        base = list(range(4))
        masks = [m | (m & 1) << 2 | (~m & 1) << 3 for m in base]
        assert _largest_full_projection(masks, 4) == 2 == literal_full_projection(masks, 4)
        half = [m for m in range(1 << 6) if (m ^ m >> 3) & 1 == 0]
        assert _largest_full_projection(half, 6) == 5 == literal_full_projection(half, 6)


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
            spec = AlphabetSpec.parse(f"2^{emb.word_length}")
            labels = [Word.from_index(m, spec) for m in emb.labels]
            assert largest_cube_minor_dim(emb) == vc_dimension(labels)

    def test_non_binary_cut_labels_against_the_scan(self):
        # only a non-binary graph document reads cube_minor_dim off the labels
        rng = random.Random(33)
        searched = Counter()
        for text in ("3,3", "3^3", "3^4", "4,4,3", "2,3,4,3,3", "2,3,3,2,3"):
            spec = AlphabetSpec.parse(text)
            for k in (1, 2, 3):
                for _ in range(3):
                    x, y = (Word.from_index(rng.randrange(spec.size), spec) for _ in "xy")
                    emb = is_partial_cube(transit_graph(k, x, y))
                    assert emb is not None
                    want = literal_full_projection(emb.labels, emb.word_length)
                    assert largest_cube_minor_dim(emb) == max(want, 0), (text, k, x, y)
                    searched[want] += 1
        assert len(searched) >= 4 and sum(searched.values()) == 54

    def test_agrees_with_vc_of_members(self):
        for k, n in ((1, 3), (1, 5), (2, 4), (2, 6), (3, 5)):
            spec = AlphabetSpec.parse(f"2^{n}")
            r = rset(k, Word.parse("0" * n, spec), Word.parse("1" * n, spec))
            emb = is_partial_cube(transit_graph(k, r.parents[0], r.parents[1]))
            assert largest_cube_minor_dim(emb) == vc_dimension(r.members), (k, n)

    def test_binary_transit_graphs_need_one_search(self):
        # the graph document reports a binary graph's VC dimension as its
        # cube-minor dimension too: the words sit isometrically in the cube,
        # and the partial-cube labels are those coordinates up to symmetry
        rng = random.Random(30)
        graphs = 0
        for n in range(1, 10):
            spec = AlphabetSpec((2,) * n)
            for k in range(1, 8):
                pairs = [(0, 2 ** n - 1)]
                for _ in range(3):
                    x = rng.randrange(2 ** n)
                    # y keeps at least one of x's positions constant
                    pairs.append((x, x ^ rng.randrange(2 ** n) & ~(1 << rng.randrange(n))))
                for x, y in pairs:
                    r = rset(k, Word.from_index(x, spec), Word.from_index(y, spec))
                    emb = is_partial_cube(transit_graph(k, r.parents[0], r.parents[1]))
                    assert emb is not None
                    assert vc_dimension(r.members) == largest_cube_minor_dim(emb), (
                        n, k, x, y)
                    graphs += 1
        assert graphs == 252


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


def neighbour_masks(g):
    g = nx.convert_node_labels_to_integers(g)
    return [sum(1 << w for w in g[v]) for v in range(len(g))]


def planarity_sweep(seed=14, count=1200):
    """Seeded connected graphs on 4 to 16 vertices: G(n, p), random
    bipartite graphs, and triangular lattices with edges removed plus one
    chord, which keeps planar graphs common."""
    rng = random.Random(seed)
    for i in range(count):
        g = nx.Graph()
        if i % 3 == 0:
            n, p = rng.randint(4, 16), rng.uniform(0.15, 0.5)
            g.add_nodes_from(range(n))
            g.add_edges_from((u, v) for u, v in combinations(range(n), 2)
                             if rng.random() < p)
        elif i % 3 == 1:
            a, b, p = rng.randint(2, 8), rng.randint(2, 8), rng.uniform(0.3, 0.8)
            g.add_nodes_from(range(a + b))
            g.add_edges_from((u, v) for u in range(a) for v in range(a, a + b)
                             if rng.random() < p)
        else:
            g = nx.convert_node_labels_to_integers(
                nx.triangular_lattice_graph(rng.randint(2, 3), rng.randint(2, 6)))
            edges = sorted(g.edges)
            g.remove_edges_from(rng.sample(edges, rng.randint(0, len(edges) // 3)))
            g.add_edge(*rng.choice(sorted(nx.non_edges(g))))
        if nx.is_connected(g):
            yield g


class TestPlanarBlockAgainstNetworkx:
    """The path-embedding test accepts exactly the graphs networkx finds
    2-connected and planar; a cut vertex is rejected even when planar."""

    def check(self, graphs):
        kinds = Counter()
        for g in graphs:
            block, planar = nx.is_biconnected(g), nx.check_planarity(g)[0]
            assert _planar_block(neighbour_masks(g)) == (block and planar), \
                sorted(g.edges)
            kinds["block" if block else "cut vertex", planar] += 1
        return kinds

    def test_graph_atlas(self):
        # every connected graph on 3 to 7 vertices; 534 of the blocks (347
        # planar) have 5 to 7 vertices
        kinds = self.check(g for g in nx.graph_atlas_g()
                           if len(g) >= 3 and nx.is_connected(g))
        assert kinds == {("block", True): 351, ("block", False): 187,
                         ("cut vertex", True): 422, ("cut vertex", False): 34}

    def test_seeded_sweep(self):
        kinds = self.check(planarity_sweep())
        assert kinds["block", True] >= 150, kinds
        assert kinds["block", False] >= 150, kinds
        assert kinds["cut vertex", True] >= 100, kinds

    def test_classic_graphs(self):
        non_planar = [nx.complete_graph(5), nx.complete_bipartite_graph(3, 3),
                      nx.petersen_graph(), nx.hypercube_graph(4)]
        planar = [nx.complete_graph(4), nx.hypercube_graph(3),
                  nx.octahedral_graph(), nx.icosahedral_graph(),
                  nx.dodecahedral_graph(), nx.wheel_graph(9)]
        assert [_planar_block(neighbour_masks(g)) for g in non_planar] == [False] * 4
        assert [_planar_block(neighbour_masks(g)) for g in planar] == [True] * 6


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
