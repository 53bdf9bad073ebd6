import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stackedcx as sc
from stackedcx import errors, partitions
from stackedcx.generators import all_trees, random_stacked
from stackedcx.oracle import enumerate_partitions, facet_spec, vertex_spec
from stackedcx.partitions import facet_to_vertex_strings, vertex_to_facet_strings

from conftest import (
    closure,
    cx,
    facet,
    fpart,
    growth_string,
    relabelled,
    string_partition,
    vblocks,
    vpart,
)


def random_facet_partition(X, rng) -> sc.Partition:
    blocks: list[list[int]] = []
    for f in range(X.n_facets):
        choice = rng.randrange(len(blocks) + 1)
        if choice == len(blocks):
            blocks.append([f])
        else:
            blocks[choice].append(f)
    return sc.make_partition("facets", blocks, range(X.n_facets))


def both_labellings(count):
    """Seeded stackings, d = 1..3 and n = 1..8, each as generated and with
    its tokens shuffled."""
    for seed in range(count):
        X = random_stacked(1 + seed % 3, 1 + seed % 8, 500 + seed)
        yield X
        yield relabelled(X, seed)


class TestPartitionBasics:
    def test_canonical_order(self):
        P = sc.make_partition("vertices", [[4], [2, 6], [5, 1, 3]])
        assert P.blocks == ((1, 3, 5), (2, 6), (4,))

    def test_rejects_overlap(self):
        with pytest.raises(errors.NotAPartitionError):
            sc.make_partition("vertices", [[1, 2], [2, 3]])

    @pytest.mark.parametrize("blocks, e", [
        ([[1, 1, 2]], 1), ([[3], [1, 2, 3, 3]], 3), ([[2, 5, 5], [1, 5]], 5),
        ([[4, 2], [2, 2]], 2)])
    def test_names_the_least_element_seen_twice(self, blocks, e):
        with pytest.raises(errors.NotAPartitionError, match=f"^element {e} in two blocks$"):
            sc.make_partition("vertices", blocks)

    def test_rejects_empty_block(self):
        with pytest.raises(errors.NotAPartitionError):
            sc.make_partition("vertices", [[1], []])

    def test_rejects_non_cover(self):
        with pytest.raises(errors.NotAPartitionError):
            sc.make_partition("vertices", [[0, 1]], ground=range(3))

    def test_rejects_no_blocks(self):
        with pytest.raises(errors.NotAPartitionError, match="^no blocks$"):
            sc.make_partition("vertices", [])

    def test_restrict(self):
        P = sc.make_partition("vertices", [[1, 3, 5], [2, 6], [4]])
        got = sc.restrict_partition(P, range(1, 6))
        assert got.blocks == ((1, 3, 5), (2,), (4,))

    def test_restrict_full_and_empty(self):
        P = sc.make_partition("vertices", [[1, 3], [2]])
        assert sc.restrict_partition(P, [1, 2, 3]) == P
        assert sc.restrict_partition(P, []).blocks == ()

    def test_value_semantics(self):
        P = sc.make_partition("facets", [[2, 0], [1]])
        assert repr(P) == "Partition(kind='facets', blocks=((0, 2), (1,)))"
        assert hash(P) == hash((P.kind, P.blocks))
        Q = sc.Partition("facets", ((0, 2), (1,)))
        assert P == Q and hash(P) == hash(Q)
        assert P != P.blocks
        assert P != sc.Partition("vertices", P.blocks)
        with pytest.raises(AttributeError):
            P.blocks = ((0, 1, 2),)


class TestScattered:
    def test_heptagon_vertices_three_scattered(self, heptagon):
        ids = [heptagon.id_of(t) for t in "37"]
        assert sc.is_scattered(heptagon, ids, 3, "vertices")
        assert not sc.is_scattered(heptagon, ids, 4, "vertices")

    def test_heptagon_facets_two_scattered(self, heptagon):
        fs = [facet(heptagon, "2,3,4"), facet(heptagon, "2,5,7")]
        assert sc.is_scattered(heptagon, fs, 2, "facets")

    def test_singletons_always(self, heptagon):
        assert sc.is_scattered(heptagon, [0], 99, "vertices")

    def test_everything_is_one_scattered(self, heptagon):
        assert sc.is_scattered(heptagon, range(heptagon.n_vertices), 1,
                               "vertices")
        assert sc.is_scattered(heptagon, range(heptagon.n_facets), 1, "facets")

    def test_rejects_bad_scatter_and_kind(self, heptagon):
        with pytest.raises(errors.InputError, match="^scatter must be >= 1$"):
            sc.is_scattered(heptagon, [0, 1], 0, "vertices")
        with pytest.raises(errors.InputError, match="^unknown ground kind 'edges'$"):
            sc.is_scattered(heptagon, [0, 1], 1, "edges")

    def test_rejects_ids_outside_the_ground_set(self, heptagon):
        for kind, size, noun in (("vertices", heptagon.n_vertices, "vertex"),
                                 ("facets", heptagon.n_facets, "facet")):
            for bad in (-1, size):
                for members in ([bad], [0, bad]):
                    with pytest.raises(errors.InputError,
                                       match=f"^{noun} index outside 0..{size - 1}$"):
                        sc.is_scattered(heptagon, members, 1, kind)

    def test_maps_reject_the_wrong_kind(self, heptagon):
        P = sc.make_partition("vertices", [range(heptagon.n_vertices)])
        Q = sc.make_partition("facets", [range(heptagon.n_facets)])
        with pytest.raises(errors.NotAPartitionError,
                           match="^expected a partition of facets, got vertices$"):
            sc.facet_to_vertex(heptagon, P)
        with pytest.raises(errors.NotAPartitionError,
                           match="^expected a partition of vertices, got facets$"):
            sc.vertex_to_facet(heptagon, Q)


class TestVertexToFacet:
    def test_first_figure_tree(self):
        L5 = sc.line_graph(5)
        got = sc.vertex_to_facet(L5, vpart(L5, "1 3 5 | 2 6 | 4"))
        assert got == fpart(L5, "1,2 2,3 5,6 | 3,4 4,5")

    def test_parity_coloring_collapses_edges(self):
        for T in list(all_trees(5))[::25]:
            parity = [[], []]
            for v in range(T.n_vertices):
                root_dist = sc.vertex_distance(T, 0, v)
                parity[root_dist % 2].append(v)
            P = sc.make_partition("vertices", parity, range(T.n_vertices))
            got = sc.vertex_to_facet(T, P)
            assert got.n_blocks == 1

    def test_heptagon_figure(self, heptagon):
        got = sc.vertex_to_facet(heptagon, vpart(heptagon, "3 7 | 1 4 6 | 2 | 5"))
        assert got == fpart(heptagon, "2,3,4 2,5,7 | 1,2,7 2,4,5 5,6,7")

    def test_rejects_dependent_block(self, heptagon):
        with pytest.raises(errors.NotIndependentError):
            sc.vertex_to_facet(heptagon, vpart(heptagon, "2 3 | 1 4 6 | 5 | 7"))

    def test_rejects_wrong_ground(self, heptagon):
        bad = sc.make_partition("vertices", [[0, 2]])
        with pytest.raises(errors.NotAPartitionError):
            sc.vertex_to_facet(heptagon, bad)
        # the constructor trusts its input; the maps must not
        for blocks in (((-1, 0, 1), (2, 3, 4, 5, 6)), ((0, 1, 2, 3, 4, 5, 7),)):
            with pytest.raises(errors.NotAPartitionError):
                sc.vertex_to_facet(heptagon, sc.Partition("vertices", blocks))
        for blocks in (((-1, 0), (1, 2, 3)), ((0, 1, 2, 3, 5),)):
            with pytest.raises(errors.NotAPartitionError):
                sc.facet_to_vertex(heptagon, sc.Partition("facets", blocks))

    def test_all_singletons(self, heptagon):
        singles = sc.make_partition(
            "vertices", [[v] for v in range(heptagon.n_vertices)])
        got = sc.vertex_to_facet(heptagon, singles)
        assert got.n_blocks == heptagon.n_facets


class TestFacetToVertex:
    def test_first_figure_tree(self):
        L5 = sc.line_graph(5)
        got = sc.facet_to_vertex(L5, fpart(L5, "3,4 4,5 | 1,2 2,3 5,6"))
        assert vblocks(L5, got) == {frozenset("135"), frozenset({"2", "6"}),
                                    frozenset({"4"})}

    def test_second_figure_tree(self, fig_tree_second):
        T = fig_tree_second
        Q = fpart(T, "5,6 8,9 9,10 | 1,2 2,3 3,4 4,5 6,7 4,8")
        got = sc.facet_to_vertex(T, Q)
        assert vblocks(T, got) == {frozenset({"1", "3", "5", "8", "10"}),
                                   frozenset({"2", "4", "7"}),
                                   frozenset({"6", "9"})}

    def test_single_facet_gives_singletons(self):
        X = cx("1 2 3")
        got = sc.facet_to_vertex(X, sc.make_partition("facets", [[0]]))
        assert got.blocks == ((0,), (1,), (2,))
        assert sc.vertex_to_facet(X, got).blocks == ((0,),)

    def test_heptagon_round(self, heptagon):
        Q = fpart(heptagon, "2,3,4 2,5,7 | 1,2,7 2,4,5 5,6,7")
        P = sc.facet_to_vertex(heptagon, Q)
        assert vblocks(heptagon, P) == {frozenset("37"), frozenset("146"),
                                        frozenset("2"), frozenset("5")}
        assert sc.vertex_to_facet(heptagon, P) == Q


class TestRoundTripProperties:
    @given(st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_any_facet_partition_round_trips(self, seed):
        # every facet partition is 1-scattered, so the round trip must close
        X = random_stacked(1 + seed % 3, 1 + seed % 6, seed)
        Q = random_facet_partition(X, random.Random(seed))
        P = sc.facet_to_vertex(X, Q)
        assert P.n_blocks == Q.n_blocks + X.dim
        assert sc.vertex_to_facet(X, P) == Q

    def test_independent_vertex_partitions_round_trip(self):
        for seed in range(12):
            X = random_stacked(1 + seed % 3, 2 + seed % 5, seed)
            r = 1 + seed % max(1, X.n_facets)
            for P in enumerate_partitions(vertex_spec(X, r + X.dim, 2)):
                Q = sc.vertex_to_facet(X, P)
                assert Q.n_blocks == P.n_blocks - X.dim
                assert sc.facet_to_vertex(X, Q) == P

    def test_scatter_transport(self, heptagon):
        for s in (1, 2):
            for r in (1, 2, 3):
                for Q in enumerate_partitions(facet_spec(heptagon, r, s)):
                    P = sc.facet_to_vertex(heptagon, Q)
                    for block in P.blocks:
                        assert sc.is_scattered(heptagon, block, s + 1,
                                               "vertices")

    def test_block_order_irrelevant(self, heptagon):
        rng = random.Random(1)
        Q = fpart(heptagon, "2,3,4 2,5,7 | 1,2,7 2,4,5 5,6,7")
        reference = sc.facet_to_vertex(heptagon, Q)
        blocks = [list(b) for b in Q.blocks]
        for _ in range(5):
            rng.shuffle(blocks)
            for b in blocks:
                rng.shuffle(b)
            again = sc.make_partition("facets", blocks, range(heptagon.n_facets))
            assert sc.facet_to_vertex(heptagon, again) == reference


class TestRestrictionCompatibility:
    def check_instance(self, X, g, Q, m):
        hood = sc.distance_neighborhood(X, g, m)
        if not hood.facets:
            return
        sub = sc.subcomplex(X, hood.facets)
        assert sc.is_stacked(sub)
        left = sc.restrict_partition(sc.facet_to_vertex(X, Q), hood.vertices)
        sub_q_blocks = [
            [sub.facet_from_tokens(X.facet_tokens(f)) for f in block
             if f in set(hood.facets)]
            for block in Q.blocks]
        sub_q = sc.make_partition("facets",
                                  [b for b in sub_q_blocks if b],
                                  range(sub.n_facets))
        right = sc.facet_to_vertex(sub, sub_q)
        assert vblocks(sub, right) == \
            {frozenset(X.token_of(v) for v in block) for block in left.blocks}

    def test_on_random_stackings(self):
        rng = random.Random(99)
        for seed in range(10):
            X = random_stacked(1 + seed % 3, 2 + seed % 6, seed)
            walls = sorted(map(frozenset, X.codim1_faces), key=sorted)
            g = rng.choice(walls)
            Q = random_facet_partition(X, rng)
            for m in range(1, X.n_facets + 1):
                self.check_instance(X, g, Q, m)


class TestGeneratorPairs:
    def test_heptagon_generators(self, heptagon):
        Q = fpart(heptagon, "2,3,4 2,5,7 | 1,2,7 2,4,5 5,6,7")
        gens = sc.facet_to_vertex_generators(heptagon, Q)
        pairs = {frozenset((heptagon.token_of(g.a), heptagon.token_of(g.b)))
                 for g in gens}
        assert pairs == {frozenset("37"), frozenset("14"),
                         frozenset("46"), frozenset("16")}
        for g in gens:
            assert g.a in heptagon.facet_tuples[g.witness[0]]
            assert g.b in heptagon.facet_tuples[g.witness[-1]]

    def test_closure_of_generators_matches_map(self):
        def check(X, Q):
            pairs = [(g.a, g.b) for g in sc.facet_to_vertex_generators(X, Q)]
            assert closure("vertices", X.n_vertices, pairs) == sc.facet_to_vertex(X, Q)

            P = sc.facet_to_vertex(X, Q)
            pairs = [(g.a, g.b) for g in sc.vertex_to_facet_generators(X, P)]
            assert closure("facets", X.n_facets, pairs) == sc.vertex_to_facet(X, P)

        rng = random.Random(8)
        for seed in range(10):
            X = random_stacked(1 + seed % 3, 2 + seed % 5, seed)
            check(X, random_facet_partition(X, rng))
            Y = relabelled(X, seed)
            check(Y, random_facet_partition(Y, random.Random(seed)))


class TestStringMaps:
    """The restricted-growth string maps that verify_bijection runs."""

    def test_match_public_maps_and_generator_closure(self):
        rng = random.Random(11)
        for X in both_labellings(40):
            Q = random_facet_partition(X, rng)
            P = sc.facet_to_vertex(X, Q)
            [image], _ = facet_to_vertex_strings(X, [growth_string(X, Q)])
            assert image == growth_string(X, P)
            pairs = [(g.a, g.b) for g in sc.facet_to_vertex_generators(X, Q)]
            assert string_partition("vertices", image) == \
                closure("vertices", X.n_vertices, pairs)

            [back], _ = vertex_to_facet_strings(X, [image])
            assert back == growth_string(X, sc.vertex_to_facet(X, P))
            pairs = [(g.a, g.b) for g in sc.vertex_to_facet_generators(X, P)]
            assert string_partition("facets", back) == \
                closure("facets", X.n_facets, pairs)

    def test_edge_test_matches_facet_test(self):
        # random vertex partitions into few blocks, most of them not independent
        rng = random.Random(12)
        dependent = 0
        for X in both_labellings(40):
            for _ in range(10):
                parts = rng.randint(X.dim + 1, X.dim + 3)
                labels = [rng.randrange(parts) for _ in range(X.n_vertices)]
                P = sc.make_partition(
                    "vertices", [[v for v, b in enumerate(labels) if b == k]
                                 for k in set(labels)], range(X.n_vertices))
                a = growth_string(X, P)
                expected = any(len({a[v] for v in f}) < len(f) for f in X.facet_tuples)
                dependent += expected
                if expected:
                    with pytest.raises(errors.NotIndependentError) as info:
                        sc.vertex_to_facet(X, P)
                    assert str(info.value) == "a block has two vertices on one facet"
                else:
                    sc.vertex_to_facet(X, P)
                assert partitions._independent(X, a) != expected
        assert 400 < dependent < 800


def test_check_theorem_instance_examples(heptagon):
    report = sc.verify_bijection(heptagon, 2, 2)
    assert report.ok and report.left_count == 1

    line5 = sc.line_graph(5)
    report = sc.verify_bijection(line5, 2, 1)
    assert report.ok and report.left_count == sc.stirling2(5, 2) == 15

    tree = cx("1 2", "2 3", "3 4")
    report = sc.verify_bijection(tree, 1, 1)
    assert report.ok and report.left_count == 1
