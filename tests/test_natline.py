import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stackedcx as sc
from stackedcx import complexes, errors, natline


def prefix(n, *blocks):
    return sc.make_prefix_partition(n, blocks)


def singleton_pattern(n, special):
    rest = [i for i in range(1, n + 1) if i not in special]
    return sc.make_prefix_partition(n, [list(special), rest])


def random_prefix(n, rng, parts=3) -> sc.PrefixPartition:
    blocks: dict[int, list[int]] = {}
    for i in range(1, n + 1):
        blocks.setdefault(rng.randrange(parts), []).append(i)
    return sc.make_prefix_partition(n, blocks.values())


class TestLineGraph:
    def test_single_edge(self):
        X = sc.line_graph(1)
        assert X.n_facets == 1 and X.n_vertices == 2

    def test_edges_are_consecutive_pairs(self):
        X = sc.line_graph(5)
        for i in range(1, 6):
            X.facet_from_tokens((str(i), str(i + 1)))  # must exist

    def test_always_stacked(self):
        for n in (1, 2, 7, 12):
            X = sc.line_graph(n)
            assert sc.is_stacked(X) and X.n_vertices == n + 1

    def test_distances_are_integer_gaps(self):
        X = sc.line_graph(7)
        for i in range(1, 9):
            for j in range(1, 9):
                assert sc.vertex_distance(X, X.id_of(str(i)),
                                          X.id_of(str(j))) == abs(i - j)
        for i in range(1, 8):
            for j in range(1, 8):
                ei = X.facet_from_tokens((str(i), str(i + 1)))
                ej = X.facet_from_tokens((str(j), str(j + 1)))
                assert sc.facet_distance(X, ei, ej) == abs(i - j)


class TestRefineOnce:
    def test_figure_tree_pattern(self):
        P = prefix(5, [3, 4], [1, 2, 5])
        assert sc.refine_once(P).blocks == ((1, 3, 5), (2, 6), (4,))

    def test_singleton_ten_on_twenty(self):
        got = sc.refine_once(singleton_pattern(20, {10}))
        assert set(got.blocks) == {
            tuple(range(2, 11, 2)),                      # ..., 6, 8, 10
            tuple(range(11, 22, 2)),                     # 11, 13, 15, ...
            tuple(sorted(list(range(1, 10, 2)) + list(range(12, 21, 2)))),
        }

    def test_one_block_gives_parity_classes(self):
        for n in (1, 4, 9):
            got = sc.refine_once(prefix(n, range(1, n + 1)))
            assert set(got.blocks) == {tuple(range(1, n + 2, 2)),
                                       tuple(range(2, n + 2, 2))}

    def test_block_count_and_scatter_increase(self):
        rng = random.Random(3)
        for _ in range(30):
            P = random_prefix(rng.randint(2, 14), rng)
            out = sc.refine_once(P)
            assert out.n == P.n + 1
            assert out.n_blocks == P.n_blocks + 1
            s = P.scatter()
            if s is not None:
                got = out.scatter()
                assert got is None or got == s + 1


class TestRefineIter:
    def test_zero_steps_is_identity(self):
        P = prefix(6, [1, 4], [2, 3, 5, 6])
        assert sc.refine_iter(P, 0) == P

    def test_two_steps_singleton_twelve(self):
        got = sc.refine_iter(singleton_pattern(24, {12}), 2)
        assert set(got.blocks) == {
            (3, 6, 9, 12),
            (1, 4, 7, 10, 13, 16, 19, 22, 25),
            (14, 17, 20, 23, 26),
            (2, 5, 8, 11, 15, 18, 21, 24),
        }

    def test_pair_pattern_even_gap(self):
        got = sc.refine_once(singleton_pattern(20, {8, 14}))
        assert set(got.blocks) == {
            (1, 3, 5, 7, 10, 12, 14),
            (2, 4, 6, 8, 15, 17, 19, 21),   # the long gap from 8 to 15
            (9, 11, 13, 16, 18, 20),
        }

    def test_pair_pattern_odd_gap(self):
        got = sc.refine_once(singleton_pattern(20, {8, 13}))
        assert set(got.blocks) == {
            (9, 11, 13),
            (2, 4, 6, 8, 14, 16, 18, 20),
            (1, 3, 5, 7, 10, 12, 15, 17, 19, 21),
        }

    def test_long_three_block_pattern(self):
        P = random_prefix(2000, random.Random(2000))
        got = sc.refine_iter(P, 2)
        assert got.n == 2002 and got.n_blocks == P.n_blocks + 2
        assert got.scatter() == P.scatter() + 2
        assert sc.check_colimit_compatibility(P)

    def test_negative_steps_rejected(self):
        with pytest.raises(errors.InputError):
            sc.refine_iter(prefix(2, [1], [2]), -1)


class TestColimit:
    def test_one_block(self):
        assert sc.check_colimit_compatibility(prefix(6, range(1, 7)))

    def test_figure_pattern_extended(self):
        P = prefix(6, [3, 4], [1, 2, 5, 6])
        assert sc.check_colimit_compatibility(P)

    @given(st.integers(0, 2000))
    @settings(max_examples=60, deadline=None)
    def test_random_patterns(self, seed):
        rng = random.Random(seed)
        P = random_prefix(rng.randint(2, 12), rng)
        assert sc.check_colimit_compatibility(P)

    def test_needs_length_two(self):
        with pytest.raises(errors.InputError):
            sc.check_colimit_compatibility(prefix(1, [1]))


class TestStabilization:
    def test_singleton_pattern_prefixes_agree(self):
        outputs = {}
        for n in range(12, 19):
            outputs[n] = sc.refine_once(singleton_pattern(n, {7}))
        for n in range(12, 18):
            shorter = outputs[n]
            longer = sc.restrict_prefix(outputs[n + 1], n + 1)
            assert shorter.blocks == longer.blocks


class TestPrefixPartition:
    def test_validation(self):
        with pytest.raises(errors.NotAPartitionError):
            sc.make_prefix_partition(3, [[1, 2]])
        with pytest.raises(errors.NotAPartitionError):
            sc.make_prefix_partition(3, [[1, 2], [2, 3]])
        with pytest.raises(errors.NotAPartitionError):
            sc.make_prefix_partition(3, [[0, 1, 2, 3]])
        with pytest.raises(errors.NotAPartitionError):  # built directly
            sc.refine_once(sc.PrefixPartition(3, ((0, 1, 2),)))

    def test_scatter(self):
        assert prefix(6, [1, 4], [2, 5], [3, 6]).scatter() == 3
        assert prefix(3, [1], [2], [3]).scatter() is None

    def test_restrict_prefix(self):
        P = prefix(6, [1, 4], [2, 5], [3, 6])
        assert sc.restrict_prefix(P, 4).blocks == ((1, 4), (2,), (3,))

    def test_restrict_prefix_built_directly_with_an_unsorted_block(self):
        P = sc.PrefixPartition(3, ((1, 3, 2),))
        assert sc.restrict_prefix(P, 2).blocks == ((1, 2),)

    def test_lengths_out_of_range(self):
        with pytest.raises(errors.InputError, match="^prefix length must be >= 1$"):
            sc.make_prefix_partition(0, [])
        with pytest.raises(errors.InputError, match="^line graph needs at least one edge$"):
            sc.line_graph(0)
        P = prefix(3, [1, 3], [2])
        for n in (0, 4):
            with pytest.raises(errors.InputError,
                               match=f"^cannot restrict prefix of length 3 to {n}$"):
                sc.restrict_prefix(P, n)


def test_refining_a_long_prefix_builds_no_sweep(monkeypatch):
    """refine_once and the colimit check on a 10^5-integer prefix: each
    line graph arrives with its tree and certificate in the memo, and
    builds neither the ridge index, which a sweep reads first, nor the
    facet sets."""
    graphs = []
    real = natline.line_graph

    def recording(n):
        graphs.append(real(n))
        return graphs[-1]

    monkeypatch.setattr(natline, "line_graph", recording)
    n = 10 ** 5
    P = prefix(n, *(range(r, n + 1, 3) for r in (1, 2, 3)))
    refined = sc.refine_once(P)
    assert refined.n == n + 1 and refined.n_blocks == 4
    assert sc.check_colimit_compatibility(P, refined=refined)
    assert [X.n_facets for X in graphs] == [n, n - 1]
    for X in graphs:
        assert complexes._tree.built(X) and complexes.find_stacking_order.built(X)
        assert not sc.SimplicialComplex.codim1_faces.fget.built(X)
        assert not sc.SimplicialComplex.facets.fget.built(X)
