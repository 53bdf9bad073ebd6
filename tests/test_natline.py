import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stackedcx as sc
from stackedcx import complexes, errors, natline, oracle


def prefix(n, *blocks):
    return sc.make_prefix_partition(n, blocks)


def singleton_pattern(n, special):
    rest = [i for i in range(1, n + 1) if i not in special]
    return sc.make_prefix_partition(n, [list(special), rest])


def length(P):
    """n for a partition of [1..n]: the number of its elements."""
    return sum(map(len, P.blocks))


def min_gap(P):
    """Smallest gap within a block; None when all blocks are singletons
    (every scatter bound holds vacuously then)."""
    gaps = [b - a for block in P.blocks for a, b in zip(block, block[1:])]
    return min(gaps) if gaps else None


def random_prefix(n, rng, parts=3) -> sc.Partition:
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

    def test_empty_partition_is_rejected(self):
        with pytest.raises(errors.InputError, match="^line graph needs at least one edge$"):
            sc.refine_once(sc.Partition("integers", ()))

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
            assert length(out) == length(P) + 1
            assert out.n_blocks == P.n_blocks + 1
            s = min_gap(P)
            if s is not None:
                got = min_gap(out)
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
        assert length(got) == 2002 and got.n_blocks == P.n_blocks + 2
        assert min_gap(got) == min_gap(P) + 2
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
        # built directly, a partition of [1..n] has n elements: blocks
        # that are not one name that many facets
        for blocks, n in ((((0, 1, 2),), 3),     # outside [1..n],
                          (((1, 2), (2, 3)), 4), # repeating one across blocks,
                          (((1, 3), (3,)), 3),   # repeating one in place of a missing one,
                          (((1, 1, 3),), 3)):    # or within a block
            with pytest.raises(errors.NotAPartitionError,
                               match=f"^blocks do not partition the {n} facets$"):
                sc.refine_once(sc.Partition("integers", blocks))
        # with no element missing from [1..2], ((1, 2),) is a partition
        assert sc.refine_once(sc.Partition("integers", ((1, 2),))) == \
            sc.refine_once(prefix(2, [1, 2])) == sc.Partition("integers", ((1, 3), (2,)))

    def test_other_kinds_are_rejected(self):
        for kind in ("facets", "vertices"):
            with pytest.raises(errors.NotAPartitionError,
                               match=f"^expected a partition of integers, got {kind}$"):
                sc.refine_once(sc.make_partition(kind, [[1, 2], [3]]))
            with pytest.raises(errors.NotAPartitionError,
                               match=f"^expected a partition of integers, got {kind}$"):
                sc.restrict_prefix(sc.make_partition(kind, [[1, 2], [3]]), 2)

    def test_scatter(self):
        assert min_gap(prefix(6, [1, 4], [2, 5], [3, 6])) == 3
        assert min_gap(prefix(3, [1], [2], [3])) is None

    def test_restrict_prefix(self):
        P = prefix(6, [1, 4], [2, 5], [3, 6])
        assert sc.restrict_prefix(P, 4).blocks == ((1, 4), (2,), (3,))

    def test_restrict_prefix_built_directly_with_an_unsorted_block(self):
        P = sc.Partition("integers", ((1, 3, 2),))
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


def refined_on_the_line_graph(P):
    """refine_once by its definition: the general facet-to-vertex map on
    L_n, edge i as facet i - 1 and vertex k - 1 as integer k."""
    Q = sc.Partition("facets", tuple(tuple(e - 1 for e in block) for block in P.blocks))
    V = sc.facet_to_vertex(sc.line_graph(length(P)), Q)
    return sc.Partition("integers", tuple(tuple(v + 1 for v in block) for block in V.blocks))


def test_refine_once_is_the_bijection_on_scattered_prefix_partitions():
    """The paper's natural-number bijection: refine_once maps the
    s-scattered partitions of [1..n] into r blocks one-to-one onto the
    (s + 1)-scattered partitions of [1..n + 1] into r + 1 blocks, both
    enumerated as Partition values."""
    count = 0
    for n in range(1, 10):
        for r in range(1, 5):
            for s in range(1, 4):
                images = [sc.refine_once(P) for P in
                          oracle.enumerate_partitions(oracle.prefix_spec(n, r, s))]
                family = list(oracle.enumerate_partitions(oracle.prefix_spec(n + 1, r + 1, s + 1)))
                assert len(set(images)) == len(images) == len(family)
                assert set(images) == set(family)
                count += len(images)
    assert count > 10 ** 4


def test_refine_once_equals_the_map_on_every_small_prefix():
    count = 0
    for n in range(1, 9):
        for r in range(1, n + 1):
            for P in oracle.enumerate_partitions(oracle.prefix_spec(n, r, 1)):
                assert sc.refine_once(P) == refined_on_the_line_graph(P)
                count += 1
    assert count == sum(map(oracle.bell, range(1, 9))) == 5295


@pytest.mark.parametrize("seed", range(12))
def test_refine_once_equals_the_map_on_long_prefixes(seed):
    rng = random.Random(seed)
    P = random_prefix(rng.randint(10 ** 2, 3 * 10 ** 3), rng, parts=rng.randint(1, 6))
    refined = sc.refine_once(P)
    assert refined == refined_on_the_line_graph(P)
    assert sc.check_colimit_compatibility(P, refined=refined)


def test_refining_a_long_prefix_builds_no_sweep(monkeypatch):
    """refine_once and the colimit check on a 10^5-integer prefix build no
    line graph or other complex, so nothing is swept."""
    def refuse(*args, **kwargs):
        raise AssertionError("a complex was built")

    monkeypatch.setattr(natline, "line_graph", refuse)
    monkeypatch.setattr(complexes, "complex_from_ids", refuse)
    monkeypatch.setattr(complexes.SimplicialComplex, "__init__", refuse)
    n = 10 ** 5
    P = prefix(n, *(range(r, n + 1, 3) for r in (1, 2, 3)))
    refined = sc.refine_once(P)
    assert length(refined) == n + 1 and refined.n_blocks == 4
    assert min_gap(refined) == min_gap(P) + 1
    assert sc.check_colimit_compatibility(P, refined=refined)


def test_the_colimit_check_on_a_long_prefix_validates_nothing(monkeypatch):
    """Restricting a partition keeps it a partition, so the colimit check
    on a 10^5-integer prefix builds its restrictions without make_partition."""
    def refuse(*args, **kwargs):
        raise AssertionError("a partition was validated")

    n = 10 ** 5
    P = prefix(n, *(range(r, n + 1, 3) for r in (1, 2, 3)))
    monkeypatch.setattr(natline, "make_partition", refuse)
    assert sc.check_colimit_compatibility(P)
    assert sc.restrict_prefix(P, 5).blocks == ((1, 4), (2, 5), (3,))
