import random
from bisect import insort
from itertools import combinations
from typing import Iterator

import pytest

import stackedcx as sc
from stackedcx import errors, generators
from stackedcx.complexes import complex_from_ids
from stackedcx.generators import (
    all_trees,
    polygon_triangulation,
    polygon_triangulations,
    random_stacked,
    tree_from_prufer,
    triangulation_count,
)
from stackedcx.textio import emit_complex


def labels(count):
    return tuple(map(str, range(1, count + 1)))


def insort_random_stacked(d, n, seed):
    """random_stacked as it keeps every codim-1 face in one sorted list
    and inserts each new one by shifting all that follow."""
    rng = random.Random(seed)
    facets = [tuple(range(d + 1))]
    walls = list(combinations(facets[0], d))
    for v in range(d + 1, d + n):
        g = rng.choice(walls)
        facets.append(g + (v,))
        for face in combinations(g, d - 1):
            insort(walls, face + (v,))
    return complex_from_ids(labels(d + n), facets)


def recursive_triangulations(cycle) -> Iterator[tuple]:
    """The triangulations of the polygon on ``cycle``, each sub-polygon's
    enumerated anew for every split that reaches it."""
    if len(cycle) == 2:
        yield ()
        return
    if len(cycle) == 3:
        yield (cycle,)
        return
    a, b = cycle[0], cycle[-1]
    for m in range(1, len(cycle) - 1):
        c = cycle[m]
        for left in recursive_triangulations(cycle[:m + 1]):
            for right in recursive_triangulations(cycle[m:]):
                yield left + ((a, c, b),) + right


def recursive_polygon_triangulations(k):
    return [complex_from_ids(labels(k), triangles)
            for triangles in recursive_triangulations(tuple(range(k)))]


class TestAllTrees:
    @pytest.mark.parametrize("v,count", [(2, 1), (3, 3), (4, 16), (5, 125)])
    def test_counts(self, v, count):
        trees = list(all_trees(v))
        assert len(trees) == count == v ** max(v - 2, 0)

    def test_all_distinct_and_stacked(self):
        trees = list(all_trees(4))
        assert len(set(trees)) == 16
        for T in trees:
            assert T.dim == 1 and sc.is_stacked(T)

    def test_bounds(self):
        with pytest.raises(errors.InputError):
            next(all_trees(1))
        with pytest.raises(errors.InputError):
            next(all_trees(9))

    @pytest.mark.parametrize("seq,v,message", [
        ((), 1, "at least two vertices"),
        ((), 0, "at least two vertices"),
        ((5,), 3, r"entries must lie in 1\.\.3"),
        ((0,), 3, r"entries must lie in 1\.\.3"),
        ((1, 1), 3, "has length 1, not 2"),
        ((), 3, "has length 1, not 0"),
        ((2, 9), 4, r"entries must lie in 1\.\.4"),
    ])
    def test_prufer_input_checks(self, seq, v, message):
        with pytest.raises(errors.InputError, match=message):
            tree_from_prufer(seq, v)


class TestPolygonTriangulations:
    @pytest.mark.parametrize("k,count", [(3, 1), (4, 2), (5, 5), (7, 42)])
    def test_catalan_counts(self, k, count):
        polys = list(polygon_triangulations(k))
        assert len(polys) == count
        assert len(set(polys)) == count

    def test_all_stacked_dimension_two(self):
        for X in polygon_triangulations(6):
            assert X.dim == 2
            assert X.n_facets == 4 and X.n_vertices == 6
            assert sc.is_stacked(X)

    def test_heptagon_figure_occurs(self, heptagon):
        assert heptagon in set(polygon_triangulations(7))

    def test_bounds(self):
        # checked on the call, before anything is iterated
        for k in (2, 11):
            with pytest.raises(errors.InputError):
                polygon_triangulations(k)

    @pytest.mark.parametrize("k", range(3, 11))
    def test_matches_recursive_enumeration(self, k):
        assert list(polygon_triangulations(k)) == recursive_polygon_triangulations(k)

    def test_one_by_index(self):
        for k in range(3, 11):
            pool = list(polygon_triangulations(k))
            assert triangulation_count(k) == len(pool)
            assert [polygon_triangulation(k, i) for i in range(len(pool))] == pool
        for index in (-1, 1430):
            with pytest.raises(errors.InputError, match=r"out of range 0\.\.1429"):
                polygon_triangulation(10, index)
        for k in (2, 11):
            with pytest.raises(errors.InputError):
                triangulation_count(k)


class TestRandomStacked:
    def test_single_simplex(self):
        X = random_stacked(3, 1, seed=0)
        assert X.n_facets == 1 and X.n_vertices == 4

    @pytest.mark.parametrize("seed", range(12))
    def test_outputs_are_stacked(self, seed):
        X = random_stacked(1 + seed % 3, 1 + seed % 8, seed)
        assert sc.is_stacked(X)
        assert X.n_vertices == X.n_facets + X.dim

    def test_deterministic(self):
        a = random_stacked(2, 7, seed=42)
        b = random_stacked(2, 7, seed=42)
        assert a == b and emit_complex(a) == emit_complex(b)

    def test_dimension_one_gives_trees(self):
        X = random_stacked(1, 9, seed=3)
        assert X.dim == 1
        assert X.n_vertices == X.n_facets + 1
        assert sc.is_stacked(X)

    def test_rejects_bad_parameters(self):
        with pytest.raises(errors.InputError):
            random_stacked(0, 3, seed=0)
        with pytest.raises(errors.InputError):
            random_stacked(2, 0, seed=0)


def rebuilt_walls_random_stacked(d, n, seed):
    """random_stacked as it sorts every codim-1 face anew on each step."""
    rng = random.Random(seed)
    facets = [tuple(range(1, d + 2))]
    next_label = d + 2
    for _ in range(n - 1):
        walls = sorted({tuple(sorted(c)) for f in facets for c in combinations(f, d)})
        g = rng.choice(walls)
        facets.append(tuple(sorted(g + (next_label,))))
        next_label += 1
    return sc.build_complex([tuple(str(x) for x in f) for f in facets])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_random_stacked_matches_rebuilt_walls(d):
    for seed in range(40):
        for n in (1, 2, 7, 30):
            assert random_stacked(d, n, seed) == rebuilt_walls_random_stacked(d, n, seed)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_random_stacked_matches_insort(d):
    # n facets make d * n + 1 walls: the first block splits at or just
    # before split + 1, and 20000 // d makes up to 20,001 walls, many splits
    split = 2 * generators.WALL_BLOCK // d
    for seed in range(5):
        for n in (1, 2, 3, split, split + 1, 5000 // d, 20000 // d):
            assert random_stacked(d, n, seed) == insort_random_stacked(d, n, seed), (n, seed)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_random_stacked_small_blocks(d, monkeypatch):
    """With blocks of two walls the Fenwick tree grows many levels deep and
    blocks split on most steps, at sizes small enough to try many seeds."""
    monkeypatch.setattr(generators, "WALL_BLOCK", 2)
    for seed in range(30):
        for n in (1, 2, 3, 9, 40, 300):
            assert random_stacked(d, n, seed) == insort_random_stacked(d, n, seed), (n, seed)
