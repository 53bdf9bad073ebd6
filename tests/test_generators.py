import random
from itertools import combinations

import pytest

import stackedcx as sc
from stackedcx import errors
from stackedcx.generators import (
    all_trees,
    polygon_triangulation,
    polygon_triangulations,
    random_stacked,
    triangulation_count,
)
from stackedcx.textio import emit_complex


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
        with pytest.raises(errors.InputError):
            next(polygon_triangulations(2))
        with pytest.raises(errors.InputError):
            next(polygon_triangulations(11))

    def test_one_by_index(self):
        pool = list(polygon_triangulations(7))
        assert triangulation_count(7) == 42
        assert [polygon_triangulation(7, i) for i in range(42)] == pool
        pool = list(polygon_triangulations(10))
        assert triangulation_count(10) == len(pool) == 1430
        assert polygon_triangulation(10, 0) == pool[0]
        assert polygon_triangulation(10, 1429) == pool[-1]
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
