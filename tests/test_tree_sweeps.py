"""The distance sweeps' graph, built from the stacking tree's arrays,
against the facet-ridge incidence graph built from the ridge dictionary,
which defines it: from every facet, every vertex star and the facets of
every codimension-one face, both sweeps put each facet at the same depth."""

from itertools import combinations

import pytest

import stackedcx as sc
from stackedcx.generators import all_trees, polygon_triangulations, random_stacked
from stackedcx.paths import _sweep

from conftest import relabelled


def ridge_incidence(X):
    """The incidence graph by definition: nodes 0..n-1 are the facets and
    nodes n.. every codimension-one face; a facet lists its ridges in
    ``combinations`` order and a ridge its facets in ascending order."""
    index = X.codim1_faces
    node = {ridge: r for r, ridge in enumerate(index, X.n_facets)}
    adjacency = [[node[frozenset(face)] for face in combinations(facet, X.dim)]
                 for facet in X.facet_tuples]
    adjacency.extend(index.values())
    return adjacency


def reference_depths(adjacency, n, sources):
    depth = [-1] * len(adjacency)
    nodes = list(sources)
    for u in nodes:
        depth[u] = 0
    for u in nodes:
        for w in adjacency[u]:
            if depth[w] < 0:
                depth[w] = depth[u] + 1
                nodes.append(w)
    return depth[:n]


def source_sets(X):
    yield from ((f,) for f in range(X.n_facets))
    yield from X.vertex_facets
    yield from X.codim1_faces.values()


def assert_same_sweeps(X, sources=None):
    adjacency = ridge_incidence(X)
    n = X.n_facets
    for s in source_sets(X) if sources is None else sources:
        assert _sweep(X, s)[:n] == reference_depths(adjacency, n, s), s


def star(k):
    return sc.build_complex([["c", str(i)] for i in range(1, k + 1)])


def fan(d, k):
    """k d-simplices on one ridge of d vertices."""
    ridge = [f"r{i}" for i in range(d)]
    return sc.build_complex([ridge + [str(i)] for i in range(1, k + 1)])


def corpus():
    for d in (1, 2, 3):
        for n in (1, 2, 3, 5, 8, 13, 25):
            for seed in range(6):
                yield random_stacked(d, n, seed)
    for v in range(2, 7):
        yield from all_trees(v)
    for k in range(3, 8):
        yield from polygon_triangulations(k)
    for k in (1, 2, 3, 7):
        yield star(k)
    for d in (2, 3):
        for k in (3, 5):
            yield fan(d, k)


CORPUS = list(corpus())


@pytest.mark.parametrize("relabel", [False, True])
def test_sweeps_match_the_ridge_incidence_graph(relabel):
    for i, X in enumerate(CORPUS):
        assert_same_sweeps(relabelled(X, i) if relabel else X)


def test_sweeps_on_a_long_path():
    X = sc.line_graph(5000)
    assert_same_sweeps(X, [(0,), (4999,), (2500,), (17, 4000), X.vertex_facets[2500]])


def test_ridges_in_one_facet_get_no_node():
    X = fan(2, 4)  # one shared ridge; the 8 others lie in one facet each
    assert len(sc.paths._incidence(X)) == X.n_facets + 1
