"""The distance sweeps' graph, built from the stacking tree's arrays,
against the facet-ridge incidence graph built from the ridge dictionary,
which defines it: from every facet, every vertex star and the facets of
every codimension-one face, both sweeps put each facet at the same depth,
and a sweep bounded at some depth reaches the facets up to it and no
others.  The close lists read off bounded sweeps are checked against the
pairwise distance matrices, which define them."""

from itertools import combinations

import pytest

import stackedcx as sc
from stackedcx import paths
from stackedcx.generators import all_trees, polygon_triangulations, random_stacked
from stackedcx.paths import _sweep

from conftest import relabelled


def ridge_incidence(X):
    """The incidence graph by definition: nodes 0..n-1 are the facets and
    nodes n.. every codimension-one face; a facet lists its ridges in
    ``combinations`` order and a ridge its facets in ascending order."""
    index = X.codim1_faces
    node = {ridge: r for r, ridge in enumerate(index, X.n_facets)}
    adjacency = [[node[face] for face in combinations(facet, X.dim)]
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


def facet_depths(X, sources, limit):
    depth = _sweep(X, sources, limit)
    assert max(depth.values()) <= limit
    return [depth.get(f, -1) for f in range(X.n_facets)]


def assert_same_sweeps(X, sources=None):
    adjacency = ridge_incidence(X)
    n = X.n_facets
    for s in source_sets(X) if sources is None else sources:
        expected = reference_depths(adjacency, n, s)
        assert facet_depths(X, s, len(adjacency)) == expected, s
        for limit in (0, 1, 2, 4):
            assert facet_depths(X, s, limit) == [-1 if d > limit else d
                                                 for d in expected], (s, limit)


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
    # 11 facets and the 10 ridges between them: the sweep goes no further
    assert len(_sweep(X, (2500,), 10)) == 21


def test_ridges_in_one_facet_get_no_node():
    X = fan(2, 4)  # one shared ridge; the 8 others lie in one facet each
    assert len(sc.paths._incidence(X)) == X.n_facets + 1


def assert_close_lists_match_the_matrices(X):
    for kind, matrix in (("facets", paths.facet_distance_matrix(X)),
                         ("vertices", paths.vertex_distance_matrix(X))):
        for s in range(1, 6):
            lists = paths.near(X, kind, s)
            assert len(lists) == len(matrix)
            for a, row in enumerate(matrix):
                expected = {b for b, d in enumerate(row) if b != a and d < s}
                got = paths.close(X, kind, a, s)
                assert len(got) == len(expected) and set(got) == expected, (kind, a, s)
                assert set(lists[a]) == expected


@pytest.mark.parametrize("relabel", [False, True])
def test_close_lists_match_the_distance_matrices(relabel):
    for i, X in enumerate(CORPUS):
        assert_close_lists_match_the_matrices(relabelled(X, i) if relabel else X)


def test_is_scattered_at_scale_reads_no_close_lists():
    X = random_stacked(2, 4000, 17)
    # greedy blocks in certificate order, a perfect elimination order:
    # each facet joins the first block holding no facet close to it
    block_of = {}
    for f in sc.partitions.certificate_order(X, "facets"):
        taken = {block_of[g] for g in paths.close(X, "facets", f, 2) if g in block_of}
        block_of[f] = min(set(range(len(taken) + 1)) - taken)
    blocks = range(max(block_of.values()) + 1)
    partitions = {
        "scattered": sc.make_partition("facets", [[f for f in block_of if block_of[f] == b]
                                                  for b in blocks]),
        "by id mod 3": sc.make_partition("facets", [range(k, X.n_facets, 3) for k in range(3)])}
    for name, Q in partitions.items():
        image = sc.facet_to_vertex(X, Q)
        scattered = name == "scattered"
        assert all(sc.is_scattered(X, block, 2, "facets") for block in Q.blocks) == scattered
        # an image is independent, and (s + 1)-scattered when Q is s-scattered
        assert all(sc.is_scattered(X, block, 2, "vertices") for block in image.blocks)
        assert all(sc.is_scattered(X, block, 3, "vertices")
                   for block in image.blocks) == scattered
    for kind, s in (("facets", 2), ("vertices", 2), ("vertices", 3)):
        assert not paths.near.built(X, kind, s)


def test_is_scattered_on_a_large_star_reads_no_close_lists():
    X = star(2000)
    leaves = [v for v in range(X.n_vertices) if v != X.id_of("c")]
    assert sc.is_scattered(X, leaves, 2, "vertices")
    assert not sc.is_scattered(X, leaves, 3, "vertices")
    assert not sc.is_scattered(X, [0, 1999], 2, "facets")
    assert sc.is_scattered(X, range(X.n_facets), 1, "facets")
    for kind in ("facets", "vertices"):
        for s in (1, 2, 3):
            assert not paths.near.built(X, kind, s)
