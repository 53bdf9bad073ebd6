"""Differential tests: everything read off the stacking tree against the
slow definitions (dual-graph walks reduced by ``reduce_walk``, all-facet
scans, and the closure of the generator pairs)."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stackedcx as sc
from stackedcx import errors, paths
from stackedcx.generators import random_stacked

from conftest import closure, cx, facet_sets, relabelled


stackings = st.builds(relabelled,
                      st.builds(random_stacked, st.integers(1, 3), st.integers(1, 25),
                                st.integers(0, 10**6)),
                      st.integers(0, 10**6))


def bfs_walk(X, f, g):
    """A shortest walk from f to g over the dual graph."""
    adj = sc.dual_adjacency(X)
    parent = {f: f}
    frontier = [f]
    for cur in frontier:
        for nxt in adj[cur]:
            if nxt not in parent:
                parent[nxt] = cur
                frontier.append(nxt)
    walk = [g]
    while walk[-1] != f:
        walk.append(parent[walk[-1]])
    return walk[::-1]


def reference_facet_path(X, f, g):
    return sc.reduce_walk(X, bfs_walk(X, f, g))


def reference_vertex_path(X, v, w):
    """Facets of the face path between independent vertices: the reduced
    path between their first facets, trimmed to its last facet on v and
    the first facet on w after it."""
    sets = facet_sets(X)
    on_v = [i for i, f in enumerate(sets) if v in f]
    on_w = [i for i, f in enumerate(sets) if w in f]
    full = reference_facet_path(X, on_v[0], on_w[0])
    i = max(idx for idx, f in enumerate(full) if v in sets[f])
    j = min(idx for idx in range(i, len(full)) if w in sets[full[idx]])
    return full[i:j + 1]


def independent(X, v, w):
    return not any(v in f and w in f for f in facet_sets(X))


def random_facet_partition(X, rng):
    blocks: list[list[int]] = []
    for f in range(X.n_facets):
        slot = rng.randrange(len(blocks) + 1)
        if slot == len(blocks):
            blocks.append([f])
        else:
            blocks[slot].append(f)
    return sc.make_partition("facets", blocks, range(X.n_facets))


def random_independent_partition(X, rng):
    vertices = list(range(X.n_vertices))
    rng.shuffle(vertices)
    blocks: list[list[int]] = []
    for v in vertices:
        fits = [b for b in blocks if all(independent(X, v, u) for u in b)]
        if fits and rng.random() < 0.8:
            rng.choice(fits).append(v)
        else:
            blocks.append([v])
    return sc.make_partition("vertices", blocks, range(X.n_vertices))


@given(stackings)
@settings(max_examples=40, deadline=None)
def test_facet_path_is_reduced_bfs_walk(X):
    for f in range(X.n_facets):
        for g in range(X.n_facets):
            assert sc.facet_path(X, f, g) == reference_facet_path(X, f, g)


@given(stackings)
@settings(max_examples=25, deadline=None)
def test_distance_matrices_match_paths(X):
    facet_rows = tuple(tuple(len(reference_facet_path(X, f, g)) - 1
                             for g in range(X.n_facets))
                       for f in range(X.n_facets))
    assert paths.facet_distance_matrix(X) == facet_rows
    vertex_rows = tuple(
        tuple(0 if v == w else 1 if not independent(X, v, w)
              else len(reference_vertex_path(X, v, w))
              for w in range(X.n_vertices))
        for v in range(X.n_vertices))
    assert paths.vertex_distance_matrix(X) == vertex_rows


@given(stackings, st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_maps_are_closures_of_generators(X, seed):
    rng = random.Random(seed)
    Q = random_facet_partition(X, rng)
    pairs = [(p.a, p.b) for p in sc.facet_to_vertex_generators(X, Q)]
    assert sc.facet_to_vertex(X, Q) == closure("vertices", X.n_vertices, pairs)
    P = random_independent_partition(X, rng)
    pairs = [(p.a, p.b) for p in sc.vertex_to_facet_generators(X, P)]
    assert sc.vertex_to_facet(X, P) == closure("facets", X.n_facets, pairs)


@given(stackings, st.integers(0, 10**6), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_is_scattered_matches_pairwise_distances(X, seed, s):
    rng = random.Random(seed)
    cases = []
    for kind, size, dist in (("vertices", X.n_vertices, sc.vertex_distance),
                             ("facets", X.n_facets, sc.facet_distance)):
        members = []
        for e in rng.sample(range(size), size):  # greedily scattered, or not
            if rng.random() < 0.2 or all(dist(X, e, m) >= s for m in members):
                members.append(e)
        expected = all(dist(X, a, b) >= s for a, b in combinations(members, 2))
        cases.append((kind, members, expected))
    for kind, members, expected in cases:
        assert sc.is_scattered(X, members, s, kind) == expected


def test_paths_on_a_complex_that_is_not_stacked_raise():
    # a cycle of edges beside a lone edge: |V| = n + d, but not stacked
    X = cx("1 2", "2 3", "1 3", "4 5")
    with pytest.raises(errors.InputError, match="not stacked"):
        sc.facet_path(X, 0, 1)
    with pytest.raises(errors.InputError, match="not stacked"):
        paths.facet_distance_matrix(X)
    with pytest.raises(errors.InputError, match="not stacked"):
        sc.face_path(X, {X.id_of("1")}, {X.id_of("4")})


def test_facet_index_out_of_range(heptagon):
    with pytest.raises(errors.InputError):
        sc.facet_path(heptagon, 0, heptagon.n_facets)
    with pytest.raises(errors.InputError):
        sc.facet_path(heptagon, -1, 0)


def test_deep_path_has_no_recursion_limit():
    X = sc.line_graph(5000)
    assert sc.is_stacked(X)
    ends = X.facet_from_tokens(["1", "2"]), X.facet_from_tokens(["5000", "5001"])
    assert sc.facet_distance(X, *ends) == 4999
    assert sc.vertex_distance(X, X.id_of("1"), X.id_of("5001")) == 5000
    # edge i joins i and i + 1; edges of one parity relate i to i + 3
    Q = sc.make_partition("facets", [range(0, 5000, 2), range(1, 5000, 2)])
    P = sc.facet_to_vertex(X, Q)
    assert P == sc.make_partition("vertices", [range(k, 5001, 3) for k in range(3)])
    assert sc.vertex_to_facet(X, P) == Q
