"""The token-free constructor against the parsed-input path: generated
complexes, as generated and relabelled, equal build_complex on their
tokens, and their stacking trees equal the bipartite breadth-first search
that defines the tree."""

import random
from itertools import combinations

import pytest

import stackedcx as sc
from stackedcx.complexes import (
    SimplicialComplex,
    StackingTree,
    complex_from_ids,
    find_stacking_order,
    replay_stacking_order,
    stacking_tree,
    token_sort_key,
)
from stackedcx.generators import all_trees, polygon_triangulations, random_stacked


def bipartite_sweep(X):
    """The stacking tree's arrays by definition: breadth-first search from
    facet 0 over the facet-ridge incidence graph, a facet's ridges in
    combinations order and a ridge's facets in ascending order."""
    index = X.codim1_faces
    n = X.n_facets
    node = {ridge: r for r, ridge in enumerate(index, n)}
    adjacency = [[node[frozenset(face)] for face in combinations(facet, X.dim)]
                 for facet in X.facet_tuples] + list(index.values())
    reached_from = [-1] * len(adjacency)
    reached_from[0] = 0
    nodes = [0]
    for u in nodes:
        for w in adjacency[u]:
            if reached_from[w] < 0:
                reached_from[w] = u
                nodes.append(w)
    order = [u for u in nodes if u < n]
    up, free, port, depth = ([0] * n for _ in range(4))
    for c in order[1:]:
        p = up[c] = reached_from[reached_from[c]]
        (free[c],) = X.facets[c] - X.facets[p]
        (port[c],) = X.facets[p] - X.facets[c]
        depth[c] = depth[p] + 1
    return order, up, free, port, depth


def arrays(tree):
    return tree.order, tree.up, tree.free, tree.port, tree.depth


def relabel(labels, facets, seed):
    """Shuffle the tokens and the facets, and number the vertices in
    canonical order again."""
    rng = random.Random(seed)
    tokens = list(labels)
    rng.shuffle(tokens)
    new_labels = tuple(sorted(tokens, key=token_sort_key))
    new_id = {v: new_labels.index(tok) for v, tok in enumerate(tokens)}
    facets = [tuple(sorted(map(new_id.__getitem__, f))) for f in facets]
    rng.shuffle(facets)
    return new_labels, facets


def assert_same(X, tokens):
    """X equals build_complex(tokens) in every field and lookup, and its
    stacking tree and certificate equal those of the parsed complex."""
    R = sc.build_complex(tokens)
    assert (X.labels, X.facets, X.facet_tuples, X.dim) == (
        R.labels, R.facets, R.facet_tuples, R.dim)
    assert X == R and hash(X) == hash(R)
    assert [X.id_of(tok) for tok in R.labels] == list(range(R.n_vertices))
    assert [X.facet_from_tokens(f) for f in tokens] == [
        R.facet_from_tokens(f) for f in tokens]
    expected = bipartite_sweep(R)
    assert arrays(StackingTree(R)) == expected
    assert arrays(stacking_tree(X)) == expected
    cert = find_stacking_order(X)
    assert cert == find_stacking_order(R)
    assert replay_stacking_order(X, cert)


def generated():
    for n in range(1, 61):
        yield f"line{n}", sc.line_graph(n)
    for d in (1, 2, 3):
        for n in (1, 2, 3, 5, 8, 13, 21, 30):
            for seed in range(20):
                yield f"stacked{d},{n},{seed}", random_stacked(d, n, seed)
    for v in range(2, 7):
        for i, X in enumerate(all_trees(v)):
            yield f"tree{v},{i}", X
    for k in range(3, 9):
        for i, X in enumerate(polygon_triangulations(k)):
            yield f"polygon{k},{i}", X


CASES = list(generated())


@pytest.mark.parametrize("family", ["line", "stacked", "tree", "polygon"])
def test_generated_complexes_equal_parsed(family):
    for name, X in CASES:
        if name.startswith(family):
            tokens = [X.facet_tokens(i) for i in range(X.n_facets)]
            assert_same(X, tokens)


@pytest.mark.parametrize("family", ["line", "stacked", "tree", "polygon"])
def test_relabelled_complexes_equal_parsed(family):
    for seed, (name, X) in enumerate(CASES):
        if name.startswith(family):
            labels, facets = relabel(X.labels, X.facet_tuples, seed)
            tokens = [[labels[v] for v in f] for f in facets]
            assert_same(complex_from_ids(labels, facets), tokens)


def test_lookups_are_built_on_first_use():
    X = sc.line_graph(3)
    lookups = (SimplicialComplex._ids, SimplicialComplex._facet_ids, SimplicialComplex.__hash__)
    assert not any(lookup.built(X) for lookup in lookups)
    assert X.id_of("4") == 3 and X.facet_from_tokens(["2", "3"]) == 1
    assert hash(X) == hash(sc.build_complex([["1", "2"], ["2", "3"], ["3", "4"]]))
    assert all(lookup.built(X) for lookup in lookups)
    assert sc.facet_distance(X, 0, 2) == 2  # climbs the tree's arrays only
    assert not sc.paths._incidence.built(X)
    assert sc.paths.close(X, "facets", 0, 3) == [1, 2]
    assert sc.paths._incidence.built(X)


def test_sweep_stops_at_a_cycle():
    # a square with a tail: the sweep would reach the edge 3 4 from both
    # sides of the square before the last edge 5 6, and stops there
    X = sc.build_complex([["1", "2"], ["2", "3"], ["3", "4"], ["1", "4"],
                          ["4", "5"], ["5", "6"]])
    assert [X.facet_tokens(f) for f in StackingTree(X).order] == [
        ("1", "2"), ("1", "4"), ("2", "3"), ("3", "4"), ("4", "5")]


@pytest.mark.parametrize("sizes", [range(1, 301), [10_000]], ids=["1-300", "10000"])
def test_line_graph_tree_is_filled_as_swept(sizes):
    """line_graph fills its tree and certificate in closed form, building
    no ridge index for them; the sweep of the same facets with nothing
    seeded and the bipartite search that defines the tree agree."""
    for n in sizes:
        X = sc.line_graph(n)
        filled, cert = arrays(stacking_tree(X)), find_stacking_order(X)
        assert not SimplicialComplex.codim1_faces.fget.built(X)
        Y = complex_from_ids(X.labels, X.facet_tuples)
        assert filled == arrays(stacking_tree(Y)) == bipartite_sweep(Y)
        assert cert == find_stacking_order(Y) == sc.StackingOrder(
            tuple(range(n)), tuple(range(2, n + 1)))
        assert replay_stacking_order(X, cert)


def test_numeric_tokens_are_ordered_by_value_and_then_as_text():
    rng = random.Random(5)
    tokens = list({"0" * rng.randrange(3) + str(rng.randrange(10 ** rng.randrange(1, 6)))
                   for _ in range(500)} | {"a", "0a", "10a", "-1", "+2"})
    numeric = sorted((t for t in tokens if t.isdigit()), key=lambda t: (int(t), t))
    rest = sorted(t for t in tokens if not t.isdigit())
    assert sorted(tokens, key=token_sort_key) == numeric + rest
    big = "9" * 5000  # past the digits int() converts
    assert sorted([big, "0" + big, "1" + big[1:] + "0", "7"], key=token_sort_key) == [
        "7", "0" + big, big, "1" + big[1:] + "0"]
