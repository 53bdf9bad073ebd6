import ast
import random
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stackedcx as sc
from stackedcx import complexes, errors
from stackedcx.generators import all_trees, random_stacked

from conftest import cx, facet, relabelled


class TestBuild:
    def test_two_edge_tree(self):
        X = cx("1 2", "2 3")
        assert (X.dim, X.n_facets, X.n_vertices) == (1, 2, 3)

    def test_heptagon_counts(self, heptagon):
        assert (heptagon.dim, heptagon.n_facets, heptagon.n_vertices) == (2, 5, 7)

    def test_equality_with_another_type_is_false(self):
        X = cx("1 2")
        assert X.__eq__("x") is NotImplemented
        assert (X == "x") is False and X != "x"

    def test_repr(self):
        assert repr(cx("1 2")) == "SimplicialComplex(dim=1, facets=1, vertices=2)"

    def test_mixed_sizes_rejected(self):
        with pytest.raises(errors.NotPureError):
            cx("1 2", "1 2 3")

    def test_empty_input(self):
        with pytest.raises(errors.EmptyInputError):
            sc.build_complex([])

    def test_duplicate_facet(self):
        with pytest.raises(errors.DuplicateFacetError):
            cx("1 2", "2 3", "2 1")

    def test_duplicate_vertex_in_facet(self):
        with pytest.raises(errors.DuplicateVertexError):
            sc.build_complex([["1", "1", "2"]])

    def test_dimension_zero_rejected(self):
        with pytest.raises(errors.ZeroDimensionError):
            sc.build_complex([["1"], ["2"]])

    def test_bad_token(self):
        with pytest.raises(errors.InputError):
            sc.build_complex([["a b", "c"]])

    @pytest.mark.parametrize("facets, error, message", [
        ([], "EmptyInputError", "no facets in input"),
        (["1 2", "2 3", "3 3"], "DuplicateVertexError", "facet 3: repeated vertex in facet"),
        (["1 2", "2 3 4"], "NotPureError", "facet 2: facet has 3 vertices, facet 1 has 2"),
        (["1 2", "2 3", "2 1"], "DuplicateFacetError", "facet 3: facet already given on facet 1"),
        (["1", "2"], "ZeroDimensionError", "facets must have at least two vertices"),
        # the first facet at fault is named, whatever the faults after it
        (["1 2", "2 1", "1 1"], "DuplicateFacetError", "facet 2: facet already given on facet 1"),
        (["1", "1"], "DuplicateFacetError", "facet 2: facet already given on facet 1"),
        (["1 2", "a\tb c"], "InputError", "invalid vertex token 'a\\tb'"),
    ])
    def test_messages_name_the_first_facet_at_fault(self, facets, error, message):
        with pytest.raises(getattr(errors, error)) as info:
            sc.build_complex([f.split(" ") for f in facets])
        assert type(info.value) is getattr(errors, error)
        assert str(info.value) == message

    def test_numeric_tokens_sort_numerically(self):
        X = cx("10 2", "2 b")
        assert X.labels == ("2", "10", "b")

    def test_canonical_independent_of_input_order(self):
        a = cx("2 3 4", "2 4 5")
        b = cx("5 4 2", "4 3 2")
        assert a == b and hash(a) == hash(b)

    def test_facet_lookup(self, heptagon):
        i = facet(heptagon, "2,5,7")
        assert heptagon.facet_tokens(i) == ("2", "5", "7")
        with pytest.raises(errors.InputError):
            heptagon.facet_from_tokens(["1", "3", "5"])

    def test_facet_lookup_rejects_repeated_token(self):
        X = cx("1 2", "2 3", "3 4")
        assert X.facet_from_tokens(["2", "1"]) == facet(X, "1,2")
        for tokens in (["1", "1", "2"], ["1", "2", "1"], ["1", "1"]):
            with pytest.raises(errors.InputError, match="repeated vertex"):
                X.facet_from_tokens(tokens)

    def test_lookup_errors_name_the_tokens(self, heptagon):
        with pytest.raises(errors.InputError) as info:
            heptagon.id_of("9")
        assert str(info.value) == "unknown vertex token '9'"
        with pytest.raises(errors.InputError) as info:
            heptagon.facet_from_tokens(["1", "3", "5"])
        assert str(info.value) == "unknown facet '1,3,5'"
        X = cx("a b", "b c", "c d")
        with pytest.raises(errors.InputError) as info:
            X.facet_from_tokens(["a", "c"])
        assert str(info.value) == "unknown facet 'a,c'"


class TestStacking:
    def test_single_facet(self):
        X = cx("1 2 3")
        order = sc.find_stacking_order(X)
        assert order == sc.StackingOrder(order=(0,), free_vertices=())
        assert sc.is_stacked(X)

    def test_heptagon_order_replays(self, heptagon):
        order = sc.find_stacking_order(heptagon)
        assert order is not None
        assert sc.replay_stacking_order(heptagon, order)
        assert sc.is_stacked(heptagon)

    def test_two_triangles_sharing_vertex(self):
        X = cx("1 2 3", "1 4 5")
        assert sc.find_stacking_order(X) is None
        assert not sc.is_stacked(X)

    def test_tetrahedron_boundary(self):
        X = cx("1 2 3", "1 2 4", "1 3 4", "2 3 4")
        assert X.n_vertices != X.n_facets + X.dim
        assert not sc.is_stacked(X)

    def test_cycle_plus_lone_edge_passes_count_but_not_stacked(self):
        # v = n + d holds, yet the triangle of edges cannot be peeled
        X = cx("1 2", "2 3", "1 3", "4 5")
        assert X.n_vertices == X.n_facets + X.dim
        assert sc.find_stacking_order(X) is None

    def test_triangle_beside_spider_rejected_fast(self):
        # |V| = n + d holds but the facets fall into two components; a
        # peeling search with backtracking takes minutes on this input
        edges = ["a b", "b c", "a c"]
        for leg in range(8):
            chain = ["h"] + [f"l{leg}_{k}" for k in range(4)]
            edges += [f"{u} {w}" for u, w in zip(chain, chain[1:])]
        X = cx(*edges)
        assert X.n_vertices == X.n_facets + X.dim
        start = time.perf_counter()
        assert sc.find_stacking_order(X) is None
        assert time.perf_counter() - start < 1.0

    def test_all_small_trees_are_stacked(self):
        for T in all_trees(5):
            assert T.n_vertices == T.n_facets + 1
            assert sc.is_stacked(T)

    def test_replay_rejects_wrong_free_vertex(self, heptagon):
        order = sc.find_stacking_order(heptagon)
        wrong = sc.StackingOrder(order=order.order,
                                 free_vertices=order.free_vertices[::-1])
        bad = wrong.free_vertices != order.free_vertices
        assert not bad or not sc.replay_stacking_order(heptagon, wrong)

    # the heptagon replays as 127, 257 (+5), 245 (+4), 567 (+6), 234 (+3)
    @pytest.mark.parametrize("order, free, ok", [
        ("127 257 245 567 234", "5 4 6 3", True),
        ("127 257 245 567 234", "7 4 6 3", False),  # 7 is already in 127
        ("127 257 245 567 234", "4 5 6 3", False),  # 4 is not in 257
        ("127 567 257 245 234", "5 4 6 3", False),  # 567 meets 127 in 7 alone
        ("127 257 245 567 257", "5 4 6 3", False),  # 257 twice, 234 missing
        ("127 257 245 567 234", "5 4 6", False),    # one free vertex short
    ])
    def test_replay_checks_each_step(self, heptagon, order, free, ok):
        X = heptagon
        cert = sc.StackingOrder(
            order=tuple(facet(X, ",".join(f)) for f in order.split()),
            free_vertices=tuple(X.id_of(v) for v in free.split()))
        assert sc.replay_stacking_order(X, cert) == ok

    @given(st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_random_stackings_certify(self, seed):
        X = random_stacked(1 + seed % 3, 1 + seed % 8, seed)
        order = sc.find_stacking_order(X)
        assert order is not None
        assert sc.replay_stacking_order(X, order)

    @given(st.integers(0, 200), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_relabelled_stackings_certify(self, seed, shuffle):
        X = relabelled(random_stacked(1 + seed % 3, 1 + seed % 8, seed), shuffle)
        cert = sc.find_stacking_order(X)
        assert cert is not None
        assert sc.replay_stacking_order(X, cert)
        walls = {frozenset(r) for r in combinations(X.facet_tuples[cert.order[0]], X.dim)}
        for k, f in enumerate(cert.order[1:]):
            # a new facet meets the earlier ones in exactly the ridge it is glued on
            ridges = [frozenset(r) for r in combinations(X.facet_tuples[f], X.dim)]
            (glued,) = [r for r in ridges if r in walls]
            assert set(X.facet_tuples[f]) - glued == {cert.free_vertices[k]}
            walls.update(ridges)


class TestRestrict:
    def test_path_tree(self):
        X = cx("1 2", "2 3")
        ids = {X.id_of("1"), X.id_of("2")}
        assert sc.restrict(X, ids) == (X.facet_from_tokens(["1", "2"]),)

    def test_heptagon(self, heptagon):
        region = {heptagon.id_of(t) for t in "2345"}
        got = sc.restrict(heptagon, region)
        assert got == (facet(heptagon, "2,3,4"), facet(heptagon, "2,4,5"))

    def test_empty_region(self, heptagon):
        assert sc.restrict(heptagon, ()) == ()

    def test_full_region_identity(self, heptagon):
        assert sc.restrict(heptagon, range(heptagon.n_vertices)) == \
            tuple(range(heptagon.n_facets))

    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_monotone(self, seed):
        import random
        rng = random.Random(seed)
        X = random_stacked(1 + seed % 3, 1 + seed % 6, seed)
        verts = list(range(X.n_vertices))
        small = {v for v in verts if rng.random() < 0.5}
        large = small | {v for v in verts if rng.random() < 0.5}
        assert set(sc.restrict(X, small)) <= set(sc.restrict(X, large))


class TestDualAdjacency:
    def test_line_tree_is_path_graph(self):
        X = sc.line_graph(3)
        adj = sc.dual_adjacency(X)
        degrees = sorted(len(n) for n in adj)
        assert degrees == [1, 1, 2]

    def test_star_is_complete(self, star_tree):
        adj = sc.dual_adjacency(star_tree)
        assert all(len(n) == 2 for n in adj)

    def test_heptagon_edges(self, heptagon):
        adj = sc.dual_adjacency(heptagon)
        edges = {tuple(sorted((f, g))) for f, ns in enumerate(adj) for g in ns}
        expected_pairs = [("2,3,4", "2,4,5"), ("2,4,5", "2,5,7"),
                          ("2,5,7", "5,6,7"), ("2,5,7", "1,2,7")]
        expected = {tuple(sorted((facet(heptagon, a), facet(heptagon, b))))
                    for a, b in expected_pairs}
        assert edges == expected

    def test_connected_for_stacked(self):
        for seed in range(10):
            X = random_stacked(2, 6, seed)
            adj = sc.dual_adjacency(X)
            seen = {0}
            stack = [0]
            while stack:
                for g in adj[stack.pop()]:
                    if g not in seen:
                        seen.add(g)
                        stack.append(g)
            assert len(seen) == X.n_facets


def reference_facet_from_tokens(X, tokens):
    """facet_from_tokens over frozenset facets, the lookup it replaced:
    the same errors in the same order, and the same index."""
    tokens = list(tokens)
    vertices = frozenset(map(X.id_of, tokens))
    if len(vertices) != len(tokens):
        raise errors.DuplicateVertexError(f"repeated vertex in facet {','.join(tokens)!r}")
    index = {frozenset(f): i for i, f in enumerate(X.facet_tuples)}
    if vertices not in index:
        raise errors.InputError(f"unknown facet {','.join(tokens)!r}")
    return index[vertices]


def lookup_outcome(lookup, X, tokens):
    try:
        return lookup(X, tokens)
    except errors.InputError as e:
        return type(e), str(e)


def fuzzed_token_lists(X, rng):
    """Each facet's tokens permuted, then with a token unknown, repeated,
    dropped or added, and token lists of facet size drawn at random."""
    for i in range(X.n_facets):
        tokens = list(X.facet_tokens(i))
        rng.shuffle(tokens)
        yield tokens
        k = rng.randrange(len(tokens))
        yield tokens[:k] + ["?"] + tokens[k + 1:]
        yield tokens[:k] + [tokens[k - 1]] + tokens[k + 1:]
        yield tokens + [tokens[k]]
        yield tokens[:k] + tokens[k + 1:]
        yield tokens + [rng.choice(X.labels)]
        yield rng.sample(X.labels, len(tokens))
        yield [rng.choice(X.labels) for _ in tokens]


@pytest.mark.parametrize("seed", range(40))
def test_facet_lookup_equals_the_frozenset_lookup(seed):
    rng = random.Random(seed)
    X = random_stacked(1 + seed % 3, 1 + seed % 13, seed)
    for Y in (X, relabelled(X, seed)):
        for tokens in fuzzed_token_lists(Y, rng):
            assert (lookup_outcome(sc.SimplicialComplex.facet_from_tokens, Y, tokens)
                    == lookup_outcome(reference_facet_from_tokens, Y, tokens)), tokens


def test_certificate_and_lookups_build_no_frozenset(monkeypatch):
    """The stacking tree, the ridge index and the facet lookup of a
    relabelled 10^4-facet stacking read sorted id tuples only."""
    def refuse(*args, **kwargs):
        raise AssertionError("a frozenset was built")

    X = relabelled(random_stacked(2, 10 ** 4, 3), 3)
    monkeypatch.setattr(complexes, "frozenset", refuse, raising=False)
    cert = sc.find_stacking_order(X)
    assert cert is not None
    assert len(X.codim1_faces) == X.dim * X.n_facets + 1  # d new ridges per facet
    assert all(X.facet_from_tokens(X.facet_tokens(i)) == i for i in range(X.n_facets))
    monkeypatch.undo()
    assert sc.replay_stacking_order(X, cert)


def test_subcomplex_keeps_tokens(heptagon):
    sub = sc.subcomplex(heptagon, [facet(heptagon, "2,3,4"),
                                   facet(heptagon, "2,4,5")])
    assert sub.labels == ("2", "3", "4", "5")
    assert sub.n_facets == 2


def cache_touches(tree, scope=()):
    """The enclosing definitions of every ``_cache`` attribute or string."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inner = scope + (node.name,)
        elif (isinstance(node, ast.Attribute) and node.attr == "_cache"
              or isinstance(node, ast.Constant) and node.value == "_cache"):
            yield ".".join(scope)
        yield from cache_touches(node, inner)


def test_only_the_memo_touches_the_cache():
    """Derived structures go through complexes.derived, keyed by the
    function that builds them, so no string key can come back."""
    allowed = {"complexes.py:SimplicialComplex",  # its __slots__
               "complexes.py:SimplicialComplex.__init__"}
    seen = set()
    for path in sorted(Path(sc.__file__).parent.glob("*.py")):
        for scope in cache_touches(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{scope}"
            seen.add(where)
            assert where in allowed or where.startswith("complexes.py:derived"), where
    assert "complexes.py:derived.get" in seen
