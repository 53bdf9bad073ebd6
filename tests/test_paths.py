import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stackedcx as sc
from stackedcx import errors
from stackedcx.generators import random_stacked

from conftest import cx, facet, facet_sets, relabelled


def paper_paths(X, f, g):
    """Independent oracle: all walks from f to g whose consecutive
    intersections are pairwise distinct, by exhaustive search."""
    adj, sets = sc.dual_adjacency(X), facet_sets(X)
    found = []

    def dfs(cur, walk, used):
        if cur == g:
            found.append(tuple(walk))
        for nxt in adj[cur]:
            inter = sets[cur] & sets[nxt]
            if inter in used:
                continue
            walk.append(nxt)
            dfs(nxt, walk, used | {inter})
            walk.pop()

    dfs(f, [f], frozenset())
    return found


class TestReduceWalk:
    def test_star_first_rule(self, star_tree):
        a, b, e = (facet(star_tree, f"c,{i}") for i in "123")
        path = sc.reduce_walk(star_tree, [a, b, e])
        assert path.facets == (a, e)

    def test_star_second_rule(self, star_tree):
        a, b, _ = (facet(star_tree, f"c,{i}") for i in "123")
        path = sc.reduce_walk(star_tree, [a, b, a])
        assert path.facets == (a,)

    def test_heptagon_walk(self, heptagon):
        walk = [facet(heptagon, t) for t in
                ("2,3,4", "2,4,5", "2,5,7", "2,4,5", "2,5,7", "5,6,7")]
        path = sc.reduce_walk(heptagon, walk)
        expected = tuple(facet(heptagon, t) for t in
                         ("2,3,4", "2,4,5", "2,5,7", "5,6,7"))
        assert path.facets == expected

    def test_rejects_non_walk(self, heptagon):
        with pytest.raises(errors.InputError):
            sc.reduce_walk(heptagon, [facet(heptagon, "2,3,4"),
                                      facet(heptagon, "5,6,7")])

    def test_rejects_empty(self, heptagon):
        with pytest.raises(errors.InputError):
            sc.reduce_walk(heptagon, [])

    def test_rejects_a_closed_walk_on_a_cycle(self):
        # its intersections are pairwise distinct, but it ends where it began
        X = cx("1 2", "2 3", "3 4", "1 4")
        walk = [facet(X, t) for t in ("1,2", "2,3", "3,4", "1,4", "1,2")]
        with pytest.raises(errors.InputError, match=r"^repeated facet in path"):
            sc.reduce_walk(X, walk)


class TestFacetPath:
    def test_same_facet(self, heptagon):
        f = facet(heptagon, "2,4,5")
        assert sc.facet_path(heptagon, f, f).facets == (f,)

    def test_heptagon(self, heptagon):
        path = sc.facet_path(heptagon, facet(heptagon, "2,3,4"),
                             facet(heptagon, "5,6,7"))
        assert path.facets == tuple(facet(heptagon, t) for t in
                                    ("2,3,4", "2,4,5", "2,5,7", "5,6,7"))

    def test_line_tree(self):
        X = sc.line_graph(4)
        e1, e4 = facet(X, "1,2"), facet(X, "4,5")
        path = sc.facet_path(X, e1, e4)
        assert len(path) == 4

    def test_heptagon_all_pairs_unique_by_exhaustion(self, heptagon):
        for f, g in combinations(range(heptagon.n_facets), 2):
            candidates = paper_paths(heptagon, f, g)
            assert len(candidates) == 1
            assert candidates[0] == sc.facet_path(heptagon, f, g).facets

    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_uniqueness_on_random_stackings(self, seed):
        X = random_stacked(1 + seed % 3, 2 + seed % 5, seed)
        rng = random.Random(seed)
        f = rng.randrange(X.n_facets)
        g = rng.randrange(X.n_facets)
        candidates = paper_paths(X, f, g)
        assert len(candidates) == 1
        assert candidates[0] == sc.facet_path(X, f, g).facets

    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_random_walks_reduce_to_same_path(self, seed):
        X = random_stacked(1 + seed % 2, 3 + seed % 5, seed)
        rng = random.Random(seed ^ 0xBEEF)
        adj = sc.dual_adjacency(X)
        f = rng.randrange(X.n_facets)
        g = rng.randrange(X.n_facets)

        def random_walk():
            walk = [f]
            for _ in range(4 * X.n_facets):
                if walk[-1] == g:
                    break
                walk.append(rng.choice(adj[walk[-1]]))
            if walk[-1] != g:
                walk.extend(sc.facet_path(X, walk[-1], g).facets[1:])
            return walk

        expected = sc.facet_path(X, f, g).facets
        for _ in range(3):
            assert sc.reduce_walk(X, random_walk()).facets == expected


class TestEndVertices:
    def test_heptagon(self, heptagon):
        path = sc.facet_path(heptagon, facet(heptagon, "2,3,4"),
                             facet(heptagon, "5,6,7"))
        left, right = sc.end_vertices(heptagon, path)
        assert (heptagon.token_of(left), heptagon.token_of(right)) == ("3", "6")

    def test_two_edges(self):
        X = cx("1 2", "2 3")
        path = sc.facet_path(X, facet(X, "1,2"), facet(X, "2,3"))
        left, right = sc.end_vertices(X, path)
        assert (X.token_of(left), X.token_of(right)) == ("1", "3")

    def test_single_facet_too_short(self, heptagon):
        f = facet(heptagon, "2,3,4")
        with pytest.raises(errors.PathTooShortError):
            sc.end_vertices(heptagon, sc.facet_path(heptagon, f, f))


class TestFacePath:
    def test_facet_mates_with_unique_witness(self, heptagon):
        fp = sc.face_path(heptagon, {heptagon.id_of("2")}, {heptagon.id_of("3")})
        assert fp.facets == (facet(heptagon, "2,3,4"),)

    def test_heptagon_3_to_7(self, heptagon):
        fp = sc.face_path(heptagon, {heptagon.id_of("3")}, {heptagon.id_of("7")})
        assert fp.facets == tuple(facet(heptagon, t) for t in
                                  ("2,3,4", "2,4,5", "2,5,7"))

    def test_equal_faces_not_separated(self, heptagon):
        v = {heptagon.id_of("4")}
        with pytest.raises(errors.NotSeparatedError):
            sc.face_path(heptagon, v, v)

    def test_pair_on_two_facets_not_separated(self, heptagon):
        # {2,4} lies in both 234 and 245
        with pytest.raises(errors.NotSeparatedError):
            sc.face_path(heptagon, {heptagon.id_of("2")}, {heptagon.id_of("4")})

    @pytest.mark.parametrize("h, k, message", [
        ((), ("4",), "faces must be non-empty vertex sets"),
        (("4",), (), "faces must be non-empty vertex sets"),
        (("1", "3"), ("5",), r"\[0, 2\] is not a face"),
        (("1",), ("3", "5"), r"\[2, 4\] is not a face"),
    ])
    def test_rejects_empty_and_non_faces(self, heptagon, h, k, message):
        ids = [{heptagon.id_of(t) for t in face} for face in (h, k)]
        with pytest.raises(errors.NotAFaceError, match=f"^{message}$"):
            sc.face_path(heptagon, *ids)

    @pytest.mark.parametrize("v", [-1, 7, 99])
    def test_rejects_vertex_ids_out_of_range(self, heptagon, v):
        with pytest.raises(errors.NotAFaceError, match=rf"^\[{v}\] is not a face$"):
            sc.face_path(heptagon, {v}, {0})

    def test_not_a_face(self, heptagon):
        with pytest.raises(errors.NotAFaceError):
            sc.face_path(heptagon, {heptagon.id_of("1")},
                         {heptagon.id_of("3"), heptagon.id_of("6")})
        with pytest.raises(errors.NotAFaceError, match=r"^\[0, 'a'\] is not a face$"):
            sc.face_path(heptagon, ["a", 0], {1})

    def test_face_to_wall(self, heptagon):
        g = frozenset(heptagon.id_of(t) for t in "24")
        fp = sc.face_path(heptagon, heptagon.facet_tuples[facet(heptagon, "5,6,7")], g)
        assert fp.facets == tuple(facet(heptagon, t) for t in
                                  ("5,6,7", "2,5,7", "2,4,5"))

    def test_construction_independent_of_witness_facets(self):
        for seed in range(15):
            X = random_stacked(1 + seed % 3, 2 + seed % 5, seed)
            rng = random.Random(seed)
            pairs = [(v, w) for v, w in combinations(range(X.n_vertices), 2)
                     if not set(X.vertex_facets[v]) & set(X.vertex_facets[w])]
            if not pairs:
                continue
            v, w = rng.choice(pairs)
            expected = sc.face_path(X, (v,), (w,)).facets
            sets = facet_sets(X)
            for f in X.vertex_facets[v]:
                for g in X.vertex_facets[w]:
                    full = sc.facet_path(X, f, g)
                    i = max(i for i, fi in enumerate(full.facets)
                            if v in sets[fi])
                    j = min(j for j in range(i, len(full.facets))
                            if w in sets[full.facets[j]])
                    assert full.facets[i:j + 1] == expected

    def test_interior_never_swallows_ends(self):
        # every constructed face path keeps h and k out of the interior walls
        for seed in range(20):
            X = random_stacked(1 + seed % 3, 3 + seed % 5, seed)
            for v, w in combinations(range(X.n_vertices), 2):
                if set(X.vertex_facets[v]) & set(X.vertex_facets[w]):
                    continue
                fp = sc.face_path(X, (v,), (w,))
                for inter in fp.path.intersections:
                    assert v not in inter and w not in inter


class TestFacePathSemantics:
    """face_path must succeed exactly when one valid witness path exists
    (except for equal faces, which are always rejected)."""

    @staticmethod
    def all_valid_face_paths(X, h, k):
        found, sets = set(), facet_sets(X)
        for f in range(X.n_facets):
            if not h <= sets[f]:
                continue
            for g in range(X.n_facets):
                if not k <= sets[g]:
                    continue
                for walk in paper_paths(X, f, g):
                    if len(walk) >= 2:
                        first_inter = sets[walk[0]] & sets[walk[1]]
                        last_inter = sets[walk[-1]] & sets[walk[-2]]
                        if h <= first_inter or k <= last_inter:
                            continue
                    found.add(walk)
        return found

    def test_matches_exhaustive_witness_search(self):
        for seed in range(12):
            X = random_stacked(1 + seed % 3, 2 + seed % 4, seed)
            faces = [frozenset({v}) for v in range(X.n_vertices)]
            faces += sorted(map(frozenset, X.codim1_faces), key=sorted)
            for h in faces:
                for k in faces:
                    witnesses = self.all_valid_face_paths(X, h, k)
                    try:
                        fp = sc.face_path(X, h, k)
                    except errors.NotSeparatedError:
                        # rejected pairs are equal or genuinely ambiguous
                        assert h == k or len(witnesses) != 1
                    else:
                        assert witnesses == {fp.facets}


class TestDistances:
    def test_vertex_distance_basics(self, heptagon):
        d = heptagon.id_of
        assert sc.vertex_distance(heptagon, d("5"), d("5")) == 0
        assert sc.vertex_distance(heptagon, d("3"), d("7")) == 3
        assert sc.vertex_distance(heptagon, d("2"), d("4")) == 1

    def test_line_tree_distance(self):
        X = sc.line_graph(2)
        assert sc.vertex_distance(X, X.id_of("1"), X.id_of("3")) == 2

    def test_ids_out_of_range_are_rejected(self):
        X = sc.line_graph(3)  # the path 1-2-3-4
        wall = frozenset({X.id_of("2")})
        for bad in (-1, 4):
            for v, w in ((bad, 2), (2, bad), (bad, bad)):
                with pytest.raises(errors.InputError, match=r"^vertex index outside 0\.\.3$"):
                    sc.vertex_distance(X, v, w)
        for bad in (-1, 3):
            with pytest.raises(errors.InputError, match=r"^facet index outside 0\.\.2$"):
                sc.wall_distance(X, bad, wall)

    def test_distance_one_iff_share_facet(self):
        for seed in range(12):
            X = random_stacked(1 + seed % 3, 2 + seed % 6, seed)
            for v, w in combinations(range(X.n_vertices), 2):
                share = bool(set(X.vertex_facets[v]) & set(X.vertex_facets[w]))
                assert (sc.vertex_distance(X, v, w) == 1) == share

    def test_facet_distance_examples(self, heptagon):
        f, g = facet(heptagon, "2,3,4"), facet(heptagon, "2,5,7")
        assert sc.facet_distance(heptagon, f, f) == 0
        assert sc.facet_distance(heptagon, f, g) == 2
        assert sc.facet_distance(heptagon, facet(heptagon, "2,4,5"), g) == 1

    def test_facet_distance_is_a_metric(self):
        for seed in range(10):
            X = random_stacked(1 + seed % 3, 3 + seed % 5, seed)
            n = X.n_facets
            dist = [[sc.facet_distance(X, a, b) for b in range(n)]
                    for a in range(n)]
            for a in range(n):
                assert dist[a][a] == 0
                for b in range(n):
                    assert dist[a][b] == dist[b][a]
                    assert (dist[a][b] > 0) == (a != b)
                    for c in range(n):
                        assert dist[a][c] <= dist[a][b] + dist[b][c]

    def test_triangle_inequality_via_walk_concatenation(self, heptagon):
        # a path through b, reduced, witnesses dist(a,c) <= dist(a,b)+dist(b,c)
        for a in range(heptagon.n_facets):
            for b in range(heptagon.n_facets):
                for c in range(heptagon.n_facets):
                    walk = (sc.facet_path(heptagon, a, b).facets
                            + sc.facet_path(heptagon, b, c).facets[1:])
                    reduced = sc.reduce_walk(heptagon, walk)
                    assert reduced.facets == sc.facet_path(heptagon, a, c).facets
                    assert len(reduced) - 1 <= (sc.facet_distance(heptagon, a, b)
                                                + sc.facet_distance(heptagon, b, c))


def reference_neighborhood(X, g, m, dist):
    """The level-m neighborhood of wall g from each facet's wall distance."""
    if m == 0:
        return sc.DistanceNeighborhood(m=0, facets=(), vertices=g, entry_facets={})
    facets, sets = tuple(f for f in range(X.n_facets) if dist[f] <= m), facet_sets(X)
    vertices = frozenset(v for f in facets for v in sets[f])
    before = g if m == 1 else frozenset(
        v for f in range(X.n_facets) if dist[f] <= m - 1 for v in sets[f])
    entry = {}
    for v in vertices - before:
        (entry[v],) = [f for f in facets if v in sets[f]]
    return sc.DistanceNeighborhood(m=m, facets=facets, vertices=vertices,
                                   entry_facets=entry)


def assert_matches_reference(X):
    for g in map(frozenset, X.codim1_faces):
        dist = [sc.wall_distance(X, f, g) for f in range(X.n_facets)]
        for m in range(0, max(dist) + 2):
            got = sc.distance_neighborhood(X, g, m)
            assert got == reference_neighborhood(X, g, m, dist)


class TestDistanceNeighborhood:
    def test_rejects_negative_m(self, heptagon):
        g = frozenset(heptagon.id_of(t) for t in "24")
        with pytest.raises(errors.InputError, match="^m must be >= 0$"):
            sc.distance_neighborhood(heptagon, g, -1)

    def test_line_tree(self):
        X = sc.line_graph(4)
        g = frozenset({X.id_of("3")})
        n1 = sc.distance_neighborhood(X, g, 1)
        assert set(n1.facets) == {facet(X, "2,3"), facet(X, "3,4")}
        n2 = sc.distance_neighborhood(X, g, 2)
        assert set(n2.facets) == set(range(4))

    def test_heptagon_wall(self, heptagon):
        g = frozenset(heptagon.id_of(t) for t in "24")
        n1 = sc.distance_neighborhood(heptagon, g, 1)
        assert set(n1.facets) == {facet(heptagon, "2,3,4"),
                                  facet(heptagon, "2,4,5")}

    def test_m_zero(self, heptagon):
        g = frozenset(heptagon.id_of(t) for t in "24")
        n0 = sc.distance_neighborhood(heptagon, g, 0)
        assert n0.facets == () and n0.vertices == g and n0.entry_facets == {}

    def test_not_codim_one(self, heptagon):
        with pytest.raises(errors.NotCodimOneFaceError):
            sc.distance_neighborhood(heptagon, {heptagon.id_of("1")}, 1)

    @pytest.mark.parametrize("g", [(), ("2",), ("2", "4", "5"), ("1", "3"), ("1", 99),
                                   (-1, "2"), (0, "a")])
    def test_rejects_all_but_walls(self, heptagon, g):
        # empty, a vertex, a facet, a non-face, ids out of range, a mixed list
        ids = [heptagon.id_of(v) if isinstance(v, str) and v.isdigit() else v for v in g]
        listed = sorted(ids, key=lambda v: (isinstance(v, str), v))
        with pytest.raises(errors.NotCodimOneFaceError) as info:
            sc.distance_neighborhood(heptagon, ids, 1)
        assert str(info.value) == f"{listed} is not a codimension-one face"

    def test_entry_facets_property(self):
        # each vertex new at level m sits on a unique facet of X_m whose
        # other vertices were already present at level m-1
        rng = random.Random(5)
        for seed in range(20):
            X = random_stacked(1 + seed % 3, 2 + seed % 6, seed)
            walls = sorted(map(frozenset, X.codim1_faces), key=sorted)
            g = rng.choice(walls)
            prev = sc.distance_neighborhood(X, g, 0)
            for m in range(1, X.n_facets + 1):
                cur = sc.distance_neighborhood(X, g, m)
                for v, fv in cur.entry_facets.items():
                    assert v in X.facet_tuples[fv]
                    assert set(X.facet_tuples[fv]) - {v} <= prev.vertices
                    hosts = [f for f in cur.facets if v in X.facet_tuples[f]]
                    assert hosts == [fv]
                prev = cur
                if len(cur.facets) == X.n_facets:
                    break

    def test_wall_distance_one_iff_contains(self, heptagon):
        g = frozenset(heptagon.id_of(t) for t in "24")
        for f in range(heptagon.n_facets):
            contains = g.issubset(heptagon.facet_tuples[f])
            assert (sc.wall_distance(heptagon, f, g) == 1) == contains

    def test_a_wall_through_two_hubs_reads_no_fan(self):
        """The facets of a wall come from the ridge index.  On two fans of
        1,000 triangles around a and b, joined by the triangle a b c, the
        wall {a, b} lies on a b c alone, while a and b lie on 1,001
        facets each: a scan of either one's facets reads 1,001 tuples."""
        fan = 1000
        facets = [["a", "b", "c"], ["a", "c", "x1"], ["b", "c", "y1"]]
        facets += [["a", f"x{i}", f"x{i + 1}"] for i in range(1, fan)]
        facets += [["b", f"y{i}", f"y{i + 1}"] for i in range(1, fan)]
        X = sc.build_complex(facets)
        g = frozenset(map(X.id_of, "ab"))
        abc = facet(X, "a,b,c")
        expected = sc.distance_neighborhood(X, g, 1)  # builds the tree and its graph
        assert expected.facets == (abc,) and len(X.vertex_facets[X.id_of("a")]) == fan + 1

        class Counting(tuple):
            reads = 0

            def __getitem__(self, i):
                Counting.reads += 1
                return tuple.__getitem__(self, i)

        X.facet_tuples = Counting(X.facet_tuples)
        assert sc.distance_neighborhood(X, g, 1) == expected
        assert sc.face_path(X, g, [X.id_of("x2")]).facets[0] == abc
        assert Counting.reads < 50

    @given(st.integers(1, 3), st.integers(1, 25), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_wall_distance_reference(self, d, n, seed):
        assert_matches_reference(random_stacked(d, n, seed))

    @given(st.integers(1, 3), st.integers(1, 25), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_wall_distance_reference_relabelled(self, d, n, seed):
        assert_matches_reference(relabelled(random_stacked(d, n, seed), seed))

