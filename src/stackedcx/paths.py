"""Gallery walks, unique facet/face paths, distances and neighborhoods.

On a stacked complex every pair of facets has a unique path (a walk whose
consecutive intersections are pairwise distinct), so distances here are
well defined.  That is because the facet-ridge incidence graph of a
stacked complex is a tree, the *stacking tree*, which
:func:`complexes.find_stacking_order` builds with the certificate and
roots at facet 0: paths climb its per-facet arrays, distances and
neighborhoods are read off its sweeps, and all raise InputError on
complexes that are not stacked.  Walk reduction itself
works on any pure complex, and it and :func:`wall_distance` stay as the
definitions the tree queries are tested against.

A distance row, all distances from one facet or vertex, is one
breadth-first sweep of the tree: a facet lies twice its facet distance
deep in a sweep from another facet.  :func:`partitions.is_scattered`
reads rows, and the two all-pairs matrices, which only the capped
enumerator reads, take one row per facet or vertex.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .complexes import SimplicialComplex, stacking_tree
from .errors import (
    InputError,
    NotAFaceError,
    NotCodimOneFaceError,
    NotSeparatedError,
    PathTooShortError,
)


@dataclass(frozen=True)
class FacetPath:
    """A walk with pairwise distinct consecutive intersections."""

    facets: tuple[int, ...]
    intersections: tuple[frozenset[int], ...]

    def __len__(self) -> int:
        return len(self.facets)


@dataclass(frozen=True)
class FacePath:
    """A facet path whose first facet contains h and last contains k, with
    neither face swallowed by the adjacent intersection."""

    h: frozenset[int]
    k: frozenset[int]
    path: FacetPath

    @property
    def facets(self) -> tuple[int, ...]:
        return self.path.facets

    def __len__(self) -> int:
        return len(self.path.facets)


def _check_walk(X: SimplicialComplex, walk: Sequence[int]) -> list[frozenset[int]]:
    if not walk:
        raise InputError("empty walk")
    inters = []
    for a, b in zip(walk, walk[1:]):
        g = X.facets[a] & X.facets[b]
        if len(g) != X.dim:
            raise InputError(
                f"facets {X.facet_tokens(a)} and {X.facet_tokens(b)} do not "
                f"share a codimension-one face")
        inters.append(g)
    return inters


def _make_path(X: SimplicialComplex, facets: tuple[int, ...]) -> FacetPath:
    inters = _check_walk(X, facets)
    if len(set(inters)) != len(inters):
        raise InputError("repeated intersection: walk is not a path")
    if len(set(facets)) != len(facets):
        raise InputError("repeated facet in path (is the complex stacked?)")
    return FacetPath(facets=facets, intersections=tuple(inters))


def reduce_walk(X: SimplicialComplex, walk: Sequence[int]) -> FacetPath:
    """Shorten a walk to a path with the same first and last facet.

    Collisions between consecutive-intersection values are resolved left to
    right: the first intersection seen twice triggers a cut.  On a stacked
    complex the result does not depend on this order.
    """
    facets = list(walk)
    _check_walk(X, facets)
    while True:
        inters = [X.facets[a] & X.facets[b] for a, b in zip(facets, facets[1:])]
        first_at: dict[frozenset[int], int] = {}
        hit = None
        for j, g in enumerate(inters):
            if g in first_at:
                hit = (first_at[g], j)
                break
            first_at[g] = j
        if hit is None:
            break
        i, j = hit
        if facets[i] != facets[j + 1]:
            facets = facets[:i + 1] + facets[j + 1:]
        else:
            facets = facets[:i] + facets[j + 1:]
    return _make_path(X, tuple(facets))


def facet_path(X: SimplicialComplex, f: int, g: int) -> FacetPath:
    """The unique path between two facets of a stacked complex: their path
    in the stacking tree, climbed from both ends to the lowest common
    ancestor facet p, which it skips when the last facets below p on the
    two sides lie across one ridge of p, that is, have the same port."""
    tree = stacking_tree(X)
    n = X.n_facets
    if not (0 <= f < n and 0 <= g < n):
        raise InputError(f"facet index outside 0..{n - 1}")
    up, depth, port = tree.up, tree.depth, tree.port
    rise, fall = [f], [g]
    while rise[-1] != fall[-1]:  # climb to the lowest common ancestor
        if depth[rise[-1]] >= depth[fall[-1]]:
            rise.append(up[rise[-1]])
        else:
            fall.append(up[fall[-1]])
    if len(rise) > 1 and len(fall) > 1 and port[rise[-2]] == port[fall[-2]]:
        rise.pop()  # children across one ridge meet in it, not at their parent
    facets = tuple(rise + fall[-2::-1])
    return FacetPath(facets=facets, intersections=tuple(
        X.facets[a] & X.facets[b] for a, b in zip(facets, facets[1:])))


def end_vertices(X: SimplicialComplex, path: FacetPath) -> tuple[int, int]:
    """The single vertices f_1 \\ f_2 and f_p \\ f_{p-1} of a path, p >= 2."""
    if len(path) < 2:
        raise PathTooShortError("end vertices need a path of length >= 2")
    first, second = X.facets[path.facets[0]], X.facets[path.facets[1]]
    last, before = X.facets[path.facets[-1]], X.facets[path.facets[-2]]
    (left,) = first - second
    (right,) = last - before
    return left, right


def _facets_containing(X: SimplicialComplex, face: frozenset) -> list[int]:
    """The facets containing a non-empty vertex set, in ascending order."""
    v = next(iter(face))
    if not isinstance(v, int) or not 0 <= v < X.n_vertices:
        return []
    return [f for f in X.vertex_facets[v] if face <= X.facets[f]]


def face_path(X: SimplicialComplex, h: Iterable[int], k: Iterable[int]) -> FacePath:
    """The unique path between faces h and k.

    Defined when the pair is separated: h != k and no two facets both
    contain h and k (otherwise there is no single witness path and
    NotSeparatedError is raised).

    The facet path from a facet of h to one of k is trimmed to its last
    facet on h, at i, and the first on k after it, at j.  The intersection
    of facets t and t + 1, i <= t < j, lies in facet t + 1, past the last
    facet on h, and in facet t, before the first on k: it holds neither.
    """
    h = frozenset(h)
    k = frozenset(k)
    if not h or not k:
        raise NotAFaceError("faces must be non-empty vertex sets")
    containing_h = _facets_containing(X, h)
    if not containing_h:
        raise NotAFaceError(f"{sorted(h)} is not a face")
    containing_k = _facets_containing(X, k)
    if not containing_k:
        raise NotAFaceError(f"{sorted(k)} is not a face")
    if h == k:
        raise NotSeparatedError("equal faces have no path between them")
    both = [i for i in containing_h if k <= X.facets[i]]
    if len(both) >= 2:
        raise NotSeparatedError(
            "face union lies in two facets: no unique path")
    if len(both) == 1:
        return FacePath(h=h, k=k, path=FacetPath(facets=(both[0],), intersections=()))

    full = facet_path(X, containing_h[0], containing_k[0])
    i = max(idx for idx, fi in enumerate(full.facets) if h <= X.facets[fi])
    j = min(idx for idx in range(i, len(full.facets))
            if k <= X.facets[full.facets[idx]])
    trimmed = FacetPath(facets=full.facets[i:j + 1],
                        intersections=full.intersections[i:j])
    return FacePath(h=h, k=k, path=trimmed)


def vertex_distance(X: SimplicialComplex, v: int, w: int) -> int:
    """0 for equal vertices, 1 for facet mates, otherwise the facet count
    of the unique face path between them."""
    if v == w:
        return 0
    if set(X.vertex_facets[v]) & set(X.vertex_facets[w]):
        return 1
    return len(face_path(X, (v,), (w,)))


def facet_distance(X: SimplicialComplex, f: int, g: int) -> int:
    """Length of the unique facet path minus one."""
    return len(facet_path(X, f, g)) - 1


def _incidence(X: SimplicialComplex) -> tuple[tuple[frozenset[int], ...], list[list[int]]]:
    """The stacking tree as a graph, built on first use: nodes 0..n-1 are
    the facets and nodes n.. the ridges, in the order returned with the
    adjacency lists; a facet lists its ridges in ``combinations`` order
    and a ridge its facets in ascending order."""
    graph = X._cache.get("incidence")
    if graph is None:
        index = X.codim1_faces
        node = {ridge: r for r, ridge in enumerate(index, X.n_facets)}
        adjacency = [[node[frozenset(face)] for face in combinations(facet, X.dim)]
                     for facet in X.facet_tuples]
        adjacency.extend(index.values())
        graph = X._cache["incidence"] = (tuple(index), adjacency)
    return graph


def _sweep(X: SimplicialComplex, sources: Iterable[int]) -> list[int]:
    """Breadth-first search of the stacking tree from the given nodes, all
    at depth 0: each node's depth, -1 for nodes it does not reach.  A
    facet's depth is twice its facet distance to the nearest source
    facet."""
    stacking_tree(X)  # raises unless X is stacked
    adjacency = _incidence(X)[1]
    depth = [-1] * len(adjacency)
    nodes = list(sources)
    for u in nodes:
        depth[u] = 0
    for u in nodes:
        below = depth[u] + 1
        for w in adjacency[u]:
            if depth[w] < 0:
                depth[w] = below
                nodes.append(w)
    return depth


def vertex_distance_row(X: SimplicialComplex, v: int) -> list[int]:
    """The distances from vertex v to every vertex, from one sweep.

    The facets of a vertex form a subtree, so the face path of an
    independent pair (v, w) is the tree path between their two subtrees,
    and its facet count is one more than the least facet distance from a
    facet of v to one of w; for facet mates that distance is 0.
    """
    stars = X.vertex_facets
    depth = _sweep(X, stars[v])
    row = [1 + min(map(depth.__getitem__, other)) // 2 for other in stars]
    row[v] = 0
    return row


def facet_distance_row(X: SimplicialComplex, f: int) -> list[int]:
    """The distances from facet f to every facet, from one sweep."""
    return [d >> 1 for d in _sweep(X, (f,))[:X.n_facets]]


def vertex_distance_matrix(X: SimplicialComplex) -> tuple[tuple[int, ...], ...]:
    """All vertex distances, one :func:`vertex_distance_row` per vertex."""
    matrix = X._cache.get("vertex_dist_matrix")
    if matrix is None:
        matrix = tuple(tuple(vertex_distance_row(X, v)) for v in range(X.n_vertices))
        X._cache["vertex_dist_matrix"] = matrix
    return matrix


def facet_distance_matrix(X: SimplicialComplex) -> tuple[tuple[int, ...], ...]:
    """All facet distances, one sweep from each facet."""
    matrix = X._cache.get("facet_dist_matrix")
    if matrix is None:
        matrix = tuple(tuple(facet_distance_row(X, f)) for f in range(X.n_facets))
        X._cache["facet_dist_matrix"] = matrix
    return matrix


@dataclass(frozen=True)
class DistanceNeighborhood:
    """Facets within distance m of a codim-1 face g, their vertices, and
    for each vertex new at level m its unique containing facet."""

    m: int
    facets: tuple[int, ...]
    vertices: frozenset[int]
    entry_facets: dict[int, int]


def wall_distance(X: SimplicialComplex, f: int, g: frozenset[int]) -> int:
    """Facet count of the unique face path from facet f to codim-1 face g.

    Equals 1 exactly when f contains g.
    """
    return len(face_path(X, X.facets[f], g))


def distance_neighborhood(X: SimplicialComplex, g: Iterable[int],
                          m: int) -> DistanceNeighborhood:
    """The neighborhood of facets whose distance to g is at most m.

    At m = 0 the facet set is empty and the vertex set is g itself.  One
    stacking-tree sweep from g's ridge node: a facet at wall distance k
    lies 2k - 1 deep, so level m holds the facets less than 2m deep.

    A vertex v new at level m lies on one facet of that level.  Between
    two such facets the tree path holds v at every node, as the facets of
    v form a subtree.  Its node nearest g is g, or a facet or a ridge's
    parent facet less than 2m - 2 deep, so v would not be new.
    """
    g = frozenset(g)
    if g not in X.codim1_faces:
        raise NotCodimOneFaceError(
            f"{sorted(g)} is not a codimension-one face")
    if m < 0:
        raise InputError("m must be >= 0")
    if m == 0:
        return DistanceNeighborhood(m=0, facets=(), vertices=g, entry_facets={})

    depth = _sweep(X, (X.n_facets + _incidence(X)[0].index(g),))
    facets_m = tuple(f for f in range(X.n_facets) if depth[f] < 2 * m)
    vertices_m = frozenset(v for f in facets_m for v in X.facets[f])
    if m == 1:
        prev_vertices = g
    else:
        prev_vertices = frozenset(v for f in facets_m if depth[f] < 2 * m - 2
                                  for v in X.facets[f])
    entry = {v: next(f for f in X.vertex_facets[v] if depth[f] < 2 * m)
             for v in sorted(vertices_m - prev_vertices)}
    return DistanceNeighborhood(m=m, facets=facets_m, vertices=vertices_m,
                                entry_facets=entry)
