"""Gallery walks, unique facet/face paths, distances and neighborhoods.

On a stacked complex every pair of facets has a unique path (a walk whose
consecutive intersections are pairwise distinct), so distances here are
well defined.  That is because the facet-ridge incidence graph of a
stacked complex is a tree, the *stacking tree*, which
:func:`complexes.find_stacking_order` builds with the certificate and
roots at facet 0: paths and distances climb its per-facet arrays,
closeness and neighborhoods are read off its sweeps, and all raise
InputError on complexes that are not stacked.  Walk reduction itself
works on any pure complex, and it and :func:`wall_distance` stay as the
definitions the tree queries are tested against.

Facets are read as ``facet_tuples``, sorted vertex-id tuples; faces and
intersections handed back are frozensets.  The facets containing a face
come from one lookup, :func:`_facets_containing`: a wall's from the ridge
index, any other face's from the facets of its vertex on fewest facets.

The elements closer than a scatter bound to an element, its *close*
list, are one bounded sweep of the tree as a graph built from the same
arrays; only the capped enumerator keeps every list (:func:`near`).  The
two all-pairs matrices take distances pair by pair; only tests read them.
"""

from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from .complexes import SimplicialComplex, derived, stacking_tree
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


def _check_ids(noun: str, size: int, ids: Collection[int]) -> None:
    if ids and not 0 <= min(ids) <= max(ids) < size:
        raise InputError(f"{noun} index outside 0..{size - 1}")


def _check_walk(X: SimplicialComplex, walk: Sequence[int]) -> list[frozenset[int]]:
    if not walk:
        raise InputError("empty walk")
    inters, facets = [], X.facet_tuples
    for a, b in zip(walk, walk[1:]):
        g = frozenset(facets[a]).intersection(facets[b])
        if len(g) != X.dim:
            raise InputError(
                f"facets {X.facet_tokens(a)} and {X.facet_tokens(b)} do not "
                f"share a codimension-one face")
        inters.append(g)
    return inters


def reduce_walk(X: SimplicialComplex, walk: Sequence[int]) -> FacetPath:
    """Shorten a walk to a path with the same first and last facet.

    Collisions between consecutive-intersection values are resolved left to
    right: the first intersection seen twice triggers a cut.  On a stacked
    complex the result does not depend on this order.
    """
    facets = list(walk)
    while True:  # a cut walk is still a walk: only the first pass can raise
        inters = _check_walk(X, facets)
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
    if len(set(facets)) != len(facets):
        raise InputError("repeated facet in path (is the complex stacked?)")
    return FacetPath(facets=tuple(facets), intersections=tuple(inters))


def facet_path(X: SimplicialComplex, f: int, g: int) -> FacetPath:
    """The unique path between two facets of a stacked complex: their path
    in the stacking tree, climbed from both ends to the lowest common
    ancestor facet p, which it skips when the last facets below p on the
    two sides lie across one ridge of p, that is, have the same port."""
    tree = stacking_tree(X)
    _check_ids("facet", X.n_facets, (f, g))
    up, depth, port = tree.up, tree.depth, tree.port
    rise, fall = [f], [g]
    while rise[-1] != fall[-1]:  # climb to the lowest common ancestor
        if depth[rise[-1]] >= depth[fall[-1]]:
            rise.append(up[rise[-1]])
        else:
            fall.append(up[fall[-1]])
    if len(rise) > 1 and len(fall) > 1 and port[rise[-2]] == port[fall[-2]]:
        rise.pop()  # children across one ridge meet in it, not at their parent
    facets, t = tuple(rise + fall[-2::-1]), X.facet_tuples
    return FacetPath(facets=facets, intersections=tuple(
        frozenset(t[a]).intersection(t[b]) for a, b in zip(facets, facets[1:])))


def end_vertices(X: SimplicialComplex, path: FacetPath) -> tuple[int, int]:
    """The single vertices f_1 \\ f_2 and f_p \\ f_{p-1} of a path, p >= 2."""
    if len(path) < 2:
        raise PathTooShortError("end vertices need a path of length >= 2")
    t, facets = X.facet_tuples, path.facets
    (left,) = frozenset(t[facets[0]]).difference(t[facets[1]])
    (right,) = frozenset(t[facets[-1]]).difference(t[facets[-2]])
    return left, right


def _facets_containing(X: SimplicialComplex, face: frozenset) -> Sequence[int]:
    """The facets containing a non-empty vertex set, in ascending order: a
    wall's from the ridge index, any other face's from the facets of its
    vertex on fewest facets."""
    if not all(isinstance(v, int) and 0 <= v < X.n_vertices for v in face):
        return []
    if len(face) == X.dim:
        return X.codim1_faces.get(tuple(sorted(face)), [])
    t, on = X.facet_tuples, X.vertex_facets
    return [f for f in min((on[v] for v in face), key=len) if face.issubset(t[f])]


def _listed(face: frozenset) -> list:
    """A face's ids in order, for a message; ids of other types than int
    are grouped by type, so a mixed face is listed too."""
    return sorted(face, key=lambda v: (type(v).__name__, v))


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
        raise NotAFaceError(f"{_listed(h)} is not a face")
    containing_k = _facets_containing(X, k)
    if not containing_k:
        raise NotAFaceError(f"{_listed(k)} is not a face")
    if h == k:
        raise NotSeparatedError("equal faces have no path between them")
    t = X.facet_tuples
    both = [i for i in containing_h if k.issubset(t[i])]
    if len(both) >= 2:
        raise NotSeparatedError(
            "face union lies in two facets: no unique path")
    if len(both) == 1:
        return FacePath(h=h, k=k, path=FacetPath(facets=(both[0],), intersections=()))

    full = facet_path(X, containing_h[0], containing_k[0])
    i = max(idx for idx, fi in enumerate(full.facets) if h.issubset(t[fi]))
    j = min(idx for idx in range(i, len(full.facets))
            if k.issubset(t[full.facets[idx]]))
    trimmed = FacetPath(facets=full.facets[i:j + 1],
                        intersections=full.intersections[i:j])
    return FacePath(h=h, k=k, path=trimmed)


def vertex_distance(X: SimplicialComplex, v: int, w: int) -> int:
    """0 for equal vertices, 1 for facet mates, otherwise the facet count
    of the unique face path between them."""
    _check_ids("vertex", X.n_vertices, (v, w))
    if v == w:
        return 0
    if set(X.vertex_facets[v]) & set(X.vertex_facets[w]):
        return 1
    return len(face_path(X, (v,), (w,)))


def facet_distance(X: SimplicialComplex, f: int, g: int) -> int:
    """Length of the unique facet path minus one."""
    return len(facet_path(X, f, g)) - 1


@derived
def _incidence(X: SimplicialComplex) -> list[list[int]]:
    """The stacking tree as a graph, from its arrays: nodes 0..n-1 are the
    facets, and each run of equal (``up``, ``port``) in ``order`` is one
    ridge node, joined to its parent facet and its children: a facet's
    children form one run, those across one ridge listed together with one
    port.  Ridges in one facet get no node; no sweep from facets needs them."""
    tree = stacking_tree(X)
    up, port = tree.up, tree.port
    adjacency: list[list[int]] = [[] for _ in range(X.n_facets)]
    ridge = None
    for c in tree.order[1:]:
        if (up[c], port[c]) != ridge:
            ridge = up[c], port[c]
            r = len(adjacency)
            adjacency.append([up[c]])
            adjacency[up[c]].append(r)
        adjacency[r].append(c)
        adjacency[c].append(r)
    return adjacency


def _sweep(X: SimplicialComplex, sources: Iterable[int], limit: int) -> dict[int, int]:
    """Breadth-first search of the stacking tree from the given facets, all
    at depth 0, to depth ``limit``: the depth of each node it reaches.  A
    facet's depth is twice its facet distance to the nearest source."""
    adjacency = _incidence(X)
    depth = dict.fromkeys(sources, 0)
    nodes = list(depth)
    for u in nodes:
        below = depth[u] + 1
        if below > limit:
            break
        for w in adjacency[u]:
            if w not in depth:
                depth[w] = below
                nodes.append(w)
    return depth


def close(X: SimplicialComplex, kind: str, e: int, s: int) -> list[int]:
    """The facets or vertices other than e closer than s to e, from one
    sweep that stops there; a facet lies 2k deep at distance k.  The
    facets of a vertex form a subtree, and two vertices on no common facet
    are one further apart than their subtrees, so for s >= 2 the vertices
    closer than s to e lie on the facets at most 2(s - 2) deep from e's."""
    if s < 2:
        return []
    n = X.n_facets
    if kind == "facets":
        return [f for f in _sweep(X, (e,), 2 * s - 2) if f < n and f != e]
    depth = _sweep(X, X.vertex_facets[e], 2 * s - 4)
    return list({v for f in depth if f < n for v in X.facet_tuples[f]} - {e})


@derived
def near(X: SimplicialComplex, kind: str, s: int) -> tuple[tuple[int, ...], ...]:
    """:func:`close` of every facet or every vertex, built once per complex,
    kind and s; quadratic on a star, where all edges are close at s = 2.
    A vertex's facets and those closer than s - 1 to them are the facets
    at most 2(s - 2) deep from its own: its list comes off the facet lists."""
    if kind == "facets" or s < 2:
        size = X.n_facets if kind == "facets" else X.n_vertices
        return tuple(tuple(close(X, kind, e, s)) for e in range(size))
    facets, mates = X.facet_tuples, near(X, "facets", s - 1)
    return tuple(tuple({u for f in star for g in (f, *mates[f]) for u in facets[g]} - {v})
                 for v, star in enumerate(X.vertex_facets))


def vertex_distance_matrix(X: SimplicialComplex) -> tuple[tuple[int, ...], ...]:
    """All vertex distances, pair by pair: the definition for tests."""
    vertices = range(X.n_vertices)
    return tuple(tuple(vertex_distance(X, v, w) for w in vertices) for v in vertices)


def facet_distance_matrix(X: SimplicialComplex) -> tuple[tuple[int, ...], ...]:
    """All facet distances, pair by pair: the definition for tests."""
    facets = range(X.n_facets)
    return tuple(tuple(facet_distance(X, f, g) for g in facets) for f in facets)


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
    _check_ids("facet", X.n_facets, (f,))
    return len(face_path(X, X.facet_tuples[f], g))


def distance_neighborhood(X: SimplicialComplex, g: Iterable[int],
                          m: int) -> DistanceNeighborhood:
    """The neighborhood of facets whose distance to g is at most m.

    g is a wall, a face of d vertices, when some facet contains it.  At
    m = 0 the facet set is empty and the vertex set is g itself.  One
    stacking-tree sweep from g's facets: a facet at wall distance k lies
    2k - 2 deep, so level m holds the facets less than 2m deep, and level
    m - 1 those less than 2m - 2 deep.

    A vertex v new at level m lies on one facet of that level.  Between
    two such facets the tree path holds v at every node, as the facets of
    v form a subtree.  Its node nearest g's facets is g, or a facet less
    than 2m - 2 deep, or a ridge whose parent facet is, so v would not be
    new.
    """
    g = frozenset(g)
    containing = _facets_containing(X, g) if len(g) == X.dim else []
    if not containing:
        raise NotCodimOneFaceError(
            f"{_listed(g)} is not a codimension-one face")
    if m < 0:
        raise InputError("m must be >= 0")
    if m == 0:
        return DistanceNeighborhood(m=0, facets=(), vertices=g, entry_facets={})

    depth = _sweep(X, containing, 2 * m - 1)
    facets_m, facets = tuple(sorted(f for f in depth if f < X.n_facets)), X.facet_tuples
    vertices_m = frozenset(v for f in facets_m for v in facets[f])
    if m == 1:
        prev_vertices = g
    else:
        prev_vertices = frozenset(v for f in facets_m if depth[f] < 2 * m - 2
                                  for v in facets[f])
    entry = {v: next(f for f in X.vertex_facets[v] if f in depth)
             for v in sorted(vertices_m - prev_vertices)}
    return DistanceNeighborhood(m=m, facets=facets_m, vertices=vertices_m,
                                entry_facets=entry)
