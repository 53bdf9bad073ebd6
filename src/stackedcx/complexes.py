"""Pure simplicial complexes given by their facet lists.

A complex is immutable once built: every operation here and in the sibling
modules is a pure read.  Vertices are dense integer ids internally; the
original string tokens are kept for display and text round trips.
"""

import re
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .errors import (
    DuplicateFacetError,
    DuplicateVertexError,
    EmptyInputError,
    InputError,
    NotPureError,
    ZeroDimensionError,
)

_NUMERIC = re.compile(r"[0-9]+\Z")


def token_sort_key(token: str) -> tuple:
    """Numeric tokens first, ordered by value; everything else lexicographic."""
    if _NUMERIC.match(token):
        return (0, int(token), token)
    return (1, 0, token)


@dataclass(frozen=True)
class StackingOrder:
    """Certificate of stackedness: a facet ordering plus the vertex each
    facet introduces.  ``free_vertices[p-1]`` belongs to ``order[p]``."""

    order: tuple[int, ...]
    free_vertices: tuple[int, ...]


class SimplicialComplex:
    """A pure complex: facets of equal size d+1 over dense vertex ids."""

    __slots__ = ("labels", "facets", "facet_tuples", "dim", "_token_ids",
                 "_facet_index", "_hash", "_cache")

    def __init__(self, labels: tuple[str, ...],
                 facets: tuple[frozenset[int], ...], dim: int):
        # Internal constructor; use build_complex() for validated input.
        self.labels = labels
        self.facets = facets
        self.facet_tuples = tuple(tuple(sorted(f)) for f in facets)
        self.dim = dim
        self._token_ids = {tok: i for i, tok in enumerate(labels)}
        self._facet_index = {f: i for i, f in enumerate(facets)}
        self._hash = hash((labels, facets))
        self._cache: dict = {}

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    def has_token(self, token: str) -> bool:
        return token in self._token_ids

    def id_of(self, token: str) -> int:
        try:
            return self._token_ids[token]
        except KeyError:
            raise InputError(f"unknown vertex token {token!r}") from None

    def token_of(self, vid: int) -> str:
        return self.labels[vid]

    def facet_tokens(self, i: int) -> tuple[str, ...]:
        return tuple(self.labels[v] for v in self.facet_tuples[i])

    def facet_index(self, vertices: frozenset[int]) -> int:
        try:
            return self._facet_index[vertices]
        except KeyError:
            raise InputError(f"no facet with vertex ids {sorted(vertices)}") from None

    def facet_from_tokens(self, tokens: Iterable[str]) -> int:
        tokens = list(tokens)
        vertices = frozenset(map(self.id_of, tokens))
        if len(vertices) != len(tokens):
            raise DuplicateVertexError(f"repeated vertex in facet {','.join(tokens)!r}")
        if vertices not in self._facet_index:
            raise InputError(f"unknown facet {','.join(tokens)!r}")
        return self._facet_index[vertices]

    @property
    def codim1_faces(self) -> dict[frozenset[int], tuple[int, ...]]:
        """Every codimension-one face mapped to the facets containing it."""
        index = self._cache.get("codim1_faces")
        if index is None:
            index = {}
            for i, facet in enumerate(self.facet_tuples):
                for face in combinations(facet, self.dim):
                    index.setdefault(frozenset(face), []).append(i)
            index = {face: tuple(fs) for face, fs in index.items()}
            self._cache["codim1_faces"] = index
        return index

    @property
    def vertex_facets(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex id, the facets containing it."""
        table = self._cache.get("vertex_facets")
        if table is None:
            lists: list[list[int]] = [[] for _ in self.labels]
            for i, facet in enumerate(self.facet_tuples):
                for v in facet:
                    lists[v].append(i)
            table = tuple(tuple(fs) for fs in lists)
            self._cache["vertex_facets"] = table
        return table

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.labels == other.labels and self.facets == other.facets

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (f"SimplicialComplex(dim={self.dim}, facets={self.n_facets}, "
                f"vertices={self.n_vertices})")


def build_complex(facet_list: Iterable[Iterable[str]]) -> SimplicialComplex:
    """Validate a list of vertex-token sets and build the canonical complex.

    Vertex tokens get dense ids in canonical token order; facets are stored
    sorted, so equal inputs in any order produce identical complexes.
    """
    raw: list[tuple[str, ...]] = []
    for facet in facet_list:
        tokens = tuple(facet)
        for tok in tokens:
            if not isinstance(tok, str) or not tok or tok.split() != [tok]:
                raise InputError(f"invalid vertex token {tok!r}")
        if len(set(tokens)) != len(tokens):
            raise DuplicateVertexError(f"repeated vertex in facet {tokens}")
        raw.append(tokens)
    if not raw:
        raise EmptyInputError("no facets given")

    size = len(raw[0])
    for tokens in raw:
        if len(tokens) != size:
            raise NotPureError(
                f"facet {tokens} has {len(tokens)} vertices, expected {size}")
    if size < 2:
        raise ZeroDimensionError("facets must have at least two vertices")

    seen: set[frozenset[str]] = set()
    for tokens in raw:
        key = frozenset(tokens)
        if key in seen:
            raise DuplicateFacetError(f"facet {sorted(tokens)} appears twice")
        seen.add(key)

    labels = tuple(sorted({tok for tokens in raw for tok in tokens},
                          key=token_sort_key))
    ids = {tok: i for i, tok in enumerate(labels)}
    facet_sets = sorted((tuple(sorted(ids[t] for t in tokens)) for tokens in raw))
    facets = tuple(frozenset(f) for f in facet_sets)
    return SimplicialComplex(labels, facets, size - 1)


def restrict(X: SimplicialComplex, region: Iterable[int]) -> tuple[int, ...]:
    """Facets of X entirely inside the given vertex-id set, in canonical order."""
    keep = frozenset(region)
    return tuple(i for i, f in enumerate(X.facets) if f <= keep)


def dual_adjacency(X: SimplicialComplex) -> tuple[tuple[int, ...], ...]:
    """Undirected facet graph: an edge where two facets share a codim-1 face."""
    neighbours: list[set[int]] = [set() for _ in X.facets]
    for members in X.codim1_faces.values():
        for a, b in combinations(members, 2):
            neighbours[a].add(b)
            neighbours[b].add(a)
    return tuple(tuple(sorted(ns)) for ns in neighbours)


def subcomplex(X: SimplicialComplex, facet_indices: Iterable[int]) -> SimplicialComplex:
    """The complex generated by a subset of X's facets (tokens preserved)."""
    return build_complex([X.facet_tokens(i) for i in sorted(set(facet_indices))])


class StackingTree:
    """The facet-ridge incidence graph, a tree exactly when X is stacked.

    Nodes ``0..n-1`` are the facets and nodes ``n..`` the codimension-one
    faces in ``ridges`` order; an edge joins each facet to its d + 1
    ridges.  A facet lists its ridges in ``combinations`` order and a
    ridge its facets in ascending order.

    ``order`` lists the facets as the breadth-first sweep from facet 0
    reaches them, so the children of each facet form one contiguous run
    of it.  A reached facet c > 0 has ``up[c]``, the facet p across its
    parent ridge, ``free[c]`` = c - p, ``port[c]`` = p - c and
    ``depth[c]``, its facet distance from facet 0; the root's entries are
    0.
    """

    __slots__ = ("ridges", "adjacency", "order", "up", "free", "port", "depth")

    def __init__(self, X: SimplicialComplex):
        index = X.codim1_faces
        n = X.n_facets
        self.ridges = tuple(index)
        node = {ridge: r for r, ridge in enumerate(self.ridges, n)}
        self.adjacency = [[node[frozenset(face)] for face in combinations(facet, X.dim)]
                          for facet in X.facet_tuples]
        self.adjacency.extend(index.values())

        reached_from = [-1] * len(self.adjacency)
        reached_from[0] = 0
        nodes = [0]
        for u in nodes:
            for w in self.adjacency[u]:
                if reached_from[w] < 0:
                    reached_from[w] = u
                    nodes.append(w)
        self.order = [u for u in nodes if u < n]
        self.up, self.free, self.port, self.depth = ([0] * n for _ in range(4))
        for c in self.order[1:]:
            p = self.up[c] = reached_from[reached_from[c]]
            (self.free[c],) = X.facets[c] - X.facets[p]
            (self.port[c],) = X.facets[p] - X.facets[c]
            self.depth[c] = self.depth[p] + 1

    def sweep(self, sources: Iterable[int]) -> list[int]:
        """Breadth-first search from the given nodes, all at depth 0: each
        node's depth, -1 for nodes it does not reach.  A facet's depth is
        twice its facet distance to the nearest source facet."""
        depth = [-1] * len(self.adjacency)
        nodes = list(sources)
        for u in nodes:
            depth[u] = 0
        for u in nodes:
            below = depth[u] + 1
            for w in self.adjacency[u]:
                if depth[w] < 0:
                    depth[w] = below
                    nodes.append(w)
        return depth


def find_stacking_order(X: SimplicialComplex) -> StackingOrder | None:
    """A stacking order, or None when none exists.

    A pure complex is stacked iff |V| = n + d and its facets are connected
    through codimension-one faces.  The certificate is the stacking tree's
    sweep from facet 0: each facet after the first is reached through a
    ridge of an earlier one, so it adds at most one vertex; |V| = n + d
    forces exactly one, its free vertex.  The tree is cached with the
    certificate, so it is built once per complex.
    """
    if "stacking_order" in X._cache:
        return X._cache["stacking_order"]
    result = None
    if X.n_vertices == X.n_facets + X.dim:
        tree = StackingTree(X)
        if len(tree.order) == X.n_facets:
            free = tuple(tree.free[c] for c in tree.order[1:])
            result = StackingOrder(order=tuple(tree.order), free_vertices=free)
            X._cache["stacking_tree"] = tree
    X._cache["stacking_order"] = result
    return result


def stacking_tree(X: SimplicialComplex) -> StackingTree:
    """The stacking tree of X, built with its stacking certificate."""
    if find_stacking_order(X) is None:
        raise InputError("complex is not stacked")
    return X._cache["stacking_tree"]


def replay_stacking_order(X: SimplicialComplex, cert: StackingOrder) -> bool:
    """Check a stacking certificate step by step against its definition."""
    n = X.n_facets
    if sorted(cert.order) != list(range(n)) or len(cert.free_vertices) != n - 1:
        return False
    seen: set[int] = set()
    walls: set[frozenset[int]] = set()  # codim-1 faces of earlier facets
    for p, f in enumerate(cert.order):
        facet = X.facets[f]
        if p:
            v = cert.free_vertices[p - 1]
            if v not in facet or v in seen or facet - {v} not in walls:
                return False
        seen |= facet
        walls.update(frozenset(c) for c in combinations(X.facet_tuples[f], X.dim))
    return len(seen) == X.n_vertices


def is_stacked(X: SimplicialComplex) -> bool:
    """True iff a stacking order exists."""
    return find_stacking_order(X) is not None
