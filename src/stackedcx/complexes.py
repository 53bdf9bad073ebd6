"""Pure simplicial complexes given by their facet lists.

A complex is immutable once built: every operation here and in the sibling
modules is a pure read.  Vertices are dense integer ids internally; the
original string tokens are kept for display and text round trips.
"""

import re
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import (
    DuplicateFacetError,
    DuplicateVertexError,
    EmptyInputError,
    InputError,
    NotPureError,
    ZeroDimensionError,
)

_NUMERIC = re.compile(r"[0-9]+\Z")
ZERO_DIMENSION = "facets must have at least two vertices"


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
    """A pure complex: facets of equal size d+1 over dense vertex ids.

    The token and facet lookups and the hash are built on first use.
    """

    __slots__ = ("labels", "facets", "facet_tuples", "dim", "_token_ids",
                 "_facet_index", "_hash", "_cache")

    def __init__(self, labels: tuple[str, ...], facet_tuples: tuple[tuple[int, ...], ...]):
        # Internal constructor; use build_complex() or complex_from_ids().
        self.labels = labels
        self.facet_tuples = facet_tuples
        self.facets = tuple(map(frozenset, facet_tuples))
        self.dim = len(facet_tuples[0]) - 1
        self._token_ids: dict[str, int] | None = None
        self._facet_index: dict[frozenset[int], int] | None = None
        self._hash: int | None = None
        self._cache: dict = {}

    def _ids(self) -> dict[str, int]:
        if self._token_ids is None:
            self._token_ids = {tok: i for i, tok in enumerate(self.labels)}
        return self._token_ids

    def _facet_ids(self) -> dict[frozenset[int], int]:
        if self._facet_index is None:
            self._facet_index = {f: i for i, f in enumerate(self.facets)}
        return self._facet_index

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    def has_token(self, token: str) -> bool:
        return token in self._ids()

    def id_of(self, token: str) -> int:
        try:
            return self._ids()[token]
        except KeyError:
            raise InputError(f"unknown vertex token {token!r}") from None

    def token_of(self, vid: int) -> str:
        return self.labels[vid]

    def facet_tokens(self, i: int) -> tuple[str, ...]:
        return tuple(self.labels[v] for v in self.facet_tuples[i])

    def facet_index(self, vertices: frozenset[int]) -> int:
        try:
            return self._facet_ids()[vertices]
        except KeyError:
            raise InputError(f"no facet with vertex ids {sorted(vertices)}") from None

    def facet_from_tokens(self, tokens: Iterable[str]) -> int:
        tokens = list(tokens)
        vertices = frozenset(map(self.id_of, tokens))
        if len(vertices) != len(tokens):
            raise DuplicateVertexError(f"repeated vertex in facet {','.join(tokens)!r}")
        index = self._facet_ids()
        if vertices not in index:
            raise InputError(f"unknown facet {','.join(tokens)!r}")
        return index[vertices]

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
        if self._hash is None:
            self._hash = hash((self.labels, self.facets))
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
        raise ZeroDimensionError(ZERO_DIMENSION)

    seen: set[frozenset[str]] = set()
    for tokens in raw:
        key = frozenset(tokens)
        if key in seen:
            raise DuplicateFacetError(f"facet {sorted(tokens)} appears twice")
        seen.add(key)
    return canonical_complex(raw)


def canonical_complex(facet_list: Sequence[Sequence[str]]) -> SimplicialComplex:
    """The complex of validated token lists: vertex tokens get dense ids in
    canonical token order.  Nothing is checked here."""
    labels = tuple(sorted({tok for tokens in facet_list for tok in tokens},
                          key=token_sort_key))
    ids = {tok: i for i, tok in enumerate(labels)}.__getitem__
    return complex_from_ids(labels, [tuple(sorted(map(ids, tokens))) for tokens in facet_list])


def complex_from_ids(labels: tuple[str, ...],
                     facets: Iterable[tuple[int, ...]]) -> SimplicialComplex:
    """The complex :func:`build_complex` returns for the tokens of these
    facets, built from ids: ``labels`` are in canonical token order, each
    facet is a sorted tuple of ids, and nothing is validated.  Facets are
    stored sorted, so any facet order gives the same complex."""
    return SimplicialComplex(labels, tuple(sorted(facets)))


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

    ``order`` lists the facets as the breadth-first sweep from facet 0
    reaches them: each facet visits its ridges in ``combinations`` order,
    and each ridge its facets in ascending order, so the children of each
    facet form one contiguous run of it.  A reached facet c > 0 has
    ``up[c]``, the facet p across its parent ridge, ``free[c]`` = c - p,
    ``port[c]`` = p - c and ``depth[c]``, its facet distance from facet 0;
    the root's entries are 0.  The sweep stops where it would reach a
    facet twice, as the graph has a cycle there; when |V| = n + d, that
    means X is not connected, and ``order`` is short.  The incidence
    graph itself is built only for the sweeps that :mod:`paths` reads
    distances off.
    """

    __slots__ = ("order", "up", "free", "port", "depth")

    def __init__(self, X: SimplicialComplex):
        index = X.codim1_faces
        n = X.n_facets
        order, up, free, port, depth = self.order, self.up, self.free, self.port, self.depth = (
            [0], *([0] * n for _ in range(4)))
        seen = [False] * n
        seen[0] = True
        facets, tuples = X.facets, X.facet_tuples
        for u in order:
            for x in reversed(tuples[u]):  # ridges in combinations order
                if u and x == free[u]:  # the ridge u was reached across
                    continue
                for w in index[facets[u] - {x}]:
                    if w == u:
                        continue
                    if seen[w]:  # a second way to w
                        return
                    seen[w] = True
                    order.append(w)
                    up[w], port[w], depth[w] = u, x, depth[u] + 1
                    (free[w],) = facets[w] - facets[u]


def find_stacking_order(X: SimplicialComplex) -> StackingOrder | None:
    """A stacking order, or None when none exists.

    A pure complex is stacked iff |V| = n + d and its facets are connected
    through codimension-one faces.  The certificate is the stacking tree's
    sweep from facet 0: each facet after the first is reached through a
    ridge of an earlier one, so it adds at most one vertex; |V| = n + d
    forces exactly one, its free vertex.  The tree is cached with the
    certificate, so it is built once per complex, on first use.
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
