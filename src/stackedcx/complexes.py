"""Pure simplicial complexes given by their facet lists.

A complex is immutable once built: every operation here and in the sibling
modules is a pure read.  Vertices are dense integer ids internally; the
original string tokens are kept for display and text round trips.
"""

import re
from dataclasses import dataclass
from functools import wraps
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
    """Numeric tokens first, ordered by value; everything else lexicographic.
    A value is compared by its digits without leading zeros, shorter
    first, so no token is converted and none is too long to order."""
    if _NUMERIC.match(token):
        digits = token.lstrip("0")
        return (0, len(digits), digits, token)
    return (1, token)


def derived(build):
    """Memoise ``build(X, *args)`` per complex X, under ``build`` itself
    when there are no further arguments and under ``(build, args)``
    otherwise.  Everything a complex derives lazily is kept this way, in
    its one memo; ``.built(X, *args)`` tells whether the value is built,
    and ``.seed(X, value, *args)`` stores a value known in closed form, so
    that ``build`` never runs for it."""
    @wraps(build)
    def get(X, *args):
        key = (build, args) if args else build
        try:
            return X._cache[key]
        except KeyError:
            pass  # built outside the handler, so its errors chain nothing
        value = X._cache[key] = build(X, *args)
        return value

    def seed(X, value, *args):
        X._cache[(build, args) if args else build] = value

    get.built = lambda X, *args: ((build, args) if args else build) in X._cache
    get.seed = seed
    return get


@dataclass(frozen=True)
class StackingOrder:
    """Certificate of stackedness: a facet ordering plus the vertex each
    facet introduces.  ``free_vertices[p-1]`` belongs to ``order[p]``."""

    order: tuple[int, ...]
    free_vertices: tuple[int, ...]


class SimplicialComplex:
    """A pure complex: facets of equal size d+1 over dense vertex ids.

    The token and facet lookups, the hash and everything else derived
    from the facets are built on first use, through :func:`derived`.
    """

    __slots__ = ("labels", "facet_tuples", "dim", "_cache")

    def __init__(self, labels: tuple[str, ...], facet_tuples: tuple[tuple[int, ...], ...]):
        # Internal constructor; use build_complex() or complex_from_ids().
        self.labels = labels
        self.facet_tuples = facet_tuples
        self.dim = len(facet_tuples[0]) - 1
        self._cache: dict = {}  # the memo of derived()

    @property
    @derived
    def facets(self) -> tuple[frozenset[int], ...]:
        """The facets as vertex-id sets, in the order of ``facet_tuples``."""
        return tuple(map(frozenset, self.facet_tuples))

    @derived
    def _ids(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.labels)}

    @derived
    def _facet_ids(self) -> dict[frozenset[int], int]:
        return {f: i for i, f in enumerate(self.facets)}

    @property
    def n_facets(self) -> int:
        return len(self.facet_tuples)

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    def id_of(self, token: str) -> int:
        try:
            return self._ids()[token]
        except KeyError:
            raise InputError(f"unknown vertex token {token!r}") from None

    def token_of(self, vid: int) -> str:
        return self.labels[vid]

    def facet_tokens(self, i: int) -> tuple[str, ...]:
        return tuple(self.labels[v] for v in self.facet_tuples[i])

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
    @derived
    def codim1_faces(self) -> dict[frozenset[int], tuple[int, ...]]:
        """Every codimension-one face mapped to the facets containing it."""
        index: dict[frozenset[int], list[int]] = {}
        for i, facet in enumerate(self.facet_tuples):
            for face in combinations(facet, self.dim):
                index.setdefault(frozenset(face), []).append(i)
        return {face: tuple(fs) for face, fs in index.items()}

    @property
    @derived
    def vertex_facets(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex id, the facets containing it."""
        lists: list[list[int]] = [[] for _ in self.labels]
        for i, facet in enumerate(self.facet_tuples):
            for v in facet:
                lists[v].append(i)
        return tuple(map(tuple, lists))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.labels == other.labels and self.facet_tuples == other.facet_tuples

    @derived
    def __hash__(self) -> int:
        return hash((self.labels, self.facet_tuples))

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


def complex_from_ids(labels: tuple[str, ...], facets: Iterable[tuple[int, ...]], *,
                     tree: "StackingTree | None" = None) -> SimplicialComplex:
    """The complex :func:`build_complex` returns for the tokens of these
    facets, built from ids: ``labels`` are in canonical token order, each
    facet is a sorted tuple of ids, and nothing is validated.  Facets are
    stored sorted, so any facet order gives the same complex.

    ``tree``, when given, is the stacking tree of a stacked complex, over
    the facets as stored, known in closed form: it and its certificate go
    into the memo as they are, so nothing is swept for them."""
    X = SimplicialComplex(labels, tuple(sorted(facets)))
    if tree is not None:
        _tree.seed(X, tree)
        find_stacking_order.seed(X, tree.certificate())
    return X


def restrict(X: SimplicialComplex, region: Iterable[int]) -> tuple[int, ...]:
    """Facets of X entirely inside the given vertex-id set, in canonical order."""
    keep = frozenset(region)
    return tuple(i for i, f in enumerate(X.facets) if f <= keep)


def dual_adjacency(X: SimplicialComplex) -> tuple[tuple[int, ...], ...]:
    """Undirected facet graph: an edge where two facets share a codim-1 face."""
    neighbours: list[set[int]] = [set() for _ in X.facet_tuples]
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
    graph that :mod:`paths` sweeps for closeness is built from these
    arrays, one ridge node per run of equal (``up``, ``port``) in
    ``order``.

    The sweep is the definition.  A complex whose tree is known in closed
    form arrives with it filled (:meth:`filled`, through
    :func:`complex_from_ids`): the line graphs of :mod:`natline` do, and
    never build ``codim1_faces`` or ``facets`` for it.
    """

    __slots__ = ("order", "up", "free", "port", "depth")

    @classmethod
    def filled(cls, order: list[int], up: list[int], free: list[int], port: list[int],
               depth: list[int]) -> "StackingTree":
        """The tree with these arrays, trusted to equal the sweep's."""
        tree = cls.__new__(cls)
        tree.order, tree.up, tree.free, tree.port, tree.depth = order, up, free, port, depth
        return tree

    def certificate(self) -> StackingOrder:
        """The stacking order read off a spanning tree: the facets in
        ``order``, each after the first with its free vertex."""
        return StackingOrder(tuple(self.order),
                             tuple(map(self.free.__getitem__, self.order[1:])))

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


@derived
def find_stacking_order(X: SimplicialComplex) -> StackingOrder | None:
    """A stacking order, or None when none exists.

    A pure complex is stacked iff |V| = n + d and its facets are connected
    through codimension-one faces.  The certificate is the stacking tree's
    sweep from facet 0: each facet after the first is reached through a
    ridge of an earlier one, so it adds at most one vertex; |V| = n + d
    forces exactly one, its free vertex.  The tree is kept beside the
    certificate, so it is built once per complex, on first use.
    """
    if X.n_vertices == X.n_facets + X.dim:
        tree = _tree(X)
        if len(tree.order) == X.n_facets:
            return tree.certificate()
    return None


@derived
def _tree(X: SimplicialComplex) -> StackingTree:
    return StackingTree(X)


def stacking_tree(X: SimplicialComplex) -> StackingTree:
    """The stacking tree of X, built with its stacking certificate."""
    if find_stacking_order(X) is None:
        raise InputError("complex is not stacked")
    return _tree(X)


def replay_stacking_order(X: SimplicialComplex, cert: StackingOrder) -> bool:
    """Check a stacking certificate step by step against its definition."""
    n = X.n_facets
    if sorted(cert.order) != list(range(n)) or len(cert.free_vertices) != n - 1:
        return False
    seen: set[int] = set()
    walls: set[frozenset[int]] = set()  # codim-1 faces of earlier facets
    facets = X.facets
    for p, f in enumerate(cert.order):
        facet = facets[f]
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
