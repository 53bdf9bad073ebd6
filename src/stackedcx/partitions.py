"""Partitions of vertices or facets and the maps between them.

A :class:`Partition` is a plain value over dense ids with one validator,
:func:`make_partition`, which :mod:`natline` also uses for [1..n].  Tokens
become ids and back only in :mod:`textio`.

The two correspondences work pair by pair.  Facet partition -> vertex
partition: two independent vertices are related when the end facets of
their face path share a block that no interior facet of the path touches.
Vertex partition -> facet partition: two facets are related when the end
vertices of their path share a block that no interior facet of the path
meets.  The maps return the equivalences these relations generate;
unrelated elements stay as singleton blocks.

Both maps are one preorder pass over the stacking tree rooted at facet 0
(:func:`_label`).  They read the per-facet arrays that
:class:`complexes.StackingTree` keeps with the certificate: the parent
facet, the free vertex, the port and the depth-first walk.  Every vertex
outside the root facet first appears at one facet, the free vertex of
that facet, so each map relates every new element, as it is reached, to
one element seen before it: the port of the nearest ancestor facet in
the right block.  Classes only grow, so a label per element holds them,
and no all-pairs structure is built.

The label array has two finishes.  The public maps validate their
:class:`Partition` and group the labels into canonical blocks.  The
string maps, which :func:`oracle.verify_bijection` runs, take and return
restricted-growth strings (entry e is the block number of element e,
blocks numbered in the order of their smallest element) and renumber the
labels into one.
"""

from dataclasses import dataclass
from itertools import combinations
from operator import eq
from typing import Iterable, Literal, Sequence

from .complexes import SimplicialComplex, stacking_tree
from .errors import InputError, NotAPartitionError, NotIndependentError
from .paths import end_vertices, face_path, facet_distance, facet_path, vertex_distance

GroundKind = Literal["vertices", "facets", "integers"]


@dataclass(frozen=True, slots=True)
class Partition:
    """Disjoint non-empty blocks covering a ground set of dense ints.

    Canonical form: elements sorted within blocks, blocks sorted by their
    smallest element.  Build through :func:`make_partition`; the direct
    constructor trusts its input.  Immutable and hashable.
    """

    kind: GroundKind
    blocks: tuple[tuple[int, ...], ...]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def elements(self) -> list[int]:
        return sorted(e for block in self.blocks for e in block)


def make_partition(kind: GroundKind, blocks: Iterable[Iterable[int]],
                   ground: Iterable[int] | None = None) -> Partition:
    """Canonicalize and validate blocks; ground, when given, must be covered."""
    cleaned = []
    seen: set[int] = set()
    for block in blocks:
        items = sorted(block)
        if not items:
            raise NotAPartitionError("empty block")
        for e in items:
            if e in seen:
                raise NotAPartitionError(f"element {e} in two blocks")
            seen.add(e)
        cleaned.append(tuple(items))
    if not cleaned:
        raise NotAPartitionError("no blocks")
    if ground is not None:
        ground = set(ground)
        missing = ground - seen
        extra = seen - ground
        if missing:
            raise NotAPartitionError(f"elements not covered: {sorted(missing)}")
        if extra:
            raise NotAPartitionError(f"elements outside ground set: {sorted(extra)}")
    cleaned.sort(key=lambda b: b[0])
    return Partition(kind=kind, blocks=tuple(cleaned))


def restrict_partition(P: Partition, keep: Iterable[int]) -> Partition:
    """Intersect every block with ``keep``, dropping emptied blocks."""
    keep = frozenset(keep)
    blocks = [tuple(e for e in block if e in keep) for block in P.blocks]
    blocks = [b for b in blocks if b]
    blocks.sort(key=lambda b: b[0])
    return Partition(kind=P.kind, blocks=tuple(blocks))


def is_scattered(X: SimplicialComplex, members: Iterable[int], s: int,
                 kind: GroundKind) -> bool:
    """True iff all distinct pairs are at distance >= s (vacuous on
    singletons; every set is 1-scattered)."""
    if s < 1:
        raise InputError("scatter must be >= 1")
    items = sorted(set(members))
    if kind == "vertices":
        dist = vertex_distance
    elif kind == "facets":
        dist = facet_distance
    else:
        raise InputError(f"unknown ground kind {kind!r}")
    return all(dist(X, a, b) >= s for a, b in combinations(items, 2))


def _index_cover(P: Partition, kind: GroundKind, size: int) -> list[int]:
    """Check that P partitions the ``size`` elements of ``kind``; return
    each element's block number."""
    if P.kind != kind:
        raise NotAPartitionError(f"expected a partition of {kind}, got {P.kind}")
    block_of = [-1] * size
    for b, block in enumerate(P.blocks):
        for e in block:
            if not 0 <= e < size or block_of[e] >= 0:
                raise NotAPartitionError(f"blocks do not partition the {size} {kind}")
            block_of[e] = b
    if -1 in block_of:
        raise NotAPartitionError(f"blocks do not partition the {size} {kind}")
    return block_of


def _label(walk: list[int], edge_key: Sequence[int], edge_source: Sequence[int],
           lookup_key: Sequence[int], element: Sequence[int], size: int,
           n_blocks: int) -> list[int]:
    """Each of ``size`` elements labelled by its class in the equivalence
    one tree walk builds: both maps, which differ only in their arguments.
    Two elements share a class iff they share a label.

    Entering a non-root facet c, with parent p, first crosses the edge
    p-c: ``cur[edge_key[c]]`` is saved and set to the label of
    ``edge_source[c]``, and restored when the walk leaves c.  Then the
    element of c joins the class ``cur[lookup_key[c]]``; when that is
    still -1 the element starts its block's root region instead, and its
    own label is written there and never restored.  Leaving a facet
    restores its edge's entry, so only the edges on c's path to the root
    are in effect at c.  The element is new (the free vertex c - p first
    appears at c, as a vertex's facets form a subtree; in v2f it is c
    itself), so classes only grow and a label per element holds them.

    f2v: edge key ``block_of[p]``, edge source ``port[c]``, lookup key
    ``block_of[c]``, element ``free[c]``.  Let B be c's block and a the
    nearest proper ancestor of c in B, with x its child towards c.  The
    edge a-x is keyed B and carries port[x] = a - x; an edge keyed B below
    it would start at a nearer B facet.  So c joins port[x]: the path a..c
    has both ends in B, none inside, and end vertices port[x] and free[c].

    v2f: edge key ``block_of[port[c]]``, edge source ``p``, lookup key
    ``block_of[free[c]]``, element c.  When P is independent, the nearest
    proper ancestor a of c that meets c's block C is the parent facet of
    the first edge a-x upward from c whose port[x] lies in C.  Let u be a's
    vertex in C.  Were u in x, then x = c would hold u and free[c], which
    is not in a, two vertices of C on one facet, and a proper ancestor x
    would meet C nearer than a; so u = port[x].  An edge keyed C below a-x
    would start at a nearer facet meeting C.  So c joins a: the path a..c
    has end vertices port[x] and free[c] in C and no inner facet meeting C.

    Every join is thus a related pair.  Conversely, a related pair (i, j)
    with j below i is such a join.  Otherwise the path turns at a facet g
    between them, and g and the facets up to it are inside the path, so
    i and j have the same nearest qualifying ancestor above g, reached
    through the same edge, and join the same class; when there is none,
    both start or join the root region.  Any two elements of a root
    region are related, since no facet above either one qualifies.
    """
    label = list(range(size))
    cur = [-1] * n_blocks
    saved = [0] * len(edge_key)
    for c in walk:
        if c < 0:
            cur[edge_key[~c]] = saved[~c]
            continue
        k = edge_key[c]
        saved[c] = cur[k]
        cur[k] = label[edge_source[c]]
        k = lookup_key[c]
        if cur[k] < 0:
            cur[k] = element[c]
        else:
            label[element[c]] = cur[k]
    return label


def _blocks(label: list[int]) -> tuple[tuple[int, ...], ...]:
    """The classes of a label array as canonical blocks."""
    blocks: dict[int, list[int]] = {}
    for e, root in enumerate(label):
        if root in blocks:
            blocks[root].append(e)
        else:
            blocks[root] = [e]
    return tuple(map(tuple, blocks.values()))


def _growth_string(label: list[int]) -> tuple[int, ...]:
    """The classes of a label array as a restricted-growth string: classes
    numbered 0, 1, ... in the order of their smallest element."""
    first: dict[int, int] = {}
    return tuple([first.setdefault(x, len(first)) for x in label])


def _vertex_label(X: SimplicialComplex, block_of: Sequence[int],
                  n_blocks: int) -> list[int]:
    """The vertex classes :func:`facet_to_vertex` builds from each facet's
    block number."""
    tree = stacking_tree(X)
    return _label(tree.walk, list(map(block_of.__getitem__, tree.up)), tree.port,
                  block_of, tree.free, X.n_vertices, n_blocks)


def _facet_label(X: SimplicialComplex, block_of: Sequence[int],
                 n_blocks: int) -> list[int]:
    """The facet classes :func:`vertex_to_facet` builds from each vertex's
    block number, which must put no two vertices of a facet in one block."""
    tree = stacking_tree(X)
    get = block_of.__getitem__
    return _label(tree.walk, list(map(get, tree.port)), tree.up,
                  list(map(get, tree.free)), range(X.n_facets), X.n_facets, n_blocks)


def _edge_ends(X: SimplicialComplex) -> tuple[list[int], list[int]]:
    """The edges of a stacked complex as two endpoint arrays: the pairs of
    facet 0, then (free[c], u) for each other vertex u of each other facet
    c.  A pair of c's vertices that avoids free[c] lies in c's parent
    ridge, so in its parent facet, and is listed higher up the tree."""
    ends = X._cache.get("edge_ends")
    if ends is None:
        tree = stacking_tree(X)
        tails, heads = (list(e) for e in zip(*combinations(X.facet_tuples[0], 2)))
        for c in tree.order[1:]:
            v = tree.free[c]
            for u in X.facet_tuples[c]:
                if u != v:
                    tails.append(v)
                    heads.append(u)
        ends = X._cache["edge_ends"] = (tails, heads)
    return ends


def _check_independent(X: SimplicialComplex, block_of: Sequence[int]) -> None:
    """Raise unless every block is independent: two vertices of one facet
    are the ends of an edge, so no edge may have both ends in one block."""
    tails, heads = _edge_ends(X)
    get = block_of.__getitem__
    if any(map(eq, map(get, tails), map(get, heads))):
        raise NotIndependentError("a block has two vertices on one facet")


def vertex_to_facet(X: SimplicialComplex, P: Partition) -> Partition:
    """Map a partition of vertices into independent blocks to the induced
    facet partition."""
    block_of = _index_cover(P, "vertices", X.n_vertices)
    _check_independent(X, block_of)
    return Partition(kind="facets", blocks=_blocks(_facet_label(X, block_of, len(P.blocks))))


def facet_to_vertex(X: SimplicialComplex, Q: Partition) -> Partition:
    """Map any facet partition to the induced vertex partition."""
    block_of = _index_cover(Q, "facets", X.n_facets)
    return Partition(kind="vertices", blocks=_blocks(_vertex_label(X, block_of, len(Q.blocks))))


def facet_to_vertex_string(X: SimplicialComplex, a: tuple[int, ...]) -> tuple[int, ...]:
    """:func:`facet_to_vertex` on restricted-growth strings: ``a[f]`` is
    the block of facet f, and the result's entry v is the block of vertex
    v.  The string is trusted, not validated."""
    return _growth_string(_vertex_label(X, a, max(a) + 1))


def vertex_to_facet_string(X: SimplicialComplex, a: tuple[int, ...], *,
                           independent: bool = False) -> tuple[int, ...]:
    """:func:`vertex_to_facet` on restricted-growth strings, as
    :func:`facet_to_vertex_string`.  The independence test is skipped when
    the caller knows every block to be independent."""
    if not independent:
        _check_independent(X, a)
    return _growth_string(_facet_label(X, a, max(a) + 1))


@dataclass(frozen=True)
class GeneratorPair:
    """One emitted relation a ~ b together with its witnessing path facets."""

    a: int
    b: int
    witness: tuple[int, ...]


def vertex_to_facet_generators(X: SimplicialComplex,
                               P: Partition) -> list[GeneratorPair]:
    """The facet pairs :func:`vertex_to_facet` closes over, with witnesses."""
    block_of = _index_cover(P, "vertices", X.n_vertices)
    out = []
    for i, j in combinations(range(X.n_facets), 2):
        path = facet_path(X, i, j)
        v, w = end_vertices(X, path)
        b = block_of[v]
        if block_of[w] != b:
            continue
        if any(block_of[u] == b for f in path.facets[1:-1] for u in X.facets[f]):
            continue
        out.append(GeneratorPair(a=i, b=j, witness=path.facets))
    return out


def facet_to_vertex_generators(X: SimplicialComplex,
                               Q: Partition) -> list[GeneratorPair]:
    """The independent vertex pairs :func:`facet_to_vertex` closes over."""
    block_of = _index_cover(Q, "facets", X.n_facets)
    out = []
    for v, w in combinations(range(X.n_vertices), 2):
        if set(X.vertex_facets[v]) & set(X.vertex_facets[w]):
            continue
        fp = face_path(X, (v,), (w,))
        b = block_of[fp.facets[0]]
        if block_of[fp.facets[-1]] != b:
            continue
        if any(block_of[f] == b for f in fp.facets[1:-1]):
            continue
        out.append(GeneratorPair(a=v, b=w, witness=fp.facets))
    return out
