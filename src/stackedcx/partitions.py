"""Partitions of vertices or facets and the maps between them.

The two correspondences work pair by pair.  Facet partition -> vertex
partition: two independent vertices are related when the end facets of
their face path share a block that no interior facet of the path touches.
Vertex partition -> facet partition: two facets are related when the end
vertices of their path share a block that no interior facet of the path
meets.  Both relations are closed into equivalences with a union-find;
unrelated elements stay as singleton blocks.

Both maps read the one pair table of :mod:`paths`, cached per complex: a
row per facet pair i < j, which is also the row of the independent vertex
pair (v, w) at the ends of its path, since the facets of a vertex form a
subtree of the stacking tree.  The row carries the path interior twice,
as the bitmask of the interior facet ids and as the OR of their vertex
masks.  A block misses the interior exactly when its own facet or vertex
mask ANDs with the matching one to zero.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Literal

from .complexes import SimplicialComplex
from .errors import InputError, NotAPartitionError, NotIndependentError
from .paths import (
    _pair_table,
    end_vertices,
    face_path,
    facet_distance,
    facet_path,
    vertex_distance,
)

GroundKind = Literal["vertices", "facets", "integers"]


class UnionFind:
    """Disjoint sets over dense ints 0..n-1, with path halving."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def union(self, a: int, b: int) -> None:
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[b] = a

    def groups(self) -> list[list[int]]:
        """Blocks in canonical order: ascending members, ordered by minimum."""
        parent = self.parent
        buckets: dict[int, list[int]] = {}
        for e, root in enumerate(parent):
            while parent[root] != root:
                root = parent[root]
            if root in buckets:
                buckets[root].append(e)
            else:
                buckets[root] = [e]
        return list(buckets.values())


class Partition:
    """Disjoint non-empty blocks covering a ground set of dense ints.

    Canonical form: elements sorted within blocks, blocks sorted by their
    smallest element.  Build through :func:`make_partition`; the direct
    constructor trusts its input.  Immutable and hashable.
    """

    __slots__ = ("kind", "blocks", "_hash")

    def __init__(self, kind: GroundKind, blocks: tuple[tuple[int, ...], ...]):
        self.kind = kind
        self.blocks = blocks
        self._hash = hash((kind, blocks))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def elements(self) -> list[int]:
        return sorted(e for block in self.blocks for e in block)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.kind == other.kind and self.blocks == other.blocks

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Partition(kind={self.kind!r}, blocks={self.blocks!r})"


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
        missing = set(ground) - seen
        extra = seen - set(ground)
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


def _index_cover(P: Partition, kind: GroundKind,
                 size: int) -> tuple[list[int], list[int]]:
    """Check that P partitions the ``size`` elements of ``kind``; return
    each element's block number and each block's members as a mask."""
    if P.kind != kind:
        raise NotAPartitionError(f"expected a partition of {kind}, got {P.kind}")
    block_masks = []
    count = 0
    cover = 0
    for block in P.blocks:
        mask = 0
        for e in block:
            if not 0 <= e < size:
                raise NotAPartitionError(f"blocks do not partition the {size} {kind}")
            mask |= 1 << e
        block_masks.append(mask)
        count += len(block)
        cover |= mask
    if count != size or cover != (1 << size) - 1:
        raise NotAPartitionError(f"blocks do not partition the {size} {kind}")
    block_of = [0] * size
    for b, block in enumerate(P.blocks):
        for e in block:
            block_of[e] = b
    return block_of, block_masks


def vertex_to_facet(X: SimplicialComplex, P: Partition) -> Partition:
    """Map a partition of vertices into independent blocks to the induced
    facet partition."""
    block_of, block_masks = _index_cover(P, "vertices", X.n_vertices)
    size = X.dim + 1
    for facet in X.facet_tuples:
        if len(set(map(block_of.__getitem__, facet))) != size:
            raise NotIndependentError("a block has two vertices on one facet")

    uf = UnionFind(X.n_facets)
    # no per-row local: most rows fail the first test
    for i, j, v, w, _, vertices_between in _pair_table(X):
        if block_of[v] == block_of[w] and not vertices_between & block_masks[block_of[v]]:
            uf.union(i, j)
    return Partition(kind="facets",
                     blocks=tuple(map(tuple, uf.groups())))


def facet_to_vertex(X: SimplicialComplex, Q: Partition) -> Partition:
    """Map any facet partition to the induced vertex partition."""
    block_of, block_masks = _index_cover(Q, "facets", X.n_facets)
    uf = UnionFind(X.n_vertices)
    # no per-row local: most rows fail the first test
    for i, j, v, w, facets_between, _ in _pair_table(X):
        if block_of[i] == block_of[j] and not facets_between & block_masks[block_of[i]]:
            uf.union(v, w)
    return Partition(kind="vertices",
                     blocks=tuple(map(tuple, uf.groups())))


@dataclass(frozen=True)
class GeneratorPair:
    """One emitted relation a ~ b together with its witnessing path facets."""

    a: int
    b: int
    witness: tuple[int, ...]


def vertex_to_facet_generators(X: SimplicialComplex,
                               P: Partition) -> list[GeneratorPair]:
    """The facet pairs :func:`vertex_to_facet` closes over, with witnesses."""
    block_of, block_masks = _index_cover(P, "vertices", X.n_vertices)
    out = []
    for i, j in combinations(range(X.n_facets), 2):
        path = facet_path(X, i, j)
        v, w = end_vertices(X, path)
        b = block_of[v]
        if block_of[w] != b:
            continue
        bm = block_masks[b]
        if any(X.facet_masks[f] & bm for f in path.facets[1:-1]):
            continue
        out.append(GeneratorPair(a=i, b=j, witness=path.facets))
    return out


def facet_to_vertex_generators(X: SimplicialComplex,
                               Q: Partition) -> list[GeneratorPair]:
    """The independent vertex pairs :func:`facet_to_vertex` closes over."""
    block_of, _ = _index_cover(Q, "facets", X.n_facets)
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


def vertex_partition_from_tokens(
        X: SimplicialComplex,
        token_blocks: Iterable[Iterable[str]]) -> Partition:
    blocks = [[X.id_of(tok) for tok in block] for block in token_blocks]
    return make_partition("vertices", blocks, range(X.n_vertices))


def facet_partition_from_tokens(
        X: SimplicialComplex,
        token_blocks: Iterable[Iterable[Iterable[str]]]) -> Partition:
    """Blocks of facets, each facet given by its vertex tokens."""
    blocks = [[X.facet_from_tokens(facet) for facet in block]
              for block in token_blocks]
    return make_partition("facets", blocks, range(X.n_facets))


def vertex_blocks_tokens(X: SimplicialComplex,
                         P: Partition) -> frozenset[frozenset[str]]:
    """Label-level view of a vertex partition, for comparisons across
    complexes with shared tokens."""
    return frozenset(frozenset(X.token_of(v) for v in block)
                     for block in P.blocks)


def facet_blocks_tokens(X: SimplicialComplex,
                        Q: Partition) -> frozenset[frozenset[tuple[str, ...]]]:
    return frozenset(frozenset(X.facet_tokens(f) for f in block)
                     for block in Q.blocks)
