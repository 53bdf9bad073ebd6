"""Partitions of vertices or facets and the maps between them.

The two correspondences work pair by pair.  Facet partition -> vertex
partition: two independent vertices are related when the end facets of
their face path share a block that no interior facet of the path touches.
Vertex partition -> facet partition: two facets are related when the end
vertices of their path share a block that no interior facet of the path
meets.  Both relations are closed into equivalences with a union-find;
unrelated elements stay as singleton blocks.

Both maps read one cached pair table per complex, a row per pair, whose
path interior is a single int: for facet pairs the OR of the interior
facets' vertex masks, for vertex pairs the bitmask of the interior facet
ids.  A block then misses the interior exactly when its own vertex or
facet mask ANDs with it to zero.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Literal

from .complexes import SimplicialComplex
from .errors import InputError, NotAPartitionError, NotIndependentError
from .paths import (
    end_vertices,
    face_path,
    facet_distance,
    facet_path,
    stacking_tree,
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

    def block_of(self) -> dict[int, int]:
        return {e: i for i, block in enumerate(self.blocks) for e in block}

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


def _facet_pair_table(X: SimplicialComplex):
    """Rows ``(i, j, v, w, interior)`` per facet pair i < j: the end
    vertices v, w of their path and the OR of the vertex masks of its
    interior facets.

    One stacking-tree sweep per source facet i; a facet's interior is its
    parent facet's interior plus that parent, and its first step from i is
    inherited the same way.
    """
    table = X._cache.get("v2f_pairs")
    if table is None:
        tree = stacking_tree(X)
        facets, masks = X.facets, X.facet_masks
        n = X.n_facets
        table = []
        first = [0] * n
        inner = [0] * n
        for i in range(n):
            order, parent, _ = tree.sweep((i,))
            for g in order[1:]:  # parents come first
                if g >= n:
                    continue
                before = parent[parent[g]]
                if before == i:
                    first[g], inner[g] = g, 0
                else:
                    first[g] = first[before]
                    inner[g] = inner[before] | masks[before]
            for j in range(i + 1, n):
                (v,) = facets[i] - facets[first[j]]
                (w,) = facets[j] - tree.ridges[parent[j] - n]
                if v == w:
                    raise InputError("facet path with equal end vertices "
                                     "(is the complex stacked?)")
                table.append((i, j, v, w, inner[j]))
        table = tuple(table)
        X._cache["v2f_pairs"] = table
    return table


def _vertex_pair_table(X: SimplicialComplex):
    """Rows ``(v, w, first, last, interior)`` per independent vertex pair
    v < w: the end facets of their face path and the bitmask of the ids of
    its interior facets.

    One stacking-tree sweep per vertex v from all its facets: the face path
    to w runs from a facet of v to the facet of w nearest to them.
    """
    table = X._cache.get("f2v_pairs")
    if table is None:
        tree = stacking_tree(X)
        star = X.vertex_facets
        n = X.n_facets
        table = []
        start = [0] * n  # facet -> the facet of v's star its path starts at
        inner = [0] * n  # facet -> the facets strictly between, as a mask
        for v in range(X.n_vertices):
            order, parent, depth = tree.sweep(star[v])
            for g in order:
                if g >= n:
                    continue
                if depth[g]:
                    p = parent[parent[g]]
                    start[g] = start[p]
                    inner[g] = (inner[p] | 1 << p) if depth[p] else 0
                else:
                    start[g], inner[g] = g, 0
            for w in range(v + 1, X.n_vertices):
                nearest = min(star[w], key=depth.__getitem__)
                if depth[nearest] == 0:  # facet mates are not independent
                    continue
                table.append((v, w, start[nearest], nearest, inner[nearest]))
        table = tuple(table)
        X._cache["f2v_pairs"] = table
    return table


def vertex_to_facet(X: SimplicialComplex, P: Partition) -> Partition:
    """Map a partition of vertices into independent blocks to the induced
    facet partition."""
    block_of, block_masks = _index_cover(P, "vertices", X.n_vertices)
    size = X.dim + 1
    for facet in X.facet_tuples:
        if len(set(map(block_of.__getitem__, facet))) != size:
            raise NotIndependentError("a block has two vertices on one facet")

    uf = UnionFind(X.n_facets)
    for i, j, v, w, interior in _facet_pair_table(X):
        b = block_of[v]
        if block_of[w] == b and not interior & block_masks[b]:
            uf.union(i, j)
    return Partition(kind="facets",
                     blocks=tuple(map(tuple, uf.groups())))


def facet_to_vertex(X: SimplicialComplex, Q: Partition) -> Partition:
    """Map any facet partition to the induced vertex partition."""
    block_of, block_masks = _index_cover(Q, "facets", X.n_facets)
    uf = UnionFind(X.n_vertices)
    for v, w, first, last, interior in _vertex_pair_table(X):
        b = block_of[first]
        if block_of[last] == b and not interior & block_masks[b]:
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
