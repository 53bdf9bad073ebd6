"""Generators of stacked complexes for tests and experiments: labeled
trees, polygon triangulations, and seeded random stackings.

Their vertex tokens are 1..N, which is canonical order, so they build
from vertex ids (:func:`complexes.complex_from_ids`) and never parse
tokens.  A seed or an index gives the same complex in every version.

Costs: :func:`tree_from_prufer` is O(v log v).  :func:`polygon_triangulations`
and :func:`polygon_triangulation` build the triangulations of every
sub-polygon once per call, O(k) tuple joins per triangulation kept: 2,983
for k = 10, of which 1,430 are the whole decagon's.  :func:`random_stacked`
costs O(n·d·log n) comparisons for its draws and inserts, plus a shift of
at most ``2 * WALL_BLOCK`` references per insert and an O(n·d / WALL_BLOCK)
rebuild per block split.
"""

import heapq
import random
from bisect import bisect_right, insort
from itertools import accumulate, combinations, product
from math import comb
from typing import Iterator

from .complexes import SimplicialComplex, complex_from_ids
from .errors import InputError

TREE_VERTEX_CAP = 8
POLYGON_CAP = 10
# the length of a block of walls in random_stacked, which splits a block
# in two past twice this: a longer block shifts more per insert, more
# blocks cost more per Fenwick tree rebuild; 1024 beat 256 and 4096 on
# 10^5 and 10^6 facets
WALL_BLOCK = 1024


def _labels(count: int) -> tuple[str, ...]:
    """The tokens 1..count, for vertex ids 0..count-1."""
    return tuple(map(str, range(1, count + 1)))


def _prufer_edges(seq: tuple[int, ...], v: int) -> list[tuple[int, int]]:
    degree = [1] * (v + 1)
    for a in seq:
        degree[a] += 1
    leaves = [i for i in range(1, v + 1) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for a in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, a))
        degree[a] -= 1
        if degree[a] == 1:
            heapq.heappush(leaves, a)
    u, w = sorted(leaves)
    edges.append((u, w))
    return edges


def tree_from_prufer(seq: tuple[int, ...], v: int) -> SimplicialComplex:
    """The labeled tree on vertices 1..v whose Prüfer sequence is ``seq``."""
    if v < 2:
        raise InputError("trees need at least two vertices")
    if len(seq) != v - 2:
        raise InputError(f"a Prüfer sequence for {v} vertices has length "
                         f"{v - 2}, not {len(seq)}")
    if seq and not (1 <= min(seq) and max(seq) <= v):
        raise InputError(f"Prüfer sequence entries must lie in 1..{v}")
    return complex_from_ids(_labels(v), [(min(e) - 1, max(e) - 1)
                                         for e in _prufer_edges(seq, v)])


def all_trees(v: int) -> Iterator[SimplicialComplex]:
    """All v^(v-2) labeled trees on vertices 1..v, via Prüfer sequences."""
    if v < 2:
        raise InputError("trees need at least two vertices")
    if v > TREE_VERTEX_CAP:
        raise InputError(f"tree enumeration capped at {TREE_VERTEX_CAP} vertices")
    for seq in product(range(1, v + 1), repeat=v - 2):
        yield tree_from_prufer(seq, v)


def _triangulations(k: int) -> list[tuple[tuple[int, int, int], ...]]:
    """The triangulations of the convex polygon on vertex ids 0..k-1 in
    cyclic order, in enumeration order, each as its triangles (sorted id
    tuples).  Those of each sub-polygon i..j are built once, from shorter
    ones: for each apex c = i+1..j-1, the triangle (i, c, j) joins every
    triangulation of i..c with every one of c..j, the latter varying
    fastest."""
    table = {(i, i + 1): [()] for i in range(k - 1)}
    for length in range(2, k):
        for i in range(k - length):
            j = i + length
            cell = []
            for c in range(i + 1, j):
                apex = ((i, c, j),)
                cell += [left + apex + right
                         for left in table[i, c] for right in table[c, j]]
            table[i, j] = cell
    return table[0, k - 1]


def triangulation_count(k: int) -> int:
    """Catalan(k - 2), the number of triangulations of a convex k-gon
    that :func:`polygon_triangulations` enumerates."""
    if k < 3:
        raise InputError("polygons need at least three vertices")
    if k > POLYGON_CAP:
        raise InputError(f"triangulation enumeration capped at {POLYGON_CAP}-gons")
    return comb(2 * k - 4, k - 2) // (k - 1)


def polygon_triangulation(k: int, index: int) -> SimplicialComplex:
    """The triangulation at position ``index`` of
    :func:`polygon_triangulations`."""
    count = triangulation_count(k)
    if not 0 <= index < count:
        raise InputError(f"polygon index out of range 0..{count - 1}")
    return complex_from_ids(_labels(k), _triangulations(k)[index])


def polygon_triangulations(k: int) -> Iterator[SimplicialComplex]:
    """All triangulations of a convex k-gon with vertices 1..k in cyclic
    order; there are Catalan(k-2) of them.  k is checked on the call."""
    triangulation_count(k)  # checks k
    labels = _labels(k)
    return (complex_from_ids(labels, triangles) for triangles in _triangulations(k))


def _fenwick(blocks: list[list]) -> list[int]:
    """A Fenwick tree of the block lengths over a power-of-two number of
    slots, cap, the slots past the blocks empty: entry i > 0 sums the
    lengths of blocks i - (i & -i) .. i - 1."""
    cap = 1 << (len(blocks) - 1).bit_length()
    ends = [0, *accumulate(map(len, blocks))]
    ends += [ends[-1]] * (cap + 1 - len(ends))
    return [ends[i] - ends[i & (i - 1)] for i in range(cap + 1)]


def random_stacked(d: int, n: int, seed: int) -> SimplicialComplex:
    """A random n-facet stacking in dimension d: start from one simplex and
    repeatedly glue a fresh vertex onto a uniformly chosen codim-1 face.
    Vertex k is token k + 1.

    The face is drawn by its rank among all codim-1 faces, the walls, in
    sorted order: the rank that ``rng.choice(walls)`` draws, which is the
    first ``rng.getrandbits(k)`` below ``len(walls)``, k its bit length.
    The walls sit in sorted blocks, each split in two when it grows past
    ``2 * WALL_BLOCK``, and a Fenwick tree of the block lengths finds the
    block of a rank; so a draw or an insert shifts at most one block, not
    every wall after it."""
    if d < 1 or n < 1:
        raise InputError("need d >= 1 and n >= 1")
    # the walls are freed before the labels are made and the facets sorted,
    # so that memory is reused: 62 MB less peak RSS at 10^6 facets, d = 2
    facets = _stacked_facets(d, n, seed)
    return complex_from_ids(_labels(d + n), facets)


def _stacked_facets(d: int, n: int, seed: int) -> list[tuple[int, ...]]:
    """The facets of :func:`random_stacked`, as vertex id tuples in the
    order they are glued."""
    rng = random.Random(seed)
    facets: list[tuple[int, ...]] = [tuple(range(d + 1))]
    walls = list(combinations(facets[0], d))  # every codim-1 face, sorted
    blocks = [walls[i:i + WALL_BLOCK] for i in range(0, len(walls), WALL_BLOCK)]
    firsts = [block[0] for block in blocks]
    tree = _fenwick(blocks)
    cap = len(tree) - 1  # tree[cap] is never read, so never kept up to date
    limit = 2 * WALL_BLOCK
    getrandbits = rng.getrandbits
    sizes = range(len(walls), len(walls) + d * n, d)  # each step adds d walls
    for v, size in zip(range(d + 1, d + n), sizes):
        # rng.choice's draw, inlined: the call it saves pays for most of
        # the blocks' extra steps at 100 facets
        bits = size.bit_length()
        rank = getrandbits(bits)
        while rank >= size:
            rank = getrandbits(bits)
        b, step = 0, cap >> 1  # b counts the blocks wholly below rank
        while step:
            if tree[b + step] <= rank:
                b += step
                rank -= tree[b]
            step >>= 1
        g = blocks[b][rank]
        tail = (v,)  # the new vertex is the largest
        facets.append(g + tail)
        for face in combinations(g, d - 1):
            wall = face + tail
            # firsts[0] is (0, ..., d-1), below every other wall, so i >= 1
            i = bisect_right(firsts, wall)
            block = blocks[i - 1]
            insort(block, wall)
            if len(block) > limit:
                blocks[i - 1:i] = block[:WALL_BLOCK], block[WALL_BLOCK:]
                firsts.insert(i, block[WALL_BLOCK])
                tree = _fenwick(blocks)
                cap = len(tree) - 1
            else:  # block i - 1 is entry i of the tree
                while i < cap:
                    tree[i] += 1
                    i += i & -i
    return facets
