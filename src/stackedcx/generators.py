"""Generators of stacked complexes for tests and experiments: labeled
trees, polygon triangulations, and seeded random stackings.

Their vertex tokens are 1..N, which is canonical order, so they build
from vertex ids (:func:`complexes.complex_from_ids`) and never parse
tokens.
"""

import heapq
import random
from bisect import insort
from itertools import combinations, islice, product
from math import comb
from typing import Iterator

from .complexes import SimplicialComplex, complex_from_ids
from .errors import InputError

TREE_VERTEX_CAP = 8
POLYGON_CAP = 10


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


def _triangulations(cycle: tuple[int, ...]) -> Iterator[tuple[tuple[int, int, int], ...]]:
    if len(cycle) == 2:
        yield ()
        return
    if len(cycle) == 3:
        yield (cycle,)
        return
    a, b = cycle[0], cycle[-1]
    for m in range(1, len(cycle) - 1):
        c = cycle[m]
        for left in _triangulations(cycle[:m + 1]):
            for right in _triangulations(cycle[m:]):
                yield left + ((a, c, b),) + right


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
    :func:`polygon_triangulations`, built alone."""
    count = triangulation_count(k)
    if not 0 <= index < count:
        raise InputError(f"polygon index out of range 0..{count - 1}")
    # the vertex ids 0..k-1 in cyclic order: every triangle comes sorted
    (triangles,) = islice(_triangulations(tuple(range(k))), index, index + 1)
    return complex_from_ids(_labels(k), triangles)


def polygon_triangulations(k: int) -> Iterator[SimplicialComplex]:
    """All triangulations of a convex k-gon with vertices 1..k in cyclic
    order; there are Catalan(k-2) of them."""
    triangulation_count(k)  # checks k
    for triangles in _triangulations(tuple(range(k))):
        yield complex_from_ids(_labels(k), triangles)


def random_stacked(d: int, n: int, seed: int) -> SimplicialComplex:
    """A random n-facet stacking in dimension d: start from one simplex and
    repeatedly glue a fresh vertex onto a uniformly chosen codim-1 face.
    Vertex k is token k + 1."""
    if d < 1 or n < 1:
        raise InputError("need d >= 1 and n >= 1")
    rng = random.Random(seed)
    facets: list[tuple[int, ...]] = [tuple(range(d + 1))]
    walls = list(combinations(facets[0], d))  # every codim-1 face, sorted
    for v in range(d + 1, d + n):
        g = rng.choice(walls)
        facets.append(g + (v,))  # the new vertex is the largest
        for face in combinations(g, d - 1):
            insort(walls, face + (v,))
    return complex_from_ids(_labels(d + n), facets)
