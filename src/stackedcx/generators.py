"""Generators of stacked complexes for tests and experiments: labeled
trees, polygon triangulations, and seeded random stackings."""

import heapq
import random
from bisect import insort
from itertools import combinations, product
from typing import Iterator

from .complexes import SimplicialComplex, build_complex
from .errors import InputError

TREE_VERTEX_CAP = 8
POLYGON_CAP = 10


def _prufer_edges(seq: tuple[int, ...], v: int) -> list[tuple[str, str]]:
    degree = [1] * (v + 1)
    for a in seq:
        degree[a] += 1
    leaves = [i for i in range(1, v + 1) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for a in seq:
        leaf = heapq.heappop(leaves)
        edges.append((str(leaf), str(a)))
        degree[a] -= 1
        if degree[a] == 1:
            heapq.heappush(leaves, a)
    u, w = sorted(leaves)
    edges.append((str(u), str(w)))
    return edges


def tree_from_prufer(seq: tuple[int, ...], v: int) -> SimplicialComplex:
    return build_complex(_prufer_edges(seq, v))


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


def polygon_triangulations(k: int) -> Iterator[SimplicialComplex]:
    """All triangulations of a convex k-gon with vertices 1..k in cyclic
    order; there are Catalan(k-2) of them."""
    if k < 3:
        raise InputError("polygons need at least three vertices")
    if k > POLYGON_CAP:
        raise InputError(f"triangulation enumeration capped at {POLYGON_CAP}-gons")
    for triangles in _triangulations(tuple(range(1, k + 1))):
        yield build_complex([tuple(str(x) for x in t) for t in triangles])


def random_stacked(d: int, n: int, seed: int) -> SimplicialComplex:
    """A random n-facet stacking in dimension d: start from one simplex and
    repeatedly glue a fresh vertex onto a uniformly chosen codim-1 face."""
    if d < 1 or n < 1:
        raise InputError("need d >= 1 and n >= 1")
    rng = random.Random(seed)
    facets: list[tuple[int, ...]] = [tuple(range(1, d + 2))]
    walls = list(combinations(facets[0], d))  # every codim-1 face, sorted
    for label in range(d + 2, d + n + 1):
        g = rng.choice(walls)
        facets.append(g + (label,))  # the new label is the largest
        for face in combinations(g, d - 1):
            insort(walls, face + (label,))
    return build_complex([tuple(str(x) for x in f) for f in facets])
