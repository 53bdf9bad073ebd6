"""Prefix computations for the infinite line graph.

Edges and vertices of the line graph are both identified with initial
segments of the positive integers: edge i joins vertices i and i+1.  A
partition of [1..n] is a :class:`partitions.Partition` of kind
"integers", and n is the number of its elements.  Under this
identification a partition of [1..n] (read as edges of L_n) refines to a
partition of [1..n+1] (read as vertices) with one more block and scatter
one higher, and the refinement is compatible with growing the prefix.
The refinement is the facet-to-vertex map written on the path itself, so
no complex is built for it; :func:`line_graph` builds L_n as a complex for
the general map, which it is tested against.  Prefix partitions given
as blocks are validated by :func:`make_prefix_partition`; refinement and
restriction build their results directly, as both take partitions of a
prefix to partitions of a prefix.
"""

from typing import Iterable

from .complexes import SimplicialComplex, complex_from_ids
from .errors import InputError, NotAPartitionError
from .partitions import Partition, make_partition


def make_prefix_partition(n: int, blocks: Iterable[Iterable[int]]) -> Partition:
    """Blocks that partition [1..n], canonicalized by :func:`make_partition`."""
    if n < 1:
        raise InputError("prefix length must be >= 1")
    return make_partition("integers", blocks, range(1, n + 1))


def line_graph(n: int) -> SimplicialComplex:
    """The tree with edges {i, i+1} for i = 1..n, equal to the complex
    :func:`complexes.build_complex` makes of them, built from ids with no
    token parsing.  Integer k is vertex k - 1 and edge i is facet i - 1."""
    if n < 1:
        raise InputError("line graph needs at least one edge")
    return complex_from_ids(tuple(map(str, range(1, n + 2))), zip(range(n), range(1, n + 1)))


def refine_once(P: Partition) -> Partition:
    """One refinement step: read [1..n] as edges of L_n, map to the vertex
    partition, and read vertices back as [1..n+1].

    On the path, vertices u < w are related when the face path from u to
    w, the edges u..w-1, has its end edges in one block B and no inner
    edge in B: when w - 1 is the edge after u in B (so w >= u + 2, and u
    and w are independent).  Each vertex is thus related to at most one
    later and one earlier vertex, and the classes are chains, one from
    vertex 1 and one from e + 1 for the first edge e of each block.  The
    step is O(n) and builds no complex; it equals
    ``facet_to_vertex(line_graph(n), ...)`` with every element shifted by
    one.  A partition of another kind, or blocks that do not partition
    [1..n], n the number of their elements, raise
    :class:`NotAPartitionError`.
    """
    if P.kind != "integers":
        raise NotAPartitionError(f"expected a partition of integers, got {P.kind}")
    blocks = [sorted(block) for block in P.blocks if block]
    n = sum(map(len, blocks))
    if n < 1:
        raise InputError("line graph needs at least one edge")
    # after[v]: the later vertex related to vertex v, one past the edge
    # after v in v's block; -1 when v is its block's last edge, 0 for n + 1
    after = [0] * (n + 2)
    if all(s[0] >= 1 and s[-1] <= n for s in blocks):
        for s in blocks:
            for e, f in zip(s, s[1:]):
                after[e] = f + 1
            after[s[-1]] = -1
    # the n elements make n writes, and n writes that reach all n edges
    # reach each of them once
    if 0 in after[1:-1]:
        raise NotAPartitionError(f"blocks do not partition the {n} facets")
    chains = []
    for v in sorted([1, *(s[0] + 1 for s in blocks)]):
        chain = [v]
        while (v := after[v]) > 0:
            chain.append(v)
        chains.append(tuple(chain))
    return Partition("integers", tuple(chains))


def refine_iter(P: Partition, steps: int) -> Partition:
    """Iterate :func:`refine_once`; blocks grow by one and scatter by one
    per step."""
    if steps < 0:
        raise InputError("steps must be >= 0")
    for _ in range(steps):
        P = refine_once(P)
    return P


def restrict_prefix(P: Partition, n: int) -> Partition:
    """Intersect every block with [1..n], dropping emptied blocks; the
    rest partition [1..n] when P partitions [1..m], m >= n."""
    if P.kind != "integers":
        raise NotAPartitionError(f"expected a partition of integers, got {P.kind}")
    length = sum(map(len, P.blocks))
    if not 1 <= n <= length:
        raise InputError(f"cannot restrict prefix of length {length} to {n}")
    blocks = [tuple(sorted(e for e in block if e <= n)) for block in P.blocks]
    return Partition("integers", tuple(sorted(b for b in blocks if b)))


def check_colimit_compatibility(P: Partition, *,
                                refined: Partition | None = None) -> bool:
    """Refining then restricting must equal restricting then refining.

    P is read as an edge partition of the line graph one longer than the
    one it restricts to, so its length must be at least 2.  ``refined``
    is ``refine_once(P)``, computed when not given.
    """
    n = sum(map(len, P.blocks))
    if n < 2:
        raise InputError("compatibility check needs a prefix of length >= 2")
    if refined is None:
        refined = refine_once(P)
    return refine_once(restrict_prefix(P, n - 1)) == restrict_prefix(refined, n)
