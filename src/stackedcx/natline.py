"""Prefix computations for the infinite line graph.

Edges and vertices of the line graph are both identified with initial
segments of the positive integers: edge i joins vertices i and i+1.  Under
this identification a partition of [1..n] (read as edges of L_n) refines to
a partition of [1..n+1] (read as vertices) with one more block and scatter
one higher, and the refinement is compatible with growing the prefix.
Prefix partitions are validated by :func:`partitions.make_partition`.
"""

from dataclasses import dataclass
from typing import Iterable

from .complexes import SimplicialComplex, build_complex
from .errors import InputError
from .partitions import Partition, facet_to_vertex, make_partition


@dataclass(frozen=True)
class PrefixPartition:
    """A partition of the integer interval [1..n], canonically ordered."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def scatter(self) -> int | None:
        """Smallest gap within a block; None when all blocks are singletons
        (every scatter bound holds vacuously then)."""
        gaps = [b - a for block in self.blocks
                for a, b in zip(block, block[1:])]
        return min(gaps) if gaps else None


def make_prefix_partition(n: int,
                          blocks: Iterable[Iterable[int]]) -> PrefixPartition:
    """Blocks that partition [1..n], canonicalized by :func:`make_partition`."""
    if n < 1:
        raise InputError("prefix length must be >= 1")
    P = make_partition("integers", blocks, range(1, n + 1))
    return PrefixPartition(n=n, blocks=P.blocks)


def line_graph(n: int) -> SimplicialComplex:
    """The tree with edges {i, i+1} for i = 1..n."""
    if n < 1:
        raise InputError("line graph needs at least one edge")
    return build_complex([(str(i), str(i + 1)) for i in range(1, n + 1)])


def refine_once(P: PrefixPartition) -> PrefixPartition:
    """One refinement step: read [1..n] as edges of L_n, map to the vertex
    partition, and read vertices back as [1..n+1].

    Numeric tokens get dense ids in value order, so edge i of L_n is facet
    i - 1 and integer k is vertex k - 1.
    """
    X = line_graph(P.n)
    Q = Partition("facets", tuple(tuple(e - 1 for e in block) for block in P.blocks))
    V = facet_to_vertex(X, Q)
    return PrefixPartition(P.n + 1, tuple(tuple(v + 1 for v in block) for block in V.blocks))


def refine_iter(P: PrefixPartition, steps: int) -> PrefixPartition:
    """Iterate :func:`refine_once`; blocks grow by one and scatter by one
    per step."""
    if steps < 0:
        raise InputError("steps must be >= 0")
    for _ in range(steps):
        P = refine_once(P)
    return P


def restrict_prefix(P: PrefixPartition, n: int) -> PrefixPartition:
    """Intersect every block with [1..n], dropping emptied blocks."""
    if not 1 <= n <= P.n:
        raise InputError(f"cannot restrict prefix of length {P.n} to {n}")
    blocks = [tuple(e for e in block if e <= n) for block in P.blocks]
    return make_prefix_partition(n, [b for b in blocks if b])


def check_colimit_compatibility(P: PrefixPartition, *,
                                refined: PrefixPartition | None = None) -> bool:
    """Refining then restricting must equal restricting then refining.

    P is read as an edge partition of the line graph one longer than the
    one it restricts to, so its length must be at least 2.  ``refined``
    is ``refine_once(P)``, computed when not given.
    """
    if P.n < 2:
        raise InputError("compatibility check needs a prefix of length >= 2")
    if refined is None:
        refined = refine_once(P)
    shorter = refine_once(restrict_prefix(P, P.n - 1))
    longer = restrict_prefix(refined, P.n)
    return shorter.blocks == longer.blocks
