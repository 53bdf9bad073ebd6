import pytest

import stackedcx as sc
from stackedcx.partitions import (
    facet_blocks_tokens,
    facet_partition_from_tokens,
    vertex_blocks_tokens,
    vertex_partition_from_tokens,
)

HEPTAGON_FACETS = ("2 3 4", "2 4 5", "2 5 7", "5 6 7", "1 2 7")


def cx(*facets: str) -> sc.SimplicialComplex:
    """Build a complex from space-separated token strings."""
    return sc.build_complex([f.split() for f in facets])


def vpart(X, spec: str) -> sc.Partition:
    """Vertex partition from a 'a b | c' style string."""
    return vertex_partition_from_tokens(
        X, [block.split() for block in spec.split("|")])


def fpart(X, spec: str) -> sc.Partition:
    """Facet partition from a '1,2 2,3 | 3,4' style string."""
    blocks = [[tok.split(",") for tok in block.split()]
              for block in spec.split("|")]
    return facet_partition_from_tokens(X, blocks)


def vblocks(X, P) -> set[frozenset[str]]:
    return set(vertex_blocks_tokens(X, P))


def fblocks(X, Q) -> set[frozenset[tuple[str, ...]]]:
    return set(facet_blocks_tokens(X, Q))


def merging_facet_to_vertex(X, Q) -> sc.Partition:
    """A faulty facet_to_vertex: the true image with its first two blocks
    whose union has no two vertices on one facet merged into one (the
    true image when there are none)."""
    P = sc.facet_to_vertex(X, Q)
    blocks = [set(b) for b in P.blocks]
    for a in range(len(blocks)):
        for b in range(a + 1, len(blocks)):
            union = blocks[a] | blocks[b]
            if all(len(union & f) <= 1 for f in X.facets):
                rest = [blk for i, blk in enumerate(blocks) if i not in (a, b)]
                return sc.make_partition("vertices", rest + [union])
    return P


def unconditional_merging_facet_to_vertex(X, Q) -> sc.Partition:
    """A faulty facet_to_vertex: the true image with its first two blocks
    merged, even when the union has two vertices on one facet."""
    P = sc.facet_to_vertex(X, Q)
    return sc.make_partition("vertices", [P.blocks[0] + P.blocks[1], *P.blocks[2:]])


def facet(X, tokens: str) -> int:
    """Facet index from a comma-joined token string like '2,3,4'."""
    return X.facet_from_tokens(tokens.split(","))


@pytest.fixture
def heptagon() -> sc.SimplicialComplex:
    return cx(*HEPTAGON_FACETS)


@pytest.fixture
def star_tree() -> sc.SimplicialComplex:
    # three edges through a central vertex c
    return cx("c 1", "c 2", "c 3")


@pytest.fixture
def fig_tree_second() -> sc.SimplicialComplex:
    # 7-vertex path with a 3-edge tail hanging off vertex 4
    edges = [f"{i} {i + 1}" for i in range(1, 7)] + ["4 8", "8 9", "9 10"]
    return cx(*edges)
