import random

import pytest

import stackedcx as sc
from stackedcx import oracle
from stackedcx.errors import NotIndependentError
from stackedcx.partitions import certificate_order
from stackedcx.textio import parse_facet_partition, parse_vertex_partition

HEPTAGON_FACETS = ("2 3 4", "2 4 5", "2 5 7", "5 6 7", "1 2 7")


def cx(*facets: str) -> sc.SimplicialComplex:
    """Build a complex from space-separated token strings."""
    return sc.build_complex([f.split() for f in facets])


def vpart(X, spec: str) -> sc.Partition:
    """Vertex partition from a 'a b | c' style string."""
    return parse_vertex_partition(spec.replace("|", "\n"), X)


def fpart(X, spec: str) -> sc.Partition:
    """Facet partition from a '1,2 2,3 | 3,4' style string."""
    return parse_facet_partition(spec.replace("|", "\n"), X)


def vblocks(X, P) -> set[frozenset[str]]:
    return {frozenset(X.token_of(v) for v in block) for block in P.blocks}


def fblocks(X, Q) -> set[frozenset[tuple[str, ...]]]:
    return {frozenset(X.facet_tokens(f) for f in block) for block in Q.blocks}


def facet_sets(X) -> tuple[frozenset[int], ...]:
    """X's facets as vertex-id sets, in the order of ``X.facet_tuples``."""
    return tuple(map(frozenset, X.facet_tuples))


def merging_facet_to_vertex(X, Q) -> sc.Partition:
    """A faulty facet_to_vertex: the true image with its first two blocks
    whose union has no two vertices on one facet merged into one (the
    true image when there are none)."""
    P = sc.facet_to_vertex(X, Q)
    blocks = [set(b) for b in P.blocks]
    for a in range(len(blocks)):
        for b in range(a + 1, len(blocks)):
            union = blocks[a] | blocks[b]
            if all(len(union.intersection(f)) <= 1 for f in X.facet_tuples):
                rest = [blk for i, blk in enumerate(blocks) if i not in (a, b)]
                return sc.make_partition("vertices", rest + [union])
    return P


def unconditional_merging_facet_to_vertex(X, Q) -> sc.Partition:
    """A faulty facet_to_vertex: the true image with its first two blocks
    merged, even when the union has two vertices on one facet."""
    P = sc.facet_to_vertex(X, Q)
    return sc.make_partition("vertices", [P.blocks[0] + P.blocks[1], *P.blocks[2:]])


def growth_string(X, P):
    """P as a string in certificate form: entry e is the number of e's
    block, blocks numbered in the order their first member appears along
    the certificate order of P's kind."""
    block_of = {e: b for b, block in enumerate(P.blocks) for e in block}
    number: dict[int, int] = {}
    a = [-1] * len(block_of)
    for e in certificate_order(X, P.kind):
        a[e] = number.setdefault(block_of[e], len(number))
    return tuple(a)


def string_partition(kind, a):
    """The canonical partition whose string, with any block numbering, is a."""
    blocks = [[] for _ in range(max(a) + 1)]
    for e, b in enumerate(a):
        blocks[b].append(e)
    return sc.Partition(kind, tuple(sorted(map(tuple, blocks))))


# each Partition-level map, as the sequence map oracle.verify_bijection
# calls in its place
STRING_MAPS = {"facet_to_vertex": ("facet_to_vertex_strings", "facets"),
               "vertex_to_facet": ("vertex_to_facet_strings", "vertices")}


def inject(patch, name, fault):
    """Install a fault where oracle.verify_bijection will call it.  A fault
    on facet_to_vertex or vertex_to_facet, written over Partition objects,
    replaces the sequence map oracle binds in its place: the fault runs
    once per string, on the string turned into a Partition, and its result
    is turned back into a string in certificate form, or into None when
    the fault raises NotIndependentError.  It ignores the positions it is
    given and returns 0 for each result, a lower bound that always holds.
    Any other fault (a spec) replaces ``name``."""
    if name not in STRING_MAPS:
        patch.setattr(oracle, name, fault)
        return
    string_name, kind = STRING_MAPS[name]

    def on_string(X, a):
        try:
            return growth_string(X, fault(X, string_partition(kind, a)))
        except NotIndependentError:
            return None

    def on_strings(X, strings, firsts=None):
        return [on_string(X, a) for a in strings], [0] * len(strings)
    patch.setattr(oracle, string_name, on_strings)


def relabelled(X, seed):
    """X with its vertex tokens shuffled: random_stacked numbers vertices in
    stacking order, which would hide faults that pick a vertex by its id."""
    tokens = [X.token_of(v) for v in range(X.n_vertices)]
    random.Random(seed).shuffle(tokens)
    return sc.build_complex([[tokens[v] for v in f] for f in X.facet_tuples])


def closure(kind, size, pairs):
    """The equivalence generated by the pairs, as a canonical partition."""
    root = list(range(size))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        root[max(ra, rb)] = min(ra, rb)
    blocks: dict[int, list[int]] = {}
    for e in range(size):
        blocks.setdefault(find(e), []).append(e)
    return sc.make_partition(kind, blocks.values(), range(size))


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
