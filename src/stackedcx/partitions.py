"""Partitions of vertices or facets and the maps between them.

A :class:`Partition` is a plain value with one validator,
:func:`make_partition`, for blocks a caller gives.  Its kind names the
ground set: "vertices" and "facets" are dense ids from 0, and "integers"
is a prefix [1..n] of the positive integers, whose partitions
:mod:`natline` refines (validated by
:func:`natline.make_prefix_partition`).  Tokens become ids and back only
in :mod:`textio`, whose parsers check range, overlap and cover as they
read and build partitions directly, as the maps do.

The two correspondences work pair by pair.  Facet partition -> vertex
partition: two independent vertices are related when the end facets of
their face path share a block that no interior facet of the path touches.
Vertex partition -> facet partition: two facets are related when the end
vertices of their path share a block that no interior facet of the path
meets.  The maps return the equivalences these relations generate;
unrelated elements stay as singleton blocks.

Both maps are one pass over the stacking tree rooted at facet 0, in
certificate order (:func:`_labels`), reading each facet's parent, free
vertex and port from :class:`complexes.StackingTree`.  Each relates every
new element, as it is reached, to one element placed before it: the port
of the nearest ancestor facet in the right block.  So a class is numbered
when its first member is placed, and the labels are a string in
certificate form: entry e is the block of element e, blocks numbered in
the order their first member appears along :func:`certificate_order`.
The public maps validate one partition, run the pass on it and group its
labels into canonical blocks; :func:`vertex_to_facet` refuses a partition
whose blocks are not independent.  The string maps, which
:func:`oracle.verify_bijection` runs, are the bare kernel: they trust
their strings and validate nothing, so deciding independence is the
caller's.  They take strings with lower bounds on where each first
differs from the one before, and return the labels as they are with such
bounds: the pass resumes each string at the first step its change can
reach, so a family walked in certificate order costs little more than the
steps that differ between neighbours.
"""

from dataclasses import dataclass
from itertools import combinations, repeat
from operator import eq
from typing import Iterable, Literal, Sequence

from .complexes import SimplicialComplex, derived, stacking_tree
from .errors import InputError, NotAPartitionError, NotIndependentError
from .paths import _check_ids, close, end_vertices, face_path, facet_path

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
    singletons; every set is 1-scattered): iff no member's close list
    (:func:`paths.close`) holds another, one bounded sweep per member but
    the last.  The cost is the sum of the sizes of their balls."""
    if s < 1:
        raise InputError("scatter must be >= 1")
    if kind not in ("vertices", "facets"):
        raise InputError(f"unknown ground kind {kind!r}")
    size, noun = (X.n_vertices, "vertex") if kind == "vertices" else (X.n_facets, "facet")
    rest = set(members)
    _check_ids(noun, size, rest)
    while len(rest) > 1:  # a close pair is found from whichever is popped first
        if not rest.isdisjoint(close(X, kind, rest.pop(), s)):
            return False
    return True


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


def certificate_order(X: SimplicialComplex, kind: GroundKind) -> list[int]:
    """The order in which the maps place elements and number blocks: the
    facets in the stacking tree's sweep, or the root facet's vertices and
    then the free vertex of each later facet."""
    tree = stacking_tree(X)
    if kind == "facets":
        return tree.order[:]
    return [*X.facet_tuples[0], *map(tree.free.__getitem__, tree.order[1:])]


@derived
def _pass(X: SimplicialComplex, kind: GroundKind) -> tuple:
    """The pass of :func:`_labels` that labels the facets or the vertices
    of X, built once per complex and kind: a step (its index, slot of p's
    row, slot of c's row, edge_at, edge_source, lookup_at, element) per
    facet c after the root, p its parent, in certificate order; the root's
    elements labelled 0, 1, ...; their count; the number of facets; and
    the root count of the input kind, the other one: the root facet's
    elements of that kind (1 facet or d + 1 vertices).  c's slot is -1
    when c has no children, p's when c is p's last child, else c.  Only
    the slots take a Python loop, over the facets with children; the
    steps are zipped from columns read off the tree whole.
    """
    tree = stacking_tree(X)
    up, n = tree.up, X.n_facets
    children = tree.order[1:]
    parents, ports, frees = (list(map(a.__getitem__, children))
                             for a in (up, tree.port, tree.free))
    last = dict(zip(parents, children))  # each parent's last child, in certificate order
    slot = [-1] * n
    slot[0] = 0
    for c in last:
        if c:
            p = up[c]
            slot[c] = slot[p] if last[p] == c else c
    ends = ((parents, ports, children, frees) if kind == "vertices"
            else (ports, parents, frees, children))
    columns = (range(n - 1), *(list(map(slot.__getitem__, a)) for a in (parents, children)),
               *ends)
    roots = X.facet_tuples[0] if kind == "vertices" else (0,)
    label = [-1] * (X.n_vertices if kind == "vertices" else n)
    for i, e in enumerate(roots):
        label[e] = i
    return list(zip(*columns)), label, len(roots), n, 1 if kind == "vertices" else X.dim + 1


def _labels(X: SimplicialComplex, kind: GroundKind, strings: Sequence[Sequence[int]],
            firsts: Iterable[int] | None = None) -> tuple[list[tuple[int, ...]], list[int]]:
    """Each string's elements labelled by their class in the equivalence
    one pass over the stacking tree builds, as a string in certificate
    form: both maps, which differ only in their :func:`_pass`, the one
    labelling ``kind``.  A string gives each input element its block, in
    any numbering.

    The root facet's elements get classes 0, 1, ...  Each later facet c,
    in certificate order and with parent p, takes p's row, a map from
    blocks to classes, and crosses the edge p-c: it sets entry
    ``block_of[edge_at]`` to the class of ``edge_source``.  So entry k of
    c's row is the class handed down by the nearest edge keyed k on c's
    path to the root, if any.  The element of c joins the class in entry
    ``block_of[lookup_at]``, or else its block's root region, whose class
    is numbered when its first member is placed.  The element is new (the
    free vertex c - p first appears at c, as a vertex's facets form a
    subtree; in v2f it is c itself), so classes only grow, and it joins a
    class of an element placed before it: the numbers follow the order.

    p's children are one contiguous run of the order and share p's row:
    one with no children only reads it, the last keeps it, and the others
    set their entry and restore it, keeping a copy.  A row has at most an
    entry per edge on its path: the pass is O(n) on a path or a star, and
    O(n + m·min(r, h)) for m copies, r blocks and tree height h.

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
    both join the root region.  Any two elements of a root region are
    related, since no facet above either one qualifies.

    String t after the first resumes the pass at step
    ``max(firsts[t] - roots, 0)``.  ``firsts[t]`` must be a lower bound on
    the first input position, along the input kind's certificate order,
    where string t differs from string t - 1 (0 always is one, and no
    ``firsts`` runs every string from step 0); one too high is a caller
    bug.  Step i reads the string only at input positions up to i + roots
    (the root facet's elements, then one new element per step), so the
    steps before the resumed one would run as they did.  A step writes
    into state that outlives it only where the last child keeps its
    parent's row (``row[k] = ...``) and where it opens a root-region class
    in ``base``; a log holds each such write with its step and the value it
    replaced and undoes every one from the resumed step on, latest first,
    so any lower bound is sound.  Everything else those steps touched is
    rebuilt before it is read: the row copy a step makes is read only by
    its facet's descendants, which come after it, and a label only once
    its element has been placed again.  The log is kept only when there is
    a next string.  Step i writes only output position i + n_roots, so each
    result comes with the bound ``start + n_roots`` (0 for the first).
    """
    steps, label, n_roots, n, roots = _pass(X, kind)
    keep = len(strings) > 1
    label = label[:]
    base: dict[int, int] = {}  # the class of each block's root region
    rows: list = [{}] + [None] * (n - 1)
    log: list = []  # (step, dict, key, value before or None) per lasting write
    out, ends = [], []  # the results and their bounds
    for block_of, first in zip(strings, repeat(0) if firsts is None else firsts):
        start = first - roots if first > roots and out else 0
        while log and log[-1][0] >= start:
            _, held, key, old = log.pop()
            if old is None:
                del held[key]
            else:
                held[key] = old
        for i, above, at, edge_at, source, lookup_at, element in steps[start:]:
            row = rows[above]
            k, j = block_of[edge_at], block_of[lookup_at]
            if at < 0:  # c has no children: its row is read only here
                x = label[source] if k == j else row.get(j)
            else:
                old = row.get(k)
                row[k] = label[source]
                x = row.get(j)
                if at != above:  # p's row is read again
                    rows[at] = row.copy()
                    if old is None:
                        del row[k]
                    else:
                        row[k] = old
                elif keep:
                    log.append((i, row, k, old))
            if x is None:
                x = base.get(j)
                if x is None:
                    x = base[j] = n_roots + len(base)
                    if keep:
                        log.append((i, base, j, None))
            label[element] = x
        ends.append(start + n_roots if out else 0)
        out.append(tuple(label))
    return out, ends


def _blocks(label: list[int]) -> tuple[tuple[int, ...], ...]:
    """The classes of a label array, numbered 0, 1, ..., as canonical blocks."""
    blocks: list[list[int]] = [[] for _ in range(max(label) + 1)]
    for e, x in enumerate(label):
        blocks[x].append(e)
    return tuple(sorted(map(tuple, blocks)))


@derived
def _edge_ends(X: SimplicialComplex) -> tuple[list[int], list[int]]:
    """The edges of a stacked complex as two endpoint arrays: the pairs of
    facet 0, then (free[c], u) for each other vertex u of each other facet
    c.  A pair of c's vertices that avoids free[c] lies in c's parent
    ridge, so in its parent facet, and is listed higher up the tree."""
    tree = stacking_tree(X)
    tails, heads = (list(e) for e in zip(*combinations(X.facet_tuples[0], 2)))
    for c in tree.order[1:]:
        v = tree.free[c]
        for u in X.facet_tuples[c]:
            if u != v:
                tails.append(v)
                heads.append(u)
    return tails, heads


def _independent(X: SimplicialComplex, block_of: Sequence[int]) -> bool:
    """Whether every block is independent: two vertices of one facet are
    the ends of an edge, so no edge may have both ends in one block."""
    tails, heads = _edge_ends(X)
    get = block_of.__getitem__
    return not any(map(eq, map(get, tails), map(get, heads)))


def vertex_to_facet(X: SimplicialComplex, P: Partition) -> Partition:
    """Map a partition of vertices into independent blocks to the induced
    facet partition."""
    block_of = _index_cover(P, "vertices", X.n_vertices)
    if not _independent(X, block_of):
        raise NotIndependentError("a block has two vertices on one facet")
    [label], _ = _labels(X, "facets", [block_of])
    return Partition(kind="facets", blocks=_blocks(label))


def facet_to_vertex(X: SimplicialComplex, Q: Partition) -> Partition:
    """Map any facet partition to the induced vertex partition."""
    block_of = _index_cover(Q, "facets", X.n_facets)
    [label], _ = _labels(X, "vertices", [block_of])
    return Partition(kind="vertices", blocks=_blocks(label))


def facet_to_vertex_strings(X: SimplicialComplex, strings: Sequence[tuple[int, ...]],
                            firsts: Sequence[int] | None = None
                            ) -> tuple[list[tuple[int, ...]], list[int]]:
    """:func:`facet_to_vertex` on a sequence of strings: ``a[f]`` is the
    block of facet f, in any numbering, and each result is the vertex
    partition in certificate form.  The strings are trusted, not
    validated.  One pass of the kernel maps them all, resuming each at its
    bound in ``firsts`` (:func:`_labels`), and returns them with theirs."""
    return _labels(X, "vertices", strings, firsts)


def vertex_to_facet_strings(X: SimplicialComplex, strings: Sequence[tuple[int, ...]],
                            firsts: Sequence[int] | None = None
                            ) -> tuple[list[tuple[int, ...]], list[int]]:
    """:func:`vertex_to_facet` on a sequence of strings, as
    :func:`facet_to_vertex_strings`: ``a[v]`` is the block of vertex v.
    The strings are trusted, not validated: a string whose blocks are not
    independent, which :func:`vertex_to_facet` refuses, gets the kernel's
    labels all the same."""
    return _labels(X, "facets", strings, firsts)


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
    out, facets = [], X.facet_tuples
    for i, j in combinations(range(X.n_facets), 2):
        path = facet_path(X, i, j)
        v, w = end_vertices(X, path)
        b = block_of[v]
        if block_of[w] != b:
            continue
        if any(block_of[u] == b for f in path[1:-1] for u in facets[f]):
            continue
        out.append(GeneratorPair(a=i, b=j, witness=path))
    return out


def facet_to_vertex_generators(X: SimplicialComplex,
                               Q: Partition) -> list[GeneratorPair]:
    """The independent vertex pairs :func:`facet_to_vertex` closes over."""
    block_of = _index_cover(Q, "facets", X.n_facets)
    out = []
    for v, w in combinations(range(X.n_vertices), 2):
        if set(X.vertex_facets[v]) & set(X.vertex_facets[w]):
            continue
        path = face_path(X, (v,), (w,))
        b = block_of[path[0]]
        if block_of[path[-1]] != b:
            continue
        if any(block_of[f] == b for f in path[1:-1]):
            continue
        out.append(GeneratorPair(a=v, b=w, witness=path))
    return out
