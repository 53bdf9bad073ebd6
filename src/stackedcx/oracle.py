"""Brute-force enumeration of constrained partitions and exact counts.

This is the verification side of the package: restricted-growth-string
enumeration of scattered partitions, exhaustive bijection checks, and the
Bell/Stirling identities they must reproduce.

A partition is held as a string: entry i is the block of the i-th element
of the sorted ground set, blocks numbered 0, 1, ... in the order their
first member is placed (Knuth, TAOCP 4A §7.2.1.5, restricted-growth
strings).  One walk, :func:`_prefixes`, places every element of the order
it is given but the last, and two consumers finish each placement:
:func:`_growth_strings` expands the last element into the strings of one
part number, for enumeration and verification, and :func:`census`, whose
walk stops one element earlier, puts the second-to-last element in each
admissible block and counts the admissible blocks of the last for every
part number at once.  :func:`enumerate_partitions` places elements in id
order; :func:`verify_bijection` and :func:`census` place them in
:func:`partitions.certificate_order`, as the string maps do, so
enumerated strings and images compare as tuples.  That order is a perfect
elimination order of the scatter graph (Rose, Tarjan & Lueker 1976): an
element's earlier close elements are pairwise close, so they sit in
distinct blocks whatever the vertex labels.
"""

import gc
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from . import paths
from .complexes import SimplicialComplex
from .errors import InputError, OutOfRangeError
from .partitions import (
    GroundKind,
    Partition,
    _independent,
    certificate_order,
    facet_to_vertex_strings,
    vertex_to_facet_strings,
)

MAX_EXACT = 25


def _check_exact_range(n: int, k: int | None = None) -> None:
    if not 0 <= n <= MAX_EXACT:
        raise OutOfRangeError(f"n={n} outside supported range 0..{MAX_EXACT}")
    if k is not None and not 0 <= k <= n:
        raise OutOfRangeError(f"k={k} outside 0..{n}")


def bell(n: int) -> int:
    """Number of set partitions of an n-set, via the Bell triangle."""
    _check_exact_range(n)
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def _stirling_row(n: int) -> list[int]:
    """S(n, k) for k = 0..n, one row of the Stirling triangle."""
    row = [1]  # n = 0
    for _ in range(n):
        nxt = [0] * (len(row) + 1)
        for j in range(1, len(nxt)):
            nxt[j] = j * (row[j] if j < len(row) else 0) + row[j - 1]
        row = nxt
    return row


def stirling2(n: int, k: int) -> int:
    """Number of set partitions of an n-set into exactly k blocks."""
    _check_exact_range(n, k)
    return _stirling_row(n)[k]


@dataclass(frozen=True)
class EnumerationSpec:
    """Ground set, part count, scatter and, per position, the closer ones."""

    ground: tuple[int, ...]
    parts: int
    scatter: int
    near: tuple[tuple[int, ...], ...]
    kind: GroundKind


def vertex_spec(X: SimplicialComplex, parts: int, scatter: int) -> EnumerationSpec:
    return EnumerationSpec(ground=tuple(range(X.n_vertices)), parts=parts, scatter=scatter,
                           near=paths.near(X, "vertices", scatter), kind="vertices")


def facet_spec(X: SimplicialComplex, parts: int, scatter: int) -> EnumerationSpec:
    return EnumerationSpec(ground=tuple(range(X.n_facets)), parts=parts, scatter=scatter,
                           near=paths.near(X, "facets", scatter), kind="facets")


def prefix_spec(n: int, parts: int, scatter: int) -> EnumerationSpec:
    """Ground [1..n] with the integer gap as distance."""
    return EnumerationSpec(ground=tuple(range(1, n + 1)), parts=parts, scatter=scatter,
                           near=tuple(tuple(j for j in range(max(i - scatter + 1, 0),
                                                             min(i + scatter, n)) if j != i)
                                      for i in range(n)), kind="integers")


def _prefixes(spec: EnumerationSpec, order: Sequence[int],
              fewest: int) -> Iterator[tuple[list[int], list[int], int, int, int]]:
    """The walk both consumers share: every placement of all positions of
    ``order`` but the last into at most ``parts`` blocks, each
    ``scatter``-scattered, from which the last position can still reach
    ``fewest`` blocks, once each, in lexicographic order along ``order``.
    ``order`` may cover only part of the ground: its length sets the last
    step and the close masks, which count only steps of ``order``, and
    positions outside it stay unplaced.
    Each step tries each open block in turn, then a new one, and joins a
    block only if no member already there is closer than ``scatter``: one
    AND of the block's member steps with the step's ``close`` mask, the
    earlier steps in its position's ``near`` list.

    A placement is yielded as ``(slot, masks, k, closer, lo)``: the block of
    each position (-1 while unplaced), each block's member steps, the
    number of open blocks, the last step's close mask, so the last step may
    join block b < k when ``closer & masks[b]`` is 0, and the lowest step
    re-placed since the last yield (0 at the first), which takes a higher
    block: where this placement first differs from the last one.  The lists
    are the walk's state; it never reads the last slot, which a consumer
    may set and resets to -1.
    """
    if spec.parts < 1 or spec.scatter < 1:
        raise InputError("parts and scatter must be >= 1")
    n = len(order)
    if fewest > n:
        return
    r = spec.parts
    close = [0] * n  # per step: the earlier steps closer than scatter
    if spec.scatter > 1:
        bit = [0] * len(spec.ground)  # per position: 1 << its step, once placed
        for i, e in enumerate(order):
            close[i] = sum(map(bit.__getitem__, spec.near[e]))
            bit[e] = 1 << i
    masks = [0] * r  # member steps per block
    k = 0  # open blocks
    slot = [-1] * len(spec.ground)  # the block of each position, -1 while unplaced
    last = n - 1
    if not last:  # no prefix to walk
        yield slot, masks, k, 0, 0
        return
    i = lo = 0
    while i >= 0:
        e = order[i]
        b = slot[e]
        if b >= 0:  # take step i out of its block
            masks[b] ^= 1 << i
            if not masks[b]:  # it opened the block, the last one
                k -= 1
        b += 1
        closer = close[i]
        while b < k and closer & masks[b]:
            b += 1
        if b < k:
            masks[b] |= 1 << i
        elif b == k < r:
            masks[b] = 1 << i
            k += 1
        else:  # step i is exhausted: backtrack
            slot[e] = -1
            i -= 1
            if i < lo:
                lo = i
            continue
        slot[e] = b
        if last - i < fewest - k:
            continue  # too few steps left to open the missing blocks
        if i == last - 1:
            yield slot, masks, k, close[last], lo
            lo = i
        else:
            i += 1


def _growth_strings(spec: EnumerationSpec, order: Sequence[int] | None = None,
                    firsts: list[int] | None = None) -> Iterator[tuple[int, ...]]:
    """The string of every partition of the sorted ground set into exactly
    ``parts`` blocks, each ``scatter``-scattered, once each: each placement
    of :func:`_prefixes` with the last position put in each admissible
    block.  Positions are placed in ``order`` (by default 0, 1, ...), and
    the strings come in lexicographic order of their entries read along
    ``order``.

    A list ``firsts`` gets where each string first differs from the one
    before along ``order``: 0 for the first, the walk's least ``lo`` since
    the last string for the first on a new placement, else the last.
    """
    r = spec.parts
    order = list(range(len(spec.ground))) if order is None else order
    last = len(order) - 1
    first = 0  # the least position changed since the last string
    for slot, masks, k, closer, lo in _prefixes(spec, order, r):
        e = order[-1]
        first = min(first, lo)
        # k == r - 1: the last element opens the missing block, whose mask is 0
        for b in range(k) if k == r else (k,):
            if not closer & masks[b]:
                slot[e] = b
                if firsts is not None:
                    firsts.append(first)
                first = last
                yield tuple(slot)
        slot[e] = -1


def _partition(kind: GroundKind, ground: Iterable[int], a: tuple[int, ...]) -> Partition:
    """The partition of the sorted ground set whose id-order string is ``a``."""
    blocks: list[list[int]] = [[] for _ in range(max(a) + 1)]
    for e, b in zip(ground, a):
        blocks[b].append(e)
    return Partition(kind=kind, blocks=tuple(map(tuple, blocks)))


def enumerate_partitions(spec: EnumerationSpec) -> Iterator[Partition]:
    """Every partition of the ground set into exactly ``parts`` blocks, each
    ``scatter``-scattered, once each, in canonical (restricted growth) order:
    the strings of :func:`_growth_strings`, as :class:`Partition` objects."""
    ground = sorted(spec.ground)
    for a in _growth_strings(spec):
        yield _partition(spec.kind, ground, a)


@dataclass(frozen=True)
class BijectionReport:
    """Outcome of the exhaustive two-family check for one (X, r, s)."""

    parts: int
    scatter: int
    dim: int
    left_count: int
    right_count: int
    round_trip_failures: int
    image_mismatches: int
    counterexamples: tuple[tuple[str, Partition], ...] = ()

    @property
    def ok(self) -> bool:
        return (self.left_count == self.right_count
                and self.round_trip_failures == 0
                and self.image_mismatches == 0)

    @property
    def failures(self) -> int:
        return (self.round_trip_failures + self.image_mismatches
                + (0 if self.left_count == self.right_count else 1))

    def lines(self) -> list[str]:
        return [f"leftCount={self.left_count}",
                f"rightCount={self.right_count}",
                f"roundTripFailures={self.round_trip_failures}",
                f"imageMismatches={self.image_mismatches}"]


def verify_bijection(X: SimplicialComplex, r: int, s: int) -> BijectionReport:
    """Enumerate facet partitions (r parts, s-scattered) and vertex
    partitions (r+d parts, s+1-scattered); check that the two maps are
    mutually inverse bijections between the families.

    Both families are enumerated in :func:`partitions.certificate_order`,
    the form both string maps take and return, so equal partitions are
    equal tuples.  :class:`Partition` objects are built only for the
    counterexamples.

    The forward pass maps every facet partition Q to the vertex family and
    back.  When no image misses the vertex family, every Q round-trips and
    the vertex family is as large as the facet family, f2v is injective
    (v2f after f2v is the identity) into a family of the same size, so it
    is onto: every vertex partition is an image whose preimage is in the
    facet family and maps back to it, and the reverse pass could only count
    0 mismatches and 0 round-trip failures.  It is skipped then, and run in
    every other case, so a failing report keeps its exact counts and
    counterexamples.

    Each pass maps its whole family through one call of a string map,
    which resumes each string where it first changes, as the walk or f2v
    reports: f2v over the facet family, v2f over its images and, when the
    reverse pass runs, v2f over the vertex family.  Forward failures are
    counted string by string only when some image misses the family or
    fails to map back.

    v2f is defined only on partitions into independent blocks, and the
    string maps test nothing: the verifier decides.  A member of a vertex
    family whose scatter is at least 2 (here s + 1 >= 2) has them: two
    vertices of one facet are at distance 1, so no block holds both.  So
    the reverse pass maps the vertex family as it is, and only a forward
    image outside the family is tested: one whose blocks are not
    independent does not round-trip, whatever labels v2f gives it.
    Counterexamples are (reason, partition) pairs, the first three of the
    forward and then the reverse pass, in the order of
    :func:`enumerate_partitions`.  A complex of more than ``MAX_EXACT``
    facets raises OutOfRangeError before anything is enumerated.

    The passes allocate a tuple or list per string and form no reference
    cycle, so the cyclic collector, whose passes over them would free
    nothing, is paused while they run; the caller's setting is restored
    when they return or raise.
    """
    if r < 1 or s < 1:
        raise InputError("r and s must be >= 1")
    _check_exact_range(X.n_facets)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _verify(X, r, s)
    finally:
        if collecting:
            gc.enable()


def _verify(X: SimplicialComplex, r: int, s: int) -> BijectionReport:
    left_firsts: list[int] = []  # where each string first changes
    right_firsts: list[int] = []
    left = list(_growth_strings(facet_spec(X, r, s), certificate_order(X, "facets"),
                                left_firsts))
    vertex_family = vertex_spec(X, r + X.dim, s + 1)
    right = list(_growth_strings(vertex_family, certificate_order(X, "vertices"),
                                 right_firsts))
    right_set = set(right)

    round_trips = 0
    mismatches = 0
    notes: list[tuple[bool, tuple[int, ...], str, GroundKind]] = []

    def note(reason: str, kind: GroundKind, a: tuple[int, ...]) -> None:
        first: dict[int, int] = {}  # a with its blocks numbered in id order
        a = tuple([first.setdefault(x, len(first)) for x in a])
        notes.append((kind == "vertices", a, reason, kind))

    images, image_firsts = facet_to_vertex_strings(X, left, left_firsts)
    backs, _ = vertex_to_facet_strings(X, images, image_firsts)
    if backs != left or not right_set.issuperset(images):
        for a, image, back in zip(left, images, backs):
            outside = image not in right_set
            if outside:
                mismatches += 1
                note("facet partition whose image is not in the vertex family", "facets", a)
            if back != a or outside and not _independent(X, image):
                round_trips += 1
                note("facet partition that does not round-trip", "facets", a)
    if mismatches or round_trips or len(right_set) != len(left):
        left_set = set(left)
        forward = dict(zip(left, images))
        preimages, _ = vertex_to_facet_strings(X, right, right_firsts)
        for b, preimage in zip(right, preimages):
            if preimage not in left_set:
                mismatches += 1
                note("vertex partition whose image is not in the facet family",
                     "vertices", b)
            elif forward[preimage] != b:
                round_trips += 1
                note("vertex partition that does not round-trip", "vertices", b)
    notes.sort(key=lambda t: t[:2])  # stable: one partition's notes keep their order
    examples = tuple((reason, _partition(kind, range(len(a)), a))
                     for _, a, reason, kind in notes[:3])

    return BijectionReport(parts=r, scatter=s, dim=X.dim,
                           left_count=len(left), right_count=len(right),
                           round_trip_failures=round_trips,
                           image_mismatches=mismatches,
                           counterexamples=examples)


@dataclass(frozen=True)
class CensusRow:
    parts: int            # facet parts r
    vertex_parts: int     # r + d
    count: int
    expected: int


@dataclass(frozen=True)
class CensusReport:
    n_facets: int
    dim: int
    rows: tuple[CensusRow, ...]
    total: int
    bell_value: int

    @property
    def failures(self) -> int:
        bad = sum(1 for row in self.rows if row.count != row.expected)
        return bad + (0 if self.total == self.bell_value else 1)

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def lines(self) -> list[str]:
        out = [f"r={row.parts} vertexParts={row.vertex_parts} "
               f"count={row.count} stirling={row.expected}"
               for row in self.rows]
        out.append(f"total={self.total}")
        out.append(f"bell={self.bell_value}")
        out.append(f"failures={self.failures}")
        return out


def census(X: SimplicialComplex) -> CensusReport:
    """Count independent vertex partitions of a stacked complex by part
    number; the counts must reproduce Stirling numbers and sum to a Bell
    number.  A complex of more than ``MAX_EXACT`` facets raises
    OutOfRangeError before anything is counted.

    This is still the brute-force oracle: one walk of :func:`_prefixes`
    over every block count at once, with no recurrence, memo or closed
    form.  The walk places every vertex of the certificate order but the
    last two, a and then b.  Each partition is one placement the walk
    yields, one admissible block for a and one for b, and is counted
    once: a goes into each open block its close mask misses and into a
    new one, leaving k' blocks; then the k' blocks that hold none of b's
    close vertices, a included, add to the row of k', and a new block to
    the row of k' + 1.  Nothing is capped at r, so a new block is always
    admissible and the walk has no dead ends.
    """
    n = X.n_facets
    _check_exact_range(n)
    spec = vertex_spec(X, X.n_vertices, 2)
    counts = [0] * (X.n_vertices + 1)  # by vertex part number
    order = certificate_order(X, "vertices")
    a, b = order[-2:]
    a_near_b = a in spec.near[b]
    near_b = [v for v in spec.near[b] if v != a]  # placed by the walk
    for slot, masks, k, closer, _ in _prefixes(spec, order[:-1], 1):
        held = {slot[v] for v in near_b}
        free = k - len(held)  # open blocks b may join unless a is in them
        for beta in range(k):
            if not closer & masks[beta]:
                counts[k] += free - (a_near_b and beta not in held)
                counts[k + 1] += 1
        counts[k + 1] += free + 1 - a_near_b  # a opens block k
        counts[k + 2] += 1
    stirling = _stirling_row(n)
    rows = tuple(CensusRow(parts=r, vertex_parts=r + X.dim, count=counts[r + X.dim],
                           expected=stirling[r])
                 for r in range(1, n + 1))
    return CensusReport(n_facets=n, dim=X.dim, rows=rows,
                        total=sum(row.count for row in rows), bell_value=bell(n))
