"""Brute-force enumeration of constrained partitions and exact counts.

This is the verification side of the package: restricted-growth-string
enumeration of scattered partitions, exhaustive bijection checks, and the
Bell/Stirling identities they must reproduce.

A partition is held as a string: entry i is the block of the i-th element
of the sorted ground set, blocks numbered 0, 1, ... in the order their
first member is placed (Knuth, TAOCP 4A §7.2.1.5, restricted-growth
strings).  One walk, :func:`_prefixes`, places every element of the order
it is given but the last, and its consumers finish each placement for
three uses.  :func:`_chunks` expands the last element into the strings of
one part number, in lists of at most ``CHUNK``: :func:`_growth_strings`
flattens them for enumeration, and :func:`verify_bijection` maps them a
list at a time.  :func:`_counts`, whose walk stops one element earlier,
puts the second-to-last element in each admissible block and counts the
admissible blocks of the last for every part number at once, for
:func:`census` and for the size of the vertex family in
:func:`verify_bijection`, which never builds that family's strings
unless a check has failed.  :func:`enumerate_partitions` places elements
in id order; :func:`verify_bijection` and :func:`census` place them in
:func:`partitions.certificate_order`, as the string maps do, so
enumerated strings and images compare as tuples.  That order is a perfect
elimination order of the scatter graph (Rose, Tarjan & Lueker 1976): an
element's earlier close elements are pairwise close, so they sit in
distinct blocks whatever the vertex labels.
"""

import gc
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from . import paths
from .complexes import SimplicialComplex, derived
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
    masks = [0] * min(r, n)  # member steps per block: n steps open at most n
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


# The most strings a family is held at once: verify keeps one list of
# each kind per pass, whatever the family's size.
CHUNK = 1 << 14


def _chunks(spec: EnumerationSpec, order: Sequence[int]
            ) -> Iterator[tuple[list[tuple[int, ...]], list[int]]]:
    """The string of every partition of the sorted ground set into exactly
    ``parts`` blocks, each ``scatter``-scattered, once each, in lists of
    at most ``CHUNK``: each placement of :func:`_prefixes` with the last
    position of ``order`` put in each admissible block.  The strings come
    in lexicographic order of their entries read along ``order``.

    Each list comes with where each string first differs from the one
    before along ``order``: 0 for the first of the family, the walk's
    least ``lo`` since the last string for the first on a new placement,
    else the last position.
    """
    r, size = spec.parts, CHUNK
    last = len(order) - 1
    strings: list[tuple[int, ...]] = []
    firsts: list[int] = []
    first = 0  # the least position changed since the last string
    for slot, masks, k, closer, lo in _prefixes(spec, order, r):
        e = order[-1]
        if lo < first:
            first = lo
        # k == r - 1: the last element opens the missing block, whose mask is 0
        for b in range(k) if k == r else (k,):
            if not closer & masks[b]:
                slot[e] = b
                strings.append(tuple(slot))
                firsts.append(first)
                first = last
                if len(strings) == size:
                    yield strings, firsts
                    strings, firsts = [], []
        slot[e] = -1
    if strings:
        yield strings, firsts


def _growth_strings(spec: EnumerationSpec,
                    order: Sequence[int] | None = None) -> Iterator[tuple[int, ...]]:
    """The strings of :func:`_chunks` one by one, positions placed in
    ``order`` (by default 0, 1, ...)."""
    order = list(range(len(spec.ground))) if order is None else order
    for strings, _ in _chunks(spec, order):
        yield from strings


def _counts(spec: EnumerationSpec, order: Sequence[int]) -> list[int]:
    """For each part number 0, 1, ..., ``parts``, how many strings
    :func:`_growth_strings` yields in ``order``, which must cover the
    ground, with no string built.

    One walk of :func:`_prefixes` places every position but the last two,
    a and then b.  Each partition is one placement the walk yields, one
    admissible block for a and one for b, and is counted once: a goes into
    each open block its close mask misses and into a new one, leaving k'
    blocks; then the k' blocks that hold none of b's close positions, a
    included, add to the count of k', and a new block to that of k' + 1.
    Counts past ``parts`` are made and dropped, so a new block is always
    admissible and the walk has no dead ends.  The list ends at part
    number ``len(order) + 2`` when ``parts`` is larger, as no string has
    more blocks than positions.
    """
    r = spec.parts
    counts = [0] * (min(r, len(order)) + 3)
    if len(order) < 2:  # no walk: the one string of 0 or 1 positions
        counts[len(order)] = 1
        return counts[:r + 1]
    a, b = order[-2:]
    a_near_b = a in spec.near[b]
    # the steps of b's close positions that the walk places
    near_b = sum(1 << order.index(v) for v in spec.near[b] if v != a)
    for _, masks, k, closer, _ in _prefixes(spec, order[:-1], 1):
        free = k  # open blocks b may join unless a is in them
        joins = lone = 0  # blocks a may join, and those of them free for b
        for mask in masks[:k]:
            held = mask & near_b
            if held:
                free -= 1
            if not closer & mask:
                joins += 1
                if not held:
                    lone += 1
        counts[k] += joins * free - (lone if a_near_b else 0)
        counts[k + 1] += joins + free + 1 - a_near_b  # a opens block k
        counts[k + 2] += 1
    return counts[:r + 1]


@derived
def _close_getters(X: SimplicialComplex, kind: GroundKind,
                   scatter: int) -> list[itemgetter | None]:
    """Per facet or vertex, a getter of the blocks of it and of the
    elements closer to it than ``scatter``, or None when there are none:
    the table of :func:`_misses`, built once per complex, kind and scatter
    from :func:`paths.near`, as the specs' ``near`` is."""
    return [itemgetter(e, *near) if near else None
            for e, near in enumerate(paths.near(X, kind, scatter))]


def _misses(X: SimplicialComplex, spec: EnumerationSpec, order: Sequence[int],
            strings: Sequence, firsts: Sequence[int]) -> list[int]:
    """The indices of the strings outside the family of ``spec``, a facet
    or vertex spec of X, tested by its definition: a string is in it when
    it is a tuple of the ground's length, a restricted-growth string along
    ``order``, X's :func:`partitions.certificate_order` of the kind, with
    exactly ``parts`` blocks, and no element shares a block with an
    earlier one closer than ``scatter``.  Anything else is outside;
    nothing raises.

    ``firsts`` holds lower bounds on where each string first differs from
    the one before along the order, as the string maps return them.  A
    string is tested from its bound, or from where the one before failed
    if that is earlier; the first from 0.  Each step tests its element
    against all its close elements, later ones included: a pair with an
    end at or past the bound is tested again at that end, and one with
    both ends before it holds as it did in the string before.  A new
    block has no earlier member, and any later one is tested at its own
    step, so only an element that joins an open block is tested.
    """
    close = _close_getters(X, spec.kind, spec.scatter)
    n, r = len(order), spec.parts
    opened = [0] * (n + 1)  # per step: blocks opened before it in the last string
    passed = 0  # the steps the last string passed
    out = []
    for t, (a, first) in enumerate(zip(strings, firsts)):
        if type(a) is not tuple or len(a) != n:
            out.append(t)
            passed = 0
            continue
        i = first if first < passed else passed
        m = opened[i]
        while i < n:
            e = order[i]
            x = a[e]
            if x == m:
                m += 1
            elif not 0 <= x < m or close[e] and close[e](a).count(x) > 1:
                break
            i += 1
            opened[i] = m
        passed = i
        if i < n or m != r:
            out.append(t)
    return out


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

    Neither family is held whole.  The forward pass walks the facet family
    in lists of at most ``CHUNK`` strings, as :func:`_chunks` yields them.
    It maps each list through f2v and the images back through v2f, and it
    tests each image against the vertex family's definition
    (:func:`_misses`).  The vertex family's size comes from
    :func:`_counts`, which builds no string.  When no image misses the
    vertex family, every Q round-trips and the two families are the same
    size, f2v is injective (v2f after f2v is the identity) into a family
    of the same size, so it is onto: every vertex partition is an image
    whose preimage is in the facet family and maps back to it, and the
    reverse pass could only count 0 mismatches and 0 round-trip failures.
    It is skipped then, and run in every other case, so a failing report
    keeps its exact counts and counterexamples.  It walks the vertex
    family in lists the same way, maps each through v2f, tests each
    preimage against the facet family's definition and maps the preimages
    inside it through f2v, to compare with the list.

    Each string map call takes one list and resumes each string where it
    first changes, as the walk or the map before reports; the first string
    of each list starts from step 0.  The definition test resumes the same
    way.  Forward failures are counted string by string only when some
    image in the list misses the family or fails to map back.

    v2f is defined only on partitions into independent blocks, and the
    string maps test nothing: the verifier decides.  A member of a vertex
    family whose scatter is at least 2 (here s + 1 >= 2) has them: two
    vertices of one facet are at distance 1, so no block holds both.  So
    the reverse pass maps the vertex family as it is, and only a forward
    image outside the family is tested: one whose blocks are not
    independent does not round-trip, whatever labels v2f gives it.
    Counterexamples are (reason, partition) pairs, the first three of the
    forward and then the reverse pass, in the order of
    :func:`enumerate_partitions`; the passes keep only the first three
    found so far.  A complex of more than ``MAX_EXACT`` facets raises
    OutOfRangeError before anything is enumerated.

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
    facets, vertices = facet_spec(X, r, s), vertex_spec(X, r + X.dim, s + 1)
    facet_order = certificate_order(X, "facets")
    vertex_order = certificate_order(X, "vertices")
    left_count = round_trips = mismatches = 0
    notes: list[tuple[bool, tuple[int, ...], int, str, GroundKind]] = []

    def note(reason: str, kind: GroundKind, a: tuple[int, ...]) -> None:
        first: dict[int, int] = {}  # a with its blocks numbered in id order
        a = tuple([first.setdefault(x, len(first)) for x in a])
        # the noting order breaks ties: one partition's notes keep theirs
        notes.append((kind == "vertices", a, mismatches + round_trips, reason, kind))
        if len(notes) > 3:
            notes.remove(max(notes))

    for left, left_firsts in _chunks(facets, facet_order):
        left_count += len(left)
        images, image_firsts = facet_to_vertex_strings(X, left, left_firsts)
        backs, _ = vertex_to_facet_strings(X, images, image_firsts)
        outside = _misses(X, vertices, vertex_order, images, image_firsts)
        if backs != left or outside:
            outside = set(outside)
            for t, (a, image, back) in enumerate(zip(left, images, backs)):
                missed = t in outside
                if missed:
                    mismatches += 1
                    note("facet partition whose image is not in the vertex family",
                         "facets", a)
                if back != a or missed and not _independent(X, image):
                    round_trips += 1
                    note("facet partition that does not round-trip", "facets", a)
    counts = _counts(vertices, vertex_order)
    right_count = counts[vertices.parts] if vertices.parts < len(counts) else 0
    if mismatches or round_trips or right_count != left_count:
        for right, right_firsts in _chunks(vertices, vertex_order):
            preimages, preimage_firsts = vertex_to_facet_strings(X, right, right_firsts)
            misses = _misses(X, facets, facet_order, preimages, preimage_firsts)
            for t in misses:
                mismatches += 1
                note("vertex partition whose image is not in the facet family",
                     "vertices", right[t])
            # f2v over the preimages in the facet family, each from step 0
            # when some are left out, as their bounds then may not hold
            outside = set(misses)
            kept = [t for t in range(len(right)) if t not in outside]
            forward, _ = facet_to_vertex_strings(X, [preimages[t] for t in kept],
                                                 None if misses else preimage_firsts)
            for t, image in zip(kept, forward):
                if image != right[t]:
                    round_trips += 1
                    note("vertex partition that does not round-trip", "vertices", right[t])
    notes.sort()
    examples = tuple((reason, _partition(kind, range(len(a)), a))
                     for _, a, _, reason, kind in notes)

    return BijectionReport(parts=r, scatter=s, dim=X.dim,
                           left_count=left_count, right_count=right_count,
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

    This is still the brute-force oracle: one counting walk,
    :func:`_counts`, over the independent (2-scattered) vertex partitions
    into any number of blocks, in certificate order, with no recurrence,
    memo or closed form.  Every partition is counted one by one, once.
    """
    n = X.n_facets
    _check_exact_range(n)
    counts = _counts(vertex_spec(X, X.n_vertices, 2), certificate_order(X, "vertices"))
    stirling = _stirling_row(n)
    rows = tuple(CensusRow(parts=r, vertex_parts=r + X.dim, count=counts[r + X.dim],
                           expected=stirling[r])
                 for r in range(1, n + 1))
    return CensusReport(n_facets=n, dim=X.dim, rows=rows,
                        total=sum(row.count for row in rows), bell_value=bell(n))
