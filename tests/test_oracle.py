import gc
import random
import sys
import time
from itertools import combinations
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stackedcx as sc
from stackedcx import cli, errors, oracle, partitions
from stackedcx.generators import (
    all_trees,
    polygon_triangulations,
    random_stacked,
    tree_from_prufer,
)
from stackedcx.oracle import (
    enumerate_partitions,
    facet_spec,
    prefix_spec,
    vertex_spec,
)
from stackedcx.partitions import (
    certificate_order,
    facet_to_vertex_strings,
    vertex_to_facet_strings,
)
from stackedcx.paths import facet_distance_matrix, vertex_distance_matrix

from conftest import (
    cx,
    growth_string,
    inject,
    merging_facet_to_vertex,
    relabelled,
    string_partition,
    unconditional_merging_facet_to_vertex,
)


def naive_set_partitions(items):
    """All set partitions by inserting elements one at a time; independent
    of the restricted-growth enumeration under test."""
    items = list(items)
    if not items:
        yield []
        return
    head, tail = items[0], items[1:]
    for rest in naive_set_partitions(tail):
        for i in range(len(rest)):
            yield rest[:i] + [[head] + rest[i]] + rest[i + 1:]
        yield rest + [[head]]


def reference_distance(kind, X=None):
    """The distance of the ground set, by definition, not read off a spec:
    the integer gap, or the vertex or facet distance in X."""
    if kind == "integers":
        return lambda a, b: abs(a - b)
    distance = sc.vertex_distance if kind == "vertices" else sc.facet_distance
    return lambda a, b: distance(X, a, b)


def naive_filtered(spec, X=None):
    """Enumerate-then-filter oracle for enumerate_partitions."""
    distance = reference_distance(spec.kind, X)
    out = set()
    for blocks in naive_set_partitions(spec.ground):
        if len(blocks) != spec.parts:
            continue
        if any(distance(a, b) < spec.scatter
               for block in blocks for i, a in enumerate(block)
               for b in block[i + 1:]):
            continue
        out.add(tuple(sorted(tuple(sorted(b)) for b in blocks)))
    return out


class TestEnumerate:
    def test_three_elements_two_parts(self):
        spec = prefix_spec(3, 2, 1)
        got = list(enumerate_partitions(spec))
        assert len(got) == 3 == sc.stirling2(3, 2)
        assert got[0].blocks == ((1, 2), (3,))

    def test_more_parts_than_elements(self):
        assert list(enumerate_partitions(prefix_spec(3, 4, 1))) == []

    def test_no_duplicates_and_canonical(self):
        seen = set()
        prev = None
        for P in enumerate_partitions(prefix_spec(6, 3, 1)):
            assert P not in seen
            seen.add(P)
            for block in P.blocks:
                assert block == tuple(sorted(block))
            assert P.blocks == tuple(sorted(P.blocks, key=lambda b: b[0]))
            if prev is not None:
                assert prev != P
            prev = P
        assert len(seen) == sc.stirling2(6, 3)

    def test_line_edges_scatter_two_matches_filter_oracle(self):
        X = sc.line_graph(5)
        spec = facet_spec(X, 3, 2)
        got = {P.blocks for P in enumerate_partitions(spec)}
        assert got == naive_filtered(spec, X)

    @given(st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_pruned_equals_filtered(self, seed):
        rng = random.Random(seed)
        X = random_stacked(1 + seed % 3, 1 + seed % 6, seed)
        kind = rng.choice(("vertices", "facets"))
        ground = X.n_vertices if kind == "vertices" else X.n_facets
        if ground > 9:
            ground = 9
        r = rng.randint(1, max(1, ground))
        s = rng.randint(1, 3)
        spec = (vertex_spec if kind == "vertices" else facet_spec)(X, r, s)
        spec = type(spec)(ground=spec.ground[:ground], parts=r, scatter=s,
                          near=tuple(tuple(b for b in spec.near[a] if b < ground)
                                     for a in range(ground)), kind=spec.kind)
        got = {P.blocks for P in enumerate_partitions(spec)}
        assert got == naive_filtered(spec, X)

    def test_stirling_counts_without_scatter(self):
        for n in range(1, 8):
            for r in range(1, n + 1):
                count = sum(1 for _ in enumerate_partitions(prefix_spec(n, r, 1)))
                assert count == sc.stirling2(n, r)

    def test_specs_are_hashable_values(self):
        X = sc.line_graph(4)
        for spec in (facet_spec, vertex_spec, lambda X, r, s: prefix_spec(X.n_vertices, r, s)):
            for s in (1, 2, 3):
                assert spec(X, 2, s) == spec(X, 2, s)
                assert hash(spec(X, 2, s)) == hash(spec(X, 2, s))

    def test_prefix_spec_lists_the_integer_window(self):
        # both sides of it: a walk in another order reads the later positions
        for n in range(7):
            for s in (1, 2, 3, 10**20):
                assert [set(w) for w in prefix_spec(n, 1, s).near] == [
                    {j for j in range(n) if j != i and abs(i - j) < s} for i in range(n)]

    def test_invalid_spec(self):
        with pytest.raises(errors.InputError):
            list(enumerate_partitions(prefix_spec(3, 0, 1)))
        with pytest.raises(errors.InputError):
            list(enumerate_partitions(prefix_spec(3, 1, 0)))


class TestExactCounts:
    def test_bell_small_values_against_brute_force(self):
        for n in range(7):
            brute = sum(1 for _ in naive_set_partitions(range(n)))
            assert sc.bell(n) == brute
        assert [sc.bell(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]

    def test_stirling_against_brute_force(self):
        for n in range(7):
            for k in range(n + 1):
                brute = sum(1 for p in naive_set_partitions(range(n))
                            if len(p) == k)
                assert sc.stirling2(n, k) == brute
        assert sc.stirling2(4, 2) == 7

    def test_diagonal_and_edges(self):
        for n in range(1, 10):
            assert sc.stirling2(n, n) == 1
            assert sc.stirling2(n, 1) == 1

    def test_out_of_range(self):
        with pytest.raises(errors.OutOfRangeError):
            sc.bell(26)
        with pytest.raises(errors.OutOfRangeError):
            sc.bell(-1)
        with pytest.raises(errors.OutOfRangeError):
            sc.stirling2(5, 6)
        with pytest.raises(errors.OutOfRangeError):
            sc.stirling2(5, -1)

    def test_bell_is_row_sum_of_stirling(self):
        for n in range(12):
            assert sc.bell(n) == sum(sc.stirling2(n, k) for k in range(n + 1))


class TestVerifyBijection:
    @pytest.mark.parametrize("counts, failures", [
        ((15, 15, 0, 0), 0),
        ((15, 14, 0, 0), 1),   # the families differ in size
        ((15, 15, 2, 3), 5),   # round trips and image mismatches add up
        ((15, 13, 2, 3), 6),
    ])
    def test_report_failures(self, counts, failures):
        left, right, round_trips, mismatches = counts
        report = oracle.BijectionReport(
            parts=2, scatter=1, dim=2, left_count=left, right_count=right,
            round_trip_failures=round_trips, image_mismatches=mismatches)
        assert report.failures == failures
        assert report.ok == (failures == 0)

    def test_single_edge(self):
        X = cx("1 2")
        report = sc.verify_bijection(X, 1, 1)
        assert report.ok and report.left_count == report.right_count == 1

    def test_heptagon_counts(self, heptagon):
        report = sc.verify_bijection(heptagon, 2, 1)
        assert report.ok
        assert report.left_count == report.right_count == 15

    def test_all_trees_up_to_six_vertices(self):
        for v in (2, 3, 4, 5, 6):
            for T in all_trees(v):
                for r in range(1, min(T.n_facets, 4) + 1):
                    for s in (1, 2, 3):
                        assert sc.verify_bijection(T, r, s).ok

    # all 16807 labeled trees on 7 vertices, split by first Prüfer symbol
    @pytest.mark.parametrize("first", range(1, 8))
    def test_all_seven_vertex_trees(self, first):
        from itertools import product

        for rest in product(range(1, 8), repeat=4):
            T = tree_from_prufer((first, *rest), 7)
            for r in range(1, 5):
                for s in (1, 2, 3):
                    assert sc.verify_bijection(T, r, s).ok

    def test_eight_facet_complexes(self):
        # decagon triangulations and random stackings have n = 8
        rng = random.Random(5)
        pool = list(polygon_triangulations(10))
        sample = [pool[rng.randrange(len(pool))] for _ in range(40)]
        sample += [random_stacked(1 + k % 3, 8, k) for k in range(20)]
        for X in sample:
            assert X.n_facets == 8
            for r in (1, 2, 3, 4):
                for s in (1, 2, 3):
                    assert sc.verify_bijection(X, r, s).ok

    def test_report_lines_keys(self, heptagon):
        lines = sc.verify_bijection(heptagon, 1, 1).lines()
        keys = [line.split("=")[0] for line in lines]
        assert keys == ["leftCount", "rightCount", "roundTripFailures",
                        "imageMismatches"]

    def test_rejects_bad_parameters(self, heptagon):
        with pytest.raises(errors.InputError):
            sc.verify_bijection(heptagon, 0, 1)


class TestCensus:
    def test_five_edge_tree(self):
        X = sc.line_graph(5)
        report = sc.census(X)
        assert report.ok and report.total == 52 == sc.bell(5)

    def test_heptagon(self, heptagon):
        report = sc.census(heptagon)
        assert report.ok
        assert report.total == 52
        assert [row.count for row in report.rows] == \
            [sc.stirling2(5, r) for r in range(1, 6)]

    def test_single_facet(self):
        X = cx("1 2 3")
        report = sc.census(X)
        assert report.ok and report.total == 1 == sc.bell(1)

    def test_lines_end_with_failures(self, heptagon):
        assert sc.census(heptagon).lines()[-1] == "failures=0"

    def test_more_facets_than_exact_range_raises_at_once(self):
        X = random_stacked(2, 2000, 0)
        start = time.perf_counter()
        with pytest.raises(errors.OutOfRangeError, match="n=2000 outside"):
            sc.census(X)
        assert time.perf_counter() - start < 0.5


# The lean verification core against test-local references: a brute force
# over restricted-growth strings for the enumerator, and the two-pass
# check without the proven skip for verify_bijection.

def restricted_growth_strings(n, max_blocks):
    """Every restricted-growth string of length n with at most max_blocks
    distinct values, in lexicographic order (a prefix never loses blocks,
    so the cap only filters)."""
    strings = [()]
    for _ in range(n):
        strings = [a + (b,) for a in strings
                   for b in range(min(max(a, default=-1) + 2, max_blocks))]
    return strings


def reference_strings(spec, X=None):
    """The restricted-growth strings with exactly ``parts`` blocks whose
    same-block pairs are all >= scatter apart."""
    ground = sorted(spec.ground)
    distance = reference_distance(spec.kind, X)
    close = [(i, j) for j in range(len(ground)) for i in range(j)
             if distance(ground[i], ground[j]) < spec.scatter]
    return [a for a in restricted_growth_strings(len(ground), spec.parts)
            if max(a, default=-1) + 1 == spec.parts
            and not any(a[i] == a[j] for i, j in close)]


def reference_enumeration(spec, X=None):
    """The partitions of :func:`reference_strings`."""
    ground = sorted(spec.ground)
    out = []
    for a in reference_strings(spec, X):
        blocks = [[] for _ in range(spec.parts)]
        for e, b in zip(ground, a):
            blocks[b].append(e)
        out.append(sc.Partition(spec.kind, tuple(tuple(b) for b in blocks)))
    return out


def reference_verify(X, r, s, facet_to_vertex=sc.facet_to_vertex,
                     vertex_to_facet=sc.vertex_to_facet, vertex_spec=vertex_spec):
    """Both passes, always, over Partition objects, through the given maps
    and vertex family: the true ones unless a fault is passed in."""
    left = list(enumerate_partitions(facet_spec(X, r, s)))
    right = list(enumerate_partitions(vertex_spec(X, r + X.dim, s + 1)))
    left_set, right_set = set(left), set(right)
    round_trips = mismatches = 0
    examples = []
    forward = {}
    for Q in left:
        image = facet_to_vertex(X, Q)
        forward[Q] = image
        if image not in right_set:
            mismatches += 1
            examples.append(("facet partition whose image is not in the "
                             "vertex family", Q))
        try:
            back = vertex_to_facet(X, image)
        except errors.NotIndependentError:
            back = None
        if back != Q:
            round_trips += 1
            examples.append(("facet partition that does not round-trip", Q))
    for P in right:
        preimage = vertex_to_facet(X, P)
        if preimage not in left_set:
            mismatches += 1
            examples.append(("vertex partition whose image is not in the "
                             "facet family", P))
        elif forward[preimage] != P:
            round_trips += 1
            examples.append(("vertex partition that does not round-trip", P))
    return oracle.BijectionReport(
        parts=r, scatter=s, dim=X.dim, left_count=len(left),
        right_count=len(right), round_trip_failures=round_trips,
        image_mismatches=mismatches, counterexamples=tuple(examples[:3]))


def constant_facet_to_vertex(X, Q):
    """A faulty facet_to_vertex: every partition goes to the image of the
    one-block facet partition."""
    return sc.facet_to_vertex(X, sc.make_partition("facets", [range(X.n_facets)]))


def looser_vertex_spec(X, parts, scatter):
    """A faulty vertex family: one scatter looser, still independent, so
    every true image lies in it but it can be larger than the facet family."""
    return vertex_spec(X, parts, max(2, scatter - 1))


def counting_vertex_to_facet(calls):
    """vertex_to_facet that records each partition it is called on."""
    def counted(X, P):
        calls.append(P)
        return sc.vertex_to_facet(X, P)
    return counted


small_stackings = st.builds(random_stacked, st.integers(1, 3), st.integers(1, 8),
                            st.integers(0, 10**6))
# each stacking as generated and, beside it, a copy with shuffled tokens
both_labellings = st.builds(lambda X, seed: (X, relabelled(X, seed)),
                            small_stackings, st.integers(0, 10**6))


class TestLeanCore:
    @given(both_labellings, st.sampled_from(("facets", "vertices", "integers")),
           st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_enumeration_matches_restricted_growth_brute_force(self, pair, kind, r, s):
        for X in pair:
            if kind == "facets":
                spec = facet_spec(X, r, s)
            elif kind == "vertices":
                spec = vertex_spec(X, r, s)
            else:
                spec = prefix_spec(X.n_vertices, r, s)
            assert list(enumerate_partitions(spec)) == reference_enumeration(spec, X)

    @given(both_labellings, st.sampled_from(("facets", "vertices", "integers")),
           st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_growth_strings_match_brute_force_and_enumeration(self, pair, kind, r, s):
        for X in pair:
            if kind == "facets":
                spec = facet_spec(X, r, s)
            elif kind == "vertices":
                spec = vertex_spec(X, r, s)
            else:
                spec = prefix_spec(X.n_vertices, r, s)
            strings = list(oracle._growth_strings(spec))
            assert strings == reference_strings(spec, X)
            ground = sorted(spec.ground)
            assert [tuple(tuple(e for e, b in zip(ground, a) if b == k) for k in range(r))
                    for a in strings] == [P.blocks for P in enumerate_partitions(spec)]

    def test_smallest_grounds(self):
        # grounds of size 0, 1 and 2 leave the walk no or one position before
        # the last; more parts than elements give nothing
        expected = {(0, 1, 1): [], (1, 1, 1): [(0,)], (1, 1, 2): [(0,)],
                    (1, 2, 1): [], (2, 1, 1): [(0, 0)], (2, 1, 2): [],
                    (2, 2, 1): [(0, 1)], (2, 2, 2): [(0, 1)], (2, 3, 1): []}
        for (n, r, s), strings in expected.items():
            spec = prefix_spec(n, r, s)
            assert list(oracle._growth_strings(spec)) == strings == reference_strings(spec)
            assert list(enumerate_partitions(spec)) == reference_enumeration(spec)
        X = cx("1 2 3")
        for r in (1, 2):
            for s in (1, 2):
                spec = facet_spec(X, r, s)
                assert list(oracle._growth_strings(spec)) == ([(0,)] if r == 1 else [])
                assert list(enumerate_partitions(spec)) == reference_enumeration(spec, X)
        # along the order [1, 0] the second element is placed first
        assert list(oracle._growth_strings(prefix_spec(2, 2, 1), [1, 0])) == [(1, 0)]

    @given(both_labellings, st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_verify_matches_two_pass_reference(self, pair, r, s):
        for X in pair:
            assert sc.verify_bijection(X, r, s) == reference_verify(X, r, s)

    @pytest.mark.parametrize("name, fault", [
        ("facet_to_vertex", merging_facet_to_vertex),
        ("facet_to_vertex", unconditional_merging_facet_to_vertex),
        ("facet_to_vertex", constant_facet_to_vertex),
        ("vertex_spec", looser_vertex_spec)])
    @given(pair=both_labellings, r=st.integers(1, 3), s=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_any_disagreement_runs_the_reverse_pass(self, name, fault, pair, r, s):
        for X in pair:
            calls = []
            with pytest.MonkeyPatch.context() as patch:
                inject(patch, name, fault)
                inject(patch, "vertex_to_facet", counting_vertex_to_facet(calls))
                got = oracle.verify_bijection(X, r, s)
            assert got == reference_verify(X, r, s, **{name: fault})
            assert len(calls) == got.left_count + (0 if got.ok else got.right_count)

    def test_image_with_two_vertices_on_a_facet_does_not_round_trip(self, heptagon,
                                                                     monkeypatch):
        inject(monkeypatch, "facet_to_vertex", unconditional_merging_facet_to_vertex)
        report = oracle.verify_bijection(heptagon, 2, 1)
        assert (report.left_count, report.right_count) == (15, 15)
        assert report.image_mismatches == 15
        assert report.round_trip_failures == 30
        assert ("facet partition that does not round-trip",
                report.counterexamples[0][1]) in report.counterexamples

    def test_passing_instance_skips_the_reverse_pass(self, heptagon, monkeypatch):
        calls = []
        inject(monkeypatch, "vertex_to_facet", counting_vertex_to_facet(calls))
        report = oracle.verify_bijection(heptagon, 2, 1)
        assert report.ok and len(calls) == report.left_count == 15

    def test_partitions_are_built_only_for_counterexamples(self, heptagon,
                                                           monkeypatch):
        built = []
        init = sc.Partition.__init__

        def counting_init(self, kind, blocks):
            built.append(blocks)
            init(self, kind, blocks)

        monkeypatch.setattr(sc.Partition, "__init__", counting_init)
        assert oracle.verify_bijection(heptagon, 2, 1).ok
        assert built == []
        inject(monkeypatch, "vertex_spec", looser_vertex_spec)
        report = oracle.verify_bijection(heptagon, 2, 2)
        assert (report.image_mismatches, len(report.counterexamples)) == (14, 3)
        assert built == [P.blocks for _, P in report.counterexamples]


class TestCollectorPause:
    """verify_bijection pauses the cyclic collector while its passes run
    and leaves it as the caller had it, also when a pass raises."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        collecting = gc.isenabled()
        yield
        (gc.enable if collecting else gc.disable)()

    @pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
    def test_the_collector_is_left_as_found(self, heptagon, monkeypatch, collecting):
        during = []
        real = oracle.facet_to_vertex_strings

        def recording(*args):
            during.append(gc.isenabled())
            return real(*args)

        monkeypatch.setattr(oracle, "facet_to_vertex_strings", recording)
        (gc.enable if collecting else gc.disable)()
        report = oracle.verify_bijection(heptagon, 2, 1)
        assert gc.isenabled() is collecting
        assert during == [False]
        assert report == reference_verify(heptagon, 2, 1)

    def test_a_pass_that_raises_restores_the_collector(self, heptagon, monkeypatch):
        def failing(*args):
            raise RuntimeError("pass failed")

        monkeypatch.setattr(oracle, "facet_to_vertex_strings", failing)
        gc.enable()
        with pytest.raises(RuntimeError, match="pass failed"):
            oracle.verify_bijection(heptagon, 2, 1)
        assert gc.isenabled()


# verify_bijection and census enumerate in certificate order, the order in
# which the string maps number blocks; enumerate_partitions in id order.

class WalkCapReached(Exception):
    pass


# the enumeration walk's lines: its core and the consumer that expands the
# last position, not the setup of its close masks
WALK = {oracle._prefixes.__code__, oracle._growth_strings.__code__}


def lines_run(call, codes, cap=float("inf")):
    """``call()`` and the number of lines of ``codes`` that ran during it:
    a measure of its steps that does not depend on the machine.  Raises
    WalkCapReached past ``cap`` lines."""
    lines = 0

    def count_lines(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
            if lines > cap:
                raise WalkCapReached
        return count_lines

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count_lines if frame.f_code in codes else None)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, lines


def walk_in_lines(spec, order, cap):
    """The number of strings the enumeration walk yields in ``order``, and
    the lines of it that ran.  Raises WalkCapReached past ``cap`` lines."""
    return lines_run(lambda: sum(1 for _ in oracle._growth_strings(spec, order)), WALK, cap)


def walk(spec, order):
    """The walk's strings in ``order``, and the positions it records."""
    firsts = []
    return list(oracle._growth_strings(spec, order, firsts)), firsts


def verify_families(X, r, s):
    """The facet and vertex families verify_bijection maps, in walk order,
    each with the positions the walk records."""
    return (walk(facet_spec(X, r, s), certificate_order(X, "facets")),
            walk(vertex_spec(X, r + X.dim, s + 1), certificate_order(X, "vertices")))


def first_changes(strings, order):
    """Reference scan: each string's first position along ``order`` where it
    differs from the string before it (len(order) when equal); 0 for the
    first string."""
    out = [0] if strings else []
    for previous, a in zip(strings, strings[1:]):
        out.append(next((i for i, e in enumerate(order) if a[e] != previous[e]),
                        len(order)))
    return out


def position_kinds(strings, order, rng):
    """Three kinds of valid positions for ``strings``: the reference scan's,
    all zeros, and random values at or below the scan's."""
    exact = first_changes(strings, order)
    return exact, [0] * len(strings), [rng.randint(0, p) for p in exact]


def bounds_hold(results, firsts, order):
    """Whether each of ``firsts`` is at or below the reference scan's."""
    return len(firsts) == len(results) and all(
        p <= q for p, q in zip(firsts, first_changes(results, order)))


def close_earlier_are_cliques(order, distance, bound):
    """In ``order``, every element's earlier elements at distance < bound
    are pairwise at distance < bound."""
    for i, e in enumerate(order):
        near = [f for f in order[:i] if distance[f][e] < bound]
        if any(distance[a][b] >= bound for a, b in combinations(near, 2)):
            return False
    return True


def clique_corpus():
    """The test corpora's small complexes, each as generated and relabelled."""
    complexes = [T for v in range(2, 7) for T in all_trees(v)]
    complexes += list(polygon_triangulations(7))
    complexes += [random_stacked(1 + seed % 3, 1 + seed % 9, seed) for seed in range(60)]
    complexes += [random_stacked(d, 1, 0) for d in (1, 2, 3)]  # single facets
    return complexes + [relabelled(X, i) for i, X in enumerate(complexes)]


class TestCertificateOrder:
    @given(both_labellings, st.sampled_from(("facets", "vertices")),
           st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_walk_yields_the_id_order_partitions(self, pair, kind, r, s):
        for X in pair:
            spec = (facet_spec if kind == "facets" else vertex_spec)(X, r, s)
            strings = list(oracle._growth_strings(spec, certificate_order(X, kind)))
            partitions = [string_partition(kind, a) for a in strings]
            assert len(set(strings)) == len(strings)
            assert set(partitions) == set(enumerate_partitions(spec))
            # each string is the certificate form of its partition
            assert strings == [growth_string(X, P) for P in partitions]

    @given(both_labellings, st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_string_maps_agree_with_public_maps(self, pair, r, s):
        for X in pair:
            (left, _), (right, _) = verify_families(X, r, s)
            for a, image in zip(left, facet_to_vertex_strings(X, left)[0]):
                P = sc.facet_to_vertex(X, string_partition("facets", a))
                assert image == growth_string(X, P)
            for b, preimage in zip(right, vertex_to_facet_strings(X, right)[0]):
                Q = sc.vertex_to_facet(X, string_partition("vertices", b))
                assert preimage == growth_string(X, Q)

    def test_close_earlier_elements_form_a_clique(self):
        # the perfect elimination property the walk's label blindness rests on
        for X in clique_corpus():
            facets, vertices = facet_distance_matrix(X), vertex_distance_matrix(X)
            for s in range(1, 5):
                assert close_earlier_are_cliques(certificate_order(X, "facets"), facets, s)
                assert close_earlier_are_cliques(certificate_order(X, "vertices"),
                                                 vertices, s + 1)

    def test_walk_on_a_relabelled_tree_is_linear(self):
        # a tree has one partition into 2 independent blocks; on this
        # relabelled 100-edge tree the id-order walk does not finish in 30 s
        X = relabelled(random_stacked(1, 100, 1001), 1)
        cap = 60 * X.n_vertices
        count, lines = walk_in_lines(vertex_spec(X, 2, 2),
                                     certificate_order(X, "vertices"), cap)
        assert count == 1 and lines <= cap


def one_at_a_time(string_map, X, strings):
    """The sequence map's results called on one string at a time: no resume."""
    return [string_map(X, [a])[0][0] for a in strings]


def resume_corpus():
    """Fixed 7-facet stackings, d = 1..3, each as generated and relabelled."""
    complexes = [random_stacked(d, 7, seed) for d in (1, 2, 3) for seed in range(5)]
    return complexes + [relabelled(X, 1) for X in complexes]


def renumbered(a, rng):
    """The string a with its block numbers permuted: the same partition,
    not in certificate form, so it may differ from a at position 0."""
    numbers = list(range(max(a) + 1))
    rng.shuffle(numbers)
    return tuple(numbers[x] for x in a)


# the resumable kernel, whose lines the sequence maps run
KERNEL = {partitions._labels.__code__}


class TestSequenceMaps:
    """The sequence maps resume each string at a lower bound on where it
    first differs from the one before; they must give what one-string calls
    give, and bounds of the same kind for their results."""

    @given(both_labellings, st.sampled_from(("facets", "vertices")),
           st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_walk_positions_are_exact(self, pair, kind, r, s):
        for X in pair:
            spec = (facet_spec if kind == "facets" else vertex_spec)(X, r, s)
            strings, firsts = walk(spec, certificate_order(X, kind))
            assert firsts == first_changes(strings, certificate_order(X, kind))

    def test_walk_positions_are_exact_on_the_corpus(self):
        # the families verify_bijection walks: vertex scatter s + 1
        for X in clique_corpus():
            orders = [certificate_order(X, kind) for kind in ("facets", "vertices")]
            for r in range(1, 5):
                for s in range(1, 4):
                    for (strings, firsts), order in zip(verify_families(X, r, s), orders):
                        assert firsts == first_changes(strings, order)

    @given(both_labellings, st.integers(1, 3), st.integers(1, 3), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_resumed_strings_match_one_string_calls(self, pair, r, s, rng):
        for X in pair:
            facet_order, vertex_order = (certificate_order(X, kind)
                                         for kind in ("facets", "vertices"))
            (left, left_firsts), (right, right_firsts) = verify_families(X, r, s)
            images, image_firsts = facet_to_vertex_strings(X, left, left_firsts)
            assert images == one_at_a_time(facet_to_vertex_strings, X, left)
            assert bounds_hold(images, image_firsts, vertex_order)
            # the families in walk order, with the positions verify passes on
            for strings, firsts in ((right, right_firsts), (images, image_firsts)):
                backs, back_firsts = vertex_to_facet_strings(X, strings, firsts)
                assert backs == one_at_a_time(vertex_to_facet_strings, X, strings)
                assert bounds_hold(backs, back_firsts, facet_order)
            # shuffled, repeated, and renumbered so they differ at position 0
            facets = rng.choices(left, k=len(left) + 3) if left else []
            facets += [renumbered(a, rng) for a in rng.sample(left, min(5, len(left)))]
            rng.shuffle(facets)
            expected = one_at_a_time(facet_to_vertex_strings, X, facets)
            for firsts in position_kinds(facets, facet_order, rng):
                got, got_firsts = facet_to_vertex_strings(X, facets, firsts)
                assert got == expected and bounds_hold(got, got_firsts, vertex_order)
            vertices = rng.choices(right, k=len(right) + 3) if right else []
            vertices += [renumbered(b, rng) for b in rng.sample(right, min(5, len(right)))]
            rng.shuffle(vertices)
            expected = one_at_a_time(vertex_to_facet_strings, X, vertices)
            for firsts in position_kinds(vertices, vertex_order, rng):
                got, got_firsts = vertex_to_facet_strings(X, vertices, firsts)
                assert got == expected and bounds_hold(got, got_firsts, facet_order)

    @given(both_labellings, st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_dependent_strings_resume_as_one_string_calls(self, pair, rng):
        # v2f's kernel trusts its strings: on random vertex strings, most of
        # them not independent, resumed calls give what one-string calls give
        for X in pair:
            facet_order, vertex_order = (certificate_order(X, kind)
                                         for kind in ("facets", "vertices"))
            parts = X.dim + 1 + rng.randrange(3)
            strings = [tuple(rng.randrange(parts) for _ in range(X.n_vertices))
                       for _ in range(12)]
            strings += rng.choices(strings, k=4)
            expected = one_at_a_time(vertex_to_facet_strings, X, strings)
            for firsts in (None, *position_kinds(strings, vertex_order, rng)):
                got, got_firsts = vertex_to_facet_strings(X, strings, firsts)
                assert got == expected and bounds_hold(got, got_firsts, facet_order)

    def test_short_calls_match_one_string_calls_on_a_fixed_corpus(self):
        # deterministic: each consecutive pair of both verify families, with
        # the walk's bound and with a zero bound, and each run of three,
        # with the walk's bounds, against one-string calls
        for X in resume_corpus():
            orders = [certificate_order(X, kind) for kind in ("vertices", "facets")]
            for r, s in ((2, 1), (3, 1), (2, 2)):
                for (strings, firsts), string_map, order in zip(
                        verify_families(X, r, s),
                        (facet_to_vertex_strings, vertex_to_facet_strings), orders):
                    expected = one_at_a_time(string_map, X, strings)
                    exact = first_changes(expected, order)
                    for t in range(1, len(strings)):
                        for u, bounds in ((t - 1, [0, firsts[t]]), (t - 1, [0, 0]),
                                          (t - 2, [0, *firsts[t - 1:t + 1]])):
                            if u >= 0:
                                got, ends = string_map(X, strings[u:t + 1], bounds)
                                assert got == expected[u:t + 1]
                                assert ends[0] == 0
                                assert all(map(le, ends[1:], exact[u + 1:t + 1]))

    def test_resuming_runs_at_most_a_third_of_the_kernel_lines(self):
        # the verify families of one stacking, mapped as verify_bijection
        # maps them, each resumed at the positions verify passes on:
        # 59,343 and 65,550 kernel lines against 279,036 and 282,090 for
        # one-string calls on the two labellings
        X = random_stacked(2, 8, 1001)
        for Y in (X, relabelled(X, 1)):
            (left, left_firsts), (right, right_firsts) = verify_families(Y, 3, 1)

            def resumed():
                images, image_firsts = facet_to_vertex_strings(Y, left, left_firsts)
                return (images, vertex_to_facet_strings(Y, images, image_firsts)[0],
                        vertex_to_facet_strings(Y, right, right_firsts)[0])

            def one_string_calls():
                images = one_at_a_time(facet_to_vertex_strings, Y, left)
                return (images, one_at_a_time(vertex_to_facet_strings, Y, images),
                        one_at_a_time(vertex_to_facet_strings, Y, right))

            got, lines = lines_run(resumed, KERNEL)
            expected, reference = lines_run(one_string_calls, KERNEL)
            assert got == expected
            assert lines <= reference / 3


def per_r_census(X):
    """Census's row counts by their definition: one walk per facet part
    number r, counting the independent vertex partitions into r + d blocks."""
    order = certificate_order(X, "vertices")
    return [sum(1 for _ in oracle._growth_strings(vertex_spec(X, r + X.dim, 2), order))
            for r in range(1, X.n_facets + 1)]


def dependent_vertex_spec(X, parts, scatter):
    """A faulty vertex family: scatter 1, so blocks need not be independent."""
    return vertex_spec(X, parts, 1)


# census's own lines, its comprehensions included, and its walk's
CENSUS = WALK | {oracle.census.__code__} | {
    c for c in oracle.census.__code__.co_consts if hasattr(c, "co_code")}


class TestCensusWalk:
    def test_rows_match_per_r_walks(self):
        for X in clique_corpus():
            assert [row.count for row in sc.census(X).rows] == per_r_census(X)

    def test_catches_a_family_that_is_not_independent(self, heptagon, tmp_path):
        for X in (heptagon, relabelled(random_stacked(2, 6, 1001), 1)):
            path = tmp_path / "X.cx"
            path.write_text("".join(" ".join(X.token_of(v) for v in f) + "\n"
                                    for f in X.facet_tuples))
            assert oracle.census(X).ok and cli.main(["census", str(path)]) == 0
            with pytest.MonkeyPatch.context() as patch:
                inject(patch, "vertex_spec", dependent_vertex_spec)
                assert oracle.census(X).failures > 0
                assert cli.main(["census", str(path)]) == 2

    def test_rows_match_per_r_walks_past_the_corpus(self):
        # clique_corpus stops at 9 facets; these have 10, relabelled
        stacking = relabelled(random_stacked(3, 10, 1001), 1)
        tree = relabelled(tree_from_prufer((3, 3, 7, 1, 11, 7, 2, 9, 3), 11), 2)
        for X in (stacking, tree):
            assert X.n_facets == 10
            assert [row.count for row in sc.census(X).rows] == per_r_census(X)
        with pytest.MonkeyPatch.context() as patch:
            inject(patch, "vertex_spec", dependent_vertex_spec)
            assert oracle.census(stacking).failures > 0

    def test_walks_at_most_a_fifth_of_the_lines_of_per_r_walks(self):
        # one walk over all but the last two vertices, not a walk per r that
        # yields every partition: 11,481 and 11,278 lines against 111,692
        # on the two labellings
        X = random_stacked(2, 8, 1001)
        for Y in (X, relabelled(X, 1)):
            report, lines = lines_run(lambda: oracle.census(Y), CENSUS)
            counts, reference = lines_run(lambda: per_r_census(Y), WALK)
            assert [row.count for row in report.rows] == counts
            assert lines <= reference / 5
