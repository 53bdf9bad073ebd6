"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  The corpus sweep (criteria 2-4) covers all labeled trees on up to
6 vertices, all 42 heptagon triangulations, and 100 seeded random stacked
complexes.
"""

import random
import time

import pytest

import stackedcx as sc
from stackedcx import cli
from stackedcx.generators import all_trees, polygon_triangulations, random_stacked
from stackedcx.oracle import enumerate_partitions, facet_spec, vertex_spec
from stackedcx.textio import emit_complex, emit_partition, parse_complex, \
    parse_facet_partition, parse_vertex_partition


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {num} {desc}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus():
    trees = [T for v in range(2, 7) for T in all_trees(v)]
    assert len(trees) == 1 + 3 + 16 + 125 + 1296
    polygons = list(polygon_triangulations(7))
    assert len(polygons) == 42
    randoms = [random_stacked(2 + seed % 2, 1 + seed % 7, seed)
               for seed in range(100)]
    return trees, polygons, randoms


def instances(corpus):
    trees, polygons, randoms = corpus
    for T in trees:
        for r in range(1, T.n_facets + 1):
            for s in (1, 2, 3):
                yield T, r, s
    for X in polygons:
        for r in (1, 2, 3):
            for s in (1, 2):
                yield X, r, s
    for X in randoms:
        for r in range(1, X.n_facets + 1):
            for s in (1, 2):
                yield X, r, s


def test_criterion_1_figure_exact(tmp_path, capsys):
    cases = [
        ("fig1a", "".join(f"{i} {i + 1}\n" for i in range(1, 6)),
         "3,4 4,5\n1,2 2,3 5,6\n",
         "{1 3 5} {2 6} {4}"),
        ("fig1b",
         "".join(f"{i} {i + 1}\n" for i in range(1, 7)) + "4 8\n8 9\n9 10\n",
         "5,6 8,9 9,10\n1,2 2,3 3,4 4,5 6,7 4,8\n",
         "{1 3 5 8 10} {2 4 7} {6 9}"),
        ("heptagon", "2 3 4\n2 4 5\n2 5 7\n5 6 7\n1 2 7\n",
         "2,3,4 2,5,7\n1,2,7 2,4,5 5,6,7\n",
         "{1 4 6} {2} {3 7} {5}"),
    ]
    ok = True
    details = []
    for name, cx_text, part_text, expected in cases:
        cx_file = tmp_path / f"{name}.cx"
        cx_file.write_text(cx_text)
        part_file = tmp_path / f"{name}.part"
        part_file.write_text(part_text)
        start = time.perf_counter()
        code = cli.main(["map", "f2v", str(cx_file), str(part_file)])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out.strip()
        good = code == 0 and out == expected and elapsed < 1.0
        ok = ok and good
        details.append(f"{name}={'ok' if good else out!r} {elapsed * 1000:.0f}ms")
    with capsys.disabled():
        report(1, "figure-exact f2v maps", ok, "; ".join(details))


def test_criterion_2_bijection_on_corpus(corpus):
    start = time.perf_counter()
    failures = 0
    total = 0
    for X, r, s in instances(corpus):
        total += 1
        if not sc.verify_bijection(X, r, s).ok:
            failures += 1
    elapsed = time.perf_counter() - start
    report(2, "main correspondence at desk scale", failures == 0,
           f"{total} instances, {failures} failures, {elapsed:.1f}s")


def test_criterion_3_counting_identities(corpus):
    trees, polygons, randoms = corpus
    failures = 0
    total = 0
    for X in [*trees, *polygons, *randoms]:
        total += 1
        if not sc.census(X).ok:
            failures += 1
    report(3, "Stirling/Bell counting identities", failures == 0,
           f"{total} complexes, {failures} failures")


def test_criterion_4_scatter_transport(corpus):
    violations = 0
    checked = 0
    for X, r, s in instances(corpus):
        for Q in enumerate_partitions(facet_spec(X, r, s)):
            image = sc.facet_to_vertex(X, Q)
            checked += 1
            if not all(sc.is_scattered(X, block, s + 1, "vertices")
                       for block in image.blocks):
                violations += 1
        for P in enumerate_partitions(vertex_spec(X, r + X.dim, s + 1)):
            image = sc.vertex_to_facet(X, P)
            checked += 1
            if not all(sc.is_scattered(X, block, s, "facets")
                       for block in image.blocks):
                violations += 1
    report(4, "scatter transport both ways", violations == 0,
           f"{checked} images checked, {violations} violations")


def test_criterion_5_closed_forms():
    ok = True

    pattern = sc.make_prefix_partition(
        20, [[10], [i for i in range(1, 21) if i != 10]])
    ok &= sc.refine_once(pattern) == sc.make_prefix_partition(21, [
        (2, 4, 6, 8, 10),
        (11, 13, 15, 17, 19, 21),
        (1, 3, 5, 7, 9, 12, 14, 16, 18, 20),
    ])

    pattern = sc.make_prefix_partition(
        24, [[12], [i for i in range(1, 25) if i != 12]])
    ok &= sc.refine_iter(pattern, 2) == sc.make_prefix_partition(26, [
        (3, 6, 9, 12),
        (1, 4, 7, 10, 13, 16, 19, 22, 25),
        (14, 17, 20, 23, 26),
        (2, 5, 8, 11, 15, 18, 21, 24),
    ])

    pattern = sc.make_prefix_partition(
        20, [[8, 14], [i for i in range(1, 21) if i not in (8, 14)]])
    ok &= sc.refine_once(pattern) == sc.make_prefix_partition(21, [
        (1, 3, 5, 7, 10, 12, 14),
        (2, 4, 6, 8, 15, 17, 19, 21),
        (9, 11, 13, 16, 18, 20),
    ])

    pattern = sc.make_prefix_partition(
        20, [[8, 13], [i for i in range(1, 21) if i not in (8, 13)]])
    ok &= sc.refine_once(pattern) == sc.make_prefix_partition(21, [
        (9, 11, 13),
        (2, 4, 6, 8, 14, 16, 18, 20),
        (1, 3, 5, 7, 10, 12, 15, 17, 19, 21),
    ])

    report(5, "integer-prefix closed forms", ok)


def test_criterion_6_walk_reduction_uniqueness():
    rng = random.Random(0xC0FFEE)
    discrepancies = 0
    for trial in range(1000):
        X = random_stacked(1 + trial % 3, 2 + trial % 6, trial % 50)
        adj = sc.dual_adjacency(X)
        f = rng.randrange(X.n_facets)
        g = rng.randrange(X.n_facets)
        walk = [f]
        for _ in range(4 * X.n_facets):
            if walk[-1] == g:
                break
            walk.append(rng.choice(adj[walk[-1]]))
        if walk[-1] != g:
            walk.extend(sc.facet_path(X, walk[-1], g).facets[1:])
        if sc.reduce_walk(X, walk).facets != sc.facet_path(X, f, g).facets:
            discrepancies += 1
    report(6, "walk reduction independent of walk", discrepancies == 0,
           f"1000 triples, {discrepancies} discrepancies")


def test_criterion_7_restriction_and_colimit():
    rng = random.Random(7777)
    failures = 0

    for seed in range(50):
        X = random_stacked(1 + seed % 3, 1 + seed % 7, seed)
        walls = sorted(map(frozenset, X.codim1_faces), key=sorted)
        g = rng.choice(walls)
        blocks: list[list[int]] = []
        for f in range(X.n_facets):
            slot = rng.randrange(len(blocks) + 1)
            if slot == len(blocks):
                blocks.append([f])
            else:
                blocks[slot].append(f)
        Q = sc.make_partition("facets", blocks, range(X.n_facets))
        mapped = sc.facet_to_vertex(X, Q)
        for m in range(1, X.n_facets + 1):
            hood = sc.distance_neighborhood(X, g, m)
            if not hood.facets:
                continue
            sub = sc.subcomplex(X, hood.facets)
            if not sc.is_stacked(sub):
                failures += 1
                continue
            left = sc.restrict_partition(mapped, hood.vertices)
            kept = set(hood.facets)
            sub_blocks = [[sub.facet_from_tokens(X.facet_tokens(f))
                           for f in block if f in kept]
                          for block in Q.blocks]
            sub_q = sc.make_partition("facets",
                                      [b for b in sub_blocks if b],
                                      range(sub.n_facets))
            right = sc.facet_to_vertex(sub, sub_q)
            left_tokens = {frozenset(X.token_of(v) for v in block)
                           for block in left.blocks}
            right_tokens = {frozenset(sub.token_of(v) for v in block)
                            for block in right.blocks}
            if left_tokens != right_tokens:
                failures += 1

    colimit_failures = 0
    for trial in range(200):
        n = rng.randint(2, 12)
        blocks = {}
        for i in range(1, n + 1):
            blocks.setdefault(rng.randrange(4), []).append(i)
        P = sc.make_prefix_partition(n, blocks.values())
        if not sc.check_colimit_compatibility(P):
            colimit_failures += 1

    report(7, "restriction and colimit compatibility",
           failures == 0 and colimit_failures == 0,
           f"neighborhood failures={failures}, colimit failures={colimit_failures}")


def test_criterion_8_format_round_trips():
    rng = random.Random(31337)
    complex_failures = 0
    partition_failures = 0
    for seed in range(500):
        X = random_stacked(1 + seed % 3, 1 + seed % 9, seed)
        if parse_complex(emit_complex(X)) != X:
            complex_failures += 1
        kind, size = (("vertices", X.n_vertices) if seed % 2 == 0
                      else ("facets", X.n_facets))
        blocks: list[list[int]] = []
        for e in range(size):
            slot = rng.randrange(len(blocks) + 1)
            if slot == len(blocks):
                blocks.append([e])
            else:
                blocks[slot].append(e)
        P = sc.make_partition(kind, blocks, range(size))
        text = emit_partition(P, X)
        parsed = (parse_vertex_partition(text, X) if kind == "vertices"
                  else parse_facet_partition(text, X))
        if parsed != P:
            partition_failures += 1
    report(8, "parse/emit round trips",
           complex_failures == 0 and partition_failures == 0,
           f"500 complexes ({complex_failures} bad), "
           f"500 partitions ({partition_failures} bad)")
