"""Reference checks for the benchmark, computed apart from the program.

Everything here works on vertex tokens and facets as frozensets of tokens,
built from the facet lists the benchmark generated.  Nothing calls into
stackedcx: Stirling and Bell numbers come from the explicit-sum formula,
distances from a breadth-first search on the dual graph, and certificates
are replayed against the definition of a stacking.
"""

from collections import deque
from itertools import combinations
from math import comb, factorial


class CheckFailure(AssertionError):
    """A program output disagrees with the reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def stirling2(n: int, k: int) -> int:
    """S(n, k) = (1/k!) * sum_j (-1)^j C(k, j) (k - j)^n."""
    total = sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1))
    return total // factorial(k)


def bell(n: int) -> int:
    return sum(stirling2(n, k) for k in range(n + 1))


class Geometry:
    """Dual graph and distances of a complex given as token facets."""

    def __init__(self, facets):
        self.facets = [frozenset(f) for f in facets]
        self.index = {f: i for i, f in enumerate(self.facets)}
        self.dim = len(self.facets[0]) - 1
        self.vertices = sorted({v for f in self.facets for v in f})
        self.vertex_facets = {v: [] for v in self.vertices}
        for i, f in enumerate(self.facets):
            for v in f:
                self.vertex_facets[v].append(i)
        ridges = {}
        for i, f in enumerate(self.facets):
            for ridge in combinations(sorted(f), self.dim):
                ridges.setdefault(frozenset(ridge), []).append(i)
        self.adj = [set() for _ in self.facets]
        for members in ridges.values():
            for a, b in combinations(members, 2):
                self.adj[a].add(b)
                self.adj[b].add(a)
        self._dist = {}

    def distances_from(self, f: int) -> list:
        row = self._dist.get(f)
        if row is None:
            row = [None] * len(self.facets)
            row[f] = 0
            queue = deque([f])
            while queue:
                cur = queue.popleft()
                for nxt in self.adj[cur]:
                    if row[nxt] is None:
                        row[nxt] = row[cur] + 1
                        queue.append(nxt)
            self._dist[f] = row
        return row

    def facet_distance(self, f: int, g: int) -> int:
        return self.distances_from(f)[g]

    def vertex_distance(self, v: str, w: str) -> int:
        if v == w:
            return 0
        return 1 + min(self.facet_distance(f, g)
                       for f in self.vertex_facets[v]
                       for g in self.vertex_facets[w])

    def independent(self, block) -> bool:
        return all(len(f & block) <= 1 for f in self.facets)

    def facet_of(self, token: str) -> int:
        """Facet index of a comma-joined facet token such as ``2,3,4``."""
        key = frozenset(token.split(","))
        require(key in self.index, f"unknown facet {token!r}")
        return self.index[key]


def proper_coloring(geo: Geometry) -> dict:
    """The (d+1)-coloring of a stacked complex, found in dual BFS order,
    where each newly reached facet has exactly one uncolored vertex."""
    color = {v: c for c, v in enumerate(sorted(geo.facets[0]))}
    seen = {0}
    queue = deque([0])
    while queue:
        cur = queue.popleft()
        for nxt in sorted(geo.adj[cur]):
            if nxt in seen:
                continue
            seen.add(nxt)
            queue.append(nxt)
            facet = geo.facets[nxt]
            new = [v for v in facet if v not in color]
            if new:
                (v,) = new
                (color[v],) = set(range(geo.dim + 1)) - {color[u] for u in facet if u != v}
    return color


def set_partitions(n: int):
    """Restricted growth strings of length n."""
    labels = [0] * n

    def grow(i: int, top: int):
        if i == n:
            yield labels
            return
        for b in range(top + 1):
            labels[i] = b
            yield from grow(i + 1, max(top, b + 1))

    yield from grow(0, 0)


def scattered_counts(geo: Geometry) -> dict:
    """Count facet partitions by (blocks, least in-block facet distance),
    by filtering all set partitions of the facets.  Partitions of
    singletons get distance n (larger than any real distance)."""
    n = len(geo.facets)
    dist = [geo.distances_from(f) for f in range(n)]
    counts = {}
    for labels in set_partitions(n):
        least = n
        for a in range(n):
            la = labels[a]
            row = dist[a]
            for b in range(a + 1, n):
                if labels[b] == la and row[b] < least:
                    least = row[b]
        key = (max(labels) + 1, least)
        counts[key] = counts.get(key, 0) + 1
    return counts


def count_scattered(counts: dict, r: int, s: int) -> int:
    return sum(c for (blocks, least), c in counts.items()
               if blocks == r and least >= s)


def parse_keys(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def parse_blocks(line: str) -> list:
    """``{a b} {c}`` -> [["a", "b"], ["c"]]."""
    line = line.strip()
    require(line.startswith("{") and line.endswith("}"), f"not a partition line: {line!r}")
    return [block.split() for block in line[1:-1].split("} {")]


def check_certificate(geo: Geometry, steps: list) -> None:
    """Replay ``stacking:`` output: the first facet, then ``v+facet``
    steps, each gluing one new vertex onto a ridge of an earlier facet."""
    require(len(steps) == len(geo.facets), "certificate does not list every facet")
    placed = [geo.facet_of(steps[0])]
    seen = set(geo.facets[placed[0]])
    for step in steps[1:]:
        vertex, _, token = step.partition("+")
        f = geo.facet_of(token)
        facet = geo.facets[f]
        require(vertex in facet and vertex not in seen,
                f"step {step!r} does not add exactly the named new vertex")
        require(len(facet - seen) == 1, f"step {step!r} adds more than one vertex")
        ridge = facet - {vertex}
        require(any(ridge <= geo.facets[g] for g in placed),
                f"step {step!r} is not glued onto a ridge of an earlier facet")
        placed.append(f)
        seen |= facet
    require(len(set(placed)) == len(geo.facets), "certificate repeats a facet")


def check_stacked_check(geo: Geometry, code: int, out: str) -> None:
    keys = parse_keys(out)
    require(code == 0, f"check exited {code}")
    require(keys.get("dimension") == str(geo.dim), "wrong dimension")
    require(keys.get("facets") == str(len(geo.facets)), "wrong facet count")
    require(keys.get("vertices") == str(len(geo.vertices)), "wrong vertex count")
    require(keys.get("stacked") == "yes", "stacked complex reported as not stacked")
    line = [ln for ln in out.splitlines() if ln.startswith("stacking: ")]
    require(len(line) == 1, "no certificate line")
    check_certificate(geo, line[0].split()[1:])


def check_not_stacked(code: int, out: str) -> None:
    require(code == 1, f"check on a non-stacked complex exited {code}")
    require(parse_keys(out).get("stacked") == "no", "non-stacked complex reported as stacked")


def check_gallery(geo: Geometry, facets: list) -> None:
    for a, b in zip(facets, facets[1:]):
        require(len(geo.facets[a] & geo.facets[b]) == geo.dim,
                "consecutive path facets do not share a ridge")
    inters = [geo.facets[a] & geo.facets[b] for a, b in zip(facets, facets[1:])]
    require(len(set(inters)) == len(inters), "path repeats an intersection")


def check_facet_path(geo: Geometry, f: int, g: int, code: int, out: str) -> None:
    require(code == 0, f"path exited {code}")
    lines = out.splitlines()
    facets = [geo.facet_of(tok) for tok in lines[0].split()[1:]]
    require(facets[0] == f and facets[-1] == g, "path has the wrong ends")
    check_gallery(geo, facets)
    distance = geo.facet_distance(f, g)
    require(len(facets) == distance + 1, "path length differs from the distance")
    require(lines[1] == f"distance: {distance}", "wrong facet distance")


def check_vertex_path(geo: Geometry, v: str, w: str, code: int, out: str) -> None:
    require(code == 0, f"path exited {code}")
    lines = out.splitlines()
    head, middle, tail = lines[0][len("path: "):].split(" | ")
    facets = [geo.facet_of(tok) for tok in middle.split()]
    require(head == v and tail == w, "path has the wrong end vertices")
    require(v in geo.facets[facets[0]] and w in geo.facets[facets[-1]],
            "end facets do not contain the end vertices")
    check_gallery(geo, facets)
    distance = geo.vertex_distance(v, w)
    require(len(facets) == distance, "path length differs from the distance")
    require(lines[1] == f"distance: {distance}", "wrong vertex distance")


def check_vertex_blocks(geo: Geometry, blocks: list, expected_blocks: int) -> None:
    """An image of a facet partition: r + d independent blocks covering
    the vertices."""
    require(len(blocks) == expected_blocks,
            f"{len(blocks)} vertex blocks, expected {expected_blocks}")
    flat = [v for block in blocks for v in block]
    require(sorted(flat) == geo.vertices, "vertex blocks do not partition the vertices")
    for block in blocks:
        require(geo.independent(frozenset(block)), f"block {block} is not independent")


def check_facet_blocks(geo: Geometry, blocks: list, expected_blocks: int) -> None:
    require(len(blocks) == expected_blocks,
            f"{len(blocks)} facet blocks, expected {expected_blocks}")
    flat = sorted(f for block in blocks for f in block)
    require(flat == list(range(len(geo.facets))), "facet blocks do not partition the facets")


def check_verify_report(geo: Geometry, counts: dict, r: int, s: int,
                        left: int, right: int, failures: int) -> None:
    n = len(geo.facets)
    if s == 1:
        require(left == stirling2(n, r), f"leftCount {left} != S({n},{r})")
    if counts is not None:
        require(left == count_scattered(counts, r, s),
                f"leftCount {left} differs from the filtered count")
    require(right == left, f"rightCount {right} != leftCount {left}")
    require(failures == 0, f"{failures} bijection failures")


def check_census_rows(n: int, rows: list, total: int, bell_value: int) -> None:
    """rows: (r, count) pairs for r = 1..n."""
    require([r for r, _ in rows] == list(range(1, n + 1)), "census rows are not r = 1..n")
    for r, count in rows:
        require(count == stirling2(n, r), f"census count {count} != S({n},{r})")
    require(total == bell(n) and bell_value == bell(n), "census total is not the Bell number")


def check_census_output(n: int, code: int, out: str) -> None:
    require(code == 0, f"census exited {code}")
    rows, total, bell_value = [], None, None
    for line in out.splitlines():
        keys = dict(item.split("=") for item in line.split())
        if "r" in keys:
            require(keys["stirling"] == str(stirling2(n, int(keys["r"]))),
                    "census prints a wrong Stirling number")
            rows.append((int(keys["r"]), int(keys["count"])))
        total = int(keys["total"]) if "total" in keys else total
        bell_value = int(keys["bell"]) if "bell" in keys else bell_value
    check_census_rows(n, rows, total, bell_value)


def check_nat(n: int, steps: int, pattern: list, code: int, out: str) -> None:
    require(code == 0, f"nat exited {code}")
    lines = out.splitlines()
    blocks = [[int(x) for x in block] for block in parse_blocks(lines[0])]
    require(sorted(x for block in blocks for x in block) == list(range(1, n + steps + 1)),
            "nat result does not cover [1..n+steps]")
    require(len(blocks) == len(pattern) + steps, "nat result has the wrong block count")
    gaps = [b - a for block in pattern for a, b in zip(block, block[1:])]
    s = min(gaps) if gaps else 1
    least = min((b - a for block in blocks for a, b in zip(block, block[1:])),
                default=s + steps)
    require(least >= s + steps, f"nat least gap {least} < {s + steps}")
    require(lines[1:] == ["colimit=ok"], "nat colimit check missing or failed")
