"""Benchmark for stackedcx.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; stackedcx is imported from ``src/``.  The
workloads are described in bench/README.md.  Every run prints, as the last
line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import checks
import selftest
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"
SETUP_REPEATS = 3
MIN_ROUNDS = 3  # the first round is a warm-up, so at least two are timed
REFERENCE_LOOP_S = 0.0015  # the reference loop's time at the reference speed
GAUGE_INTERVAL_S = 0.2
FAILED = object()
VERIFY_INSTANCES = tuple((r, s) for r in range(1, 5) for s in range(1, 4))
CLI_COMMANDS = ("check", "path", "f2v", "v2f", "nat", "verify", "census")

# Every workload runs all three activities, so that every end-to-end
# metric is defined on every workload; the workload's own activity gets
# the inputs below marked "focus", the other two a small seeded probe.
SWEEP_FOCUS = dict(per_family=3, tree_vertices=7, polygon=10, stack_facets=8)
SWEEP_PROBE = dict(per_family=2, tree_vertices=6, polygon=7, stack_facets=5)
CLI_FOCUS = dict(n=100, nat_n=40, nat_steps=2, small_facets=7, faulty=True)
CLI_PROBE = dict(n=20, nat_n=12, nat_steps=1, small_facets=5, faulty=False)
MAPS_FOCUS = dict(n=100, pool=48)
MAPS_PROBE = dict(n=30, pool=16)
# nat patterns and small verify/census complexes per CLI round, so that
# the figures average over several seeded inputs
NAT_PATTERNS, SMALL_COMPLEXES = 2, 3
WORKLOADS = {"verify-sweep": "sweep", "cli-cold": "cli", "map-warm": "maps"}

# A triangle beside a spider: |V| = n + d but disconnected, so the
# certificate search backtracks through every peeling order of the legs.
SPIDER_LEGS, SPIDER_LEG_EDGES = 5, 4
# A stacked path of this many edges overflows the recursive peel search.
DEEP_TREE_EDGES = 1500


def load_program():
    src = ROOT / "src"
    package = src / "stackedcx"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: stackedcx sources not found under {src}")
    sys.path.insert(0, str(src))
    import stackedcx
    import stackedcx.cli  # noqa: F401  (binds the submodule on the package)
    if Path(stackedcx.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported stackedcx from {stackedcx.__file__}, not {package}")
    return stackedcx


def reference_loop() -> int:
    """Fixed pure-Python work with the program's mix of dict, frozenset
    and integer operations."""
    table = {i: frozenset((i, i + 1, i + 2)) for i in range(3000)}
    return sum(len(v) for k, v in table.items() if k + 1 in v)


class SpeedGauge:
    """The machine's current speed, from the reference loop timed between
    operations.

    The shared machine this benchmark was built on runs in faster and
    slower phases, 20-40% apart, lasting seconds to minutes.  The
    program's operations slow down with the reference loop, so every time
    is reported at a fixed reference speed: its wall time multiplied by
    REFERENCE_LOOP_S over the loop's latest time.  A program change moves
    the operations and not the loop, so it still shows in full.
    """

    def __init__(self):
        self.loop_times: list[float] = []
        self._factor = 1.0
        self._at = float("-inf")

    def refresh(self, force: bool = False) -> None:
        if not force and perf_counter() - self._at < GAUGE_INTERVAL_S:
            return
        collecting = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(3):
                t0 = perf_counter()
                reference_loop()
                times.append(perf_counter() - t0)
        finally:
            if collecting:
                gc.enable()
        loop = statistics.median(times)
        self.loop_times.append(loop)
        self._factor = REFERENCE_LOOP_S / loop
        self._at = perf_counter()

    def scale(self, seconds: float) -> float:
        return seconds * self._factor

    def span(self, fn):
        """Run fn once, timed at the reference speed taken as the mean of
        readings just before and just after it; for spans too long for
        one reading."""
        self.refresh(force=True)
        t0 = perf_counter()
        result = fn()
        seconds = perf_counter() - t0
        self.refresh(force=True)
        return result, seconds * REFERENCE_LOOP_S / statistics.fmean(self.loop_times[-2:])


class Ledger:
    """Operations attempted and failed, and the outcome of every check."""

    def __init__(self, tracer: Tracer | None, gauge: SpeedGauge):
        self.tracer = tracer
        self.gauge = gauge
        self.attempted = 0
        self.failed = 0
        self.op_seconds = 0.0
        self.errors: Counter = Counter()
        self.check_failures: list[str] = []
        self._expected: dict = {}

    def run(self, op):
        """Time one operation at the reference speed; any exception counts
        it as failed."""
        self.gauge.refresh()
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = op()
        except Exception as exc:  # noqa: BLE001  (the run must go on)
            result = FAILED
            self.failed += 1
            self.errors[type(exc).__name__] += 1
        dt = self.gauge.scale(perf_counter() - t0)
        self.op_seconds += dt
        return dt, result

    def check(self, key, signature, checker) -> None:
        """Check an output against the reference the first time its
        operation runs; later rounds must reproduce the same output."""
        if key in self._expected:
            if self._expected[key] != signature:
                self.check_failures.append(f"{key}: output changed between rounds")
            return
        self._expected[key] = signature
        recording = self.tracer is not None and self.tracer.recording
        if recording:
            self.tracer.recording = False  # checks are not the program's work
        try:
            checker()
        except checks.CheckFailure as exc:
            self.check_failures.append(f"{key}: {exc}")
        except Exception as exc:  # noqa: BLE001  (malformed output)
            self.check_failures.append(f"{key}: checker raised {exc!r}")
        finally:
            if recording:
                self.tracer.recording = True


class OpTimes:
    """Per-operation wall times, one sample per round after the first.

    An operation's time is the mean of its middle half of samples (the
    interquartile mean): stalls in single rounds are dropped, while the
    machine's slower and faster phases, which last seconds, are averaged
    over the run rather than picked from.  The first round is a warm-up
    whose outputs are checked against the references and whose times are
    not used.
    """

    def __init__(self):
        self.recording = False
        self.samples: dict = defaultdict(lambda: defaultdict(list))

    def add(self, metric: str, op, dt: float) -> None:
        if self.recording:
            self.samples[metric][op].append(dt)

    def _typical(self, metric: str) -> list:
        out = []
        for values in self.samples[metric].values():
            values = sorted(values)
            quarter = len(values) // 4
            out.append(statistics.fmean(values[quarter:len(values) - quarter]))
        return out

    def rate(self, metric: str) -> float:
        """Operations per second over one round of typical duration."""
        times = self._typical(metric)
        return len(times) / sum(times)

    def mean(self, metric: str) -> float:
        times = self._typical(metric)
        return sum(times) / len(times)


def facet_lists(X) -> list:
    return [X.facet_tokens(i) for i in range(X.n_facets)]


def random_labels(rng, size: int, blocks: int) -> list:
    """Block label per element, every one of ``blocks`` labels used."""
    labels = list(range(blocks)) + [rng.randrange(blocks) for _ in range(size - blocks)]
    rng.shuffle(labels)
    return labels


class Sweep:
    """verify_bijection on every (complex, r, s) instance of a corpus of
    small complexes, then census on each complex."""

    def __init__(self, sc, rng, times, per_family, tree_vertices, polygon, stack_facets):
        self.sc = sc
        self.times = times
        gen = sc.generators
        corpus = [gen.tree_from_prufer(
            tuple(rng.randint(1, tree_vertices) for _ in range(tree_vertices - 2)),
            tree_vertices) for _ in range(per_family)]
        pool = list(gen.polygon_triangulations(polygon))
        corpus += [pool[rng.randrange(len(pool))] for _ in range(per_family)]
        for d in (2, 3):
            corpus += [gen.random_stacked(d, stack_facets, rng.randrange(2**31))
                       for _ in range(per_family)]
        self.facets = [facet_lists(X) for X in corpus]
        self._refs: dict = {}

    def _ref(self, ci: int):
        if ci not in self._refs:
            geo = checks.Geometry(self.facets[ci])
            self._refs[ci] = (geo, checks.scattered_counts(geo))
        return self._refs[ci]

    def round(self, ledger: Ledger) -> None:
        sc = self.sc
        for ci, facets in enumerate(self.facets):
            # a fresh object, so no distance or pair tables carry over
            X = sc.build_complex(facets)
            for r, s in VERIFY_INSTANCES:
                dt, rep = ledger.run(lambda: sc.verify_bijection(X, r, s))
                self.times.add("verify_instances_per_s", (ci, r, s), dt)
                if rep is not FAILED:
                    ledger.check(("verify", ci, r, s),
                                 (rep.left_count, rep.right_count, rep.failures),
                                 lambda: checks.check_verify_report(
                                     *self._ref(ci), r, s, rep.left_count,
                                     rep.right_count, rep.failures))
            dt, rep = ledger.run(lambda: sc.census(X))
            self.times.add("census_complexes_per_s", ci, dt)
            if rep is not FAILED:
                rows = [(row.parts, row.count) for row in rep.rows]
                ledger.check(("census", ci), (rows, rep.total, rep.bell_value),
                             lambda: checks.check_census_rows(
                                 len(facets), rows, rep.total, rep.bell_value))


def write_complex(path: Path, facets) -> str:
    path.write_text("".join(" ".join(f) + "\n" for f in facets), encoding="utf-8")
    return str(path)


def spider_facets(legs: int = SPIDER_LEGS) -> list:
    edges = [("a", "b"), ("b", "c"), ("a", "c")]
    for leg in range(legs):
        prev = "h"
        for k in range(SPIDER_LEG_EDGES):
            edges.append((prev, f"l{leg}_{k}"))
            prev = f"l{leg}_{k}"
    return edges


class Cli:
    """Cold CLI invocations: stackedcx.cli.main(argv) in-process with
    stdout captured.  Each invocation parses its files anew, so nothing
    cached on a complex carries over, as in separate CLI runs."""

    def __init__(self, sc, rng, times, workdir: Path, n, nat_n, nat_steps, small_facets, faulty):
        self.sc = sc
        self.times = times
        self.ops = []  # (command metric or None, argv, checker)
        for d in (1, 2, 3):
            facets = facet_lists(sc.generators.random_stacked(d, n, rng.randrange(2**31)))
            self._add_complex_ops(rng, workdir, f"d{d}", facets)

        for k in range(NAT_PATTERNS):
            self._add_nat_op(rng, workdir / f"pattern{k}.part", nat_n, nat_steps)
        for k in range(SMALL_COMPLEXES):
            small = facet_lists(sc.generators.random_stacked(2, small_facets, rng.randrange(2**31)))
            self._add_small_ops(write_complex(workdir / f"small{k}.cx", small), small)

        if faulty:
            spider_file = write_complex(workdir / "spider.cx", spider_facets())
            self.ops.append(("check", ["check", spider_file],
                             lambda code, out: checks.check_not_stacked(code, out)))
            # fails today with RecursionError; kept out of cli_check_ms
            deep = [(str(i), str(i + 1)) for i in range(1, DEEP_TREE_EDGES + 1)]
            deep_file = write_complex(workdir / "deep.cx", deep)
            self.ops.append((None, ["check", deep_file],
                             lambda code, out: checks.check_stacked_check(
                                 checks.Geometry(deep), code, out)))

    def _add_complex_ops(self, rng, workdir: Path, name: str, facets) -> None:
        path = write_complex(workdir / f"{name}.cx", facets)
        geo = checks.Geometry(facets)
        tokens = [",".join(f) for f in facets]
        f, g = rng.sample(range(len(facets)), 2)
        vertices = sorted({v for facet in facets for v in facet})
        v = rng.choice(vertices)
        w = rng.choice([u for u in vertices if geo.vertex_distance(v, u) >= 2])
        self.ops.append(("check", ["check", path],
                         lambda code, out: checks.check_stacked_check(geo, code, out)))
        self.ops.append(("path", ["path", path, "--facets", tokens[f], tokens[g]],
                         lambda code, out: checks.check_facet_path(geo, f, g, code, out)))
        self.ops.append(("path", ["path", path, "--vertices", v, w],
                         lambda code, out: checks.check_vertex_path(geo, v, w, code, out)))

        r = rng.randint(2, 5)
        labels = random_labels(rng, len(facets), r)
        fpart = workdir / f"{name}-facets.part"
        fpart.write_text("".join(" ".join(tokens[i] for i, b in enumerate(labels) if b == block)
                                 + "\n" for block in range(r)), encoding="utf-8")
        d = len(facets[0]) - 1
        self.ops.append(("f2v", ["map", "f2v", path, str(fpart)],
                         lambda code, out: self._check_f2v(geo, r + d, code, out)))

        # an independent vertex partition: the proper (d+1)-colouring with
        # colour classes split at random
        color = checks.proper_coloring(geo)
        vblocks = []
        for c in range(d + 1):
            members = [u for u in vertices if color[u] == c]
            parts = min(len(members), rng.randint(1, 2))
            split = random_labels(rng, len(members), parts)
            vblocks += [[u for u, b in zip(members, split) if b == p] for p in range(parts)]
        vpart = workdir / f"{name}-vertices.part"
        vpart.write_text("".join(" ".join(b) + "\n" for b in vblocks), encoding="utf-8")
        self.ops.append(("v2f", ["map", "v2f", path, str(vpart)],
                         lambda code, out: self._check_v2f(geo, vblocks, code, out)))

    def _add_nat_op(self, rng, path: Path, n: int, steps: int) -> None:
        """A line pattern of 3 blocks with no two neighbours in one block."""
        labels = [rng.randrange(3)]
        while len(labels) < n:
            labels.append(rng.choice([b for b in range(3) if b != labels[-1]]))
        pattern = [[i + 1 for i, b in enumerate(labels) if b == block] for block in range(3)]
        pattern = [block for block in pattern if block]
        path.write_text("".join(" ".join(map(str, b)) + "\n" for b in pattern), encoding="utf-8")
        self.ops.append(("nat", ["nat", "--pattern", str(path), "-n", str(n), "--steps", str(steps)],
                         lambda code, out: checks.check_nat(n, steps, pattern, code, out)))

    def _add_small_ops(self, path: str, facets) -> None:
        self.ops.append(("verify", ["verify", path, "-r", "3", "-s", "1"],
                         lambda code, out: self._check_verify(facets, code, out)))
        self.ops.append(("census", ["census", path],
                         lambda code, out: checks.check_census_output(len(facets), code, out)))

    def _check_f2v(self, geo, expected_blocks, code, out) -> None:
        checks.require(code == 0, f"map f2v exited {code}")
        checks.check_vertex_blocks(geo, checks.parse_blocks(out), expected_blocks)

    def _check_v2f(self, geo, vblocks, code, out) -> None:
        checks.require(code == 0, f"map v2f exited {code}")
        fblocks = [[geo.facet_of(t) for t in block] for block in checks.parse_blocks(out)]
        checks.check_facet_blocks(geo, fblocks, len(vblocks) - geo.dim)
        # round trip through the program's own facet_to_vertex
        sc = self.sc
        X = sc.build_complex([sorted(f) for f in geo.facets])
        Q = sc.make_partition("facets", [[X.facet_from_tokens(geo.facets[f]) for f in block]
                                         for block in fblocks], range(X.n_facets))
        back = {frozenset(X.token_of(u) for u in block)
                for block in sc.facet_to_vertex(X, Q).blocks}
        checks.require(back == {frozenset(b) for b in vblocks}, "map v2f does not round-trip")

    def _check_verify(self, small, code, out) -> None:
        checks.require(code == 0, f"verify exited {code}")
        keys = checks.parse_keys(out)
        geo = checks.Geometry(small)
        failures = int(keys["roundTripFailures"]) + int(keys["imageMismatches"])
        checks.check_verify_report(geo, checks.scattered_counts(geo), 3, 1,
                                   int(keys["leftCount"]), int(keys["rightCount"]), failures)

    def _invoke(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.sc.cli.main(argv)
        return code, out.getvalue()

    def round(self, ledger: Ledger) -> None:
        for key, (command, argv, checker) in enumerate(self.ops):
            dt, result = ledger.run(lambda: self._invoke(argv))
            if result is FAILED:
                continue
            if command is not None:
                self.times.add(f"cli_{command}_ms", key, dt)
            ledger.check(("cli", key), result, lambda: checker(*result))


class Maps:
    """Warm partition maps: many facet_to_vertex calls on seeded random
    facet partitions and vertex_to_facet calls on their images, on one
    random stacking per dimension whose pair tables were built in set-up."""

    def __init__(self, sc, rng, times, n, pool):
        self.sc = sc
        self.times = times
        self.items = []
        self._geos: dict = {}
        for d in (1, 2, 3):
            X = sc.generators.random_stacked(d, n, rng.randrange(2**31))
            qs = []
            for _ in range(pool):
                r = rng.randint(2, 6)
                labels = random_labels(rng, X.n_facets, r)
                qs.append(sc.make_partition(
                    "facets", [[i for i, b in enumerate(labels) if b == block]
                               for block in range(r)]))
            # the first call in each direction builds the pair tables
            sc.vertex_to_facet(X, sc.facet_to_vertex(X, qs[0]))
            self.items.append((X, qs))

    def _geo(self, ci: int) -> checks.Geometry:
        if ci not in self._geos:
            self._geos[ci] = checks.Geometry(facet_lists(self.items[ci][0]))
        return self._geos[ci]

    def round(self, ledger: Ledger) -> None:
        sc = self.sc
        for ci, (X, qs) in enumerate(self.items):
            for qi, Q in enumerate(qs):
                dt, P = ledger.run(lambda: sc.facet_to_vertex(X, Q))
                self.times.add("map_f2v_per_s", (ci, qi), dt)
                if P is FAILED:
                    continue
                ledger.check(("f2v", ci, qi), P.blocks,
                             lambda: checks.check_vertex_blocks(
                                 self._geo(ci),
                                 [[X.token_of(v) for v in b] for b in P.blocks],
                                 len(Q.blocks) + X.dim))
                dt, back = ledger.run(lambda: sc.vertex_to_facet(X, P))
                self.times.add("map_v2f_per_s", (ci, qi), dt)
                if back is not FAILED:
                    ledger.check(("v2f", ci, qi), back.blocks,
                                 lambda: checks.require(back.blocks == Q.blocks,
                                                        "vertex_to_facet does not round-trip"))


def set_up(sc, workload: str, seed: int, times: OpTimes, workdir: Path) -> list:
    rng = random.Random(seed)
    focus = WORKLOADS[workload]
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    return [Sweep(sc, rng, times, **(SWEEP_FOCUS if focus == "sweep" else SWEEP_PROBE)),
            Cli(sc, rng, times, workdir, **(CLI_FOCUS if focus == "cli" else CLI_PROBE)),
            Maps(sc, rng, times, **(MAPS_FOCUS if focus == "maps" else MAPS_PROBE))]


def end_to_end(times: OpTimes, setup_times: list) -> dict:
    values = {"setup_s": (statistics.median(setup_times), "s"),
              "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
    for name in ("verify_instances_per_s", "census_complexes_per_s"):
        values[name] = (times.rate(name), "1/s")
    for command in CLI_COMMANDS:
        name = f"cli_{command}_ms"
        values[name] = (1000 * times.mean(name), "ms")
    for name in ("map_f2v_per_s", "map_v2f_per_s"):
        values[name] = (times.rate(name), "calls/s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sc = load_program()

    selftest_failures = selftest.run()
    tracer = Tracer() if args.trace else None
    gauge = SpeedGauge()
    ledger = Ledger(tracer, gauge)
    times = OpTimes()
    workdir = WORK_DIR / f"inputs-{os.getpid()}"
    try:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            if tracer is not None and rep == SETUP_REPEATS - 1:
                # trace one set-up and the first round: a fixed amount of work
                tracer.install(sc)
                tracer.recording = True
            activities, seconds = gauge.span(
                lambda: set_up(sc, args.workload, args.seed, times, workdir))
            setup_times.append(seconds)

        # keep the benchmark's own long-lived objects out of the collector
        gc.collect()
        gc.freeze()
        start = perf_counter()
        rounds = 0
        while rounds < MIN_ROUNDS or perf_counter() - start < args.seconds:
            for activity in activities:
                activity.round(ledger)
            rounds += 1
            if rounds == 1:
                # the traced work: one set-up and the operations of round 1
                first_pass = setup_times[-1] + ledger.op_seconds
                times.recording = True
                if tracer is not None:
                    tracer.uninstall()
        measured = perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={rounds} "
          f"measured_s={measured:.3f} first_pass_s={first_pass:.3f} "
          f"reference_loop_ms={1000 * statistics.median(gauge.loop_times):.3f} "
          f"errors={dict(ledger.errors)}", file=sys.stderr)
    for failure in selftest_failures:
        print(f"selftest failed: {failure}", file=sys.stderr)
    for failure in ledger.check_failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)

    if tracer is not None:
        metrics = tracer.layer_metrics()
        tracer.write_spans(WORK_DIR / f"spans-{args.workload}-seed{args.seed}.tsv")
    else:
        metrics = end_to_end(times, setup_times)
    print(json.dumps({"correct": not ledger.check_failures and not selftest_failures,
                      "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
