"""Time stackedcx commands at growing sizes and write the figures as JSON.

One rung so far, ``verify``: ``stackedcx verify -r 2 -s 1`` on
``stackedcx gen stacked --dim 1 --count n --seed 7`` (a random tree of n
edges, whose facet family has S(n, 2) = 2^(n-1) - 1 members) for
n = 14, 16, ..., 24, up to ``--max-n``.  Each run is one child process
that runs the command line in-process, as the ``stackedcx`` script does,
and reports its own wall time and its own peak RSS (``RUSAGE_SELF``);
``RUSAGE_CHILDREN`` is not used, since it is the largest peak of every
child waited for so far.  Each point is run ``RUNS`` times and keeps
the median wall time and the largest peak of its runs.  The rung
records the exponent of a least-squares fit of log wall time on log
family size: 1 means time grows linearly with the family.

Usage: python3 tools/ladder.py [--max-n N] [--out PATH] (defaults: 20,
standard output).  Imports stackedcx from ``src/`` beside this script;
stdlib only.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
from stackedcx import cli  # noqa: E402

SIZES = (14, 16, 18, 20, 22, 24)
RUNS = 3
GEN = "gen stacked --dim 1 --count {n} --seed 7"
VERIFY = "verify {path} -r 2 -s 1"

# The child: the command line as the stackedcx script runs it (cli.entry,
# collector off), timed from argument parsing to exit, and the child's
# own peak RSS (ru_maxrss is in KiB on Linux).
CHILD = """
import contextlib, io, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from stackedcx import cli
sys.argv = ["stackedcx", *sys.argv[2:]]
out = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out):
    try:
        cli.entry()
    except SystemExit as stop:
        code = stop.code
wall = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"exit": code, "wall_s": wall, "peak_rss_mb": peak,
                  "stdout": out.getvalue()}))
"""


def run_child(argv: list[str]) -> dict:
    done = subprocess.run([sys.executable, "-c", CHILD, str(SRC), *argv],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def generate(n: int, path: Path) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(GEN.format(n=n).split())
    if code:
        raise SystemExit(f"gen exited {code} at n={n}")
    path.write_text(out.getvalue())


def slope(xs: list[float], ys: list[float]) -> float | None:
    """The least-squares slope of ys on xs; None with fewer than two points."""
    if len(xs) < 2:
        return None
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def verify_rung(max_n: int) -> dict:
    points = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in (n for n in SIZES if n <= max_n):
            path = Path(tmp) / f"tree{n}.cx"
            generate(n, path)
            results = [run_child(VERIFY.format(path=path).split()) for _ in range(RUNS)]
            outputs = {r["stdout"] for r in results}
            if len(outputs) != 1 or any(r["exit"] != 0 for r in results):
                raise SystemExit(f"verify failed or varied at n={n}: {results}")
            report = dict(line.split("=") for line in outputs.pop().split())
            points.append({"n": n, "family": int(report["leftCount"]),
                           "wall_s": round(statistics.median(r["wall_s"] for r in results), 4),
                           "wall_s_runs": [round(r["wall_s"], 4) for r in results],
                           "peak_rss_mb": round(max(r["peak_rss_mb"] for r in results), 1),
                           "report": report})
            print(f"verify n={n}: {points[-1]['wall_s']} s, "
                  f"{points[-1]['peak_rss_mb']} MB", file=sys.stderr)
    exponent = slope([math.log(p["family"]) for p in points],
                     [math.log(p["wall_s"]) for p in points])
    return {"command": f"stackedcx {GEN} > tree.cx; stackedcx {VERIFY.format(path='tree.cx')}",
            "points": points,
            "time_exponent": None if exponent is None else round(exponent, 3),
            "fit": "least-squares slope of log wall_s on log family"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-n", type=int, default=20, help="largest size to run")
    parser.add_argument("--out", help="write the JSON here (default: stdout)")
    args = parser.parse_args()
    figures = {"python": platform.python_version(), "machine": platform.machine(),
               "cpus": len(os.sched_getaffinity(0)),
               "rungs": {"verify": verify_rung(args.max_n)}}
    text = json.dumps(figures, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
