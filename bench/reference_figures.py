"""Reference figures for bench/README.md, outside the timed benchmark.

    python3 bench/reference_figures.py

Prints, as Markdown tables, the cold facet_to_vertex call (which builds
the pair table) at three sizes with the fitted growth exponent, and the
stacking-certificate time on the triangle-plus-spider input as the leg
count grows.  Each figure is the median of three fresh complexes.
"""

import math
import statistics
from time import perf_counter

import run

SIZES = (50, 100, 200)
LEGS = (3, 4, 5, 6)


def median_time(make, call, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        obj = make()
        t0 = perf_counter()
        call(obj)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def main() -> None:
    sc = run.load_program()
    print("| d | n = " + " | n = ".join(map(str, SIZES)) + " | exponent |")
    print("|---|" + "---|" * (len(SIZES) + 1))
    for d in (1, 2, 3):
        times = []
        for n in SIZES:
            def make(n=n):
                X = sc.generators.random_stacked(d, n, 7)
                X = sc.build_complex(run.facet_lists(X))  # no cached tables
                return X, sc.make_partition("facets", [range(X.n_facets)])
            times.append(median_time(make, lambda arg: sc.facet_to_vertex(*arg)))
        xs = [math.log(n) for n in SIZES]
        ys = [math.log(t) for t in times]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                 / sum((x - mx) ** 2 for x in xs))
        print(f"| {d} | " + " | ".join(f"{1000 * t:.0f} ms" for t in times)
              + f" | {slope:.2f} |")

    print()
    print("| legs | facets | certificate |")
    print("|---|---|---|")
    for legs in LEGS:
        facets = run.spider_facets(legs)
        t = median_time(lambda: sc.build_complex(facets), sc.find_stacking_order)
        print(f"| {legs} | {len(facets)} | {1000 * t:.1f} ms |")


if __name__ == "__main__":
    main()
