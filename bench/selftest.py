"""Self-test of the reference checks: each must accept a correct output
and reject a deliberately corrupted one.  Run directly with
``python3 bench/selftest.py``; ``run.py`` also runs it before every
measurement."""

import sys

import checks

# A triangulated heptagon and outputs for it worked out by hand.
HEPTAGON = [("2", "3", "4"), ("2", "4", "5"), ("2", "5", "7"),
            ("5", "6", "7"), ("1", "2", "7")]
CERTIFICATE = ["2,3,4", "5+2,4,5", "7+2,5,7", "6+5,6,7", "1+1,2,7"]
FACET_PATH = "path: 2,3,4 2,4,5 2,5,7 5,6,7\ndistance: 3\n"
VERTEX_PATH = "path: 3 | 2,3,4 2,4,5 2,5,7 | 7\ndistance: 3\n"
# The proper 3-coloring with one colour class split in two: r + d = 2 + 2.
VERTEX_BLOCKS = [["1", "5"], ["2", "6"], ["3"], ["4", "7"]]


def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except checks.CheckFailure:
        return True
    return False


def cases(geo: checks.Geometry):
    """(description, accepted output, corrupted output) per check."""
    f, g = geo.facet_of("2,3,4"), geo.facet_of("5,6,7")
    moved = [["1", "5"], ["2", "6", "3"], [], ["4", "7"]]
    moved = [block for block in moved if block]
    two_new = ["2,3,4", "6+5,6,7", "5+2,4,5", "7+2,5,7", "1+1,2,7"]
    yield ("certificate step with two new vertices",
           lambda: checks.check_certificate(geo, CERTIFICATE),
           lambda: checks.check_certificate(geo, two_new))
    yield ("facet distance off by one",
           lambda: checks.check_facet_path(geo, f, g, 0, FACET_PATH),
           lambda: checks.check_facet_path(
               geo, f, g, 0, FACET_PATH.replace("distance: 3", "distance: 4")))
    yield ("vertex distance off by one",
           lambda: checks.check_vertex_path(geo, "3", "7", 0, VERTEX_PATH),
           lambda: checks.check_vertex_path(
               geo, "3", "7", 0, VERTEX_PATH.replace("distance: 3", "distance: 2")))
    yield ("vertex moved between blocks",
           lambda: checks.check_vertex_blocks(geo, VERTEX_BLOCKS, 4),
           lambda: checks.check_vertex_blocks(geo, moved, 3))
    rows = [(r, checks.stirling2(5, r)) for r in range(1, 6)]
    bad_rows = [(r, c + (r == 2)) for r, c in rows]
    yield ("census Stirling value off by one",
           lambda: checks.check_census_rows(5, rows, 52, 52),
           lambda: checks.check_census_rows(5, bad_rows, 52, 52))
    yield ("verify leftCount off by one",
           lambda: checks.check_verify_report(geo, None, 2, 1, 15, 15, 0),
           lambda: checks.check_verify_report(geo, None, 2, 1, 16, 16, 0))


def run() -> list:
    """Descriptions of the checks that failed their self-test."""
    geo = checks.Geometry(HEPTAGON)
    bad = []
    if (checks.stirling2(5, 2), checks.bell(5), checks.bell(8)) != (15, 52, 4140):
        bad.append("explicit-sum Stirling/Bell values")
    for description, good, corrupted in cases(geo):
        if _rejects(good) or not _rejects(corrupted):
            bad.append(description)
    return bad


if __name__ == "__main__":
    failed = run()
    for description in failed:
        print(f"FAIL {description}")
    print("selftest " + ("failed" if failed else "passed"))
    sys.exit(1 if failed else 0)
