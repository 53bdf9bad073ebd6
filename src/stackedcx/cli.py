"""Batch command-line interface over the text formats.

Exit codes: 0 on success, 1 for unreadable or invalid input, 2 when a
verification subcommand finds a property violation.
"""

import argparse
import sys

from .complexes import find_stacking_order, stacking_tree
from .errors import InputError
from .generators import (
    polygon_triangulation,
    random_stacked,
    tree_from_prufer,
    triangulation_count,
)
from .natline import check_colimit_compatibility, refine_iter, refine_once
from .oracle import census, enumerate_partitions, facet_spec, vertex_spec, verify_bijection
from .partitions import facet_to_vertex, vertex_to_facet
from .paths import face_path, facet_path
from .textio import (
    _content_lines,
    emit_complex,
    export_dot,
    facet_token,
    format_partition_line,
    parse_complex,
    parse_facet_partition,
    parse_prefix_partition,
    parse_vertex_partition,
)

class _Parser(argparse.ArgumentParser):
    # usage errors are input errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    try:
        if path == "-":
            text = sys.stdin.read()
            text.encode("utf-8")  # a surrogateescape stdin passes bad bytes as surrogates
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeError:
        name = "standard input" if path == "-" else repr(path)
        raise InputError(f"{name} is not UTF-8 text") from None
    return text


def _load_complex(path: str):
    return parse_complex(_read(path))


def cmd_check(args) -> int:
    X = _load_complex(args.complex)
    cert = find_stacking_order(X)
    print(f"dimension={X.dim}")
    print(f"facets={X.n_facets}")
    print(f"vertices={X.n_vertices}")
    print(f"stacked={'yes' if cert else 'no'}")
    if cert:
        steps = [facet_token(X, cert.order[0])]
        steps += [f"{X.token_of(cert.free_vertices[p - 1])}+{facet_token(X, cert.order[p])}"
                  for p in range(1, X.n_facets)]
        print("stacking: " + " ".join(steps))
        return 0
    if X.n_vertices != X.n_facets + X.dim:
        reason = (f"{X.n_vertices} vertices, but a stacking of {X.n_facets} "
                  f"facets in dimension {X.dim} has {X.n_facets + X.dim}")
    else:
        reason = "the facets are not connected through codimension-one faces"
    print(f"not stacked: {reason}", file=sys.stderr)
    return 1


def cmd_path(args) -> int:
    X = _load_complex(args.complex)
    stacking_tree(X)
    if args.facets:
        f = X.facet_from_tokens(args.facets[0].split(","))
        g = X.facet_from_tokens(args.facets[1].split(","))
        path = facet_path(X, f, g)
        print("path: " + " ".join(facet_token(X, i) for i in path.facets))
        print(f"distance: {len(path) - 1}")
    else:
        v, w = (X.id_of(t) for t in args.vertices)
        if v == w:
            print("distance: 0")
            return 0
        if len(set(X.vertex_facets[v]) & set(X.vertex_facets[w])) >= 2:
            print("distance: 1")  # facet mates with no single witness facet
            return 0
        fp = face_path(X, (v,), (w,))
        middle = " ".join(facet_token(X, i) for i in fp.facets)
        print(f"path: {X.token_of(v)} | {middle} | {X.token_of(w)}")
        print(f"distance: {len(fp)}")
    return 0


def cmd_map(args) -> int:
    X = _load_complex(args.complex)
    stacking_tree(X)
    text = _read(args.partition)
    if args.direction == "v2f":
        result = vertex_to_facet(X, parse_vertex_partition(text, X))
    else:
        result = facet_to_vertex(X, parse_facet_partition(text, X))
    print(format_partition_line(result, X))
    return 0


def cmd_enumerate(args) -> int:
    X = _load_complex(args.complex)
    stacking_tree(X)
    spec = (vertex_spec if args.kind == "vertices" else facet_spec)(X, args.r, args.s)
    for P in enumerate_partitions(spec):
        print(format_partition_line(P, X))
    return 0


def cmd_verify(args) -> int:
    X = _load_complex(args.complex)
    stacking_tree(X)
    report = verify_bijection(X, args.r, args.s)
    for line in report.lines():
        print(line)
    for reason, P in report.counterexamples:
        print(f"counterexample: {reason}: {format_partition_line(P, X)}",
              file=sys.stderr)
    return 0 if report.ok else 2


def cmd_census(args) -> int:
    X = _load_complex(args.complex)
    stacking_tree(X)
    report = census(X)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 2


def cmd_nat(args) -> int:
    P = parse_prefix_partition(_read(args.pattern), args.n)
    refined = refine_once(P) if args.steps > 0 else None
    result = (refine_iter(P, args.steps) if refined is None
              else refine_iter(refined, args.steps - 1))
    print(format_partition_line(result))
    if P.n >= 2:
        ok = check_colimit_compatibility(P, refined=refined)
        print(f"colimit={'ok' if ok else 'FAIL'}")
        if not ok:
            return 2
    return 0


def cmd_gen(args) -> int:
    import random as _random

    if args.shape == "tree":
        if args.vertices is None:
            raise InputError("gen tree needs --vertices")
        v = args.vertices
        if v < 2:
            raise InputError("trees need at least two vertices")
        if args.seed is not None:
            rng = _random.Random(args.seed)
            seq = tuple(rng.randint(1, v) for _ in range(v - 2))
            X = tree_from_prufer(seq, v)
        else:
            count = v ** (v - 2)
            if not 0 <= args.index < count:
                raise InputError(f"tree index out of range 0..{count - 1}")
            seq = []
            idx = args.index
            for _ in range(v - 2):
                seq.append(1 + idx % v)
                idx //= v
            X = tree_from_prufer(tuple(reversed(seq)), v)
    elif args.shape == "polygon":
        if args.size is None:
            raise InputError("gen polygon needs --size")
        idx = args.index
        if args.seed is not None:
            idx = _random.Random(args.seed).randrange(triangulation_count(args.size))
        X = polygon_triangulation(args.size, idx)
    else:
        if args.dim is None or args.count is None:
            raise InputError("gen stacked needs --dim and --count")
        X = random_stacked(args.dim, args.count, args.seed or 0)
    sys.stdout.write(emit_complex(X))
    return 0


def cmd_dot(args) -> int:
    X = _load_complex(args.complex)
    partition = None
    if args.partition is not None:
        text = _read(args.partition)
        kind = args.kind
        if kind == "auto":
            commas = any("," in tok for _, tokens in _content_lines(text) for tok in tokens)
            kind = "facets" if X.dim > 1 or commas else "vertices"
        if kind == "vertices":
            partition = parse_vertex_partition(text, X)
        else:
            partition = parse_facet_partition(text, X)
    sys.stdout.write(export_dot(X, partition))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="stackedcx",
        description="Stacked simplicial complexes: paths, distances, and "
                    "partition correspondences. File arguments accept '-' "
                    "for standard input.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("check", help="validate a complex and report stackedness")
    p.add_argument("complex")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("path", help="print the unique path and distance")
    p.add_argument("complex")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--facets", nargs=2, metavar=("F", "G"),
                       help="two facets as comma-joined vertex tokens")
    group.add_argument("--vertices", nargs=2, metavar=("V", "W"))
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("map", help="apply a partition correspondence")
    p.add_argument("direction", choices=("v2f", "f2v"))
    p.add_argument("complex")
    p.add_argument("partition")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("enumerate", help="stream scattered partitions")
    p.add_argument("complex")
    p.add_argument("--kind", choices=("vertices", "facets"), required=True)
    p.add_argument("-r", type=int, required=True, help="number of parts")
    p.add_argument("-s", type=int, required=True, help="scatter bound")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="exhaustively verify the correspondence")
    p.add_argument("complex")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-s", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("census", help="count independent vertex partitions")
    p.add_argument("complex")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("nat", help="refine an integer-prefix partition")
    p.add_argument("--pattern", required=True,
                   help="partition file over [1..N] (or '-')")
    p.add_argument("-n", type=int, required=True, help="prefix length N")
    p.add_argument("--steps", type=int, default=1)
    p.set_defaults(func=cmd_nat)

    p = sub.add_parser("gen", help="emit a generated complex")
    p.add_argument("shape", choices=("tree", "polygon", "stacked"))
    p.add_argument("--vertices", type=int, help="tree vertex count")
    p.add_argument("--size", type=int, help="polygon size")
    p.add_argument("--dim", type=int, help="dimension for random stacking")
    p.add_argument("--count", type=int, help="facet count for random stacking")
    p.add_argument("--index", type=int, default=0,
                   help="position in the enumeration (tree, polygon)")
    p.add_argument("--seed", type=int, help="seeded random choice")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("dot", help="export DOT")
    p.add_argument("complex")
    p.add_argument("partition", nargs="?")
    p.add_argument("--kind", choices=("auto", "vertices", "facets"),
                   default="auto")
    p.set_defaults(func=cmd_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
