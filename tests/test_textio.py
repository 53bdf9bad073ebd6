import random

import pytest

import stackedcx as sc
from stackedcx import errors, textio
from stackedcx.generators import random_stacked
from stackedcx.textio import (
    emit_complex,
    emit_partition,
    export_dot,
    format_partition_line,
    parse_complex,
    parse_facet_partition,
    parse_prefix_partition,
    parse_vertex_partition,
)

from conftest import HEPTAGON_FACETS, fpart, relabelled, vpart

HEPTAGON_TEXT = "".join(line + "\n" for line in HEPTAGON_FACETS)


class TestParseComplex:
    def test_two_edges(self):
        X = parse_complex("1 2\n2 3\n")
        assert (X.dim, X.n_facets, X.n_vertices) == (1, 2, 3)

    def test_comments_and_blanks(self):
        X = parse_complex("# a tree\n\n1 2\n  \n2 3\n")
        assert X.n_facets == 2

    def test_not_pure_reports_line(self):
        with pytest.raises(errors.NotPureError, match="line 2"):
            parse_complex("1 2\n1 2 3\n")

    def test_duplicate_facet_reports_line(self):
        with pytest.raises(errors.DuplicateFacetError, match="line 3"):
            parse_complex("1 2\n2 3\n2 1\n")

    def test_duplicate_vertex_reports_line(self):
        with pytest.raises(errors.DuplicateVertexError, match="line 1"):
            parse_complex("1 1\n")

    def test_empty(self):
        with pytest.raises(errors.EmptyInputError):
            parse_complex("# only a comment\n")

    def test_emit_is_canonical(self, heptagon):
        text = emit_complex(heptagon)
        assert text == "1 2 7\n2 3 4\n2 4 5\n2 5 7\n5 6 7\n"

    def test_round_trip(self, heptagon):
        assert parse_complex(emit_complex(heptagon)) == heptagon

    def test_round_trip_random(self):
        for seed in range(25):
            X = random_stacked(1 + seed % 3, 1 + seed % 9, seed)
            assert parse_complex(emit_complex(X)) == X


# str.splitlines() breaks lines at these too; in a file they are spaces
SEPARATORS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineEnds:
    @pytest.mark.parametrize("sep", SEPARATORS, ids=repr)
    def test_complex_lines_end_only_at_newlines(self, sep):
        assert parse_complex(f"1{sep}2\n2 3{sep}\n") == parse_complex("1 2\n2 3\n")
        for text, message in ((f"1 2{sep}\n1 2 3\n", "line 2: facet has 3 vertices, line 1 has 2"),
                              (f"1 2\n2{sep}3\n2 1\n", "line 3: facet already given on line 1")):
            with pytest.raises(errors.InputError) as info:
                parse_complex(text)
            assert str(info.value) == message

    @pytest.mark.parametrize("sep", SEPARATORS, ids=repr)
    @pytest.mark.parametrize("kind, bad, message, good", [
        ("prefix", "1\n2{sep}9\n3\n", "line 2: token '9' outside [1..3]", "1\n2{sep}3\n"),
        ("vertices", "1 3\n2{sep}9\n4\n", "line 2: unknown vertex '9'", "1 3\n2{sep}4\n"),
        ("facets", "1,2\n2,3{sep}9,9\n3,4\n", "line 2: unknown facet '9,9'",
         "1,2\n2,3{sep}3,4\n"),
    ])
    def test_partition_lines_end_only_at_newlines(self, sep, kind, bad, message, good):
        X = sc.line_graph(3)
        parse = {"prefix": lambda text: parse_prefix_partition(text, 3),
                 "vertices": lambda text: parse_vertex_partition(text, X),
                 "facets": lambda text: parse_facet_partition(text, X)}[kind]
        with pytest.raises(errors.ParseError) as info:
            parse(bad.format(sep=sep))
        assert str(info.value) == message
        assert parse(good.format(sep=sep)) == parse(good.format(sep=" "))

    def test_universal_newlines(self):
        assert parse_complex("1 2\r2 3\r\n3 4\r") == parse_complex("1 2\n2 3\n3 4\n")
        with pytest.raises(errors.DuplicateFacetError, match="^line 3: facet already given on line 1$"):
            parse_complex("1 2\r\n2 3\r2 1\n")


class TestParsePartition:
    def test_vertex_blocks(self):
        X = sc.line_graph(5)
        P = parse_vertex_partition("1 3 5\n2 6\n4\n", X)
        assert P == vpart(X, "1 3 5 | 2 6 | 4")

    def test_facet_blocks(self):
        X = sc.line_graph(5)
        Q = parse_facet_partition("3,4 4,5\n1,2 2,3 5,6\n", X)
        assert Q == fpart(X, "3,4 4,5 | 1,2 2,3 5,6")

    def test_unknown_token(self):
        X = sc.line_graph(3)
        with pytest.raises(errors.UnknownTokenError):
            parse_vertex_partition("1 2 9\n3 4\n", X)

    def test_overlap(self):
        X = sc.line_graph(3)
        with pytest.raises(errors.OverlapError, match="line 2"):
            parse_vertex_partition("1 2\n2 3 4\n", X)

    def test_facet_with_repeated_vertex(self):
        X = sc.line_graph(3)
        with pytest.raises(errors.UnknownTokenError, match="line 1: .*'1,2,1'"):
            parse_facet_partition("1,2,1 3,4\n2,3\n", X)
        assert parse_facet_partition("2,1 4,3\n3,2\n", X) == fpart(X, "1,2 3,4 | 2,3")

    @pytest.mark.parametrize("token, reason", [
        ("1,2,1", "repeated vertex in facet '1,2,1'"),
        ("1,3", "unknown facet '1,3'"),
        ("1,9", "unknown facet '1,9'"),
    ])
    def test_facet_errors_give_the_reason(self, token, reason):
        X = sc.line_graph(3)
        with pytest.raises(errors.UnknownTokenError) as info:
            parse_facet_partition(f"{token} 3,4\n2,3\n", X)
        assert str(info.value) == f"line 1: {reason}"

    def test_missing_element(self):
        X = sc.line_graph(3)
        with pytest.raises(errors.MissingElementError):
            parse_vertex_partition("1 2\n3\n", X)

    def test_round_trip_vertex(self, heptagon):
        P = vpart(heptagon, "3 7 | 1 4 6 | 2 | 5")
        assert parse_vertex_partition(emit_partition(P, heptagon), heptagon) == P

    def test_round_trip_facet(self, heptagon):
        Q = fpart(heptagon, "2,3,4 2,5,7 | 1,2,7 2,4,5 5,6,7")
        assert parse_facet_partition(emit_partition(Q, heptagon), heptagon) == Q

    def test_prefix_partition(self):
        P = parse_prefix_partition("1 3\n2 4\n", 4)
        assert P.blocks == ((1, 3), (2, 4))
        with pytest.raises(errors.UnknownTokenError):
            parse_prefix_partition("1 5\n2 3 4\n", 4)

    @pytest.mark.parametrize("kind, text, error, message", [
        ("prefix", "1 2 1\n3 4 5\n", "OverlapError",
         "line 1: '1' already in the block on line 1"),
        ("prefix", "1 2\n3 2 9\n4 5\n", "OverlapError",
         "line 2: '2' already in the block on line 1"),
        ("prefix", "1 2\n3 9 2\n4 5\n", "UnknownTokenError",
         "line 2: token '9' outside [1..5]"),
        ("prefix", "1 2\n3 04 4\n5\n", "OverlapError",
         "line 2: '4' already in the block on line 2"),
        ("prefix", "1 2 3\n4 0\n", "UnknownTokenError", "line 2: token '0' outside [1..5]"),
        ("prefix", "1 x\n", "UnknownTokenError", "line 1: token 'x' outside [1..5]"),
        ("prefix", "1 2\n3 4\n", "MissingElementError", "1 integers not covered"),
        ("vertices", "1 2 1\n3 4\n", "OverlapError",
         "line 1: '1' already in the block on line 1"),
        ("vertices", "1 2\n3 2 9\n4\n", "OverlapError",
         "line 2: '2' already in the block on line 1"),
        ("vertices", "1 2\n3 9 2\n4\n", "UnknownTokenError", "line 2: unknown vertex '9'"),
        ("facets", "1,2 2,1\n2,3 3,4\n", "OverlapError",
         "line 1: '2,1' already in the block on line 1"),
        ("facets", "1,2\n2,3 3,2 1,3\n", "OverlapError",
         "line 2: '3,2' already in the block on line 2"),
        ("facets", "1,2\n1,3 2,3 2,3\n", "UnknownTokenError", "line 2: unknown facet '1,3'"),
    ])
    def test_a_faulty_line_names_its_first_bad_token(self, kind, text, error, message):
        # the error names the first token at fault as the line reads
        X = sc.line_graph(3)
        parse = {"prefix": lambda: parse_prefix_partition(text, 5),
                 "vertices": lambda: parse_vertex_partition(text, X),
                 "facets": lambda: parse_facet_partition(text, X)}[kind]
        with pytest.raises(getattr(errors, error)) as info:
            parse()
        assert str(info.value) == message

    def test_prefix_parse_is_canonical(self):
        # tokens and blocks out of order parse as make_prefix_partition builds them
        for text, blocks in (("4 1\n3 2 5\n", [[4, 1], [3, 2, 5]]),
                             ("9 6 3\n8 2 5\n7 1 4\n", [[9, 6, 3], [8, 2, 5], [7, 1, 4]]),
                             ("5\n2 4\n3\n1\n", [[5], [2, 4], [3], [1]])):
            n = max(map(max, blocks))
            assert parse_prefix_partition(text, n) == sc.make_prefix_partition(n, blocks)

    def test_prefix_length_below_one(self):
        for n in (0, -3):
            with pytest.raises(errors.InputError, match="prefix length must be >= 1"):
                parse_prefix_partition("", n)

    def test_prefix_tokens_with_leading_zeros(self):
        assert parse_prefix_partition("00001 2 3\n4 05\n", 5).blocks == ((1, 2, 3), (4, 5))

    def test_format_line(self):
        X = sc.line_graph(5)
        P = vpart(X, "1 3 5 | 2 6 | 4")
        assert format_partition_line(P, X) == "{1 3 5} {2 6} {4}"


class TestRandomPartitionRoundTrips:
    def test_many(self):
        rng = random.Random(11)
        for seed in range(30):
            X = random_stacked(1 + seed % 3, 1 + seed % 7, seed)
            for kind, size in (("vertices", X.n_vertices),
                               ("facets", X.n_facets)):
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
                assert parsed == P


def per_token_parse(text, X, kind):
    """The partition a file gives, or the error it raises, with each token
    resolved on its own as it reads: the reference the whole-line
    resolution of the parsers is checked against."""
    def resolve(tok, ln):
        try:
            return X.id_of(tok) if kind == "vertices" else X.facet_from_tokens(tok.split(","))
        except errors.DuplicateVertexError as exc:
            raise errors.UnknownTokenError(str(exc), line=ln) from None
        except errors.InputError:
            noun = "vertex" if kind == "vertices" else "facet"
            raise errors.UnknownTokenError(f"unknown {noun} {tok!r}", line=ln) from None

    size = X.n_vertices if kind == "vertices" else X.n_facets
    owner, blocks = {}, []
    for ln, tokens in textio._content_lines(text):
        blocks.append([])
        for tok in tokens:
            e = resolve(tok, ln)
            if e in owner:
                raise errors.OverlapError(f"{tok!r} already in the block on line {owner[e]}",
                                          line=ln)
            owner[e] = ln
            blocks[-1].append(e)
    if len(owner) < size:
        raise errors.MissingElementError(f"{size - len(owner)} {kind} not covered")
    return sc.make_partition(kind, blocks, range(size))


def outcome(parse, *args):
    try:
        return parse(*args)
    except errors.InputError as exc:
        return type(exc), str(exc)


def faulty_partition_text(X, kind, rng):
    """A random partition file of X's vertices or facets, as tokens, with
    a few random faults: unknown, repeated-vertex and wrong-size facets
    and vertices, tokens repeated within or across lines, dropped tokens,
    and facets written with their vertices in any order."""
    size = X.n_vertices if kind == "vertices" else X.n_facets
    lines: list[list[str]] = [[] for _ in range(rng.randint(1, 4))]
    for e in rng.sample(range(size), size):
        if kind == "vertices":
            tok = X.token_of(e)
        else:
            vs = list(X.facet_tokens(e))
            rng.shuffle(vs)
            tok = ",".join(vs)
        rng.choice(lines).append(tok)
    labels = list(X.labels)
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        line = rng.choice(lines)
        at = rng.randint(0, len(line))
        fault = rng.randrange(6)
        if fault == 0 and line:  # drop an element
            line.pop(rng.randrange(len(line)))
        elif fault == 1:  # repeat one, on this line or another
            source = [tok for ln in lines for tok in ln]
            if source:
                line.insert(at, rng.choice(source))
        elif fault == 2:  # an unknown vertex
            vs = rng.sample(labels, min(len(labels), 1 if kind == "vertices" else X.dim + 1))
            vs[rng.randrange(len(vs))] = "zz"
            line.insert(at, ",".join(vs))
        elif fault == 3:  # a facet, or a wall, with a vertex repeated
            vs = list(X.facet_tokens(rng.randrange(X.n_facets)))[:rng.choice((X.dim, X.dim + 1))]
            vs.append(rng.choice(vs))
            rng.shuffle(vs)
            line.insert(at, ",".join(vs))
        elif fault == 4:  # a vertex set of the wrong size, or no facet
            k = rng.choice((1, X.dim, X.dim + 1, X.dim + 2))
            line.insert(at, ",".join(rng.sample(labels, min(k, len(labels)))))
        else:  # a facet in a vertex file, a vertex in a facet file
            line.insert(at, ",".join(X.facet_tokens(rng.randrange(X.n_facets)))
                        if kind == "vertices" else rng.choice(labels))
    return "".join(" ".join(line) + "\n" for line in lines)


@pytest.mark.parametrize("seed", range(8))
def test_whole_line_resolution_equals_the_per_token_resolver(seed):
    """On random valid and faulty files over generated and relabelled
    stackings, the parsers give the partition, or the error type and
    message, that resolving token by token gives."""
    rng = random.Random(seed)
    errors_seen = set()
    for trial in range(60):
        X = random_stacked(1 + trial % 3, rng.randint(1, 12), rng.randrange(10 ** 6))
        if trial % 2:
            X = relabelled(X, trial)
        for kind, parse in (("vertices", parse_vertex_partition),
                            ("facets", parse_facet_partition)):
            text = faulty_partition_text(X, kind, rng)
            got = outcome(parse, text, X)
            assert got == outcome(per_token_parse, text, X, kind), text
            errors_seen.add(got[0] if isinstance(got, tuple) else sc.Partition)
    assert errors_seen == {sc.Partition, errors.UnknownTokenError, errors.OverlapError,
                           errors.MissingElementError}


class TestDot:
    def test_tree_with_edge_partition(self):
        X = sc.line_graph(5)
        Q = fpart(X, "3,4 4,5 | 1,2 2,3 5,6")
        dot = export_dot(X, Q)
        assert dot.startswith("graph")
        assert dot.count(" -- ") == 5
        node_lines = [ln for ln in dot.splitlines()
                      if ln.startswith('  "') and "--" not in ln]
        assert len(node_lines) == 6
        colors = {part.split('"')[1] for ln in dot.splitlines()
                  if "color=" in ln for part in [ln.split("color=")[1]]}
        assert len(colors) == 2

    def test_tree_with_vertex_partition(self):
        X = sc.line_graph(5)
        P = vpart(X, "1 3 5 | 2 6 | 4")
        dot = export_dot(X, P)
        assert dot.count("fillcolor") == 6

    def test_heptagon_dual_graph(self, heptagon):
        dot = export_dot(heptagon)
        assert dot.count(" -- ") == 4
        assert dot.count('"2,5,7"') >= 1
        assert "color" not in dot

    def test_vertex_partition_needs_dimension_one(self, heptagon):
        P = vpart(heptagon, "3 7 | 1 4 6 | 2 | 5")
        with pytest.raises(errors.InputError):
            export_dot(heptagon, P)

    def test_facet_partition_colors_dual_nodes(self, heptagon):
        Q = fpart(heptagon, "2,3,4 2,5,7 | 1,2,7 2,4,5 5,6,7")
        dot = export_dot(heptagon, Q)
        assert dot.count("fillcolor") == 5


def dot_text(*lines: str) -> str:
    return "".join(f"{line}\n" for line in ("graph complex {", *lines, "}"))


RED, BLUE, GREEN = "#e41a1c", "#377eb8", "#4daf4a"
PATH_EDGES = [f'"{i}" -- "{i + 1}"' for i in range(1, 6)]
HEPTAGON_NODES = ['"1,2,7"', '"2,3,4"', '"2,4,5"', '"2,5,7"', '"5,6,7"']
HEPTAGON_EDGES = ['  "1,2,7" -- "2,5,7";', '  "2,3,4" -- "2,4,5";',
                  '  "2,4,5" -- "2,5,7";', '  "2,5,7" -- "5,6,7";']


class TestDotText:
    """The exact DOT text: node lines in id or facet order, then edge lines."""

    def test_path(self):
        assert export_dot(sc.line_graph(5)) == dot_text(
            *(f'  "{v}";' for v in range(1, 7)),
            *(f"  {edge};" for edge in PATH_EDGES))

    def test_path_with_vertex_partition(self):
        X = sc.line_graph(5)
        colors = [RED, BLUE, RED, GREEN, RED, BLUE]
        assert export_dot(X, vpart(X, "1 3 5 | 2 6 | 4")) == dot_text(
            *(f'  "{v}" [style=filled, fillcolor="{c}"];'
              for v, c in enumerate(colors, 1)),
            *(f"  {edge};" for edge in PATH_EDGES))

    def test_path_with_facet_partition(self):
        X = sc.line_graph(5)
        colors = [RED, RED, BLUE, BLUE, RED]
        assert export_dot(X, fpart(X, "3,4 4,5 | 1,2 2,3 5,6")) == dot_text(
            *(f'  "{v}";' for v in range(1, 7)),
            *(f'  {edge} [color="{c}", penwidth=2];'
              for edge, c in zip(PATH_EDGES, colors)))

    def test_heptagon(self, heptagon):
        assert export_dot(heptagon) == dot_text(
            *(f"  {node};" for node in HEPTAGON_NODES), *HEPTAGON_EDGES)

    def test_heptagon_with_facet_partition(self, heptagon):
        Q = fpart(heptagon, "2,3,4 2,5,7 | 1,2,7 2,4,5 5,6,7")
        colors = [RED, BLUE, RED, BLUE, RED]
        assert export_dot(heptagon, Q) == dot_text(
            *(f'  {node} [style=filled, fillcolor="{c}"];'
              for node, c in zip(HEPTAGON_NODES, colors)),
            *HEPTAGON_EDGES)

    def test_quotes_and_backslashes_are_escaped(self):
        # in a DOT quoted string \" is a quote and \\ one backslash
        X = sc.build_complex([['a"b', "c"], ["c", "d\\"]])
        assert export_dot(X) == dot_text(
            '  "a\\"b";', '  "c";', '  "d\\\\";',
            '  "a\\"b" -- "c";', '  "c" -- "d\\\\";')

    def test_vertex_partition_on_heptagon_message(self, heptagon):
        P = vpart(heptagon, "3 7 | 1 4 6 | 2 | 5")
        with pytest.raises(errors.InputError) as info:
            export_dot(heptagon, P)
        assert str(info.value) == (
            "vertex partitions only color dimension-1 complexes; the dual "
            "graph drawn for higher dimensions has facet nodes")
