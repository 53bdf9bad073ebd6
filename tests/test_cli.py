import gc
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import stackedcx as sc
from stackedcx import cli, natline
from stackedcx.oracle import BijectionReport
from stackedcx.generators import random_stacked
from stackedcx.textio import emit_complex, parse_complex

from conftest import (
    HEPTAGON_FACETS,
    inject,
    merging_facet_to_vertex,
    unconditional_merging_facet_to_vertex,
)

HEPTAGON_TEXT = "".join(line + "\n" for line in HEPTAGON_FACETS)
FIG1A_TEXT = "".join(f"{i} {i + 1}\n" for i in range(1, 6))
FIG1A_EDGES = "3,4 4,5\n1,2 2,3 5,6\n"


@pytest.fixture
def heptagon_file(tmp_path):
    path = tmp_path / "heptagon.cx"
    path.write_text(HEPTAGON_TEXT)
    return str(path)


@pytest.fixture
def fig1a(tmp_path):
    cx = tmp_path / "fig1a.cx"
    cx.write_text(FIG1A_TEXT)
    part = tmp_path / "fig1a-edges.part"
    part.write_text(FIG1A_EDGES)
    return str(cx), str(part)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_stacked(self, capsys, heptagon_file):
        code, out, _ = run(capsys, "check", heptagon_file)
        assert code == 0
        assert "dimension=2" in out and "facets=5" in out
        assert "vertices=7" in out and "stacked=yes" in out
        assert "stacking:" in out

    def test_not_pure_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.cx"
        bad.write_text("1 2\n1 2 3\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 1 and "error" in err

    def test_not_stacked_exits_one(self, capsys, tmp_path):
        tetra = tmp_path / "tetra.cx"
        tetra.write_text("1 2 3\n1 2 4\n1 3 4\n2 3 4\n")
        code, out, _ = run(capsys, "check", str(tetra))
        assert code == 1 and "stacked=no" in out

    @pytest.mark.parametrize("text, reason", [
        ("1 2 3\n1 2 4\n1 3 4\n2 3 4\n",
         "4 vertices, but a stacking of 4 facets in dimension 2 has 6"),
        ("1 2\n2 3\n3 1\n4 5\n",
         "the facets are not connected through codimension-one faces")],
        ids=["tetrahedron-boundary", "cycle-and-edge"])
    def test_not_stacked_reason_on_stderr(self, capsys, tmp_path, text, reason):
        path = tmp_path / "x.cx"
        path.write_text(text)
        code, out, err = run(capsys, "check", str(path))
        X = parse_complex(text)
        assert code == 1
        assert out == (f"dimension={X.dim}\nfacets={X.n_facets}\n"
                       f"vertices={X.n_vertices}\nstacked=no\n")
        assert err == f"not stacked: {reason}\n"

    @pytest.mark.parametrize("text, expected", [
        (HEPTAGON_TEXT, "dimension=2\nfacets=5\nvertices=7\nstacked=yes\n"
         "stacking: 1,2,7 5+2,5,7 4+2,4,5 6+5,6,7 3+2,3,4\n"),
        (emit_complex(random_stacked(3, 8, 4)),
         "dimension=3\nfacets=8\nvertices=11\nstacked=yes\n"
         "stacking: 1,2,3,4 5+1,2,4,5 7+1,2,4,7 6+1,2,5,6 11+1,2,7,11 "
         "8+2,4,7,8 9+2,4,8,9 10+2,7,8,10\n")],
        ids=["heptagon", "stacked-d3-seed4"])
    def test_stacked_output_is_exact(self, capsys, tmp_path, text, expected):
        path = tmp_path / "x.cx"
        path.write_text(text)
        assert run(capsys, "check", str(path)) == (0, expected, "")

    def test_long_path_certificate_replays(self, capsys, tmp_path):
        edges = tmp_path / "path.cx"
        edges.write_text("".join(f"{i} {i + 1}\n" for i in range(1, 5001)))
        code, out, _ = run(capsys, "check", str(edges))
        assert code == 0 and "stacked=yes" in out
        X = parse_complex(edges.read_text())
        (line,) = [ln for ln in out.splitlines() if ln.startswith("stacking: ")]
        first, *steps = line.split()[1:]
        order = [X.facet_from_tokens(first.split(","))]
        free = []
        for step in steps:
            vertex, _, facet = step.partition("+")
            order.append(X.facet_from_tokens(facet.split(",")))
            free.append(X.id_of(vertex))
        cert = sc.StackingOrder(order=tuple(order), free_vertices=tuple(free))
        assert sc.replay_stacking_order(X, cert)

    def test_huge_numeric_token_is_ordered_by_value(self, capsys, tmp_path):
        big = "1" + "0" * 4999  # past the digits int() converts
        path = tmp_path / "x.cx"
        path.write_text(f"10 9\n9 {big}\n")
        assert run(capsys, "check", str(path)) == (
            0, "dimension=1\nfacets=2\nvertices=3\nstacked=yes\n"
            f"stacking: 9,10 {big}+9,{big}\n", "")

    def test_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n2 3\n"))
        code, out, _ = run(capsys, "check", "-")
        assert code == 0 and "dimension=1" in out


class TestPath:
    def test_facets(self, capsys, heptagon_file):
        code, out, _ = run(capsys, "path", heptagon_file,
                           "--facets", "2,3,4", "5,6,7")
        assert code == 0
        assert "path: 2,3,4 2,4,5 2,5,7 5,6,7" in out
        assert "distance: 3" in out

    def test_vertices(self, capsys, heptagon_file):
        code, out, _ = run(capsys, "path", heptagon_file,
                           "--vertices", "3", "7")
        assert code == 0
        assert "path: 3 | 2,3,4 2,4,5 2,5,7 | 7" in out
        assert "distance: 3" in out

    def test_equal_vertices(self, capsys, heptagon_file):
        code, out, _ = run(capsys, "path", heptagon_file,
                           "--vertices", "4", "4")
        assert code == 0 and out.strip() == "distance: 0"

    def test_facet_mates_on_two_facets_print_distance_one(self, capsys, heptagon_file):
        # {2,4} lies in 234 and 245, {2,5} in 245 and 257: no single witness
        for v, w in (("2", "4"), ("2", "5")):
            code, out, _ = run(capsys, "path", heptagon_file, "--vertices", v, w)
            assert code == 0 and out == "distance: 1\n"

    def test_facet_mates_on_one_facet_print_it(self, capsys, heptagon_file):
        code, out, _ = run(capsys, "path", heptagon_file, "--vertices", "2", "3")
        assert code == 0
        assert out.splitlines() == ["path: 2 | 2,3,4 | 3", "distance: 1"]

    def test_facet_with_repeated_vertex_exits_one(self, capsys, tmp_path):
        path = tmp_path / "path.cx"
        path.write_text("1 2\n2 3\n3 4\n")
        code, out, err = run(capsys, "path", str(path), "--facets", "1,1,2", "4,3")
        assert code == 1 and out == "" and "repeated vertex" in err
        code, out, _ = run(capsys, "path", str(path), "--facets", "2,1", "4,3")
        assert code == 0 and out.splitlines()[-1] == "distance: 2"

    def test_unknown_facet_is_named_by_its_tokens(self, capsys, tmp_path):
        path = tmp_path / "path.cx"
        path.write_text("a b\nb c\nc d\n")
        code, out, err = run(capsys, "path", str(path), "--facets", "a,c", "b,c")
        assert (code, out, err) == (1, "", "error: unknown facet 'a,c'\n")


class TestMap:
    def test_f2v_figure_line(self, capsys, fig1a):
        cx, part = fig1a
        code, out, _ = run(capsys, "map", "f2v", cx, part)
        assert code == 0
        assert out.strip() == "{1 3 5} {2 6} {4}"

    def test_v2f_inverse(self, capsys, fig1a, tmp_path):
        cx, _ = fig1a
        vfile = tmp_path / "verts.part"
        vfile.write_text("1 3 5\n2 6\n4\n")
        code, out, _ = run(capsys, "map", "v2f", cx, str(vfile))
        assert code == 0
        assert out.strip() == "{1,2 2,3 5,6} {3,4 4,5}"

    def test_facet_with_repeated_vertex_exits_one(self, capsys, tmp_path):
        path = tmp_path / "path.cx"
        path.write_text("1 2\n2 3\n3 4\n")
        part = tmp_path / "p.part"
        part.write_text("1,2,1 3,4\n2,3\n")
        code, out, err = run(capsys, "map", "f2v", str(path), str(part))
        assert code == 1 and out == ""
        assert err.startswith("error: line 1: ") and "'1,2,1'" in err

    def test_repeated_vertex_in_partition_facet_gives_the_reason(self, capsys, tmp_path):
        path = tmp_path / "path.cx"
        path.write_text("1 2\n2 3\n3 4\n")
        part = tmp_path / "p.part"
        part.write_text("1,2,1 3,4\n2,3\n")
        code, out, err = run(capsys, "map", "f2v", str(path), str(part))
        assert (code, out) == (1, "")
        assert err == "error: line 1: repeated vertex in facet '1,2,1'\n"

    def test_rejects_not_stacked(self, capsys, tmp_path):
        bad = tmp_path / "cycle.cx"
        bad.write_text("1 2\n2 3\n1 3\n4 5\n")
        part = tmp_path / "p.part"
        part.write_text("1 2 3 4 5\n")
        code, _, err = run(capsys, "map", "v2f", str(bad), str(part))
        assert code == 1 and "not stacked" in err


class TestEnumerate:
    def test_streams_canonical_lines(self, capsys, heptagon_file):
        code, out, _ = run(capsys, "enumerate", heptagon_file,
                           "--kind", "facets", "-r", "2", "-s", "2")
        assert code == 0
        assert out.splitlines() == ["{1,2,7 2,4,5 5,6,7} {2,3,4 2,5,7}"]

    def test_vertex_count_matches_stirling(self, capsys, heptagon_file):
        code, out, _ = run(capsys, "enumerate", heptagon_file,
                           "--kind", "vertices", "-r", "4", "-s", "2")
        assert code == 0
        assert len(out.splitlines()) == sc.stirling2(5, 2)

    def test_more_facets_than_exact_range_exits_one_before_any_line(self, capsys,
                                                                     tmp_path):
        # a 40-edge path would stream S(41, 3) vertex partitions
        path = tmp_path / "path40.cx"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(40)))
        code, out, err = run(capsys, "enumerate", str(path),
                             "--kind", "vertices", "-r", "3", "-s", "1")
        assert (code, out) == (1, "")
        assert err == "error: n=40 outside supported range 0..25\n"

    def test_exact_range_still_enumerates(self, capsys, tmp_path):
        path = tmp_path / "path25.cx"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(25)))
        code, out, err = run(capsys, "enumerate", str(path),
                             "--kind", "facets", "-r", "24", "-s", "1")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == sc.stirling2(25, 24)


class TestVerify:
    def test_heptagon_passes(self, capsys, heptagon_file):
        code, out, _ = run(capsys, "verify", heptagon_file, "-r", "2", "-s", "2")
        assert code == 0
        assert "leftCount=1" in out and "rightCount=1" in out
        assert "roundTripFailures=0" in out and "imageMismatches=0" in out

    def test_failing_report_exits_two(self, capsys, heptagon_file, monkeypatch):
        fake = BijectionReport(parts=1, scatter=1, dim=2, left_count=2,
                               right_count=2, round_trip_failures=1,
                               image_mismatches=0)
        monkeypatch.setattr(cli, "verify_bijection", lambda X, r, s: fake)
        code, out, _ = run(capsys, "verify", heptagon_file, "-r", "1", "-s", "1")
        assert code == 2 and "roundTripFailures=1" in out

    def test_counterexamples_go_to_stderr_in_tokens(self, capsys, heptagon_file,
                                                     monkeypatch):
        code, clean_out, err = run(capsys, "verify", heptagon_file, "-r", "2", "-s", "1")
        assert code == 0 and err == ""
        inject(monkeypatch, "facet_to_vertex", merging_facet_to_vertex)
        code, out, err = run(capsys, "verify", heptagon_file, "-r", "2", "-s", "1")
        assert code == 2
        assert [line.split("=")[0] for line in out.splitlines()] == \
            [line.split("=")[0] for line in clean_out.splitlines()]
        lines = err.splitlines()
        assert 1 <= len(lines) <= 3
        facets = {",".join(f.split()) for f in HEPTAGON_FACETS}
        for line in lines:
            prefix, reason, partition = line.split(": ")
            assert prefix == "counterexample"
            tokens = partition.replace("{", " ").replace("}", " ").split()
            if reason.startswith("facet"):
                assert sorted(tokens) == sorted(facets)
            else:
                assert sorted(tokens) == [str(v) for v in range(1, 8)]


    def test_image_with_two_vertices_on_a_facet_exits_two(self, capsys, heptagon_file,
                                                          monkeypatch):
        inject(monkeypatch, "facet_to_vertex", unconditional_merging_facet_to_vertex)
        code, out, err = run(capsys, "verify", heptagon_file, "-r", "2", "-s", "1")
        assert code == 2
        assert out == ("leftCount=15\nrightCount=15\n"
                       "roundTripFailures=30\nimageMismatches=15\n")
        lines = err.splitlines()
        assert 1 <= len(lines) <= 3
        assert all(line.startswith("counterexample: ") for line in lines)
        assert any(": facet partition that does not round-trip: " in line
                   for line in lines)

    def test_more_facets_than_exact_range_exits_one(self, capsys, tmp_path):
        path = tmp_path / "big.cx"
        path.write_text(emit_complex(random_stacked(2, 26, 0)))
        code, out, err = run(capsys, "verify", str(path), "-r", "2", "-s", "1")
        assert code == 1 and out == ""
        assert "n=26 outside supported range 0..25" in err


class TestCensus:
    def test_heptagon(self, capsys, heptagon_file):
        code, out, _ = run(capsys, "census", heptagon_file)
        assert code == 0
        assert "total=52" in out and "bell=52" in out and "failures=0" in out

    def test_more_facets_than_exact_range_exits_one_at_once(self, capsys, tmp_path):
        path = tmp_path / "big.cx"
        path.write_text(emit_complex(random_stacked(2, 2000, 0)))
        start = time.perf_counter()
        code, out, err = run(capsys, "census", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert "n=2000 outside supported range 0..25" in err


class TestNat:
    def test_refine_with_colimit(self, capsys, tmp_path):
        pattern = tmp_path / "pattern.part"
        pattern.write_text("10\n" + " ".join(
            str(i) for i in range(1, 21) if i != 10) + "\n")
        code, out, _ = run(capsys, "nat", "--pattern", str(pattern),
                           "-n", "20", "--steps", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ("{1 3 5 7 9 12 14 16 18 20} {2 4 6 8 10} "
                            "{11 13 15 17 19 21}")
        assert lines[1] == "colimit=ok"

    def test_one_step_refines_the_pattern_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        real = natline.refine_once

        def counting(P):
            calls.append(sum(map(len, P.blocks)))
            return real(P)

        # cli calls refine_once itself and through natline's functions
        monkeypatch.setattr(natline, "refine_once", counting)
        monkeypatch.setattr(cli, "refine_once", counting, raising=False)
        pattern = tmp_path / "p.part"
        pattern.write_text("1 3 5\n2 4\n")
        code, out, _ = run(capsys, "nat", "--pattern", str(pattern),
                           "-n", "5", "--steps", "1")
        assert code == 0 and out.splitlines()[1] == "colimit=ok"
        assert sorted(calls) == [4, 5]

    def test_prefix_length_is_checked_before_the_pattern(self, capsys, tmp_path):
        pattern = tmp_path / "p.part"
        pattern.write_text("1 3 5\n2 4\n")
        code, out, err = run(capsys, "nat", "--pattern", str(pattern), "-n", "-3")
        assert (code, out, err) == (1, "", "error: prefix length must be >= 1\n")

    @pytest.mark.parametrize("text", ["1 3 5\n2 4\n", "1 3 x\n2 2\n", ""],
                             ids=["valid", "malformed", "empty"])
    def test_steps_are_checked_before_the_pattern(self, capsys, tmp_path, text):
        pattern = tmp_path / "p.part"
        pattern.write_text(text)
        code, out, err = run(capsys, "nat", "--pattern", str(pattern),
                             "-n", "5", "--steps", "-1")
        assert (code, out, err) == (1, "", "error: steps must be >= 0\n")

    def test_zero_steps(self, capsys, tmp_path):
        pattern = tmp_path / "p.part"
        pattern.write_text("1 3\n2\n")
        code, out, _ = run(capsys, "nat", "--pattern", str(pattern),
                           "-n", "3", "--steps", "0")
        assert code == 0 and out.splitlines()[0] == "{1 3} {2}"

    @pytest.mark.parametrize("token", ["\u00b2", "\u0662"])  # superscript 2, Arabic-Indic 2
    def test_non_ascii_digit_token_exits_one(self, capsys, tmp_path, token):
        pattern = tmp_path / "p.part"
        pattern.write_text(f"1 {token}\n", encoding="utf-8")
        code, out, err = run(capsys, "nat", "--pattern", str(pattern),
                             "-n", "2", "--steps", "1")
        assert code == 1 and out == ""
        assert repr(token) in err and "Traceback" not in err

    def test_huge_numeric_token_exits_one(self, capsys, tmp_path):
        big = "1" + "0" * 4999  # past the digits int() converts
        pattern = tmp_path / "p.part"
        pattern.write_text(f"1 {big}\n2\n")
        code, out, err = run(capsys, "nat", "--pattern", str(pattern),
                             "-n", "2", "--steps", "1")
        assert code == 1 and out == ""
        assert err == f"error: line 1: token {big!r} outside [1..2]\n"

    def test_leading_zeros_of_any_length_read_as_the_value(self, capsys, tmp_path):
        pattern = tmp_path / "p.part"
        pattern.write_text("0" * 5000 + "1 3\n2\n")
        zeros = run(capsys, "nat", "--pattern", str(pattern), "-n", "3")
        pattern.write_text("1 3\n2\n")
        assert zeros == run(capsys, "nat", "--pattern", str(pattern), "-n", "3")
        assert zeros[0] == 0

    def test_colimit_failure_exits_two(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "check_colimit_compatibility",
                            lambda P, refined=None: False)
        pattern = tmp_path / "p.part"
        pattern.write_text("1 3\n2\n")
        code, out, err = run(capsys, "nat", "--pattern", str(pattern), "-n", "3")
        assert code == 2 and err == ""
        assert out.splitlines() == ["{1 4} {2} {3}", "colimit=FAIL"]


class TestGen:
    def test_tree_deterministic(self, capsys):
        code, out1, _ = run(capsys, "gen", "tree", "--vertices", "6",
                            "--seed", "9")
        assert code == 0
        code, out2, _ = run(capsys, "gen", "tree", "--vertices", "6",
                            "--seed", "9")
        assert out1 == out2
        T = parse_complex(out1)
        assert T.n_vertices == 6 and sc.is_stacked(T)

    def test_tree_by_index(self, capsys):
        seen = set()
        for idx in range(3):
            code, out, _ = run(capsys, "gen", "tree", "--vertices", "3",
                               "--index", str(idx))
            assert code == 0
            seen.add(out)
        assert len(seen) == 3

    def test_polygon(self, capsys):
        code, out, _ = run(capsys, "gen", "polygon", "--size", "7",
                           "--index", "0")
        assert code == 0
        X = parse_complex(out)
        assert X.dim == 2 and X.n_facets == 5 and sc.is_stacked(X)

    def test_stacked(self, capsys):
        code, out, _ = run(capsys, "gen", "stacked", "--dim", "3",
                           "--count", "5", "--seed", "4")
        assert code == 0
        X = parse_complex(out)
        assert X.dim == 3 and X.n_facets == 5 and sc.is_stacked(X)

    def test_index_out_of_range(self, capsys):
        code, _, err = run(capsys, "gen", "tree", "--vertices", "3",
                           "--index", "3")
        assert code == 1 and "out of range" in err

    @pytest.mark.parametrize("vertices", [1400, 10**6])
    def test_tree_index_out_of_range_on_many_vertices(self, capsys, vertices):
        # the range is stated, not computed: v^(v-2) has over 4,300 digits,
        # more than str(int) converts, and takes seconds to build at 10^6
        assert run(capsys, "gen", "tree", "--vertices", str(vertices), "--index", "-1") == \
            (1, "", f"error: tree index out of range 0..{vertices}^{vertices - 2}-1\n")

    def test_tree_index_range_edges(self, capsys):
        trees = set()
        for index in (0, 4 ** 2 - 1):
            code, out, err = run(capsys, "gen", "tree", "--vertices", "4",
                                 "--index", str(index))
            assert code == 0 and err == "" and sc.is_stacked(parse_complex(out))
            trees.add(out)
        assert len(trees) == 2
        for index in (-1, 4 ** 2):
            assert run(capsys, "gen", "tree", "--vertices", "4", "--index", str(index)) == \
                (1, "", "error: tree index out of range 0..4^2-1\n")

    @pytest.mark.parametrize("argv, message", [
        (["tree"], "gen tree needs --vertices"),
        (["tree", "--vertices", "1"], "trees need at least two vertices"),
        (["polygon"], "gen polygon needs --size"),
        (["polygon", "--size", "7", "--index", "42"],
         "polygon index out of range 0..41"),
        (["polygon", "--size", "7", "--index", "-1"],
         "polygon index out of range 0..41"),
        (["stacked", "--count", "3"], "gen stacked needs --dim and --count"),
        (["stacked", "--dim", "2"], "gen stacked needs --dim and --count"),
    ])
    def test_missing_or_out_of_range_arguments(self, capsys, argv, message):
        assert run(capsys, "gen", *argv) == (1, "", f"error: {message}\n")

    def test_polygon_by_seed(self, capsys):
        argv = ("gen", "polygon", "--size", "7", "--seed", "3")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and run(capsys, *argv) == (0, out, "")
        X = parse_complex(out)
        assert X.dim == 2 and X.n_facets == 5 and sc.is_stacked(X)


class TestDot:
    def test_tree_with_partition_auto_kind(self, capsys, fig1a):
        cx, part = fig1a
        code, out, _ = run(capsys, "dot", cx, part)
        assert code == 0
        assert out.startswith("graph") and out.count(" -- ") == 5

    def test_dual_graph(self, capsys, heptagon_file):
        code, out, _ = run(capsys, "dot", heptagon_file)
        assert code == 0 and out.count(" -- ") == 4

    @pytest.mark.parametrize("kind", ["vertices", "auto"])
    def test_tree_with_vertex_partition(self, capsys, fig1a, tmp_path, kind):
        cx, _ = fig1a
        part = tmp_path / "fig1a-vertices.part"
        part.write_text("1 3 5\n2 6\n4\n")
        code, out, err = run(capsys, "dot", cx, str(part), "--kind", kind)
        assert code == 0 and err == ""
        assert '  "4" [style=filled, fillcolor="#4daf4a"];' in out.splitlines()
        assert out.count("fillcolor") == 6 and "penwidth" not in out


class TestModuleEntry:
    @pytest.mark.parametrize("module", ["stackedcx", "stackedcx.cli"])
    def test_python_dash_m(self, heptagon_file, module):
        src = Path(sc.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-m", module, "check", heptagon_file],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0
        assert "stacked=yes" in done.stdout.splitlines()

    def test_entry_runs_without_the_cyclic_collector(self, monkeypatch):
        # entry() serves one-shot processes; cli.main leaves the collector alone
        during = []
        monkeypatch.setattr(cli, "main", lambda: during.append(gc.isenabled()) or 0)
        collecting = gc.isenabled()
        try:
            gc.enable()
            with pytest.raises(SystemExit) as exit_:
                cli.entry()
        finally:
            (gc.enable if collecting else gc.disable)()
        assert (during, exit_.value.code) == ([False], 0)


class TestUsage:
    def test_unknown_command_exits_one(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    def test_missing_required_flag_exits_one(self, capsys, heptagon_file):
        assert cli.main(["verify", heptagon_file, "-r", "1"]) == 1

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/file.cx")
        assert code == 1 and "error" in err


NOT_UTF8 = b"\xff 1\n"


class TestNonUtf8Input:
    def test_complex_and_partition_files(self, capsys, tmp_path, fig1a):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(NOT_UTF8)
        expected = (1, "", f"error: {str(bad)!r} is not UTF-8 text\n")
        assert run(capsys, "check", str(bad)) == expected
        assert run(capsys, "map", "v2f", fig1a[0], str(bad)) == expected

    @pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
    def test_stdin(self, capsys, monkeypatch, errors):
        stdin = io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8",
                                 errors=errors)
        monkeypatch.setattr("sys.stdin", stdin)
        assert run(capsys, "check", "-") == (
            1, "", "error: standard input is not UTF-8 text\n")


BOM = b"\xef\xbb\xbf"


class TestByteOrderMark:
    """One leading UTF-8 byte-order mark is dropped from every text input."""

    def test_complex_reads_as_without_the_mark(self, capsys, tmp_path):
        marked = tmp_path / "marked.cx"
        marked.write_bytes(BOM + b"1 2\n2 3\n")
        plain = tmp_path / "plain.cx"
        plain.write_bytes(b"1 2\n2 3\n")
        got = run(capsys, "check", str(marked))
        assert got == run(capsys, "check", str(plain))
        assert got[0] == 0 and "stacking: 1,2 3+2,3" in got[1].splitlines()

    def test_partition_files(self, capsys, tmp_path, fig1a):
        cx, edges = fig1a
        marked = tmp_path / "marked.part"
        marked.write_bytes(BOM + Path(edges).read_bytes())
        assert run(capsys, "map", "f2v", cx, str(marked)) == \
            run(capsys, "map", "f2v", cx, edges)
        vertices = tmp_path / "vertices.part"
        vertices.write_bytes(BOM + b"1 3 5\n2 6\n4\n")
        assert run(capsys, "map", "v2f", cx, str(vertices))[0] == 0
        pattern = tmp_path / "pattern.part"
        pattern.write_bytes(BOM + b"1 3\n2\n")
        assert run(capsys, "nat", "--pattern", str(pattern), "-n", "3")[0] == 0

    def test_only_one_mark_is_dropped(self, capsys, tmp_path):
        twice = tmp_path / "twice.cx"
        twice.write_bytes(BOM + BOM + b"1 2\n2 3\n")
        code, out, _ = run(capsys, "check", str(twice))
        assert code == 0 and "stacking: 2,3 \ufeff1+2,\ufeff1" in out.splitlines()


MALFORMED = {
    "byte-order-mark": BOM + b"1 2\n2 3\n",
    "empty": b"",
    "comments-only": b"# no facets\n\n",
    "one-vertex-facets": b"1\n2\n",
    "not-pure": b"1 2\n2 3 4\n",
    "repeated-facet": b"1 2\n2 1\n",
    "repeated-vertex": b"1 1\n1 2\n",
    "unknown-tokens": b"x 9\n",
    "not-utf8": NOT_UTF8,
    "directory": None,
    "missing": None,
}

# every subcommand that reads a file; BAD is the malformed input and CX a
# valid path 1-2-3-4
COMMANDS = [
    "check BAD",
    "path BAD --facets 1,2 2,3",
    "path BAD --vertices 1 3",
    "map v2f BAD CX",
    "map v2f CX BAD",
    "map f2v CX BAD",
    "enumerate BAD --kind vertices -r 2 -s 1",
    "enumerate BAD --kind facets -r 2 -s 1",
    "verify BAD -r 2 -s 1",
    "census BAD",
    "nat --pattern BAD -n 3",
    "dot BAD",
    "dot CX BAD",
    "dot CX BAD --kind facets",
]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_input_exits_with_a_message(capsys, tmp_path, name, command):
    """Malformed input ends in exit code 0, 1 or 2 and never a traceback."""
    good = tmp_path / "path.cx"
    good.write_text("1 2\n2 3\n3 4\n")
    bad = tmp_path / name
    if name == "directory":
        bad.mkdir()
    elif name != "missing":
        bad.write_bytes(MALFORMED[name])
    argv = [{"BAD": str(bad), "CX": str(good)}.get(arg, arg)
            for arg in command.split()]
    code, _, err = run(capsys, *argv)
    assert code in (0, 1, 2)
    assert code == 0 or err
