"""The one complex validator against the two it replaced.

``reference_parse_complex`` and ``reference_build_complex`` are the
earlier, separate validators, kept here as they were but for names and
annotations.  On seeded random texts (one-vertex facets, mixed sizes,
repeated vertices and facets, ``01``/``1`` tokens, comments and blank
lines):

- ``parse_complex`` raises what the reference parser raises, type and
  message;
- ``build_complex`` on the same facets raises the type the reference
  parser raises, with its message naming facet positions for lines, and
  rejects exactly what the reference builder rejects (whose checks ran
  pass by pass, so on an input with two faults it may name the other);
- on valid inputs ``parse_complex(text) == build_complex(rows)``, equal
  to the reference's complex.
"""

import random

import pytest

import stackedcx as sc
from stackedcx.complexes import complex_from_ids, token_sort_key
from stackedcx.errors import (
    DuplicateFacetError,
    DuplicateVertexError,
    EmptyInputError,
    InputError,
    NotPureError,
    ZeroDimensionError,
)
from stackedcx.generators import random_stacked
from stackedcx.textio import parse_complex

from conftest import relabelled

ZERO_DIMENSION = "facets must have at least two vertices"


def reference_content_lines(text):
    out = []
    for ln, raw in enumerate(text.removeprefix("\ufeff").splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append((ln, stripped.split()))
    return out


def reference_parse_complex(text):
    entries = reference_content_lines(text)
    if not entries:
        raise EmptyInputError("no facets in input")
    first_ln, first = entries[0]
    seen = {}
    for ln, tokens in entries:
        if len(set(tokens)) != len(tokens):
            raise DuplicateVertexError(f"line {ln}: repeated vertex in facet")
        if len(tokens) != len(first):
            raise NotPureError(
                f"line {ln}: facet has {len(tokens)} vertices, line "
                f"{first_ln} has {len(first)}")
        key = frozenset(tokens)
        if key in seen:
            raise DuplicateFacetError(
                f"line {ln}: facet already given on line {seen[key]}")
        seen[key] = ln
    if len(first) < 2:
        raise ZeroDimensionError(ZERO_DIMENSION)
    return reference_canonical_complex([tokens for _, tokens in entries])


def reference_build_complex(facet_list):
    raw = []
    for facet in facet_list:
        tokens = tuple(facet)
        for tok in tokens:
            if not isinstance(tok, str) or not tok or tok.split() != [tok]:
                raise InputError(f"invalid vertex token {tok!r}")
        if len(set(tokens)) != len(tokens):
            raise DuplicateVertexError(f"repeated vertex in facet {tokens}")
        raw.append(tokens)
    if not raw:
        raise EmptyInputError("no facets given")

    size = len(raw[0])
    for tokens in raw:
        if len(tokens) != size:
            raise NotPureError(
                f"facet {tokens} has {len(tokens)} vertices, expected {size}")
    if size < 2:
        raise ZeroDimensionError(ZERO_DIMENSION)

    seen = set()
    for tokens in raw:
        key = frozenset(tokens)
        if key in seen:
            raise DuplicateFacetError(f"facet {sorted(tokens)} appears twice")
        seen.add(key)
    return reference_canonical_complex(raw)


def reference_canonical_complex(facet_list):
    labels = tuple(sorted({tok for tokens in facet_list for tok in tokens},
                          key=token_sort_key))
    ids = {tok: i for i, tok in enumerate(labels)}.__getitem__
    return complex_from_ids(labels, [tuple(sorted(map(ids, tokens))) for tokens in facet_list])


def outcome(build, arg):
    """The complex ``build(arg)`` returns, or the error it raises."""
    try:
        return build(arg)
    except InputError as exc:
        return exc


def random_rows(rng, relabel):
    """The facets of a small random stacking, or of one-vertex facets,
    shuffled and then damaged up to three times."""
    X = random_stacked(rng.randint(1, 3), rng.randint(1, 7), rng.randrange(10 ** 6))
    if relabel:
        X = relabelled(X, rng.randrange(10 ** 6))
    tokens = list(X.labels)
    if rng.random() < 0.3:  # '01' next to '1' is another vertex
        tokens = ["0" + t if rng.random() < 0.3 else t for t in tokens]
    rows = [[tokens[v] for v in f] for f in X.facet_tuples]
    if rng.random() < 0.1:
        rows = [[t] for t in tokens]
    rng.shuffle(rows)
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        if not rows:
            break
        k = rng.randrange(len(rows))
        fault = rng.randrange(6)
        if fault == 0:  # a repeated facet, its tokens in another order
            rows.insert(rng.randrange(len(rows) + 1), rng.sample(rows[k], len(rows[k])))
        elif fault == 1:  # a repeated vertex
            rows[k] = rows[k] + [rng.choice(rows[k])]
        elif fault == 2:  # one vertex fewer
            rows[k] = rows[k][:-1] or rows[k]
        elif fault == 3:  # one vertex more, maybe new
            rows[k] = rows[k] + [rng.choice(("1", "01", "x", "99"))]
        elif fault == 4:  # a one-vertex facet
            rows[k] = [rng.choice(("1", "01", "001", "2"))]
        else:  # the facets before k only, maybe none
            rows = rows[:k]
    return rows


def text_of(rng, rows):
    lines = []
    for row in rows:
        while rng.random() < 0.15:
            lines.append(rng.choice(("# a comment", "", "   ", "\t", "#1 2")))
        lines.append(" ".join(row))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("relabel", [False, True], ids=["generated", "relabelled"])
def test_the_validator_equals_the_references(relabel):
    rng = random.Random(2024 + relabel)
    kinds = set()
    for _ in range(3000):
        rows = random_rows(rng, relabel)
        text = text_of(rng, rows)
        expected = outcome(reference_parse_complex, text)
        kinds.add(type(expected))
        parsed = outcome(parse_complex, text)
        built = outcome(sc.build_complex, rows)
        assert type(parsed) is type(expected), text
        assert type(built) is type(expected), text
        assert isinstance(outcome(reference_build_complex, rows), InputError) == isinstance(
            built, InputError), text
        if isinstance(expected, InputError):
            assert str(parsed) == str(expected), text
            # the same fault, named by its position among the facets
            by_position = outcome(reference_parse_complex,
                                  "".join(" ".join(row) + "\n" for row in rows))
            assert str(built) == str(by_position).replace("line", "facet"), text
        else:
            assert parsed == built == expected == reference_build_complex(rows)
    assert kinds == {sc.SimplicialComplex, DuplicateFacetError, DuplicateVertexError,
                     EmptyInputError, NotPureError, ZeroDimensionError}
