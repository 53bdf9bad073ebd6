"""Text formats for complexes and partitions, plus DOT export.

Complex files: one facet per line, vertex tokens separated by spaces.
Partition files: one block per line; for facet partitions each token is a
facet written as its vertex tokens joined by commas.  Lines starting with
'#' are comments, blank lines are ignored, encoding is UTF-8, and one
leading byte-order mark is dropped.
"""

from .complexes import (
    _NUMERIC,
    ZERO_DIMENSION,
    SimplicialComplex,
    canonical_complex,
    dual_adjacency,
)
from .errors import (
    DuplicateFacetError,
    DuplicateVertexError,
    EmptyInputError,
    InputError,
    MissingElementError,
    NotPureError,
    OverlapError,
    UnknownTokenError,
    ZeroDimensionError,
)
from .natline import PrefixPartition, make_prefix_partition
from .partitions import Partition, make_partition

_PALETTE = ("#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00", "#a65628",
            "#f781bf", "#17becf", "#999999", "#66c2a5", "#fc8d62", "#8da0cb")


def _content_lines(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for ln, raw in enumerate(text.removeprefix("\ufeff").splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append((ln, stripped.split()))
    return out


def parse_complex(text: str) -> SimplicialComplex:
    """Parse the complex text format; errors carry the offending line.
    Split tokens are valid vertex tokens, so these checks are all that
    :func:`complexes.build_complex` would make."""
    entries = _content_lines(text)
    if not entries:
        raise EmptyInputError("no facets in input")
    first_ln, first = entries[0]
    seen: dict[frozenset[str], int] = {}
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
    return canonical_complex([tokens for _, tokens in entries])


def emit_complex(X: SimplicialComplex) -> str:
    """Canonical text for a complex; parse(emit(X)) == X."""
    return "".join(" ".join(X.facet_tokens(i)) + "\n"
                   for i in range(X.n_facets))


def facet_token(X: SimplicialComplex, i: int) -> str:
    return ",".join(X.facet_tokens(i))


def _parse_blocks(text: str, resolve, universe_size: int,
                  describe: str) -> list[list[int]]:
    """The blocks of a partition file, one per line, as ids:
    ``resolve(tokens, ln)`` gives the ids of one line's tokens and raises
    :class:`UnknownTokenError` on the first it cannot resolve.  A line
    that fails, or repeats an element, is read again token by token, so
    the error names the first token at fault as the line reads."""
    blocks: list[list[int]] = []
    owner: dict[int, int] = {}
    for ln, tokens in _content_lines(text):
        try:
            block = resolve(tokens, ln)
        except UnknownTokenError:
            block = None
        if block is None or len(set(block)) < len(block) or not owner.keys().isdisjoint(block):
            # raises at the first token at fault
            for tok in tokens:
                [e] = resolve([tok], ln)
                if e in owner:
                    raise OverlapError(f"{tok!r} already in the block on line "
                                       f"{owner[e]}", line=ln)
                owner[e] = ln
        owner.update(dict.fromkeys(block, ln))
        blocks.append(block)
    if len(owner) < universe_size:
        raise MissingElementError(
            f"{universe_size - len(owner)} {describe} not covered")
    return blocks


def _each(resolve):
    """A line resolver for :func:`_parse_blocks` from a token resolver."""
    return lambda tokens, ln: [resolve(tok, ln) for tok in tokens]


def parse_vertex_partition(text: str, X: SimplicialComplex) -> Partition:
    def resolve(tok: str, ln: int) -> int:
        try:
            return X.id_of(tok)
        except InputError:
            raise UnknownTokenError(f"unknown vertex {tok!r}", line=ln) from None

    blocks = _parse_blocks(text, _each(resolve), X.n_vertices, "vertices")
    return make_partition("vertices", blocks, range(X.n_vertices))


def parse_facet_partition(text: str, X: SimplicialComplex) -> Partition:
    def resolve(tok: str, ln: int) -> int:
        try:
            return X.facet_from_tokens(tok.split(","))
        except DuplicateVertexError as exc:
            raise UnknownTokenError(str(exc), line=ln) from None
        except InputError:
            raise UnknownTokenError(f"unknown facet {tok!r}", line=ln) from None

    blocks = _parse_blocks(text, _each(resolve), X.n_facets, "facets")
    return make_partition("facets", blocks, range(X.n_facets))


def parse_prefix_partition(text: str, n: int) -> PrefixPartition:
    width = len(str(n))

    def resolve(tokens: list[str], ln: int) -> list[int]:
        # a line of plain digits no wider than n converts at once; a
        # longer token is past n whatever its digits, and is never
        # converted, as int() refuses more than 4,300 digits
        if _NUMERIC.match("".join(tokens)) and max(map(len, tokens)) <= width:
            block = list(map(int, tokens))
            if min(block) >= 1 and max(block) <= n:
                return block
        block = []
        for tok in tokens:
            digits = tok.lstrip("0")
            if (not _NUMERIC.match(tok) or len(digits) > width
                    or not 1 <= int(digits or "0") <= n):
                raise UnknownTokenError(f"token {tok!r} outside [1..{n}]", line=ln)
            block.append(int(digits))
        return block

    blocks = _parse_blocks(text, resolve, n, "integers")
    return make_prefix_partition(n, blocks)


def _block_tokens(X: SimplicialComplex | None, P) -> list[list[str]]:
    kind = getattr(P, "kind", "integers")  # a PrefixPartition has no kind
    if kind == "vertices":
        return [[X.token_of(v) for v in block] for block in P.blocks]
    if kind == "facets":
        return [[facet_token(X, f) for f in block] for block in P.blocks]
    return [[str(e) for e in block] for block in P.blocks]


def emit_partition(P, X: SimplicialComplex | None = None) -> str:
    """Partition file format: one block per line."""
    return "".join(" ".join(block) + "\n" for block in _block_tokens(X, P))


def format_partition_line(P, X: SimplicialComplex | None = None) -> str:
    """Single-line rendering, e.g. ``{1 3 5} {2 6} {4}``."""
    return " ".join("{" + " ".join(block) + "}" for block in _block_tokens(X, P))


def export_dot(X: SimplicialComplex, partition: Partition | None = None) -> str:
    """DOT text: the tree itself for dimension 1, the dual facet graph for
    higher dimensions.  Partition blocks become color classes."""
    if X.dim == 1:
        nodes, edges = X.labels, X.facet_tuples
    else:
        nodes = [facet_token(X, f) for f in range(X.n_facets)]
        edges = [(f, g) for f, neighbours in enumerate(dual_adjacency(X))
                 for g in neighbours if f < g]
    node_color = [None] * len(nodes)
    edge_color = [None] * len(edges)
    if partition is not None:
        if partition.kind == "vertices" and X.dim != 1:
            raise InputError(
                "vertex partitions only color dimension-1 complexes; "
                "the dual graph drawn for higher dimensions has facet nodes")
        colored = node_color if partition.kind == "vertices" or X.dim > 1 else edge_color
        for i, block in enumerate(partition.blocks):
            for e in block:
                colored[e] = _PALETTE[i % len(_PALETTE)]

    # DOT quoted strings: a backslash escapes a quote, and \\ reads as one backslash
    nodes = ['"' + tok.replace("\\", "\\\\").replace('"', '\\"') + '"' for tok in nodes]
    lines = ["graph complex {"]
    for tok, color in zip(nodes, node_color):
        attr = f' [style=filled, fillcolor="{color}"]' if color else ""
        lines.append(f"  {tok}{attr};")
    for (a, b), color in zip(edges, edge_color):
        attr = f' [color="{color}", penwidth=2]' if color else ""
        lines.append(f"  {nodes[a]} -- {nodes[b]}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
