"""Text formats for complexes and partitions, plus DOT export.

Complex files: one facet per line, vertex tokens separated by spaces.
Partition files: one block per line; for facet partitions each token is a
facet written as its vertex tokens joined by commas, and for partitions
of kind "integers", of a prefix [1..n], an integer in decimal.  A whole
line is resolved at once, and only a line that fails is read again token
by token to name the token at fault.  Lines end at
universal newlines only; lines starting with '#' are comments, blank
lines are ignored, encoding is UTF-8, and one leading byte-order mark is
dropped.
"""

from .complexes import _NUMERIC, SimplicialComplex, _validated, dual_adjacency
from .errors import (
    DuplicateVertexError,
    InputError,
    MissingElementError,
    OverlapError,
    UnknownTokenError,
)
from .partitions import Partition

_PALETTE = ("#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00", "#a65628",
            "#f781bf", "#17becf", "#999999", "#66c2a5", "#fc8d62", "#8da0cb")


def _content_lines(text: str) -> list[tuple[int, list[str]]]:
    # lines end only at universal newlines, as open() reads them; other
    # separators that str.splitlines() breaks at are spaces within a line
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    out = []
    for ln, raw in enumerate(text.split("\n"), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append((ln, stripped.split()))
    return out


def parse_complex(text: str) -> SimplicialComplex:
    """Parse the complex text format; errors name the first line at fault.
    Split tokens are valid vertex tokens, so the lines go straight to the
    validator :func:`complexes.build_complex` uses."""
    entries = _content_lines(text)
    return _validated([tokens for _, tokens in entries], [ln for ln, _ in entries], "line")


def emit_complex(X: SimplicialComplex) -> str:
    """Canonical text for a complex; parse(emit(X)) == X."""
    token = X.labels.__getitem__
    return "\n".join([" ".join(map(token, facet)) for facet in X.facet_tuples]) + "\n"


def facet_token(X: SimplicialComplex, i: int) -> str:
    return ",".join(X.facet_tokens(i))


def _parse_blocks(text: str, line, token, universe_size: int,
                  describe: str) -> tuple[tuple[int, ...], ...]:
    """The canonical blocks of a partition file, one per line, as ids.
    ``line(tokens)`` gives the ids of a whole line's tokens or raises
    LookupError; ``token(tok, ln)`` gives the id of one token or raises
    :class:`UnknownTokenError` naming it.  A line that ``line`` does not
    resolve, or that repeats an element, is read again token by token, so
    the error names the first token at fault as the line reads.  Range,
    overlap and cover are checked here, so the blocks need no other
    check."""
    blocks: list[list[int]] = []
    owner: dict[int, int] = {}
    for ln, tokens in _content_lines(text):
        try:
            block = line(tokens)
        except LookupError:
            block = None
        if block is None or len(set(block)) < len(block) or not owner.keys().isdisjoint(block):
            block = []
            for tok in tokens:  # raises at the first token at fault
                e = token(tok, ln)
                if e in owner:
                    raise OverlapError(f"{tok!r} already in the block on line "
                                       f"{owner[e]}", line=ln)
                owner[e] = ln
                block.append(e)
        owner.update(dict.fromkeys(block, ln))
        blocks.append(block)
    if len(owner) < universe_size:
        raise MissingElementError(
            f"{universe_size - len(owner)} {describe} not covered")
    return tuple(sorted(tuple(sorted(block)) for block in blocks))


def parse_vertex_partition(text: str, X: SimplicialComplex) -> Partition:
    ids = X._ids()

    def token(tok: str, ln: int) -> int:
        try:
            return ids[tok]
        except KeyError:
            raise UnknownTokenError(f"unknown vertex {tok!r}", line=ln) from None

    return Partition("vertices", _parse_blocks(
        text, lambda tokens: [ids[tok] for tok in tokens], token, X.n_vertices, "vertices"))


def parse_facet_partition(text: str, X: SimplicialComplex) -> Partition:
    # a token's vertex ids, sorted, are a facet's key; one that repeats a
    # vertex is no facet's, so its line is read again to name it
    ids, facet_ids = X._ids().__getitem__, X._facet_ids()

    def token(tok: str, ln: int) -> int:
        try:
            return X.facet_from_tokens(tok.split(","))
        except DuplicateVertexError as exc:
            raise UnknownTokenError(str(exc), line=ln) from None
        except InputError:
            raise UnknownTokenError(f"unknown facet {tok!r}", line=ln) from None

    return Partition("facets", _parse_blocks(
        text, lambda tokens: [facet_ids[tuple(sorted(map(ids, tok.split(","))))] for tok in tokens],
        token, X.n_facets, "facets"))


def parse_prefix_partition(text: str, n: int) -> Partition:
    if n < 1:
        raise InputError("prefix length must be >= 1")
    width = len(str(n))

    def line(tokens: list[str]) -> list[int]:
        # a line of plain digits no wider than n converts at once; a
        # longer token is past n whatever its digits, and is never
        # converted, as int() refuses more than 4,300 digits
        if _NUMERIC.match("".join(tokens)) and max(map(len, tokens)) <= width:
            block = list(map(int, tokens))
            if min(block) >= 1 and max(block) <= n:
                return block
        raise LookupError("not plain integers in [1..n]")

    def token(tok: str, ln: int) -> int:
        digits = tok.lstrip("0")
        if not _NUMERIC.match(tok) or len(digits) > width or not 1 <= int(digits or "0") <= n:
            raise UnknownTokenError(f"token {tok!r} outside [1..{n}]", line=ln)
        return int(digits)

    return Partition("integers", _parse_blocks(text, line, token, n, "integers"))


def _block_tokens(X: SimplicialComplex | None, P: Partition) -> list[list[str]]:
    if P.kind == "vertices":
        return [[X.token_of(v) for v in block] for block in P.blocks]
    if P.kind == "facets":
        return [[facet_token(X, f) for f in block] for block in P.blocks]
    return [[str(e) for e in block] for block in P.blocks]


def emit_partition(P: Partition, X: SimplicialComplex | None = None) -> str:
    """Partition file format: one block per line."""
    return "".join(" ".join(block) + "\n" for block in _block_tokens(X, P))


def format_partition_line(P: Partition, X: SimplicialComplex | None = None) -> str:
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
