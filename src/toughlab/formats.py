"""Graph interchange formats and deterministic labeled-corpus generation.

Supported formats:

* graph6: a header, then the upper adjacency triangle in column-major pair
  order (0,1), (0,2), (1,2), (0,3), ... packed six bits per byte, each
  byte offset by 63, zero padded.  The header is ``chr(n + 63)`` for
  n <= 62 (short form) and ``~`` then n in three six-bit bytes for 63 and
  64 vertices (long form).  The parser rejects nonzero padding bits and a
  long-form header for n <= 62, so every accepted record is the one
  ``write_graph6`` produces for its graph.
* edge list: first token is the vertex count, followed by whitespace
  separated ``u v`` pairs with 0 <= u, v < n and u != v.

Generated corpora enumerate every labeled graph on n vertices in ascending
edge-mask order (bit k of the mask is pair k in lexicographic (i, j) order),
optionally filtered to connected graphs.  A generator makes one pass; call
it again for another.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator

from .graphs import MAX_VERTICES, Graph, is_connected

GRAPH6_SHORT_MAX_N = 62
GENERATED_MAX_N = 7


class FormatError(ValueError):
    """Malformed graph interchange data."""


@functools.cache
def _graph6_pairs(n: int) -> tuple[tuple[int, int], ...]:
    # column-major: all (i, j) with i < j, ordered by j then i
    return tuple((i, j) for j in range(1, n) for i in range(j))


def graph6_record(line: str) -> str:
    """The record on a graph6 line, without whitespace and the optional
    ``>>graph6<<`` header."""
    return line.strip().removeprefix(">>graph6<<")


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 record into a labeled graph."""
    s = graph6_record(line)
    if not s:
        raise FormatError("empty graph6 record")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise FormatError(f"invalid graph6 character {ch!r}")
    n, payload = ord(s[0]) - 63, s[1:]
    if n > GRAPH6_SHORT_MAX_N:
        if s[1:2] == "~":
            raise FormatError(f"graph6 header declares over {MAX_VERTICES} vertices")
        if len(s) < 4:
            raise FormatError("long-form graph6 header truncated")
        high, mid, low = (ord(ch) - 63 for ch in s[1:4])
        n, payload = high << 12 | mid << 6 | low, s[4:]
        if n <= GRAPH6_SHORT_MAX_N:
            raise FormatError(f"long-form graph6 header for {n} vertices: the short form is canonical")
        if n > MAX_VERTICES:
            raise FormatError(f"graph6 header declares {n} vertices, maximum is {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(payload) < expected:
        raise FormatError(f"graph6 payload truncated: {len(payload)} bytes, expected {expected}")
    if len(payload) > expected:
        raise FormatError(f"graph6 payload has trailing data: {len(payload)} bytes, expected {expected}")
    # the payload as one int, pair k at bit nbits - 1 - k once the padding is out
    bits = 0
    for ch in payload:
        bits = bits << 6 | ord(ch) - 63
    pad = 6 * expected - nbits
    if bits & ((1 << pad) - 1):
        raise FormatError("graph6 padding bits are not zero")
    bits >>= pad
    rows = [0] * n
    pairs = _graph6_pairs(n)
    m = bits.bit_count()
    while bits:
        low = bits & -bits
        i, j = pairs[nbits - low.bit_length()]
        rows[i] |= 1 << j
        rows[j] |= 1 << i
        bits ^= low
    return Graph(n, tuple(rows), m)


def write_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 record; inverse of parse_graph6."""
    if g.n <= GRAPH6_SHORT_MAX_N:
        out = [chr(g.n + 63)]
    else:
        out = ["~", *(chr((g.n >> shift & 63) + 63) for shift in (12, 6, 0))]
    group = 0
    filled = 0
    for i, j in _graph6_pairs(g.n):
        group = group << 1 | (g.rows[i] >> j & 1)
        filled += 1
        if filled == 6:
            out.append(chr(group + 63))
            group = 0
            filled = 0
    if filled:
        out.append(chr((group << (6 - filled)) + 63))
    return "".join(out)


def parse_edge_list(text: str) -> Graph:
    """Parse the whitespace edge-list format; duplicate pairs collapse."""
    tokens = text.split()
    if not tokens:
        raise FormatError("empty edge list")
    try:
        n = int(tokens[0])
    except ValueError:
        raise FormatError(f"vertex count is not an integer: {tokens[0]!r}") from None
    if not 0 <= n <= MAX_VERTICES:
        raise FormatError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    rest = tokens[1:]
    if len(rest) % 2:
        raise FormatError("odd number of endpoint tokens")
    edges = []
    for a, b in zip(rest[::2], rest[1::2]):
        try:
            u, v = int(a), int(b)
        except ValueError:
            raise FormatError(f"malformed endpoint token in pair {a!r} {b!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"endpoint out of range in edge ({u}, {v})")
        if u == v:
            raise FormatError(f"self-loop at vertex {u}")
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def write_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines += [f"{i} {j}" for i, j in g.edges()]
    return "\n".join(lines)


def enumerate_labeled(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """Every labeled graph on n vertices, exactly once, in edge-mask order;
    only the connected ones with ``connected_only``.

    Raises ValueError at the call unless 1 <= n <= GENERATED_MAX_N.
    """
    if not 1 <= n <= GENERATED_MAX_N:
        raise ValueError(f"generated corpora support 1 <= n <= {GENERATED_MAX_N}, got {n}")
    return _labeled_graphs(n, connected_only)


def _labeled_graphs(n: int, connected_only: bool) -> Iterator[Graph]:
    # lexicographic (i, j) order defines the edge-mask bits
    pairs = list(itertools.combinations(range(n), 2))
    npairs = len(pairs)
    for mask in range(1 << npairs):
        rows = [0] * n
        for k in range(npairs):
            if mask >> k & 1:
                i, j = pairs[k]
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        g = Graph(n, tuple(rows), mask.bit_count())
        if connected_only and not is_connected(g):
            continue
        yield g
