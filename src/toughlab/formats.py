"""Graph interchange formats and deterministic labeled-corpus generation.

Supported formats:

* graph6 (short form, n <= 62): header byte ``chr(n + 63)``, then the upper
  adjacency triangle in column-major pair order (0,1), (0,2), (1,2), (0,3),
  ... packed six bits per byte, each byte offset by 63, zero padded.
* edge list: first token is the vertex count, followed by whitespace
  separated ``u v`` pairs with 0 <= u, v < n and u != v.

Generated corpora enumerate every labeled graph on n vertices in ascending
edge-mask order (bit k of the mask is pair k in lexicographic (i, j) order),
optionally filtered to connected graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .graphs import Graph, is_connected

GRAPH6_MAX_N = 62
GENERATED_MAX_N = 7


class FormatError(ValueError):
    """Malformed graph interchange data."""


def _graph6_pairs(n: int) -> list[tuple[int, int]]:
    # column-major: all (i, j) with i < j, ordered by j then i
    return [(i, j) for j in range(1, n) for i in range(j)]


def parse_graph6(line: str) -> Graph:
    """Decode one short-form graph6 record into a labeled graph."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise FormatError("empty graph6 record")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise FormatError(f"invalid graph6 character {ch!r}")
    head = ord(s[0]) - 63
    if head == 63:
        raise FormatError("long-form graph6 sizes are not supported")
    n = head
    if n > GRAPH6_MAX_N:
        raise FormatError(f"graph6 header declares {n} vertices, maximum is {GRAPH6_MAX_N}")
    nbits = n * (n - 1) // 2
    payload = s[1:]
    expected = (nbits + 5) // 6
    if len(payload) < expected:
        raise FormatError(f"graph6 payload truncated: {len(payload)} bytes, expected {expected}")
    if len(payload) > expected:
        raise FormatError(f"graph6 payload has trailing data: {len(payload)} bytes, expected {expected}")
    rows = [0] * n
    k = 0
    for ch in payload:
        group = ord(ch) - 63
        for shift in range(5, -1, -1):
            if k >= nbits:
                break
            if group >> shift & 1:
                i, j = _PAIR_TABLE[n][k]
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    m = sum(r.bit_count() for r in rows) // 2
    return Graph(n, tuple(rows), m)


def write_graph6(g: Graph) -> str:
    """Encode a graph as one short-form graph6 record; inverse of parse_graph6."""
    if g.n > GRAPH6_MAX_N:
        raise FormatError(f"graph6 short form caps at {GRAPH6_MAX_N} vertices, got {g.n}")
    out = [chr(g.n + 63)]
    group = 0
    filled = 0
    for i, j in _PAIR_TABLE[g.n]:
        group = group << 1 | (g.rows[i] >> j & 1)
        filled += 1
        if filled == 6:
            out.append(chr(group + 63))
            group = 0
            filled = 0
    if filled:
        out.append(chr((group << (6 - filled)) + 63))
    return "".join(out)


_PAIR_TABLE = [_graph6_pairs(n) for n in range(GRAPH6_MAX_N + 1)]


def parse_edge_list(text: str) -> Graph:
    """Parse the whitespace edge-list format; duplicate pairs collapse."""
    tokens = text.split()
    if not tokens:
        raise FormatError("empty edge list")
    try:
        n = int(tokens[0])
    except ValueError:
        raise FormatError(f"vertex count is not an integer: {tokens[0]!r}") from None
    if n < 0:
        raise FormatError(f"negative vertex count {n}")
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


def _mask_pairs(n: int) -> list[tuple[int, int]]:
    # lexicographic (i, j) order defines the generated-corpus edge-mask bits
    return list(itertools.combinations(range(n), 2))


def _labeled_graphs(n: int, connected_only: bool) -> Iterator[Graph]:
    pairs = _mask_pairs(n)
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


@dataclass(frozen=True)
class CorpusStream:
    """Re-iterable, pull-based stream of graphs from one corpus source.

    Each ``iter()`` opens an independent pass, so several workers can walk
    the same stream description concurrently.
    """

    source: str
    format: str
    _factory: Callable[[], Iterator[Graph]] = field(repr=False, compare=False)

    def __iter__(self) -> Iterator[Graph]:
        return self._factory()

    @classmethod
    def generated(cls, n: int, connected_only: bool = False) -> "CorpusStream":
        if not 1 <= n <= GENERATED_MAX_N:
            raise ValueError(f"generated corpora support 1 <= n <= {GENERATED_MAX_N}, got {n}")
        tag = f"gen:n={n}" + (":connected" if connected_only else "")
        return cls(tag, "generated-labeled", lambda: _labeled_graphs(n, connected_only))

    @classmethod
    def from_graph6_file(cls, path: str) -> "CorpusStream":
        def gen() -> Iterator[Graph]:
            with open(path, "r", encoding="utf-8") as fh:
                for ln in fh:
                    if ln.strip():
                        yield parse_graph6(ln)

        return cls(path, "graph6", gen)


def enumerate_labeled_connected(n: int) -> CorpusStream:
    """Every connected labeled graph on n vertices, exactly once, in edge-mask order."""
    return CorpusStream.generated(n, connected_only=True)


def enumerate_labeled(n: int) -> CorpusStream:
    """Every labeled graph on n vertices in edge-mask order."""
    return CorpusStream.generated(n, connected_only=False)
