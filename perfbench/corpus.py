"""Seeded workload inputs, written as graph6 without calling toughlab.

The benchmark draws and encodes its own graphs so that one seed gives
byte-identical corpora on every commit, whatever the program's own
generator or writer does.  Graphs are held as ``(n, rows)`` with ``rows[v]``
the neighbour bitmask of vertex ``v``.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep": a query is one `verify` call; "invariants": tough, alpha and kappa
    size: int  # graphs written per run; the timed loop wraps around if it gets through them
    batch: int = 1  # graphs per query
    checks: str | None = None  # `verify --checks` value, None for the default checks
    jobs: int = 1
    cycle: int = 1  # queries per repeat of the input mix


# Sizes leave about 2x headroom over the graphs one 25 s run reaches at the
# commit that defined the benchmark, so a faster program rarely wraps.
WORKLOADS = {
    w.name: w
    for w in (
        # 256-graph calls: one sweep chunk, long enough that a host stall
        # of tens of ms does not decide the tail
        Workload("sweep-n7", "sweep", size=256 * 128, batch=256),
        # 16-graph calls fit in one 256-graph chunk, so the second worker idles
        Workload("sweep-n6-all-j2", "sweep", size=16 * 128, batch=16, checks="all", jobs=2),
        Workload("invariants-n14", "invariants", size=18 * 200, cycle=18),
    )
}

GNP_CLASSES = [(n, p) for n in range(10, 15) for p in (0.3, 0.5, 0.7)]


@functools.cache
def pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Vertex pairs in graph6 bit order: (0,1), (0,2), (1,2), (0,3), ..."""
    return tuple((i, j) for j in range(1, n) for i in range(j))


def rows_from_mask(n: int, mask: int) -> tuple[int, ...]:
    rows = [0] * n
    for k, (i, j) in enumerate(pairs(n)):
        if mask >> k & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return tuple(rows)


def encode_graph6(n: int, mask: int) -> str:
    """Short-form graph6 of the graph whose pair k is present iff bit k of mask is set."""
    nbits = n * (n - 1) // 2
    out = [chr(n + 63)]
    for start in range(0, nbits, 6):
        group = 0
        for k in range(start, start + 6):
            group = group << 1 | (mask >> k & 1 if k < nbits else 0)
        out.append(chr(group + 63))
    return "".join(out)


def decode_graph6(line: str) -> tuple[int, tuple[int, ...]]:
    s = line.strip()
    n = ord(s[0]) - 63
    if not 0 <= n < 63:
        raise ValueError(f"unsupported graph6 header in {s!r}")
    mask = 0
    k = 0
    for ch in s[1:]:
        group = ord(ch) - 63
        for shift in range(5, -1, -1):
            if group >> shift & 1:
                mask |= 1 << k
            k += 1
    nbits = n * (n - 1) // 2
    if (len(s) - 1) != (nbits + 5) // 6 or mask >> nbits:
        raise ValueError(f"malformed graph6 payload in {s!r}")
    return n, rows_from_mask(n, mask)


def is_connected(n: int, rows: tuple[int, ...]) -> bool:
    seen = frontier = 1
    while frontier:
        grown = 0
        for v in range(n):
            if frontier >> v & 1:
                grown |= rows[v]
        frontier = grown & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def _edges_mask(n: int, edges) -> int:
    index = {pair: k for k, pair in enumerate(pairs(n))}
    return sum(1 << index[(min(u, v), max(u, v))] for u, v in edges)


def fixed_members() -> list[tuple[int, int]]:
    """Petersen, C12 and K7,7 as (n, mask)."""
    two_sets = list(itertools.combinations(range(5), 2))
    petersen = [(a, b) for a, p in enumerate(two_sets) for b, q in enumerate(two_sets)
                if a < b and not set(p) & set(q)]
    cycle = [(i, (i + 1) % 12) for i in range(12)]
    biclique = [(i, 7 + j) for i in range(7) for j in range(7)]
    return [(10, _edges_mask(10, petersen)), (12, _edges_mask(12, cycle)),
            (14, _edges_mask(14, biclique))]


def _connected_mask(n: int, draw) -> int:
    while True:
        mask = draw()
        if is_connected(n, rows_from_mask(n, mask)):
            return mask


def _gnp_mask(rng: random.Random, n: int, p: float) -> int:
    mask = 0
    for k in range(n * (n - 1) // 2):
        if rng.random() < p:
            mask |= 1 << k
    return mask


def generate(w: Workload, seed: int) -> list[str]:
    """The workload's graph6 lines for this seed, in query order."""
    rng = random.Random(f"{w.name}:{seed}")
    if w.name == "sweep-n7":
        # uniform labeled graph, disconnected draws rejected: the distribution
        # of `verify --gen 7 --connected`
        return [encode_graph6(7, _connected_mask(7, lambda: rng.getrandbits(21)))
                for _ in range(w.size)]
    if w.name == "sweep-n6-all-j2":
        return [encode_graph6(6, rng.getrandbits(15)) for _ in range(w.size)]
    # stratified: every 18 queries hold one G(n, p) draw per class plus the
    # fixed members, so a run's mix does not drift with how far it gets
    fixed = [encode_graph6(n, m) for n, m in fixed_members()]
    lines: list[str] = []
    while len(lines) < w.size:
        for n, p in GNP_CLASSES:
            lines.append(encode_graph6(n, _connected_mask(n, lambda: _gnp_mask(rng, n, p))))
        lines += fixed
    return lines[:w.size]


def write(lines: list[str], workdir: Path) -> None:
    """Write the corpus as one graph6 file."""
    (workdir / "corpus.g6").write_text("\n".join(lines) + "\n", encoding="ascii")


def read(w: Workload, workdir: Path) -> list[list[str]]:
    """The written corpus, one list of graph6 lines per query."""
    lines = (workdir / "corpus.g6").read_text(encoding="ascii").split()
    return [lines[b:b + w.batch] for b in range(0, len(lines) - w.batch + 1, w.batch)]
