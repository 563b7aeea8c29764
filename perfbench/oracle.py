"""Correctness gate: checks the program's outputs without importing toughlab.

Every function returns the graph6 strings it found wrong, with a reason, so
``run.py`` can count failed graphs and print the first few reasons.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from corpus import decode_graph6


def component_count(n: int, rows: tuple[int, ...], removed: int) -> int:
    todo = ((1 << n) - 1) & ~removed
    count = 0
    while todo:
        comp = frontier = todo & -todo
        while frontier:
            grown = 0
            f = frontier
            while f:
                low = f & -f
                grown |= rows[low.bit_length() - 1]
                f ^= low
            frontier = grown & todo & ~comp
            comp |= frontier
        todo &= ~comp
        count += 1
    return count


def brute_force(n: int, rows: tuple[int, ...]) -> tuple[Fraction | None, int, int]:
    """(toughness or None when complete, independence number, connectivity)
    of a connected graph, by trying every vertex subset."""
    best_tau = None
    kappa = n - 1
    alpha = 0
    for s in range(1 << n):
        size = s.bit_count()
        if size > alpha and all(not rows[v] & s for v in range(n) if s >> v & 1):
            alpha = size
        if 1 <= size <= n - 2:
            omega = component_count(n, rows, s)
            if omega >= 2:
                kappa = min(kappa, size)
                tau = Fraction(size, omega)
                if best_tau is None or tau < best_tau:
                    best_tau = tau
    return best_tau, alpha, kappa


def _mask(vertices, n: int) -> int:
    if len(set(vertices)) != len(vertices) or not all(0 <= v < n for v in vertices):
        raise ValueError(f"bad vertex list {vertices}")
    return sum(1 << v for v in vertices)


def _one_record(output: list, line: str) -> dict:
    code, stdout, stderr = output
    if code != 0 or stderr:
        raise ValueError(f"exit code {code}, stderr {stderr.strip()[:200]!r}")
    records = stdout.splitlines()
    if len(records) != 1:
        raise ValueError(f"expected one record, got {len(records)}")
    record = json.loads(records[0])
    if record.get("graph6") != line:
        raise ValueError(f"record is for {record.get('graph6')!r}")
    return record


def check_invariants(line: str, outputs: list) -> str | None:
    """Re-verify the tough/alpha/kappa certificates for one graph; None if all hold."""
    n, rows = decode_graph6(line)
    complete = all(rows[v].bit_count() == n - 1 for v in range(n))
    try:
        tough, alpha, kappa = (_one_record(out, line) for out in outputs)
        if tough["tau"] == "inf":
            if not complete:
                raise ValueError("tau reported infinite for a non-complete graph")
        else:
            cut = _mask(tough["cut"], n)
            omega = component_count(n, rows, cut)
            if not (omega == tough["omega"] == tough["tau_den"] >= 2
                    and cut.bit_count() == tough["tau_num"]
                    and tough["tau"] == str(Fraction(tough["tau_num"], tough["tau_den"]))):
                raise ValueError(f"toughness certificate does not hold: {tough}")
        witness = _mask(alpha["witness"], n)
        if witness.bit_count() != alpha["alpha"] or any(
                rows[v] & witness for v in range(n) if witness >> v & 1):
            raise ValueError(f"independence witness does not hold: {alpha}")
        if kappa["separator"] is None:
            if not complete or kappa["kappa"] != n - 1:
                raise ValueError(f"no separator for a non-complete graph: {kappa}")
        else:
            sep = _mask(kappa["separator"], n)
            if sep.bit_count() != kappa["kappa"] or component_count(n, rows, sep) < 2:
                raise ValueError(f"separator does not disconnect: {kappa}")
    except (ValueError, KeyError, TypeError) as exc:
        return f"{line}: {exc}"
    return None


def check_brute_force(line: str, outputs: list, truth: tuple) -> str | None:
    """Compare the reported (tau, alpha, kappa) with ``brute_force``'s; None if
    they agree.  Call only for graphs that passed ``check_invariants``."""
    got = [json.loads(out[1]) for out in outputs]
    reported = (None if got[0]["tau"] == "inf" else Fraction(got[0]["tau"]),
                got[1]["alpha"], got[2]["kappa"])
    if reported != truth:
        return f"{line}: reported (tau, alpha, kappa) {reported}, brute force {truth}"
    return None


def check_sweep(lines: list[str], output: list) -> list[str]:
    """Gate one `verify` call on a batch; returns one reason per failed graph.

    The bounds are theorems, so any violation record or diagnostic is a
    failure, and so is a summary that did not check every graph.
    """
    code, stdout, stderr = output
    batch = set(lines)
    failed: dict[str, str] = {}
    for text in stdout.splitlines():
        try:
            record = json.loads(text)
        except ValueError:
            record = None
        if not isinstance(record, dict):
            record = {}
        g6 = record.get("graph6")
        if record.get("kind") != "interesting" or g6 not in batch:
            failed.setdefault(str(g6), f"{g6}: record {text}")
    *diagnostics, summary = stderr.splitlines() or [""]
    for text in diagnostics:
        failed.setdefault(text, f"diagnostic {text}")
    try:
        checked = json.loads(summary)["graphs_checked"]
    except (ValueError, KeyError, TypeError):
        checked = None
    if checked != len(lines) or code not in (0, 1):
        return [f"{g6}: exit code {code}, summary {summary[:200]!r}" for g6 in lines]
    return list(failed.values())


def records_digest(output: list) -> str:
    """sha256 of one query's stdout records."""
    return hashlib.sha256("".join(out[1] for out in output).encode()).hexdigest()
