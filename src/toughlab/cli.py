"""Command-line front end.

Subcommands: tough, alpha, kappa, spectra, bounds, extremal, gen, verify.
Graphs come from --file or standard input, as graph6 lines (default) or a
single whitespace edge list (--format edges).  Results stream as JSON lines
on stdout; human-readable tables with --table; summaries go to stderr.

Exit codes: 0 clean, 1 sweep violations (or the diagnostic that stops a
strict-mode sweep), 2 usage, input or I/O errors, or a per-graph command's
bad line: every command reports one as ``line N: message`` and reads on;
141 (128 + SIGPIPE) when the reader of stdout closes it, as in ``| head``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
from typing import Iterator

from .bounds import (
    EPS_EQ,
    algebraic_connectivity_cap,
    degree_toughness_terms,
    regular_toughness_bounds,
    spectral_toughness_term,
)
from .extremal import build_extremal
from .formats import (
    GENERATED_MAX_N,
    FormatError,
    enumerate_labeled,
    parse_edge_list,
    parse_graph6,
    write_graph6,
)
from .graphs import Graph, is_connected, vertices_of
from .invariants import (
    ToughnessCertificate,
    independence_number,
    toughness,
    vertex_connectivity,
)
from .spectra import ConvergenceError, SpectralSummary, adjacency_spectrum
from .sweep import (
    CHECK_NAMES,
    DEFAULT_CHECKS,
    Diagnostic,
    GraphFacts,
    Record,
    SweepConfig,
    SweepConfigError,
    Violation,
    sweep,
)

# the keys of a ``bounds`` record in order, and its CSV header
BOUNDS_COLUMNS = (
    "graph6", "n", "m", "delta", "Delta", "tau", "inv_max_degree", "degree_sum_term",
    "spectral_term", "lap_product_bound", "lap_gap_bound", "brouwer_bound",
    "brouwer_strict_bound", "alon_bound", "connectivity_cap",
    "equality_lap_product", "equality_lap_gap")


def _add_input_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--file", help="input path (default: standard input)")
    parser.add_argument(
        "--format", choices=("graph6", "edges"), default="graph6",
        help="graph6 lines or one whitespace edge list")
    parser.add_argument("--table", action="store_true", help="human-readable output")


def _numbered_lines(args) -> Iterator[tuple[int, str]]:
    """(line number, line) from --file or standard input, read as consumed.
    A byte that is not UTF-8 decodes to a lone surrogate, which no parser
    accepts, so it makes its own line a bad line and not the whole input."""
    if args.file:
        source = open(args.file, encoding="utf-8", errors="surrogateescape")
    else:
        if hasattr(sys.stdin, "reconfigure"):
            sys.stdin.reconfigure(errors="surrogateescape")
        source = contextlib.nullcontext(sys.stdin)
    with source as fh:
        yield from enumerate(fh, 1)


def _graph_record(record, disconnected: str | None, g6: str, g: Graph) -> list[dict]:
    """A per-graph command's one record.  No command reports on n = 0, and one
    with a ``disconnected`` message makes a disconnected graph a bad line."""
    if g.n < 1:
        raise FormatError("the graph has no vertices")
    if disconnected is not None and not is_connected(g):
        raise FormatError(disconnected)
    return [{"graph6": g6, **record(g6, g)}]


def _print_diagnostic(diagnostic: Diagnostic) -> None:
    print(f"line {diagnostic.lineno}: {diagnostic.message}", file=sys.stderr)


def _emit(args, record: dict | Diagnostic) -> None:
    if type(record) is Diagnostic:
        _print_diagnostic(record)
    elif args.csv:
        # the csv module writes None as an empty cell
        csv.writer(sys.stdout).writerow(
            int(v) if isinstance(v, bool) else v for v in record.values())
    elif args.table:
        for key, value in record.items():
            print(f"{key}: {_table_text(value)}")
        print()
    else:
        print(json.dumps(record))


def _table_text(value) -> str:
    if isinstance(value, float):
        return format(value, ".10g")
    if isinstance(value, list):
        return "[" + ", ".join(_table_text(v) for v in value) + "]"
    return str(value)


def _vertex_list(mask: int | None) -> list[int] | None:
    return None if mask is None else vertices_of(mask)


def _tau_text(cert: ToughnessCertificate) -> str:
    return "inf" if cert.infinite else str(cert.value)


def _tough_record(g6: str, g: Graph) -> dict:
    cert = toughness(g)
    return {
        "tau": _tau_text(cert),
        "tau_num": cert.tau_num,
        "tau_den": cert.tau_den,
        "cut": _vertex_list(cert.cut),
        "omega": cert.omega,
    }


def _alpha_record(g6: str, g: Graph) -> dict:
    cert = independence_number(g)
    return {"alpha": cert.alpha, "witness": _vertex_list(cert.witness)}


def _kappa_record(g6: str, g: Graph) -> dict:
    cert = vertex_connectivity(g)
    return {"kappa": cert.kappa, "separator": _vertex_list(cert.separator)}


def _spectra_record(g6: str, g: Graph) -> dict:
    if g.n == 1:
        # xi and lambda read a second eigenvalue
        return {"n": 1, "m": 0, "adjacency": [0.0], "laplacian": [0.0],
                "normalized": [0.0], "xi": None, "lambda": None}
    summary = SpectralSummary(g)
    return {
        "n": g.n,
        "m": g.m,
        "adjacency": adjacency_spectrum(g),
        "laplacian": list(summary.laplacian_eigs),
        "normalized": list(summary.normalized_eigs),
        "xi": summary.xi,
        "lambda": summary.lambda_reg,
    }


def _bounds_record(g6: str, g: Graph) -> dict:
    """Every bound value, with the equality flags against exact toughness,
    for a connected graph.  Undefined and infinite bounds are None."""
    facts = GraphFacts(g6, g)
    dmax, dmin, summary = facts.dmax, facts.dmin, facts.summary
    terms, lap, reg = (None,) * 3, (None,) * 2, (None,) * 3
    cap, equalities = None, (False, False)
    if summary is not None:
        # connected with n >= 2, so dmax >= 1 and xi > 0
        terms = (*degree_toughness_terms(g.n, dmax, dmin),
                 spectral_toughness_term(dmax, dmin, summary.xi))
        lap = facts.lap_bounds
        if summary.lambda_reg is not None:
            reg = regular_toughness_bounds(dmax, summary.lambda_reg)
    if facts.bounded:
        cap = algebraic_connectivity_cap(summary.laplacian_radius, facts.cert.value)
        equalities = facts.lap_equalities(EPS_EQ)
    values = (g.n, g.m, dmin, dmax, _tau_text(facts.cert), *terms, *lap, *reg, cap,
              *equalities)
    return {key: None if isinstance(v, float) and not math.isfinite(v) else v
            for key, v in zip(BOUNDS_COLUMNS[1:], values)}


def _extremal_record(g6: str, g: Graph) -> dict:
    facts = GraphFacts(g6, g)
    witness = facts.witness
    out: dict = {"detected": witness is not None}
    if witness is not None:
        out["witness_delta"] = witness.delta
        out["independent_part"] = vertices_of(witness.independent_part)
        out["base_graph6"] = write_graph6(witness.base_h)
        out["eigen_condition_ok"] = witness.eigen_condition_ok
    if facts.bounded:
        out.update(facts.verdict()._asdict())
    return out


def _cmd_records(args) -> int:
    """One record per input graph; exit 2 after any bad line."""
    lines = _numbered_lines(args)
    if args.format == "edges":
        lines = [(1, write_graph6(parse_edge_list("".join(line for _, line in lines))))]
    report = sweep(SweepConfig(), lines, functools.partial(_emit, args),
                   functools.partial(_graph_record, args.record, args.disconnected))
    return 2 if report.diagnostics else 0


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_bounds(args) -> int:
    if args.csv:
        if args.table:
            return _usage_error("--csv and --table cannot be combined")
        csv.writer(sys.stdout).writerow(BOUNDS_COLUMNS)
    return _cmd_records(args)


def _cmd_extremal(args) -> int:
    if not args.h_graph6:
        if args.n is not None:
            return _usage_error("--n needs --h-graph6")
        return _cmd_records(args)
    if args.n is None:
        return _usage_error("--n is required with --h-graph6")
    if args.file or args.format != "graph6":
        return _usage_error("--h-graph6 builds its graph and reads no input")
    base = parse_graph6(args.h_graph6)
    g = build_extremal(base, args.n)
    g6 = write_graph6(g)
    _emit(args, {"graph6": g6, "delta": base.n, "n": args.n, **_extremal_record(g6, g)})
    return 0


def _cmd_gen(args) -> int:
    for g in enumerate_labeled(args.n, connected_only=args.connected):
        print(write_graph6(g))
    return 0


def _cmd_verify(args) -> int:
    if args.checks == "all":
        checks = CHECK_NAMES
    else:
        checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    if args.connected and args.gen is None:
        return _usage_error("--connected needs --gen")
    if args.gen is not None:
        graphs = enumerate_labeled(args.gen, connected_only=args.connected)
        corpus_id = f"gen:n={args.gen}" + (":connected" if args.connected else "")
        lines = ((i, write_graph6(g)) for i, g in enumerate(graphs, 1))
    else:
        corpus_id = args.file or "<stdin>"
        lines = _numbered_lines(args)
    config = SweepConfig(
        checks=checks,
        tol=args.tol,
        eps_eq=args.eq_tol,
        jobs=args.jobs,
        strict=args.strict,
        corpus_id=corpus_id,
    )
    try:
        report = sweep(config, lines, _print_sweep_record)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.summary_line(), file=sys.stderr)
    return 1 if report.violations else 0


def _print_sweep_record(record: Record | Diagnostic) -> None:
    """Records as JSON lines on stdout, diagnostics on stderr."""
    if type(record) is Diagnostic:
        _print_diagnostic(record)
    else:
        kind = "violation" if type(record) is Violation else "interesting"
        print(json.dumps({"kind": kind, **record._asdict()}))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared by every ``main``
    call; ``parse_args`` keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="toughlab",
        description="Exact toughness, spectra, and spectral-bound certification for small graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    per_graph = {}
    for name, record, disconnected, blurb in (
        ("tough", _tough_record, "toughness requires a connected graph",
         "exact toughness with an optimal cut certificate"),
        ("alpha", _alpha_record, None, "exact independence number with witness"),
        ("kappa", _kappa_record, "vertex connectivity requires a connected graph",
         "exact vertex connectivity with separator"),
        ("spectra", _spectra_record, None, "adjacency / Laplacian / normalized spectra"),
        ("bounds", _bounds_record, "bound reports require a connected graph",
         "full per-graph bound report"),
        ("extremal", _extremal_record, None, "build or detect the extremal join family"),
    ):
        p = per_graph[name] = sub.add_parser(name, help=blurb)
        _add_input_args(p)
        p.set_defaults(fn=_cmd_records, record=record, disconnected=disconnected, csv=False)

    p = per_graph["bounds"]
    p.add_argument("--csv", action="store_true", help="CSV output with the documented column order")
    p.set_defaults(fn=_cmd_bounds)

    p = per_graph["extremal"]
    p.add_argument("--h-graph6", help="graph6 of the base graph; build mode")
    p.add_argument("--n", type=int, help="total order of the built join")
    p.set_defaults(fn=_cmd_extremal)

    p = sub.add_parser("gen", help="emit a labeled corpus as graph6 lines")
    p.add_argument("--n", type=int, required=True,
                   help=f"vertex count, 1..{GENERATED_MAX_N}")
    p.add_argument("--connected", action="store_true", help="connected graphs only")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("verify", help="sweep a corpus against the inequality checks")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--file", help="graph6 corpus path (default: standard input)")
    source.add_argument("--gen", type=int, help="sweep a generated corpus of this order instead")
    p.add_argument("--connected", action="store_true",
                   help="with --gen: connected graphs only")
    p.add_argument("--checks", default=",".join(DEFAULT_CHECKS),
                   help="comma-separated check names, or 'all'")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--tol", type=float, default=SweepConfig.tol, help="inequality slack")
    p.add_argument("--eq-tol", type=float, default=SweepConfig.eps_eq,
                   help="equality detection window")
    p.add_argument("--strict", action="store_true",
                   help="stop at the first line that cannot be parsed or evaluated")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()
        return status
    except (FormatError, SweepConfigError, ValueError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
