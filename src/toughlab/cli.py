"""Command-line front end.

Subcommands: tough, alpha, kappa, spectra, bounds, extremal, gen, verify.
Graphs come from --file or standard input, as graph6 lines (default) or a
single whitespace edge list (--format edges).  Results stream as JSON lines
on stdout; human-readable tables with --table; summaries go to stderr.

Exit codes: 0 clean, 1 sweep violations (or a strict-mode parse failure),
2 usage or I/O errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from typing import Iterator

from .bounds import CSV_COLUMNS
from .extremal import build_extremal
from .formats import (
    GENERATED_MAX_N,
    CorpusStream,
    FormatError,
    parse_edge_list,
    parse_graph6,
    write_graph6,
)
from .graphs import Graph, vertices_of
from .invariants import independence_number, toughness, vertex_connectivity
from .spectra import spectral_summary
from .sweep import (
    CHECK_NAMES,
    DEFAULT_CHECKS,
    GraphFacts,
    SweepConfig,
    SweepConfigError,
    bound_report,
    sweep,
)


def _add_input_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--file", help="input path (default: standard input)")
    parser.add_argument(
        "--format", choices=("graph6", "edges"), default="graph6",
        help="graph6 lines or one whitespace edge list")
    parser.add_argument("--table", action="store_true", help="human-readable output")


def _numbered_lines(args) -> Iterator[tuple[int, str]]:
    """(line number, line) from --file or standard input, read as consumed."""
    source = open(args.file, encoding="utf-8") if args.file else contextlib.nullcontext(sys.stdin)
    with source as fh:
        yield from enumerate(fh, 1)


def _input_graphs(args) -> Iterator[tuple[str, Graph]]:
    if args.format == "edges":
        g = parse_edge_list("".join(line for _, line in _numbered_lines(args)))
        yield write_graph6(g), g
        return
    for _, line in _numbered_lines(args):
        if line.strip():
            g = parse_graph6(line)
            yield line.strip(), g


def _emit(args, record: dict) -> None:
    if args.table:
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


def _cmd_tough(args) -> int:
    for g6, g in _input_graphs(args):
        cert = toughness(g)
        _emit(args, {
            "graph6": g6,
            "tau": "inf" if cert.infinite else str(cert.value),
            "tau_num": cert.tau_num,
            "tau_den": cert.tau_den,
            "cut": _vertex_list(cert.cut),
            "omega": cert.omega,
        })
    return 0


def _cmd_alpha(args) -> int:
    for g6, g in _input_graphs(args):
        cert = independence_number(g)
        _emit(args, {"graph6": g6, "alpha": cert.alpha,
                     "witness": _vertex_list(cert.witness)})
    return 0


def _cmd_kappa(args) -> int:
    for g6, g in _input_graphs(args):
        cert = vertex_connectivity(g)
        _emit(args, {"graph6": g6, "kappa": cert.kappa,
                     "separator": _vertex_list(cert.separator)})
    return 0


def _cmd_spectra(args) -> int:
    for g6, g in _input_graphs(args):
        summary = spectral_summary(g)
        _emit(args, {
            "graph6": g6,
            "n": g.n,
            "m": g.m,
            "adjacency": list(summary.adjacency_eigs),
            "laplacian": list(summary.laplacian_eigs),
            "normalized": list(summary.normalized_eigs),
            "xi": summary.xi,
            "lambda": summary.lambda_reg,
        })
    return 0


def _cmd_bounds(args) -> int:
    if args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(CSV_COLUMNS)
        for _, g in _input_graphs(args):
            writer.writerow(bound_report(g).to_csv_row())
        return 0
    for _, g in _input_graphs(args):
        _emit(args, bound_report(g).to_json_dict())
    return 0


def _cmd_extremal(args) -> int:
    if args.h_graph6:
        if args.n is None:
            print("error: --n is required with --h-graph6", file=sys.stderr)
            return 2
        base = parse_graph6(args.h_graph6)
        g = build_extremal(base, args.n)
        g6 = write_graph6(g)
        record = {"graph6": g6, "delta": base.n, "n": args.n}
        record.update(_detect_record(g6, g))
        _emit(args, record)
        return 0
    for g6, g in _input_graphs(args):
        record = {"graph6": g6}
        record.update(_detect_record(g6, g))
        _emit(args, record)
    return 0


def _detect_record(g6: str, g: Graph) -> dict:
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


def _cmd_gen(args) -> int:
    stream = CorpusStream.generated(args.n, connected_only=args.connected)
    for g in stream:
        print(write_graph6(g))
    return 0


def _cmd_verify(args) -> int:
    if args.checks == "all":
        checks = CHECK_NAMES
    else:
        checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    if args.gen is not None:
        stream = CorpusStream.generated(args.gen, connected_only=args.connected)
        corpus_id = stream.source
        lines = ((i + 1, write_graph6(g)) for i, g in enumerate(stream))
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
        report = sweep(config, lines)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for v in report.violations:
        print(json.dumps({"kind": "violation", "graph6": v.graph6,
                          "check": v.check, "lhs": v.lhs, "rhs": v.rhs}))
    for rec in report.interesting:
        print(json.dumps({"kind": "interesting", "graph6": rec.graph6, "tag": rec.tag}))
    for d in report.diagnostics:
        print(f"line {d.lineno}: {d.message}", file=sys.stderr)
    print(report.summary_line(), file=sys.stderr)
    return 1 if report.violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toughlab",
        description="Exact toughness, spectra, and spectral-bound certification for small graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, blurb in (
        ("tough", _cmd_tough, "exact toughness with an optimal cut certificate"),
        ("alpha", _cmd_alpha, "exact independence number with witness"),
        ("kappa", _cmd_kappa, "exact vertex connectivity with separator"),
        ("spectra", _cmd_spectra, "adjacency / Laplacian / normalized spectra"),
    ):
        p = sub.add_parser(name, help=blurb)
        _add_input_args(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("bounds", help="full per-graph bound report")
    _add_input_args(p)
    p.add_argument("--csv", action="store_true", help="CSV output with the documented column order")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("extremal", help="build or detect the extremal join family")
    _add_input_args(p)
    p.add_argument("--h-graph6", help="graph6 of the base graph; build mode")
    p.add_argument("--n", type=int, help="total order of the built join")
    p.set_defaults(fn=_cmd_extremal)

    p = sub.add_parser("gen", help="emit a labeled corpus as graph6 lines")
    p.add_argument("--n", type=int, required=True,
                   help=f"vertex count, 1..{GENERATED_MAX_N}")
    p.add_argument("--connected", action="store_true", help="connected graphs only")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("verify", help="sweep a corpus against the inequality checks")
    p.add_argument("--file", help="graph6 corpus path (default: standard input)")
    p.add_argument("--gen", type=int, help="sweep a generated corpus of this order instead")
    p.add_argument("--connected", action="store_true",
                   help="with --gen: connected graphs only")
    p.add_argument("--checks", default=",".join(DEFAULT_CHECKS),
                   help="comma-separated check names, or 'all'")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--tol", type=float, default=1e-7, help="inequality slack")
    p.add_argument("--eq-tol", type=float, default=1e-7, help="equality detection window")
    p.add_argument("--strict", action="store_true", help="abort on malformed corpus lines")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FormatError, SweepConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
