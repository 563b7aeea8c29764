"""Sweep engine determinism and the command-line interface."""

import contextlib
import importlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import toughlab
from toughlab import (
    FormatError,
    complete_graph,
    disjoint_union,
    empty_graph,
    parse_graph6,
    path_graph,
    spectra,
    star_graph,
    write_graph6,
)
from toughlab.cli import main
from toughlab.formats import enumerate_labeled, write_edge_list
from toughlab.graphs import is_complete
from toughlab.sweep import (
    CHECK_NAMES,
    Diagnostic,
    Interesting,
    SweepConfig,
    SweepConfigError,
    SweepReport,
    evaluate_graph,
    sweep,
)

# the package exports the function `sweep` under the submodule's name
SWEEP_MODULE = importlib.import_module("toughlab.sweep")


def corpus_lines(n, connected=True):
    graphs = enumerate_labeled(n, connected_only=connected)
    return [(i + 1, write_graph6(g)) for i, g in enumerate(graphs)]


def swept(config, lines):
    """(report, every record the sweep emitted, in order)."""
    records = []
    return sweep(config, lines, records.append), records


def test_sweep_clean_corpus_all_checks():
    report, records = swept(SweepConfig(checks=CHECK_NAMES, corpus_id="gen:n=4:connected"),
                            corpus_lines(4))
    assert report.graphs_checked == 38
    assert report.violations == report.diagnostics == 0
    assert report.interesting == len(records)
    assert all(type(r) is Interesting for r in records)
    assert any(r.tag == "lap-product-equality" for r in records)


def test_sweep_single_complete_graph():
    report, _ = swept(SweepConfig(corpus_id="k4"), [(1, "C~")])
    assert report.graphs_checked == 1
    assert report.violations == 0


def test_evaluate_graph_alone_decides_each_check_domain(monkeypatch):
    """No check body runs on a graph outside its domain: the toughness-side
    checks need a connected non-complete graph, mixing and alpha an edge."""
    called = []

    def recorded(name, check):
        def wrapper(*args):
            called.append((args[0].g6, name))
            return check(*args)
        return wrapper

    needs_of = {}
    for name, (check, needs) in SWEEP_MODULE.CHECKS.items():
        needs_of[name] = needs
        monkeypatch.setitem(SWEEP_MODULE.CHECKS, name, (recorded(name, check), needs))
    assert set(needs_of.values()) == {"bounded", "has_edge"}
    k2_k1 = write_graph6(disjoint_union(complete_graph(2), empty_graph(1)))
    k4, p4 = write_graph6(complete_graph(4)), write_graph6(path_graph(4))
    for g6 in ("?", "@", "A?", k2_k1, k4, p4):
        evaluate_graph(g6, parse_graph6(g6), CHECK_NAMES, 1e-7, 1e-7)
    assert sorted(called) == sorted(
        [(p4, name) for name in CHECK_NAMES]
        + [(g6, name) for g6 in (k2_k1, k4) for name in CHECK_NAMES
           if needs_of[name] == "has_edge"])


def test_summary_line_keys_and_rounding():
    report = SweepReport("c", 1, 2, 3, 4, 1.23456)
    assert report.summary_line() == (
        '{"corpus_id": "c", "graphs_checked": 1, "violations": 2, "interesting": 3, '
        '"diagnostics": 4, "wall_time": 1.235}')


def test_sweep_reports_bad_lines_and_continues():
    lines = [(1, "C~"), (2, "!!"), (3, "Cl")]
    report, records = swept(SweepConfig(corpus_id="mixed"), lines)
    assert report.graphs_checked == 2
    assert report.diagnostics == 1
    assert [r.lineno for r in records if type(r) is Diagnostic] == [2]


def test_sweep_strict_mode_raises():
    lines = [(1, "C~"), (2, "!!")]
    with pytest.raises(FormatError, match="line 2"):
        swept(SweepConfig(corpus_id="mixed", strict=True), lines)


def test_sweep_config_validation():
    with pytest.raises(SweepConfigError):
        SweepConfig(checks=()).validate()
    with pytest.raises(SweepConfigError):
        SweepConfig(checks=("nope",)).validate()
    with pytest.raises(SweepConfigError):
        SweepConfig(jobs=0).validate()


def test_mixing_gate_rejects_large_graphs():
    # P11 on line 5, between the four connected 3-vertex graphs twice over
    good = corpus_lines(3)
    lines = good + [(5, write_graph6(path_graph(11)))] + [(i + 5, g6) for i, g6 in good]
    config = SweepConfig(checks=("mixing",), tol=-0.5)
    _, want = swept(config, good + good)
    assert want
    for jobs in (1, 2):
        report, records = swept(replace(config, jobs=jobs), lines)
        diagnostics = [r for r in records if type(r) is Diagnostic]
        assert [d.lineno for d in diagnostics] == [5]
        assert diagnostics[0].message.startswith("mixing check caps at n = 10")
        assert [r for r in records if type(r) is not Diagnostic] == want
        assert report.graphs_checked == 8 and report.diagnostics == 1
        with pytest.raises(FormatError, match="^line 5: mixing check caps"):
            swept(replace(config, jobs=jobs, strict=True), lines)


def test_an_eigensolver_failure_becomes_a_diagnostic(monkeypatch):
    real = spectra.laplacian_spectrum
    bad = path_graph(4)

    def laplacian_spectrum(g):
        if g == bad:
            raise spectra.ConvergenceError("no convergence after 100 sweeps")
        return real(g)

    monkeypatch.setattr(spectra, "laplacian_spectrum", laplacian_spectrum)
    good = [write_graph6(star_graph(3)), "Cl"]
    lines = [(1, good[0]), (2, write_graph6(bad)), (3, good[1])]
    report, records = swept(SweepConfig(tol=-5), lines)
    assert report.graphs_checked == 2 and report.diagnostics == 1
    assert [r for r in records if type(r) is Diagnostic] == [
        Diagnostic(2, "no convergence after 100 sweeps")]
    assert {r.graph6 for r in records if type(r) is not Diagnostic} == set(good)


def counted_solves(monkeypatch) -> Counter:
    """Count the Laplacian ("L") and normalized Laplacian ("N") solves."""
    calls = Counter()
    for key, name in (("L", "laplacian_spectrum"), ("N", "normalized_laplacian_spectrum")):
        def solve(g, key=key, real=getattr(spectra, name)):
            calls[key] += 1
            return real(g)
        monkeypatch.setattr(spectra, name, solve)
    return calls


def seeded_connected_lines(n, count, seed):
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    lines = []
    while len(lines) < count:
        mask = rng.getrandbits(len(pairs))
        g = toughlab.Graph.from_edges(n, [p for k, p in enumerate(pairs) if mask >> k & 1])
        if toughlab.is_connected(g):
            lines.append((len(lines) + 1, write_graph6(g)))
    return lines


def test_each_spectrum_is_solved_only_where_a_check_reads_it(monkeypatch, capsys):
    calls = counted_solves(monkeypatch)
    lines = seeded_connected_lines(7, 1000, seed=1)
    # default verify: the Laplacian on every graph, the normalized one only
    # where the cut floor on xi leaves tough-lower or alpha-mixing open
    report, _ = swept(SweepConfig(), lines)
    assert report.graphs_checked == 1000 and calls["L"] == 1000
    assert calls["N"] <= 150
    for checks in (("cut-partition",), ("mixing",)):
        calls.clear()
        swept(SweepConfig(checks=checks), lines[:100])
        assert calls == {"cut-partition": {"L": 100}, "mixing": {"N": 100}}[checks[0]]
    calls.clear()
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(line + "\n" for _, line in lines[:100])))
    assert main(["extremal"]) == 0
    assert calls == {"L": 100} and len(capsys.readouterr().out.splitlines()) == 100
    # an edgeless graph solves nothing
    calls.clear()
    swept(SweepConfig(checks=CHECK_NAMES), [(1, write_graph6(empty_graph(5)))])
    assert not calls


def test_a_normalized_solve_failure_becomes_a_diagnostic_under_mixing(monkeypatch):
    real = spectra.normalized_laplacian_spectrum
    bad = path_graph(4)

    def normalized_laplacian_spectrum(g):
        if g == bad:
            raise spectra.ConvergenceError("no convergence after 30 QL iterations")
        return real(g)

    monkeypatch.setattr(spectra, "normalized_laplacian_spectrum", normalized_laplacian_spectrum)
    lines = [(1, write_graph6(star_graph(3))), (2, write_graph6(bad)), (3, "Cl")]
    report, records = swept(SweepConfig(checks=("mixing",), tol=-5), lines)
    assert report.graphs_checked == 2 and report.diagnostics == 1
    assert [r for r in records if type(r) is Diagnostic] == [
        Diagnostic(2, "no convergence after 30 QL iterations")]


def test_parallel_sweep_is_deterministic():
    lines = corpus_lines(5) + [(729, "!!")]
    rep1, records1 = swept(SweepConfig(checks=CHECK_NAMES, jobs=1, corpus_id="c"), lines)
    rep2, records2 = swept(SweepConfig(checks=CHECK_NAMES, jobs=2, corpus_id="c"), lines)
    assert records1 and records1 == records2
    assert rep1.diagnostics == 1
    assert replace(rep1, wall_time=0) == replace(rep2, wall_time=0)


def test_sweep_emits_each_line_before_reading_the_next():
    # every one of these 1,000 graphs yields a tough-lower violation at tol -5,
    # and at --jobs 1 it reaches emit before the next line is read
    graphs = (g for n in (5, 6) for g in enumerate_labeled(n, connected_only=True) if not is_complete(g))
    read = 0
    seen_at_emit = []

    def lines():
        nonlocal read
        for lineno, g in enumerate(itertools.islice(graphs, 1000), 1):
            read += 1
            yield lineno, write_graph6(g)

    report = sweep(SweepConfig(checks=("tough-lower",), tol=-5), lines(),
                   lambda record: seen_at_emit.append(read))
    assert report.graphs_checked == report.violations == 1000
    assert seen_at_emit == list(range(1, 1001))


def test_a_strict_sweep_reads_no_line_after_the_bad_one():
    read = []

    def lines():
        for lineno, g6 in corpus_lines(5)[:10]:
            read.append(lineno)
            yield lineno, "!!" if lineno == 4 else g6

    records = []
    with pytest.raises(FormatError, match="^line 4:"):
        sweep(SweepConfig(strict=True, tol=-5), lines(), records.append)
    assert read == [1, 2, 3, 4]
    assert {r.graph6 for r in records} == {g6 for _, g6 in corpus_lines(5)[:3]}


def test_strict_mode_emits_the_records_before_the_bad_line():
    # the bad line sits inside the second chunk, with good lines after it
    # in that chunk and in the next one
    good = corpus_lines(5)[:700]
    config = SweepConfig(checks=("tough-lower", "alpha-bounds"), tol=-5)
    _, before = swept(config, good[:300])
    lines = good[:300] + [(301, "!!")] + [(lineno + 1, g6) for lineno, g6 in good[300:]]
    assert len({r.graph6 for r in before}) == 300
    for jobs in (1, 2):
        records = []
        with pytest.raises(FormatError, match="^line 301:"):
            sweep(SweepConfig(checks=config.checks, tol=-5, jobs=jobs, strict=True),
                  lines, records.append)
        assert records == before


@pytest.fixture
def pools(monkeypatch):
    """The pool sizes a sweep asks for; its tasks run in-process, so no
    pool starts."""
    requested = []

    class FakeContext:
        def Pool(self, size):
            requested.append(size)
            return contextlib.nullcontext(SimpleNamespace(
                apply_async=lambda fn, args: SimpleNamespace(get=lambda: fn(*args))))

    monkeypatch.setattr(SWEEP_MODULE, "get_context", FakeContext)
    return requested


def test_pool_size_is_capped_by_the_usable_cpus(monkeypatch, pools):
    lines = corpus_lines(5)  # 728 lines, three chunks
    _, want = swept(SweepConfig(jobs=1), lines)
    for cpus, jobs, pool in ((4, 2, [2]), (4, 100_000, [4]), (1, 100_000, [])):
        monkeypatch.setattr(SWEEP_MODULE, "_usable_cpus", lambda: cpus)
        pools.clear()
        assert swept(SweepConfig(jobs=jobs), lines)[1] == want
        assert pools == pool
    monkeypatch.undo()
    assert 1 <= SWEEP_MODULE._usable_cpus() <= (os.cpu_count() or 1)


def test_one_chunk_starts_no_pool(monkeypatch, pools):
    monkeypatch.setattr(SWEEP_MODULE, "_usable_cpus", lambda: 2)
    lines = corpus_lines(5)[:256]
    _, want = swept(SweepConfig(jobs=1), lines)
    assert want and swept(SweepConfig(jobs=2), lines)[1] == want
    assert pools == []
    swept(SweepConfig(jobs=2), corpus_lines(5)[:257])
    assert pools == [2]


def test_parallel_sweep_holds_a_bounded_number_of_chunks(monkeypatch):
    # every line yields a tough-lower violation at tol -5; two workers hold
    # at most 2 x 2 chunks in flight, so emit fires before a sixth chunk is
    # read
    monkeypatch.setattr(SWEEP_MODULE, "_usable_cpus", lambda: 2)
    g6 = write_graph6(path_graph(4))
    read = 0
    seen_at_emit = []

    def lines():
        nonlocal read
        for lineno in range(1, 3001):
            read += 1
            yield lineno, g6

    report = sweep(SweepConfig(checks=("tough-lower",), tol=-5, jobs=2), lines(),
                   lambda record: seen_at_emit.append(read))
    assert report.graphs_checked == report.violations == len(seen_at_emit) == 3000
    assert seen_at_emit[0] <= (2 * 2 + 1) * 256


# the child interpreter imports the same toughlab as the tests, installed or not
CHILD_PATH = os.pathsep.join(filter(None, (
    str(Path(toughlab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))))


def test_a_one_worker_sweep_holds_one_line_of_records():
    # at --tol -0.5 each seeded G(8, 1/2) yields about a thousand mixing
    # violations; holding a 256-line chunk's records took 20 MB
    script = (
        "import contextlib, io, json, os, random, resource, sys\n"
        "from toughlab.cli import main\n"
        "from toughlab.formats import write_graph6\n"
        "from toughlab.graphs import Graph\n"
        "rng = random.Random(8)\n"
        "pairs = [(i, j) for j in range(8) for i in range(j)]\n"
        "masks = [rng.getrandbits(len(pairs)) for _ in range(200)]\n"
        "sys.stdin = io.StringIO(''.join(write_graph6(Graph.from_edges(\n"
        "    8, [p for k, p in enumerate(pairs) if mask >> k & 1])) + '\\n' for mask in masks))\n"
        "err = io.StringIO()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "with open(os.devnull, 'w') as out, contextlib.redirect_stdout(out), \\\n"
        "        contextlib.redirect_stderr(err):\n"
        "    main(['verify', '--checks', 'mixing', '--tol', '-0.5'])\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(json.loads(err.getvalue())['violations'], after - before)\n")
    # ru_maxrss survives exec, so a process started from this one begins at
    # this one's peak; a small launcher gives the measured one its own
    launcher = "import subprocess, sys; sys.exit(subprocess.call([sys.executable, *sys.argv[1:]]))"
    child = subprocess.run([sys.executable, "-c", launcher, "-c", script], capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": CHILD_PATH})
    assert child.returncode == 0, child.stderr
    violations, growth_kb = map(int, child.stdout.split())
    assert violations > 100_000
    assert growth_kb < 5 * 1024


def run_cli(args, stdin_text=""):
    return subprocess.run(
        [sys.executable, "-m", "toughlab", *args],
        input=stdin_text, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": CHILD_PATH})


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "6"],
    ["verify", "--gen", "5", "--checks", "all", "--tol", "-0.5"],
    ["verify", "--gen", "5", "--checks", "all", "--tol", "-0.5", "--jobs", "2"],
], ids=" ".join)
def test_a_reader_that_closes_stdout_early_gets_status_141_and_no_error(argv):
    # as `toughlab ... | head -1`: each stream is far larger than a pipe's
    # buffer, so the writer is still writing when its reader goes away
    child = subprocess.Popen([sys.executable, "-m", "toughlab", *argv], stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": CHILD_PATH})
    assert child.stdout.readline()
    child.stdout.close()
    assert child.wait(timeout=60) == 141
    assert child.stderr.read() == b""
    child.stderr.close()


def test_importing_the_cli_loads_no_multiprocessing():
    # nor does a per-graph command, which runs on the sweep loop
    probe = ("import io, sys, toughlab.cli; print('multiprocessing' in sys.modules); "
             "sys.stdin = io.StringIO('A_\\n'); code = toughlab.cli.main(['tough']); "
             "print(code, 'multiprocessing' in sys.modules)")
    child = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": CHILD_PATH})
    assert child.returncode == 0, child.stderr
    imported, record, ran = child.stdout.splitlines()
    assert (imported, json.loads(record)["graph6"], ran) == ("False", "A_", "0 False")


def test_cli_tough_on_edge_list(petersen):
    proc = run_cli(["tough", "--format", "edges"], write_edge_list(petersen))
    assert proc.returncode == 0
    record = json.loads(proc.stdout.strip())
    assert record["tau"] == "4/3" and record["omega"] == 3
    assert record["cut"] == [0, 1, 2, 3]


def test_cli_bounds_equality_flags(c4):
    proc = run_cli(["bounds"], write_graph6(c4) + "\n")
    record = json.loads(proc.stdout.strip())
    assert record["equality_lap_product"] and record["equality_lap_gap"]


def test_cli_bounds_csv(c4):
    proc = run_cli(["bounds", "--csv"], write_graph6(c4) + "\n")
    header, row = proc.stdout.strip().splitlines()
    assert header.startswith("graph6,n,m,delta,Delta,tau,")
    assert row.split(",")[5] == "1"


def test_cli_extremal_build_roundtrip():
    proc = run_cli(["extremal", "--h-graph6", "A_", "--n", "5"])
    assert proc.returncode == 0
    record = json.loads(proc.stdout.strip())
    assert record["delta"] == 2 and record["detected"]
    assert record["consistent"] and record["structural"]
    # the emitted graph6 parses back to the complete split graph
    from toughlab import parse_graph6, toughness
    from fractions import Fraction
    g = parse_graph6(record["graph6"])
    assert toughness(g).value == Fraction(2, 3)


def test_cli_gen_counts_and_verify_pipeline():
    proc = run_cli(["gen", "--n", "4", "--connected"])
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 38
    verify = run_cli(["verify", "--checks", "all", "--jobs", "2"], proc.stdout)
    assert verify.returncode == 0, verify.stderr
    summary = json.loads(verify.stderr.strip().splitlines()[-1])
    assert summary["graphs_checked"] == 38 and summary["violations"] == 0


def test_cli_verify_generated_corpus():
    proc = run_cli(["verify", "--gen", "3", "--connected"])
    assert proc.returncode == 0
    summary = json.loads(proc.stderr.strip().splitlines()[-1])
    assert summary["graphs_checked"] == 4
    assert summary["corpus_id"] == "gen:n=3:connected"


def test_cli_verify_rejects_file_with_gen():
    proc = run_cli(["verify", "--gen", "3", "--file", "x.g6"])
    assert proc.returncode == 2
    assert proc.stdout == "" and "--file" in proc.stderr


def test_cli_verify_rejects_connected_without_gen():
    proc = run_cli(["verify", "--connected"], "C~\n")
    assert proc.returncode == 2
    assert proc.stdout == "" and "--connected needs --gen" in proc.stderr


def test_cli_verify_bad_line_modes():
    proc = run_cli(["verify"], "C~\n!!\n")
    assert proc.returncode == 0  # diagnostics alone do not fail the sweep
    assert "line 2" in proc.stderr
    strict = run_cli(["verify", "--strict"], "C~\n!!\n")
    assert strict.returncode == 1
    # the records of the lines before the bad one are already printed
    assert strict.stdout == proc.stdout != ""


def test_cli_usage_errors():
    proc = run_cli(["tough", "--format", "nope"])
    assert proc.returncode == 2
    proc = run_cli(["gen", "--n", "9"])
    assert proc.returncode == 2
    proc = run_cli(["verify", "--checks", "bogus"], "C~\n")
    assert proc.returncode == 2
    proc = run_cli(["extremal", "--h-graph6", "A_"])
    assert proc.returncode == 2


def test_cli_reports_an_eigensolver_failure(monkeypatch, capsys):
    def symmetric_eigenvalues(matrix):
        raise spectra.ConvergenceError("no convergence after 100 sweeps")

    monkeypatch.setattr(spectra, "symmetric_eigenvalues", symmetric_eigenvalues)
    for argv in (["spectra"], ["bounds"], ["extremal"]):
        # the one-vertex graph after it needs no eigenvalue
        monkeypatch.setattr("sys.stdin", io.StringIO("@\n"))
        assert main(argv) == 0, argv
        want = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO("Cl\n@\n"))
        assert main(argv) == 2, argv
        assert capsys.readouterr() == (want, "line 1: no convergence after 100 sweeps\n")
    # in a sweep the graph is a diagnostic, which leaves the exit status alone
    monkeypatch.setattr("sys.stdin", io.StringIO("Cl\n"))
    assert main(["verify"]) == 0
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("line 1: no convergence after 100 sweeps\n")


PER_GRAPH_COMMANDS = ("tough", "alpha", "kappa", "spectra", "bounds", "extremal")


def test_cli_rejects_a_graph_with_no_vertices(monkeypatch, capsys):
    # one diagnostic line, with the records of the lines around it
    for command in PER_GRAPH_COMMANDS:
        monkeypatch.setattr("sys.stdin", io.StringIO("A_\n"))
        assert main([command]) == 0
        want = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO("A_\n?\nA_\n"))
        assert main([command]) == 2, command
        assert capsys.readouterr() == (2 * want, "line 2: the graph has no vertices\n")
    # an edge list is a stream of one line
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n"))
    assert main(["tough", "--format", "edges"]) == 2
    assert capsys.readouterr() == ("", "line 1: the graph has no vertices\n")
    # verify counts it as checked, with no record
    monkeypatch.setattr("sys.stdin", io.StringIO("?\n"))
    assert main(["verify", "--checks", "all"]) == 0
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["graphs_checked"] == 1


@pytest.mark.parametrize("argv, text, message", [
    *(([command], "A_\n!!\nA_\n", "invalid graph6 character '!'")
      for command in PER_GRAPH_COMMANDS),
    (["tough"], "A_\nA?\nA_\n", "toughness requires a connected graph"),
    (["kappa"], "A_\nA?\nA_\n", "vertex connectivity requires a connected graph"),
    (["bounds"], "A_\nA?\nA_\n", "bound reports require a connected graph"),
    (["bounds", "--csv"], "A_\nA?\nA_\n", "bound reports require a connected graph"),
], ids=[*PER_GRAPH_COMMANDS, "tough-disconnected", "kappa-disconnected", "bounds-disconnected",
        "bounds-csv-disconnected"])
def test_a_per_graph_command_reports_a_bad_line_and_goes_on(monkeypatch, capsys, argv, text,
                                                            message):
    monkeypatch.setattr("sys.stdin", io.StringIO("A_\n"))
    assert main(argv) == 0
    header, *record = capsys.readouterr().out.splitlines(keepends=True)
    if "--csv" not in argv:
        header, record = "", [header]
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(argv) == 2
    assert capsys.readouterr() == (header + 2 * "".join(record), f"line 2: {message}\n")


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("command", ["verify", "tough"])
def test_a_byte_that_is_not_utf8_makes_only_its_line_bad(tmp_path, command, source):
    # stdin read with a strict decoder, as under a strict locale
    good = [b"Cl", b"A_", b"C~"] * 103
    text = b"\n".join(good[:299] + [b"C\xff"] + good[299:]) + b"\n"
    path = tmp_path / "corpus.g6"
    env = {**os.environ, "PYTHONPATH": CHILD_PATH, "PYTHONIOENCODING": "utf-8:strict"}

    def run(data):
        args = [sys.executable, "-m", "toughlab", command]
        if source == "file":
            path.write_bytes(data)
            return subprocess.run([*args, "--file", str(path)], capture_output=True, env=env)
        return subprocess.run(args, input=data, capture_output=True, env=env)

    want = run(b"\n".join(good) + b"\n")
    got = run(text)
    assert got.stdout == want.stdout and got.stdout
    assert got.stderr.startswith(b"line 300: invalid graph6 character '\\udcff'\n")
    assert got.returncode == {"verify": 0, "tough": 2}[command]


@pytest.mark.parametrize("argv", [
    [command] for command in PER_GRAPH_COMMANDS] + [
    ["bounds", "--csv"], ["tough", "--table"]], ids=" ".join)
def test_a_per_graph_command_on_good_input_exits_0_with_nothing_on_stderr(monkeypatch, capsys,
                                                                          argv):
    # the benchmark's oracle fails any per-graph query that writes to stderr
    monkeypatch.setattr("sys.stdin", io.StringIO("A_\n\nCl\n@\n>>graph6<<C~\n"))
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out and err == ""
    monkeypatch.setattr("sys.stdin", io.StringIO(write_edge_list(path_graph(5))))
    assert main(argv + ["--format", "edges"]) == 0
    out, err = capsys.readouterr()
    assert out and err == ""


def test_a_per_graph_command_prints_each_line_before_reading_the_next(monkeypatch):
    read = 0
    seen_at_write = []

    def lines():
        nonlocal read
        for _ in range(1000):
            read += 1
            yield "Cl\n"

    monkeypatch.setattr("sys.stdin", lines())
    monkeypatch.setattr("sys.stdout", SimpleNamespace(
        write=lambda text: seen_at_write.append(read), flush=lambda: None))
    assert main(["tough"]) == 0
    # print writes each record, then its newline, before the next line is read
    assert seen_at_write == [lineno for lineno in range(1, 1001) for _ in range(2)]


def test_the_cli_caps_at_64_vertices(monkeypatch, capsys):
    # graph6 names 63- and 64-vertex graphs in its long form
    monkeypatch.setattr("sys.stdin", io.StringIO(write_edge_list(path_graph(64))))
    assert main(["kappa", "--format", "edges"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out) == {
        "graph6": write_graph6(path_graph(64)), "kappa": 1, "separator": [1]}
    assert main(["extremal", "--h-graph6", "A_", "--n", "63"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 63
    monkeypatch.setattr("sys.stdin", io.StringIO("65 0 1"))
    for argv, message in ((["kappa", "--format", "edges"], "vertex count 65 outside 0..64"),
                          (["extremal", "--h-graph6", "A_", "--n", "65"],
                           "join order n = 65 exceeds the vertex budget of 64")):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_spectra_table(c4):
    proc = run_cli(["spectra", "--table"], write_graph6(c4) + "\n")
    assert proc.returncode == 0
    assert "xi: 1" in proc.stdout


def test_cli_spectra_of_one_vertex(monkeypatch, capsys):
    # the one-vertex graph does not end the stream
    monkeypatch.setattr("sys.stdin", io.StringIO("@\nCl\n"))
    assert main(["spectra"]) == 0
    out, err = capsys.readouterr()
    single, c4 = map(json.loads, out.splitlines())
    assert err == ""
    assert single == {"graph6": "@", "n": 1, "m": 0, "adjacency": [0.0], "laplacian": [0.0],
                      "normalized": [0.0], "xi": None, "lambda": None}
    assert (c4["graph6"], c4["n"], c4["lambda"]) == ("Cl", 4, pytest.approx(2.0))


@pytest.mark.parametrize("argv, message", [
    (["extremal", "--n", "5"], "--n needs --h-graph6"),
    (["extremal", "--h-graph6", "A_", "--n", "5", "--file", "x.g6"], "reads no input"),
    (["extremal", "--h-graph6", "A_", "--n", "5", "--format", "edges"], "reads no input"),
    (["bounds", "--csv", "--table"], "--csv and --table cannot be combined"),
], ids=["extremal-n-alone", "extremal-build-file", "extremal-build-edges", "bounds-csv-table"])
def test_cli_rejects_options_it_would_ignore(monkeypatch, capsys, argv, message):
    monkeypatch.setattr("sys.stdin", io.StringIO("Cl\n"))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("option, value, message", [
    ("--tol", "nan", "tol must be finite"),
    ("--tol", "inf", "tol must be finite"),
    ("--tol", "-inf", "tol must be finite"),
    ("--eq-tol", "nan", "eps_eq must be finite and >= 0"),
    ("--eq-tol", "-1", "eps_eq must be finite and >= 0"),
    ("--eq-tol", "inf", "eps_eq must be finite and >= 0"),
])
def test_cli_verify_rejects_tolerances_that_decide_nothing(monkeypatch, capsys, option,
                                                           value, message):
    # a NaN slack makes every comparison false, so the sweep would pass
    # anything; a NaN or negative window makes no value equal to itself
    monkeypatch.setattr("sys.stdin", io.StringIO("Cl\nDQc\n"))
    assert main(["verify", "--checks", "all", f"{option}={value}"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}, got {float(value)}\n")


def test_cli_verify_accepts_a_negative_tol_and_a_zero_window(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("Cl\n"))
    assert main(["verify", "--tol=-0.5", "--eq-tol", "0"]) == 1
    out, err = capsys.readouterr()
    assert out and err.startswith("{")


def test_cli_alpha_kappa(petersen):
    text = write_graph6(petersen) + "\n"
    alpha = json.loads(run_cli(["alpha"], text).stdout.strip())
    kappa = json.loads(run_cli(["kappa"], text).stdout.strip())
    assert alpha["alpha"] == 4 and kappa["kappa"] == 3


def test_strict_mode_reports_lowest_bad_line_with_jobs():
    # the first bad line closes a slow 256-line chunk; the second sits alone
    # in the next chunk, which a worker finishes first
    lines = corpus_lines(6)[:255] + [(256, "!!"), (257, "!!")]
    for jobs in (1, 2):
        with pytest.raises(FormatError, match="^line 256:"):
            swept(SweepConfig(jobs=jobs, strict=True), lines)


def test_records_carry_the_graph6_record_without_its_header(monkeypatch):
    for argv in (["tough"], ["alpha"], ["kappa"], ["spectra"], ["bounds"],
                 ["extremal"], ["verify", "--tol", "-5"]):
        monkeypatch.setattr("sys.stdin", io.StringIO(">>graph6<<Cl\n"))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            main(argv)
        records = [json.loads(line) for line in out.getvalue().splitlines()]
        assert records and {r["graph6"] for r in records} == {"Cl"}, argv


def test_the_cached_parser_carries_nothing_between_calls(monkeypatch):
    from toughlab import cli

    text = "".join(g6 + "\n" for _, g6 in corpus_lines(4))
    calls = (
        ["tough", "--table"],
        ["tough"],
        ["tough", "--format", "nope"],
        ["verify", "--checks", "alpha-bounds", "--tol", "-0.5"],
        ["verify"],
    )

    def outputs():
        """(exit code, stdout) of each call, in one process and in order."""
        results = []
        for argv in calls:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = ("exit", exc.code)
            results.append((code, out.getvalue()))
        return results

    cached = outputs()
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cached == outputs()
    table, plain, invalid, custom, default = cached
    assert invalid == (("exit", 2), "")
    assert table[1] != plain[1] and custom[1] != default[1] != ""


def test_cut_partition_equality_follows_eq_tol():
    # P4: the strict grouping {0} | {2, 3} of the cut {1} has |X| = 1 against
    # a cap of about 1.66, inside a window of 1 but not of 1e-7
    p4 = write_graph6(path_graph(4)) + "\n"
    proc = run_cli(["verify", "--checks", "cut-partition"], p4)
    assert proc.returncode == 0 and proc.stdout == ""
    proc = run_cli(["verify", "--checks", "cut-partition", "--eq-tol", "1"], p4)
    assert proc.returncode == 1
    checks = {json.loads(line)["check"] for line in proc.stdout.splitlines()}
    assert "cut-partition-x-equality" in checks
