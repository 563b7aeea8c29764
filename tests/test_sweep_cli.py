"""Sweep engine determinism and the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toughlab
from toughlab import FormatError, path_graph, write_graph6
from toughlab.formats import enumerate_labeled_connected
from toughlab.sweep import (
    CHECK_NAMES,
    SweepConfig,
    SweepConfigError,
    sweep,
)


def corpus_lines(n, connected=True):
    from toughlab.formats import CorpusStream
    stream = CorpusStream.generated(n, connected_only=connected)
    return [(i + 1, write_graph6(g)) for i, g in enumerate(stream)]


def test_sweep_clean_corpus_all_checks():
    report = sweep(SweepConfig(checks=CHECK_NAMES, corpus_id="gen:n=4:connected"),
                   corpus_lines(4))
    assert report.graphs_checked == 38
    assert report.violations == ()
    assert report.diagnostics == ()
    assert any(tag == "lap-product-equality" for _, tag in report.interesting)


def test_sweep_single_complete_graph():
    report = sweep(SweepConfig(corpus_id="k4"), [(1, "C~")])
    assert report.graphs_checked == 1
    assert report.violations == ()


def test_sweep_reports_bad_lines_and_continues():
    lines = [(1, "C~"), (2, "!!"), (3, "Cl")]
    report = sweep(SweepConfig(corpus_id="mixed"), lines)
    assert report.graphs_checked == 2
    assert len(report.diagnostics) == 1
    assert report.diagnostics[0].lineno == 2


def test_sweep_strict_mode_raises():
    from toughlab import FormatError
    lines = [(1, "C~"), (2, "!!")]
    with pytest.raises(FormatError, match="line 2"):
        sweep(SweepConfig(corpus_id="mixed", strict=True), lines)


def test_sweep_config_validation():
    with pytest.raises(SweepConfigError):
        SweepConfig(checks=()).validate()
    with pytest.raises(SweepConfigError):
        SweepConfig(checks=("nope",)).validate()
    with pytest.raises(SweepConfigError):
        SweepConfig(jobs=0).validate()


def test_mixing_gate_rejects_large_graphs():
    lines = [(1, write_graph6(next(iter(enumerate_labeled_connected(7)))))]
    with pytest.raises(SweepConfigError, match="mixing"):
        sweep(SweepConfig(checks=("mixing",)), lines)


def test_parallel_sweep_is_deterministic():
    lines = corpus_lines(5)
    rep1 = sweep(SweepConfig(checks=CHECK_NAMES, jobs=1, corpus_id="c"), lines)
    rep2 = sweep(SweepConfig(checks=CHECK_NAMES, jobs=2, corpus_id="c"), lines)
    assert json.dumps(rep1.records_dict()) == json.dumps(rep2.records_dict())


# the child interpreter imports the same toughlab as the tests, installed or not
CHILD_PATH = os.pathsep.join(filter(None, (
    str(Path(toughlab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))))


def run_cli(args, stdin_text=""):
    return subprocess.run(
        [sys.executable, "-m", "toughlab", *args],
        input=stdin_text, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": CHILD_PATH})


def test_cli_tough_on_edge_list(petersen):
    from toughlab.formats import write_edge_list
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


def test_cli_verify_bad_line_modes():
    proc = run_cli(["verify"], "C~\n!!\n")
    assert proc.returncode == 0  # diagnostics alone do not fail the sweep
    assert "line 2" in proc.stderr
    strict = run_cli(["verify", "--strict"], "C~\n!!\n")
    assert strict.returncode == 1


def test_cli_usage_errors():
    proc = run_cli(["tough", "--format", "nope"])
    assert proc.returncode == 2
    proc = run_cli(["gen", "--n", "9"])
    assert proc.returncode == 2
    proc = run_cli(["verify", "--checks", "bogus"], "C~\n")
    assert proc.returncode == 2
    proc = run_cli(["extremal", "--h-graph6", "A_"])
    assert proc.returncode == 2


def test_cli_spectra_table(c4):
    proc = run_cli(["spectra", "--table"], write_graph6(c4) + "\n")
    assert proc.returncode == 0
    assert "xi: 1" in proc.stdout


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
            sweep(SweepConfig(jobs=jobs, strict=True), lines)


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
