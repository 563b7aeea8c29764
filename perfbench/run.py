"""toughlab benchmark: one seeded workload, measured, with every output checked.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; it imports toughlab from ``src/`` there and
writes its files under ``.bench_work/W/``.  ``--trace 0`` times the
untraced closed loop and reports BENCHMARK.json's end-to-end metrics;
``--trace 1`` runs the traced pass and reports its per-layer metrics.  The
last stdout line is the result object; lines before it are details (the
environment, sample counts, the first failures).  Exits 1 when an output is
wrong and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import corpus
import oracle
from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Claims made with this benchmark must also hold on this seed, which is not
# used while a change is being written.
HELD_OUT_SEED = 7919
SETUP_REPS = 5
# Timings are reported at unit host speed: the speed at which client.py's
# reference kernel takes REFERENCE_S (near its median on a 2-vCPU Intel Xeon
# host, so numbers read close to wall time there).  See NOTES.md.
REFERENCE_S = 0.00075
REFERENCE_WINDOW = 10
THROUGHPUT_WINDOWS = 8
BRUTE_FORCE_MAX_N = 11
CHILD_TIMEOUT_S = 120


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def client(*args: str) -> str:
    try:
        proc = subprocess.run([sys.executable, str(HERE / "client.py"), *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"client {args[0]} ran over {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"client {args[0]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc.stdout


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       platform.processor())
    except OSError:
        cpu = platform.processor()
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "toughlab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "toughlab_commit": git_commit(),
        "toughlab_source_sha256": source.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): p99, or lower when fewer than 1000 samples, so that
    at least 10 samples lie beyond it (nearest rank, never below the median)."""
    xs = sorted(values)
    n = len(xs)
    rank = max(min((99 * n + 99) // 100, n - 10), n // 2 + 1)
    return 100.0 * rank / n, xs[rank - 1]


def scaled(latency: list[float], reference: list[float]) -> list[float]:
    """Each latency times REFERENCE_S over the median reference time of the
    queries within REFERENCE_WINDOW of it."""
    return [t * REFERENCE_S / statistics.median(
                reference[max(0, i - REFERENCE_WINDOW):i + REFERENCE_WINDOW + 1])
            for i, t in enumerate(latency)]


def windowed_rate(w: corpus.Workload, latency: list[float]) -> float:
    """Median graphs/s over THROUGHPUT_WINDOWS consecutive runs of whole input
    cycles, so a stall in one part of the loop does not move the result."""
    cycles = len(latency) // w.cycle
    if cycles < THROUGHPUT_WINDOWS:
        return len(latency) * w.batch / sum(latency)
    bounds = [cycles * k // THROUGHPUT_WINDOWS * w.cycle for k in range(THROUGHPUT_WINDOWS + 1)]
    return statistics.median((hi - lo) * w.batch / sum(latency[lo:hi])
                             for lo, hi in zip(bounds, bounds[1:]))


def phase_s(phase: dict) -> float:
    return sum(scaled(phase["latency_s"], phase["reference_s"]))


class Judge:
    """Checks every query's outputs; collects one reason per wrong graph."""

    def __init__(self, w: corpus.Workload, batches: list[list[str]]) -> None:
        self.w, self.batches = w, batches
        self.attempted = 0
        self.failures: list[str] = []
        self.truth: dict[str, tuple[Fraction | None, int, int]] = {}

    def phase(self, phase: dict) -> None:
        for index, output in zip(phase["queries"], phase["outputs"]):
            lines = self.batches[index]
            self.attempted += len(lines)
            if self.w.kind == "sweep":
                self.failures += oracle.check_sweep(lines, output[0])
                continue
            line = lines[0]
            reason = oracle.check_invariants(line, output)
            if reason is None and corpus.decode_graph6(line)[0] <= BRUTE_FORCE_MAX_N:
                if line not in self.truth:
                    self.truth[line] = oracle.brute_force(*corpus.decode_graph6(line))
                reason = oracle.check_brute_force(line, output, self.truth[line])
            if reason is not None:
                self.failures.append(reason)

    def same_records(self, base: dict, other: dict, what: str) -> None:
        """Per-query stdout sha256 of ``other`` must equal that of ``base``."""
        for k, output in enumerate(other["outputs"]):
            if oracle.records_digest(output) != oracle.records_digest(base["outputs"][k]):
                self.failures += [f"{g6}: records differ in {what}"
                                  for g6 in self.batches[other["queries"][k]]]


def end_to_end(w, judge, workdir, args, setup_reps) -> tuple[dict, dict]:
    client("e2e", "--workload", w.name, "--workdir", str(workdir), "--seconds", str(args.seconds))
    data = json.loads((workdir / "e2e.json").read_text())
    timed = data["timed"]
    judge.phase(timed)
    if "reference" in data:
        judge.same_records(timed, data["reference"], "a --jobs 1 re-run")
    latency = scaled(timed["latency_s"], timed["reference_s"])
    per_graph_ms = [s * 1e3 / w.batch for s in latency]
    pct, p_tail = tail(per_graph_ms)
    # set-up ran just before the loop, so the loop's host speed scales it too
    host_speed = REFERENCE_S / statistics.median(timed["reference_s"])
    wall_setup_s = statistics.median(setup_reps)
    metrics = {
        "graphs_per_s": windowed_rate(w, latency),
        "graph_ms_p50": statistics.median(per_graph_ms),
        "graph_ms_p99": p_tail,
        "setup_s": wall_setup_s * host_speed,
        "peak_rss_mb": data["peak_rss_kb"] / 1024,
    }
    detail = {"queries": len(per_graph_ms), "graphs": timed["graphs"],
              "graph_ms_p99_is_percentile": pct,
              "wall_graphs_per_s": timed["graphs"] / sum(timed["latency_s"]),
              "wall_setup_s": wall_setup_s, "host_speed": host_speed}
    return metrics, detail


def traced(w, judge, workdir, args) -> tuple[dict, dict]:
    client("trace", "--workload", w.name, "--workdir", str(workdir), "--seconds", str(args.seconds))
    data = json.loads((workdir / "trace.json").read_text())
    untraced, tr = data["untraced"], data["traced"]
    untraced_j1 = data.get("untraced_j1", untraced)
    for phase in (untraced, data.get("untraced_j1"), tr):
        if phase is not None:
            judge.phase(phase)
    judge.same_records(untraced, tr, "the traced --jobs 1 pass")
    if "untraced_j1" in data:
        judge.same_records(untraced, untraced_j1, "the untraced --jobs 1 pass")
    trace = json.loads((workdir / "spans.json").read_text())
    # shares divide span time by the traced wall time, both unscaled
    metrics = layer_metrics(trace, sum(tr["latency_s"]), tr["graphs"])
    metrics["trace.overhead"] = phase_s(tr) / phase_s(untraced_j1) - 1
    # untraced --jobs 2 over --jobs 1 on the same batches; only the pool workload has one
    metrics["sweep.pool.speedup"] = (phase_s(untraced_j1) / phase_s(untraced)
                                     if "untraced_j1" in data else 0.0)
    detail = {"queries": len(tr["queries"]), "graphs": tr["graphs"], "spans": len(trace["spans"]),
              "unwrapped": data["missing"]}
    return metrics, detail


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "toughlab" / "__init__.py").is_file():
        fail(f"no toughlab sources at {ROOT / 'src' / 'toughlab'}; run from a toughlab checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    w = corpus.WORKLOADS[args.workload]

    workdir = ROOT / ".bench_work" / w.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment(args)
    (workdir / "env.json").write_text(json.dumps(env, indent=1))
    print(json.dumps({"env": env}))

    setup_reps = [json.loads(client("setup", "--workload", w.name, "--seed", str(args.seed),
                                    "--workdir", str(workdir)))["setup_s"]
                  for _ in range(1 if args.trace else SETUP_REPS)]
    judge = Judge(w, corpus.read(w, workdir))
    if args.trace:
        metrics, detail = traced(w, judge, workdir, args)
    else:
        metrics, detail = end_to_end(w, judge, workdir, args, setup_reps)
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        fail(f"metrics not produced: {missing}")
    print(json.dumps({"detail": detail, "failures": judge.failures[:5]}))
    print(json.dumps({
        "correct": not judge.failures,
        "attempted": judge.attempted,
        "failed": len(judge.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    sys.exit(1 if judge.failures else 0)


if __name__ == "__main__":
    main()
