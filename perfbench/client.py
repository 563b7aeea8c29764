"""The benchmark's program side: the only processes that import toughlab.

    python3 perfbench/client.py setup --workload W --seed N --workdir DIR
    python3 perfbench/client.py e2e   --workload W --workdir DIR --seconds S
    python3 perfbench/client.py trace --workload W --workdir DIR --seconds S

``setup`` imports toughlab, writes the seeded corpus to DIR and prints its
own time.  ``e2e`` runs the untraced closed loop for S seconds; ``trace``
runs the untraced and traced passes.  Both write ``DIR/<mode>.json`` with
every query's exit codes and outputs, which ``run.py`` checks.  Every query
is a call to ``toughlab.cli.main`` in this process, with stdout and stderr
captured.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import corpus
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
INVARIANT_COMMANDS = ("tough", "alpha", "kappa")
REFERENCE_ROWS = (3, 5, 9, 17, 33, 65, 129)


def reference_s() -> float:
    """Time a fixed pure-Python kernel (bit and float arithmetic, like
    toughlab's inner loops).  run.py divides by it to take the host's speed,
    which drifts by tens of percent on a shared machine, out of the timings."""
    start = time.perf_counter()
    x, f = 0, 0.5
    for i in range(2000):
        x = (x * 31 + i) & 0xFFFF
        x ^= REFERENCE_ROWS[i % 7] & x >> 3
        f = f * 0.999 + (x & 7) * 1e-3
    return time.perf_counter() - start


def import_toughlab():
    sys.path.insert(0, str(ROOT / "src"))
    import toughlab
    import toughlab.cli

    if not Path(toughlab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"toughlab imported from {toughlab.__file__}, not from this checkout")
    return toughlab


def argvs(w: corpus.Workload, jobs: int) -> list[list[str]]:
    if w.kind == "invariants":
        return [[cmd] for cmd in INVARIANT_COMMANDS]
    argv = ["verify", "--jobs", str(jobs)]
    return [argv + ["--checks", w.checks] if w.checks else argv]


def run_query(main, w: corpus.Workload, batch: list[str], jobs: int) -> list:
    """One query with the batch's graph6 lines on stdin, as `toughlab <cmd> <
    batch.g6` would get them; returns [exit code, stdout, stderr] per call.

    stdin rather than one --file per batch: on a shared 2-vCPU Xeon host,
    creating thousands of small files took from 0.05 to 1.4 s, which would
    swamp setup_s."""
    outputs = []
    text = "\n".join(batch) + "\n"
    for argv in argvs(w, jobs):
        out, err = io.StringIO(), io.StringIO()
        sys.stdin = io.StringIO(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejected the call: a failed query
                code = exc.code
        outputs.append([code, out.getvalue(), err.getvalue()])
    sys.stdin = sys.__stdin__
    return outputs


def closed_loop(w, batches, main, jobs, seconds=None, count=None) -> dict:
    """Run queries back to back, in corpus order (wrapping), until ``seconds``
    have passed or ``count`` queries are done.  After each query, outside
    its latency, the reference kernel is timed once."""
    latency, reference, queries, outputs = [], [], [], []
    start = time.perf_counter()
    while (count is None or len(queries) < count) and (
            seconds is None or time.perf_counter() - start < seconds):
        index = len(queries) % len(batches)
        before = time.perf_counter()
        outputs.append(run_query(main, w, batches[index], jobs))
        latency.append(time.perf_counter() - before)
        reference.append(reference_s())
        queries.append(index)
    return {"latency_s": latency, "reference_s": reference, "queries": queries,
            "graphs": len(queries) * w.batch, "outputs": outputs}


def peak_rss_kb() -> int:
    """Peak RSS of this process and of its reaped children (the pool workers)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def cmd_setup(args, w: corpus.Workload, workdir: Path) -> None:
    start = time.perf_counter()
    import_toughlab()  # part of set-up: a user pays it before the first graph
    corpus.write(corpus.generate(w, args.seed), workdir)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def cmd_e2e(args, w: corpus.Workload, workdir: Path) -> dict:
    main = import_toughlab().cli.main
    batches = corpus.read(w, workdir)
    run_query(main, w, batches[0], w.jobs)  # warm-up, untimed
    timed = closed_loop(w, batches, main, w.jobs, seconds=args.seconds)
    rss = peak_rss_kb()
    result = {"timed": timed, "peak_rss_kb": rss}
    if w.kind == "sweep":
        # the first batches again at --jobs 1, for 15 % of the time: the
        # records must not change
        result["reference"] = closed_loop(w, batches, main, 1, seconds=args.seconds * 0.15,
                                          count=len(timed["queries"]))
    return result


def cmd_trace(args, w: corpus.Workload, workdir: Path) -> dict:
    toughlab = import_toughlab()
    main = toughlab.cli.main
    batches = corpus.read(w, workdir)
    run_query(main, w, batches[0], w.jobs)  # warm-up, untimed
    untraced = closed_loop(w, batches, main, w.jobs, seconds=args.seconds / 4)
    count = len(untraced["queries"])
    result = {"untraced": untraced}
    if w.jobs != 1:
        result["untraced_j1"] = closed_loop(w, batches, main, 1, count=count)
    tracer = Tracer()
    result["missing"] = tracer.install(toughlab)
    try:
        result["traced"] = closed_loop(
            w, batches, tracer.spanned("cli.main", main), 1, count=count)
    finally:
        tracer.uninstall()
    tracer.dump(workdir / "spans.json")
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "e2e", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    w = corpus.WORKLOADS[args.workload]
    if args.mode == "setup":
        cmd_setup(args, w, args.workdir)
        return
    result = (cmd_e2e if args.mode == "e2e" else cmd_trace)(args, w, args.workdir)
    with open(args.workdir / f"{args.mode}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
