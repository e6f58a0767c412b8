"""One workload in a fresh interpreter: set up, then closed-loop rounds.

Started by ``run.py``, never by hand.  It prints one JSON line when nearstat
is imported and the inputs are built (``ready``) and one when it is done
(``result``); nearstat's own output is captured in-process.

A round is every operation of the workload once, each timed on its own and
checked after its clock stops.  One untimed warm-up round fills lazy caches
first.  Rounds then repeat until ``--seconds`` have passed, and each
operation's latency is its fastest repeat (:func:`least_disturbed`).  With
``--trace 1`` untraced and traced rounds alternate, so that both see the same
machine conditions; the traced ones give the per-layer numbers and the
difference of the two round times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def emit(event: str, **fields) -> None:
    sys.__stdout__.write(json.dumps({"event": event, **fields}) + "\n")
    sys.__stdout__.flush()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # outputs the program reported as good but a check rejected
        self.notes: list[str] = []

    def fail(self, kind: str, message: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += int(wrong)
        if len(self.notes) < 5:
            self.notes.append(f"{kind}: {message}"[:400])


def run_round(ops, tally: Tally, workloads, tracer=None) -> list[float]:
    """Run and check one round; returns each operation's latency in seconds."""
    latencies = []
    clock = time.perf_counter
    for op in ops:
        if tracer is not None:
            tracer.enabled = True
        error = None
        start = clock()
        try:
            output = op.run()
        except Exception as exc:  # the program's own failure, counted below
            error = exc
        latencies.append(clock() - start)
        if tracer is not None:
            tracer.enabled = False
        tally.attempted += 1
        if error is not None:
            tally.fail(op.kind, f"{type(error).__name__}: {error}", wrong=False)
            continue
        try:
            op.check(output)
        except workloads.ProgramFailure as exc:
            tally.fail(op.kind, str(exc), wrong=False)
        except Exception as exc:
            tally.fail(op.kind, f"check rejects output: {type(exc).__name__}: {exc}", wrong=True)
    return latencies


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def least_disturbed(rounds: list[list[float]]) -> list[float]:
    """Each operation's fastest latency over the rounds of a run.

    Every round repeats the same operations in the same order, so the k-th
    latency of each round times the same work.  On a shared host, other
    tenants slow whole stretches of a run (by up to a factor of two on the VM
    of README.md's figures); the fastest repeat of each operation is the one
    they disturbed least.  A round cut
    short because an operation failed is left out.
    """
    size = max(len(r) for r in rounds)
    return [min(samples) for samples in zip(*(r for r in rounds if len(r) == size))]


def measure(args, workloads, inputs, make_ops, tally) -> tuple[dict, dict]:
    run_round(make_ops(inputs), tally, workloads)  # warm-up
    rounds = []
    deadline = time.perf_counter() + args.seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(run_round(make_ops(inputs), tally, workloads))
    ops = least_disturbed(rounds)
    return {
        "run_s": sum(ops),
        "op_p50_ms": 1e3 * quantile(ops, 0.5),
        "op_p90_ms": 1e3 * quantile(ops, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {"rounds": len(rounds)}


def measure_traced(args, workloads, inputs, make_ops, tally) -> tuple[dict, dict]:
    import tracing

    tracer = tracing.Tracer()
    run_round(make_ops(inputs), tally, workloads)  # warm-up
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + args.seconds
    while not (plain and traced) or time.perf_counter() < deadline:
        if len(plain) > len(traced):
            tracer.reset()
            undo = tracing.install(tracer)
            try:
                traced.append(run_round(make_ops(inputs), tally, workloads, tracer))
            finally:
                tracing.uninstall(undo)
            layers.append(tracing.layer_metrics(tracer.totals))
        else:
            plain.append(run_round(make_ops(inputs), tally, workloads))
    # like the operations, each layer figure is its least disturbed round's
    metrics = {key: min(r[key] for r in layers) for key in layers[0]}
    base = sum(least_disturbed(plain))
    overhead = sum(least_disturbed(traced)) - base
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_pct"] = 100.0 * overhead / base
    write_trace(args, tracer.spans, metrics)
    return metrics, {"rounds": len(plain) + len(traced)}


def write_trace(args, spans, metrics) -> None:
    """Spans of the last traced round and the per-layer metrics, as JSON lines."""
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    origin = min((s[3] for s in spans), default=0.0)
    with open(out / f"trace-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
        fh.write(json.dumps({"metrics": metrics}) + "\n")
        for sid, name, parent, start, end in spans:
            fh.write(
                json.dumps(
                    {"id": sid, "name": name, "parent": parent,
                     "start": start - origin, "end": end - origin}
                ) + "\n"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads  # imports numpy and nearstat.cli

    import nearstat

    if Path(nearstat.__file__).resolve().parent != ROOT / "src" / "nearstat":
        raise SystemExit(f"nearstat imported from {nearstat.__file__}, not from this checkout")
    imported = time.perf_counter()
    build_inputs, make_ops = workloads.WORKLOADS[args.workload]
    os.makedirs(args.tmp, exist_ok=True)
    inputs = build_inputs(args.seed, args.tmp)
    emit("ready", import_s=imported - start, inputs_s=time.perf_counter() - imported)
    if args.setup_only:
        return 0

    tally = Tally()
    measure_fn = measure_traced if args.trace else measure
    metrics, shape = measure_fn(args, workloads, inputs, make_ops, tally)
    emit(
        "result",
        correct=tally.wrong == 0,
        attempted=tally.attempted,
        failed=tally.failed,
        metrics=metrics,
        notes=tally.notes,
        **shape,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
