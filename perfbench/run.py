"""nearstat's benchmark: one workload, its end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload games --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload runs in a fresh interpreter
(``worker.py``) with BLAS pinned to one thread, as one closed loop: the next
operation starts when the previous one has returned.  Set-up time is the
wall time from starting an interpreter until it has imported ``nearstat.cli``
and built the workload's inputs; it is sampled in several fresh
interpreters and reported as their median.

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run (see README.md).  Scratch files go to ``.perfbench_tmp/`` and
traces to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("games", "sampling", "verify")
# Fresh interpreters timed per run: the measuring one plus probes before and
# after it, so that the median spans the whole run's machine conditions.
PROBES_BEFORE, PROBES_AFTER = 3, 3
READY_TIMEOUT_S = 60.0
# seconds past --seconds the measuring interpreter may take: warm-up round,
# the round under way when time is up, and writing the result
RESULT_GRACE_S = 90.0
PINNED_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}
IMPORT_PACKAGES = {"numpy": "setup.import_numpy_s", "scipy": "setup.import_scipy_s",
                   "nearstat": "setup.import_nearstat_s"}


class Worker:
    """A worker interpreter whose protocol lines are read with a deadline."""

    def __init__(self, args, tmp: Path, index: int, setup_only: bool, importtime: bool):
        cmd = [sys.executable]
        if importtime:
            cmd += ["-X", "importtime"]
        cmd += [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--tmp", str(tmp / f"worker{index}")]
        if setup_only:
            cmd.append("--setup-only")
        self.stderr_path = tmp / f"worker{index}.err"
        self._stderr = open(self.stderr_path, "wb")
        env = {**os.environ, **PINNED_THREADS}
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self._stderr,
                                     env=env, cwd=ROOT, bufsize=0)
        self._buffer = b""

    def read_event(self, expect: str, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"no {expect!r} line within {timeout:.0f}s")
            readable, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if readable:
                chunk = os.read(self.proc.stdout.fileno(), 65536)
                if not chunk:
                    raise RuntimeError(f"worker exited before its {expect!r} line:\n{self.stderr_tail()}")
                self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        event = json.loads(line)
        if event.get("event") != expect:
            raise RuntimeError(f"expected {expect!r}, got {event.get('event')!r}")
        return event

    def stderr_tail(self) -> str:
        self._stderr.flush()
        return self.stderr_path.read_text(errors="replace")[-2000:]

    def finish(self, timeout: float = 30.0) -> None:
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RuntimeError("worker did not exit") from None
        if code != 0:
            raise RuntimeError(f"worker exited with {code}:\n{self.stderr_tail()}")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


def import_seconds(stderr_text: str) -> dict[str, float]:
    """Self import time summed per package, from ``python -X importtime``."""
    totals = dict.fromkeys(IMPORT_PACKAGES.values(), 0.0)
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        package = name.strip().split(".")[0]
        if package in IMPORT_PACKAGES:
            totals[IMPORT_PACKAGES[package]] += int(self_us) / 1e6
    return totals


def setup_probe(args, tmp: Path, index: int) -> tuple[float, dict]:
    worker = Worker(args, tmp, index, setup_only=True, importtime=bool(args.trace))
    try:
        ready = worker.read_event("ready", READY_TIMEOUT_S)
        elapsed = time.perf_counter() - worker.started
        worker.finish()
        if args.trace:
            ready.update(import_seconds(worker.stderr_path.read_text()))
        return elapsed, ready
    finally:
        worker.close()


def measure(args, tmp: Path) -> dict:
    setup, probes = [], []

    def probe(index: int) -> None:
        elapsed, ready = setup_probe(args, tmp, index)
        setup.append(elapsed)
        probes.append(ready)

    for index in range(PROBES_BEFORE):
        probe(index)
    worker = Worker(args, tmp, PROBES_BEFORE, setup_only=False, importtime=False)
    try:
        worker.read_event("ready", READY_TIMEOUT_S)
        setup.append(time.perf_counter() - worker.started)
        result = worker.read_event("result", args.seconds + RESULT_GRACE_S)
        worker.finish()
    finally:
        worker.close()
    for index in range(PROBES_BEFORE + 1, PROBES_BEFORE + 1 + PROBES_AFTER):
        probe(index)
    if args.trace:
        layer_setup = {"setup.inputs_s": statistics.median(p["inputs_s"] for p in probes)}
        for key in IMPORT_PACKAGES.values():
            layer_setup[key] = statistics.median(p[key] for p in probes)
        result["metrics"] = {**layer_setup, **result["metrics"]}
    else:
        result["metrics"]["setup_s"] = statistics.median(setup)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "nearstat" / "cli.py").is_file():
        print(f"no nearstat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, tmp)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # BENCHMARK.json names every metric a run prints, with its unit
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(result["metrics"]):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(result['metrics']))}",
              file=sys.stderr)
        return 1
    for note in result["notes"]:
        print(f"failed operation: {note}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {result['attempted']} operations "
          f"attempted, {result['failed']} failed, {result['rounds']} rounds")
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": result["metrics"][name], "unit": unit}
        print(f"  {name:48s} {metrics[name]['value']:14.6f} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
