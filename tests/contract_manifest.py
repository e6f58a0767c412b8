"""The output contract of the command line over a fixed grid, and the command
that records it in ``contract_manifest.json``.

Each manifest entry names one command and records its exit code, its verdicts
(criterion, name, passed) or the type of the error it exited on, and a SHA-256
of all it printed and wrote.  The digest leaves out what a rerun moves:
``timing_seconds``, ``suite_seconds``, ``output_path``, and the ``wrote`` and
timing lines of stdout.  Digests also depend on the numpy and LAPACK build,
so the manifest records the build's fingerprint next to them.

After a change that moves outputs on purpose, rewrite the manifest with

    PYTHONPATH=src python3 tests/contract_manifest.py

and its diff lists the outputs that moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import re
import sys
import tempfile
from unittest import mock

import numpy as np

from nearstat import cli

MANIFEST_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "contract_manifest.json")

SEED = "4242"
RUN_T = range(2, 20)
RANDOMIZED_SOLVERS = {
    "subgrad": [],
    "smoothed": ["--solver.delta", "0.1", "--solver.samples_per_step", "2"],
    "goldstein": ["--solver.delta", "0.1", "--solver.samples_per_step", "4"],
}
VERIFY_SEEDS = ("1", "7")
FIGURES = ("fig1", "fig2", "fig3")
ADVERSARY_SHAPES = ((5, 20), (10, 40))
CERTIFY_EPS = "0.25"

# what a rerun moves: the lines that name a written path or report a wall time
_VOLATILE_LINE = re.compile(r"wrote .*|\([\w:]+, \d+\.\d\ds\)")


def fingerprint() -> dict:
    """numpy's version, its BLAS and LAPACK, the machine and the SIMD targets
    numpy dispatches to on this CPU (what ``np.show_runtime()`` lists as found):
    what the digests rest on.  The same wheel picks other loops on a CPU with
    other features, and some of those round differently.  numpy before 1.26
    cannot name its BLAS, so its fingerprint matches no manifest."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas, lapack = deps["blas"]["name"], deps["lapack"]["name"]
    except (TypeError, KeyError):
        blas = lapack = None
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        simd = None
    else:
        simd = [target for target in __cpu_dispatch__ if __cpu_features__[target]]
    return {"numpy": np.__version__, "blas": blas, "lapack": lapack,
            "machine": platform.machine(), "simd": simd}


def _invoke(argv: list[str]) -> tuple[int, str, str, str | None]:
    """``cli.main(argv)`` in process: exit code, stdout, stderr, and the type of
    the exception that ``main`` turned into its error line, if any."""
    caught = []

    def noting_print(*args, **kwargs):
        exc = sys.exc_info()[1]
        if exc is not None:
            caught.append(type(exc).__name__)
        print(*args, **kwargs)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with mock.patch.object(cli, "print", noting_print, create=True):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), caught[-1] if caught else None


def _normalized(name: str, text: str) -> str:
    """A written file less its volatile fields."""
    if name == "report.json":
        doc = json.loads(text)
        del doc["timing_seconds"]
        doc["config"].pop("output_path", None)
        doc["records"].pop("suite_seconds", None)
        return json.dumps(doc)
    if name == "diagnostics.json":
        doc = json.loads(text)
        del doc["config"]["output_path"]
        return json.dumps(doc)
    return text


def outcome(argv: list[str], out_dir: str | None = None) -> dict:
    """One manifest entry: what ``argv`` exits with, finds and outputs."""
    code, stdout, stderr, error = _invoke(argv)
    files = {}
    if out_dir is not None and os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name)) as fh:
                files[name] = _normalized(name, fh.read())
    kept = [line for line in stdout.splitlines() if not _VOLATILE_LINE.fullmatch(line)]
    content = {"exit": code, "stdout": kept, "stderr": stderr, "files": files}
    entry = {"exit": code, "error": error}
    if "report.json" in files:
        verdicts = json.loads(files["report.json"])["verdicts"]
        entry["verdicts"] = [[v["criterion"], v["name"], v["passed"]] for v in verdicts]
    digest = hashlib.sha256(json.dumps(content, sort_keys=True).encode())
    entry["sha256"] = digest.hexdigest()
    return entry


def outcomes(tmp: str):
    """(name, entry) for every command of the grid, each writing under ``tmp``."""
    counter = itertools.count()

    def fresh() -> str:
        return os.path.join(tmp, str(next(counter)))

    def run(flags: list[str]) -> tuple[str, dict]:
        out = fresh()
        return " ".join(["run", *flags]), outcome(["run", *flags, "--output_path", out], out)

    for experiment in ("quad_lower_bound", "det_lower_bound", "theorem1"):
        for solver in ("subgrad", "steepest"):
            for T in RUN_T:
                for d in (2 * T, 4 * T):
                    yield run(
                        ["--experiment", experiment, "--solver.name", solver,
                         "--T", str(T), "--d", str(d), "--seed", SEED]
                    )
    for solver, params in RANDOMIZED_SOLVERS.items():
        yield run(
            ["--experiment", "theorem1_randomized", "--solver.name", solver, *params,
             "--T", "10", "--seed", SEED]
        )
    for seed in VERIFY_SEEDS:
        out = fresh()
        argv = ["verify", "--suite", "all", "--seed", seed]
        yield " ".join(argv), outcome([*argv, "--output_path", out], out)
    for figure in FIGURES:
        argv = ["figure-data", "--figure", figure]
        yield " ".join(argv), outcome(argv)
    for T, d in ADVERSARY_SHAPES:
        out = fresh()
        argv = ["adversary", "--T", str(T), "--d", str(d), "--seed", SEED]
        yield " ".join(argv), outcome([*argv, "--output_path", out], out)
        with open(os.path.join(out, "transcript.jsonl")) as fh:
            iterates = [json.loads(line)["query"] for line in fh]
        for i in (0, T // 2, T - 1):
            argv = ["certify", "--function-file", os.path.join(out, "instance.json")]
            argv += ["--point", json.dumps(iterates[i]), "--notion", "eps", "--eps", CERTIFY_EPS]
            where = f"iterate {i + 1} of adversary T={T} d={d}"
            yield f"certify --notion eps --eps {CERTIFY_EPS} at {where}", outcome(argv)


def build() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {"fingerprint": fingerprint(), "entries": dict(outcomes(tmp))}


def render(manifest: dict) -> str:
    """The manifest with one line per entry, so that its diff is one line per moved output."""
    entries = manifest["entries"].items()
    lines = [f"  {json.dumps(name)}: {json.dumps(entry)}" for name, entry in entries]
    return (
        f'{{\n "fingerprint": {json.dumps(manifest["fingerprint"])},\n "entries": {{\n'
        + ",\n".join(lines)
        + "\n }\n}\n"
    )


def load() -> dict:
    with open(MANIFEST_PATH) as fh:
        return json.load(fh)


if __name__ == "__main__":
    manifest = build()
    with open(MANIFEST_PATH, "w") as fh:
        fh.write(render(manifest))
    print(f"wrote {len(manifest['entries'])} entries to {MANIFEST_PATH}")
