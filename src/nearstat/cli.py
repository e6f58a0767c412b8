"""Command-line interface.

Subcommands: run, certify, adversary, figure-data, verify.  Configuration is
a single JSON document; any flag of the form ``--field.path value`` overrides
the matching config field.  Exit codes: 0 success / all verdicts pass, 1
runtime or verdict failure, 2 configuration problems.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from nearstat import harness
from nearstat.errors import ConfigError


def _parse_dotted(tokens: list[str]) -> list[tuple[str, str]]:
    pairs = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--"):
            raise ConfigError(f"unexpected argument {tok!r}")
        key = tok[2:]
        if "=" in key:
            key, val = key.split("=", 1)
            i += 1
        else:
            if i + 1 >= len(tokens):
                raise ConfigError(f"flag --{key} needs a value")
            val = tokens[i + 1]
            i += 2
        pairs.append((key, val))
    return pairs


def _load_json(text: str, source: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source} is not valid JSON: {exc}") from exc


def _load_config(path: str | None, overrides: list[tuple[str, str]], defaults: dict) -> dict:
    doc = dict(defaults)
    if path is not None:
        with open(path) as fh:
            loaded = _load_json(fh.read(), path)
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        doc.update(loaded)
    for key, val in overrides:
        harness.apply_override(doc, key, val)
    return doc


def _print_verdicts(report: harness.Report) -> None:
    for v in report.verdicts:
        mark = "PASS" if v.passed else "FAIL"
        print(f"[{mark}] {v.criterion}: {v.name}")
    suite_seconds = report.records.get("suite_seconds", {})
    if len(suite_seconds) > 1:  # a lone suite's time is the total below
        for suite, seconds in suite_seconds.items():
            print(f"(verify:{suite}, {seconds:.2f}s)")
    print(f"({report.kind}, {report.timing_seconds:.2f}s)")


def _parse_point(raw: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in raw.strip(" []").split(",") if part.strip()])
    except ValueError as exc:
        raise ConfigError(f"--point {raw!r} is not a list of numbers") from exc


def cmd_run(args, extra) -> int:
    doc = _load_config(args.config, _parse_dotted(extra), {"experiment": "quad_lower_bound"})
    cfg = harness.ExperimentConfig.from_dict(doc)
    report = harness.run_experiment(cfg)
    out_dir = harness.resolve_output_dir(cfg.output_path)
    written = harness.write_report_files(report, out_dir)
    _print_verdicts(report)
    for path in written:
        print(f"wrote {path}")
    return 0 if report.all_passed else 1


def cmd_verify(args, extra) -> int:
    if extra:
        raise ConfigError(f"unexpected arguments: {extra}")
    report = harness.run_verify(args.suite, args.seed)
    _print_verdicts(report)
    if args.output_path:
        written = harness.write_report_files(report, args.output_path)
        for path in written:
            print(f"wrote {path}")
    return 0 if report.all_passed else 1


def cmd_certify(args, extra) -> int:
    if extra:
        raise ConfigError(f"unexpected arguments: {extra}")
    if (args.function is None) == (args.function_file is None):
        raise ConfigError("provide exactly one of --function / --function-file")
    if args.function is not None:
        doc = _load_json(args.function, "--function")
    else:
        with open(args.function_file) as fh:
            doc = _load_json(fh.read(), args.function_file)
    stencil = None if args.stencil is None else _load_json(args.stencil, "--stencil")
    certs, answered = harness.certify_point(
        doc,
        _parse_point(args.point),
        args.notion,
        eps=args.eps,
        delta=args.delta,
        samples=args.samples,
        stencil=stencil,
        seed=args.seed,
    )
    print(json.dumps(certs))
    return 0 if answered else 1


def cmd_adversary(args, extra) -> int:
    doc = _load_config(args.config, _parse_dotted(extra), {})
    adversary = doc.get("adversary")
    mode = adversary.get("mode") if isinstance(adversary, dict) else None
    doc.setdefault(
        "experiment", "theorem1_randomized" if mode == "randomized_sphere" else "theorem1"
    )
    cfg = harness.ExperimentConfig.from_dict(doc)
    files = harness.build_adversary_files(cfg)
    out_dir = harness.resolve_output_dir(cfg.output_path)
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files.items():
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path}")
    return 0


def cmd_figure_data(args, extra) -> int:
    grid = {}
    for key, val in _parse_dotted(extra):
        if not key.startswith("grid."):
            raise ConfigError(f"unknown flag --{key}; figure grids use --grid.<field>")
        grid[key[len("grid.") :]] = harness.parse_override_value(val)
    csv_text = harness.figure_csv(args.figure, grid)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(csv_text)
    return 0


@functools.cache  # about 1 ms a build, and a process may run many commands
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearstat",
        description="Hard-instance experiments and stationarity certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a named experiment")
    p_run.add_argument("--config", help="JSON config file")
    p_run.set_defaults(handler=cmd_run)

    p_verify = sub.add_parser("verify", help="run a property-verification suite")
    p_verify.add_argument("--suite", default="all", choices=harness.VERIFY_SUITES)
    p_verify.add_argument("--seed", type=int, default=12345)
    p_verify.add_argument("--output_path")
    p_verify.set_defaults(handler=cmd_verify)

    p_cert = sub.add_parser("certify", help="certify stationarity of a point")
    p_cert.add_argument("--function", help="function document as inline JSON")
    p_cert.add_argument("--function-file", help="path to a function document")
    p_cert.add_argument("--point", required=True, help="JSON list or comma-separated floats")
    p_cert.add_argument("--notion", choices=("eps", "delta_eps"), default="eps")
    p_cert.add_argument("--eps", type=float, required=True)
    p_cert.add_argument("--delta", type=float)
    p_cert.add_argument("--samples", type=int)
    p_cert.add_argument("--stencil", help="JSON list of offsets from the point")
    p_cert.add_argument("--seed", type=int, default=12345)
    p_cert.set_defaults(handler=cmd_certify)

    p_adv = sub.add_parser("adversary", help="build and persist a hard channel instance")
    p_adv.add_argument("--config", help="JSON config file")
    p_adv.set_defaults(handler=cmd_adversary)

    p_fig = sub.add_parser("figure-data", help="emit a CSV value grid for a figure")
    p_fig.add_argument("--figure", required=True, choices=sorted(harness.FIGURE_DEFAULTS))
    p_fig.add_argument("--out", help="output CSV path (default stdout)")
    p_fig.set_defaults(handler=cmd_figure_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        return args.handler(args, extra)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
