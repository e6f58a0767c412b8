"""End-to-end tests driving the command line through a real subprocess."""

import argparse
import json
import os
import stat
import subprocess
import sys
from unittest import mock

import numpy as np

from nearstat import adversaries, cli, harness
from nearstat.zoo import ChannelInstance, instance_to_json


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "nearstat.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def one_line_json(text: str):
    """A JSON document on one line, then a newline, parsed."""
    assert text.endswith("\n") and text.count("\n") == 1
    return json.loads(text)


def channel_doc() -> str:
    return json.dumps(instance_to_json(ChannelInstance(w=[0.3, 0.0], clamp=-1.0)))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_remark_suite_passes():
    proc = run_cli("verify", "--suite", "remark", "--seed", "7")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert all(line.startswith("[PASS]") for line in lines[:-1])
    assert "(verify:remark" in lines[-1]


def test_verify_writes_report_when_asked(tmp_path):
    out = tmp_path / "reports"
    proc = run_cli("verify", "--suite", "remark", "--output_path", str(out))
    assert proc.returncode == 0
    report = json.loads((out / "report.json").read_text())
    assert report["kind"] == "verify:remark"
    assert all(v["passed"] for v in report["verdicts"])


def test_verify_rejects_stray_arguments():
    proc = run_cli("verify", "--suite", "remark", "--bogus", "1")
    assert proc.returncode == 2
    assert "config error" in proc.stderr


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_reads_config_and_writes_reports(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "quad_lower_bound", "T": 2}))
    proc = run_cli("run", "--config", str(cfg), "--output_path", str(tmp_path / "out"))
    assert proc.returncode == 0
    assert "[PASS] AC1" in proc.stdout
    report = one_line_json((tmp_path / "out" / "report.json").read_text())
    config = harness.ExperimentConfig.from_dict(report["config"])
    expected = harness.run_experiment(config).to_json()
    assert report.pop("timing_seconds") > 0.0
    del expected["timing_seconds"]  # wall time, the one field a rerun moves
    assert report == expected
    assert report["config"]["T"] == 2
    assert len(report["records"]["distances"]) == 2
    transcript_lines = (tmp_path / "out" / "transcript.jsonl").read_text().splitlines()
    assert len(transcript_lines) == 2


def test_run_failing_verdict_exits_one(tmp_path):
    # the curvature-probing solver lands inside the exp(-3) shell on the
    # three-step chain, which makes this a stable failing configuration
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "quad_lower_bound", "T": 3}))
    proc = run_cli(
        "run", "--config", str(cfg), "--solver.name", "steepest",
        "--output_path", str(tmp_path / "out"),
    )
    assert proc.returncode == 1
    assert "[FAIL] AC1" in proc.stdout


def test_run_honors_output_dir_environment(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "quad_lower_bound", "T": 2}))
    out = tmp_path / "from_env"
    proc = run_cli(
        "run", "--config", str(cfg), env_extra={"NEARSTAT_OUTPUT_DIR": str(out)}
    )
    assert proc.returncode == 0
    assert sorted(p.name for p in out.iterdir()) == ["report.json", "transcript.jsonl"]


def test_run_missing_config_file_exits_one(tmp_path):
    proc = run_cli("run", "--config", str(tmp_path / "nope.json"))
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_run_unknown_config_field_exits_two(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "quad_lower_bound", "bogus": 1}))
    proc = run_cli("run", "--config", str(cfg))
    assert proc.returncode == 2
    assert "config error" in proc.stderr


def test_run_channel_budget_outside_envelope_exits_two(tmp_path):
    # past T = 19 the default ||w|| = exp(-T)/300 drops below the 1e-11 floor
    for T in ("20", "21"):
        proc = run_cli(
            "run", "--experiment", "theorem1", "--T", T, "--output_path", str(tmp_path / T)
        )
        assert proc.returncode == 2
        assert "config error" in proc.stderr and "T <= 19" in proc.stderr
        assert not (tmp_path / T).exists()


def test_run_channel_budget_at_envelope_edge_passes(tmp_path):
    proc = run_cli("run", "--experiment", "theorem1", "--T", "19", "--output_path", str(tmp_path))
    assert proc.returncode == 0
    assert json.loads((tmp_path / "report.json").read_text())["all_passed"]


def test_run_randomized_defaults_to_a_dimension_it_can_pass(tmp_path):
    # T exp(-d/18) <= 0.02 first holds at d = 112 for T = 10
    argv = ("run", "--experiment", "theorem1_randomized", "--T", "10", "--trials", "20")
    argv += ("--seed", "99", "--solver.name", "subgrad")
    proc = run_cli(*argv, "--output_path", str(tmp_path / "default"))
    assert proc.returncode == 0
    report = json.loads((tmp_path / "default" / "report.json").read_text())
    assert report["config"]["d"] == 112 and report["all_passed"]
    proc = run_cli(*argv, "--d", "20", "--output_path", str(tmp_path / "small"))
    assert proc.returncode == 2
    assert "config error" in proc.stderr and "d >= 112" in proc.stderr
    assert not (tmp_path / "small").exists()


# A two-point stencil on the sphere of radius 1e5: its computed norm is one
# rounding, 1.5e-11, above delta.
WIDE_DELTA = "100000.0"
WIDE_STENCIL = (
    "[[99435.51387344218, 10610.305402036709], [-99435.51387344218, -10610.305402036709]]"
)


def test_run_goldstein_stencil_on_a_wide_sphere_passes(tmp_path):
    proc = run_cli(
        "run", "--experiment", "quad_lower_bound", "--solver.name", "goldstein",
        "--solver.delta", WIDE_DELTA, "--solver.stencil", WIDE_STENCIL, "--T", "2", "--d", "2",
        "--output_path", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert [v["criterion"] for v in report["verdicts"]] == ["AC1"] and report["all_passed"]


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def test_certify_stencil_on_a_wide_sphere_gives_a_certificate():
    proc = run_cli(
        "certify", "--function", '{"kind": "warga"}', "--point", "0,0", "--notion", "delta_eps",
        "--delta", WIDE_DELTA, "--eps", "1e-3", "--stencil", WIDE_STENCIL,
    )
    assert "delta-ball" not in proc.stderr
    (cert,) = json.loads(proc.stdout)
    assert cert["kind"] == "delta_eps_witness"
    # the two stencil gradients of Warga do not cancel: nothing is certified
    assert proc.returncode == 1 and cert["certified"] is False


def test_certify_prints_certificates_and_succeeds():
    proc = run_cli(
        "certify", "--function", channel_doc(), "--point", "0,0", "--eps", "2.5"
    )
    assert proc.returncode == 0
    certs = json.loads(proc.stdout)
    assert certs[0]["certified"] is True
    assert certs[0]["value"] == 2.0


def test_certify_prints_one_line_with_every_witness_float():
    function = instance_to_json(ChannelInstance(w=[0.02, -0.01, 0.015]))
    proc = run_cli(
        "certify", "--function", json.dumps(function), "--point", "[0.01, 0.02, 0.0]",
        "--notion", "delta_eps", "--delta", "0.5", "--eps", "1e-6", "--seed", "3",
    )
    assert proc.returncode == 0
    printed = one_line_json(proc.stdout)
    certs, answered = harness.certify_point(
        function, [0.01, 0.02, 0.0], "delta_eps", eps=1e-6, delta=0.5, seed=3
    )
    assert answered and printed == certs
    witness, expected = printed[0]["witness"], certs[0]["witness"]
    for key in ("points", "subgradients", "coefficients"):
        assert np.asarray(witness[key]).tobytes() == np.asarray(expected[key]).tobytes()


def test_certify_refutation_counts_as_answered():
    # eps below the region-wise gradient-norm floor: the bound refutes it
    proc = run_cli(
        "certify", "--function", channel_doc(), "--point", "[0.0, 0.0]", "--eps", "0.5"
    )
    assert proc.returncode == 0
    certs = json.loads(proc.stdout)
    assert certs[0]["certified"] is False
    assert len(certs) == 2


def test_certify_unanswered_exits_one():
    # eps sits between the floor and the actual gradient norm, so neither
    # the certificate nor the bound settles the question
    proc = run_cli(
        "certify", "--function", channel_doc(), "--point", "0,0", "--eps", "1.5"
    )
    assert proc.returncode == 1


def test_certify_function_file_variant(tmp_path):
    path = tmp_path / "fn.json"
    path.write_text(channel_doc())
    proc = run_cli(
        "certify", "--function-file", str(path), "--point", "0,0", "--eps", "2.5"
    )
    assert proc.returncode == 0


def test_malformed_json_files_are_config_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"T": 5,}')
    for argv in (
        ("run", "--config", str(path)),
        ("adversary", "--config", str(path)),
        ("certify", "--function-file", str(path), "--point", "0,0", "--eps", "1.0"),
    ):
        proc = run_cli(*argv)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith(f"config error: {path} is not valid JSON"), proc.stderr


def test_certify_requires_exactly_one_function_source(tmp_path):
    proc = run_cli("certify", "--point", "0,0", "--eps", "1.0")
    assert proc.returncode == 2
    path = tmp_path / "fn.json"
    path.write_text(channel_doc())
    proc = run_cli(
        "certify", "--function", channel_doc(), "--function-file", str(path),
        "--point", "0,0", "--eps", "1.0",
    )
    assert proc.returncode == 2


# ---------------------------------------------------------------------------
# adversary and figure-data
# ---------------------------------------------------------------------------


def test_adversary_writes_instance_files(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T": 5, "output_path": str(tmp_path / "adv")}))
    proc = run_cli("adversary", "--config", str(cfg))
    assert proc.returncode == 0
    names = sorted(p.name for p in (tmp_path / "adv").iterdir())
    assert names == ["diagnostics.json", "instance.json", "transcript.jsonl"]
    doc = json.loads((tmp_path / "adv" / "instance.json").read_text())
    assert doc["kind"] == "channel_composed"
    written = one_line_json((tmp_path / "adv" / "diagnostics.json").read_text())
    config, descriptor, acfg = harness.resolve(
        harness.ExperimentConfig.from_dict(written["config"]), channel=True
    )
    _, diag = adversaries.build_channel_instance(
        acfg, descriptor, config.T, config.d, rng_state=harness.role_streams(config.seed)
    )
    del diag["transcript"]  # written to transcript.jsonl instead
    diag["config"] = config.echo()
    assert written == diag


def test_adversary_w_norm_below_floor_exits_two(tmp_path):
    proc = run_cli(
        "adversary", "--T", "5", "--adversary.w_norm", "1e-12", "--output_path", str(tmp_path / "a")
    )
    assert proc.returncode == 2
    assert "config error" in proc.stderr
    assert not (tmp_path / "a").exists()


def test_figure_data_stdout_with_grid_override():
    proc = run_cli("figure-data", "--figure", "fig3", "--grid.nu", "5", "--grid.nv", "4")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "u,v,value"
    assert len(lines) == 1 + 5 * 4


def test_figure_data_writes_file(tmp_path):
    out = tmp_path / "fig2.csv"
    out.write_text("stale\n" * 1000)  # a longer file leaves no bytes behind
    argv = ("figure-data", "--figure", "fig2", "--grid.nu", "3", "--grid.nv", "3")
    proc = run_cli(*argv, "--out", str(out))
    assert proc.returncode == 0
    assert out.read_text().startswith("u,v,value")
    assert out.read_text() == run_cli(*argv).stdout


def test_figure_data_writes_through_a_fifo(tmp_path, capsys):
    # a path that is not a regular file or a symlink is opened, not replaced
    fifo = tmp_path / "fig2.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    argv = ["figure-data", "--figure", "fig2", "--grid.nu", "3", "--grid.nv", "3"]
    try:
        assert cli.main([*argv, "--out", str(fifo)]) == 0
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        written = os.read(reader, 1 << 16).decode()
    finally:
        os.close(reader)
    capsys.readouterr()
    assert cli.main(argv) == 0
    assert written == capsys.readouterr().out


def test_figure_data_rejects_non_grid_flags():
    proc = run_cli("figure-data", "--figure", "fig1", "--nu", "3")
    assert proc.returncode == 2
    assert "--grid.<field>" in proc.stderr


def test_parser_is_built_once_per_process(capsys):
    cli.build_parser.cache_clear()
    subparsers = argparse.ArgumentParser.add_subparsers  # called once per build
    with mock.patch.object(
        argparse.ArgumentParser, "add_subparsers", autospec=True, side_effect=subparsers
    ) as built:
        for _ in range(3):
            argv = ["figure-data", "--figure", "fig3", "--grid.nu", "2", "--grid.nv", "2"]
            assert cli.main(argv) == 0
    assert built.call_count == 1
    assert capsys.readouterr().out.count("u,v,value") == 3
