import io
import json
import math
import os
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

from nearstat import adversaries, cli, harness, solvers, stationarity, zoo
from nearstat.errors import ConfigError, DegenerateInputError, DimensionMismatchError
from nearstat.harness import (
    DEFAULT_OUTPUT_DIR,
    ENV_OUTPUT_DIR,
    EXPERIMENT_NAMES,
    FIGURE_DEFAULTS,
    VERIFY_SUITES,
    ExperimentConfig,
    apply_override,
    build_adversary_files,
    certify_point,
    figure_csv,
    figure_values,
    parse_override_value,
    resolve_output_dir,
    role_streams,
    run_experiment,
    run_verify,
    write_report_files,
)
from nearstat.oracle_game import Transcript
from nearstat.vectorspace import row_norms, sample_ball_batch
from nearstat.zoo import ChannelInstance, Spiral, instance_from_json, instance_to_json


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_from_dict_and_validate():
    raw = ExperimentConfig.from_dict({"experiment": "quad_lower_bound", "T": 5})
    cfg = raw.validate()
    assert cfg.d == 10  # d defaults to 2T
    assert raw.d is None  # validate resolves a copy
    assert cfg.solver == {"name": "subgrad"}
    assert set(cfg.echo()) == set(ExperimentConfig._FIELDS)
    assert ExperimentConfig._FIELDS == (
        "experiment", "T", "d", "seed", "trials", "solver", "adversary", "output_path",
    )


def test_config_rejects_unknown_and_missing_fields():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "quad_lower_bound", "Tee": 5})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"T": 5})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "no_such"}).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            {"experiment": "theorem1", "T": 10, "d": 10}
        ).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            {"experiment": "quad_lower_bound", "solver": {"schedule": {}}}
        ).validate()


@pytest.mark.parametrize("experiment", ["theorem1", "theorem1_randomized"])
def test_config_enforces_the_channel_envelope(experiment):
    def cfg(**fields):
        return ExperimentConfig.from_dict({"experiment": experiment, **fields})

    assert adversaries.CHANNEL_T_MAX == 19
    assert adversaries.default_w_norm(19) >= adversaries.W_NORM_FLOOR > adversaries.default_w_norm(20)
    cfg(T=19).validate()
    cfg(T=2, adversary={"w_norm": 1e-3}).validate()
    for bad in (cfg(T=20), cfg(T=21), cfg(T=1), cfg(T=5, adversary={"w_norm": 1e-12})):
        with pytest.raises(ConfigError):
            bad.validate()
    with pytest.raises(ConfigError):
        cfg(T=5, adversary={"w_norm": "small"}).validate()
    # the persisted adversary builds a channel whatever the experiment says
    with pytest.raises(ConfigError):
        build_adversary_files(
            ExperimentConfig.from_dict({"experiment": "quad_lower_bound", "T": 20})
        )


@pytest.mark.parametrize(
    "fields,name",
    [
        ({"T": True}, "T"),
        ({"T": 5, "d": 10.0}, "d"),
        ({"seed": "7"}, "seed"),
        ({"adversary": {"w_norm": True}}, "w_norm"),
        ({"adversary": {"w_norm": "small"}}, "w_norm"),
        ({"solver": {"name": "smoothed", "delta": "small", "samples_per_step": 2}}, "delta"),
        ({"solver": {"name": "smoothed", "delta": 0.1, "samples_per_step": True}},
         "samples_per_step"),
        ({"solver": {"name": "subgrad", "schedule": {"scale": [1]}}}, "schedule scale"),
    ],
)
def test_a_non_number_is_a_config_error_naming_its_field(fields, name):
    # one rule for the config's integers, the solver's parameters and ||w||:
    # a JSON true is no number, and a count is an int
    cfg = ExperimentConfig.from_dict({"experiment": "theorem1", "T": 5, **fields})
    with pytest.raises(ConfigError, match=f"^{name} must be an? (number|integer), not "):
        cfg.validate()


def test_override_parsing_and_application():
    assert parse_override_value("3") == 3
    assert parse_override_value("0.5") == 0.5
    assert parse_override_value("true") is True
    assert parse_override_value("[1, 2]") == [1, 2]
    assert parse_override_value("subgrad") == "subgrad"

    doc = {"experiment": "quad_lower_bound"}
    apply_override(doc, "T", "7")
    apply_override(doc, "solver.name", "steepest")
    apply_override(doc, "solver.schedule.scale", "0.05")
    assert doc["T"] == 7
    assert doc["solver"] == {"name": "steepest", "schedule": {"scale": 0.05}}
    with pytest.raises(ConfigError):
        apply_override(doc, "mystery.flag", "1")
    with pytest.raises(ConfigError):
        apply_override(doc, "T.deeper", "1")


def test_resolve_output_dir(monkeypatch):
    assert resolve_output_dir("given") == "given"
    monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
    assert resolve_output_dir(None) == DEFAULT_OUTPUT_DIR
    monkeypatch.setenv(ENV_OUTPUT_DIR, "/tmp/elsewhere")
    assert resolve_output_dir(None) == "/tmp/elsewhere"


def test_role_streams_are_independent():
    streams = role_streams(5)
    assert set(streams) == {"algorithm", "adversary", "certifier"}
    draws = {k: s.standard_normal() for k, s in streams.items()}
    assert len(set(draws.values())) == 3


# ---------------------------------------------------------------------------
# experiments and reports
# ---------------------------------------------------------------------------


def test_quad_lower_bound_report_shape(tmp_path):
    cfg = ExperimentConfig.from_dict({"experiment": "quad_lower_bound", "T": 2}).validate()
    report = run_experiment(cfg)
    assert report.all_passed
    doc = report.to_json()
    assert doc["kind"] == "experiment:quad_lower_bound"
    assert doc["verdicts"][0]["criterion"] == "AC1"
    assert len(doc["records"]["distances"]) == 2
    assert doc["timing_seconds"] < 1.0

    written = write_report_files(report, str(tmp_path / "out"))
    names = {os.path.basename(p) for p in written}
    assert names == {"report.json", "transcript.jsonl"}
    with open(written[0]) as fh:
        parsed = json.load(fh)
    assert parsed["config"]["T"] == 2
    with open([p for p in written if p.endswith(".jsonl")][0]) as fh:
        Transcript.from_jsonl(fh.read())


def _run_files(out, T: int) -> dict[str, bytes]:
    """``theorem1`` at T run into ``out``: the bytes of each file there."""
    argv = ["run", "--experiment", "theorem1", "--T", str(T), "--output_path", str(out)]
    assert cli.main(argv) == 0
    return {path.name: path.read_bytes() for path in out.iterdir()}


def test_run_over_longer_files_leaves_the_bytes_of_a_run_into_an_empty_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    out = tmp_path / "out"
    longer = _run_files(out, 12)
    # an output path that is a symlink is replaced, and its target left alone
    target = tmp_path / "target.jsonl"
    target.write_text("keep\n")
    (out / "transcript.jsonl").unlink()
    (out / "transcript.jsonl").symlink_to(target)
    over_longer = _run_files(out, 5)
    assert target.read_text() == "keep\n" and not (out / "transcript.jsonl").is_symlink()
    shutil.rmtree(out)
    fresh = _run_files(out, 5)
    assert over_longer == fresh
    assert all(len(fresh[name]) < len(text) for name, text in longer.items())


def test_experiment_names_cover_registry():
    # the order is part of the "choose from" error message
    assert EXPERIMENT_NAMES == (
        "quad_lower_bound",
        "det_lower_bound",
        "theorem1",
        "theorem1_randomized",
    )


def test_det_lower_bound_small():
    cfg = ExperimentConfig.from_dict({"experiment": "det_lower_bound", "T": 3}).validate()
    report = run_experiment(cfg)
    assert report.all_passed
    assert max(report.records["reply_relative_errors"]) <= 1e-12


def test_theorem1_small_end_to_end():
    cfg = ExperimentConfig.from_dict({"experiment": "theorem1", "T": 5}).validate()
    report = run_experiment(cfg)
    assert report.all_passed
    assert len(report.certificates) == 5
    assert report.records["w_norm"] == pytest.approx(math.exp(-5.0) / 300.0)
    assert set(report.transcripts) == {"transcript", "transcript_base"}


def test_theorem1_replays_a_randomized_solver_on_the_algorithm_stream():
    # the replay draws from a fresh stream of the role the distance game drew
    # from, so a randomized solver's composed game repeats its distance game
    cfg = ExperimentConfig(
        experiment="theorem1",
        T=5,
        solver={"name": "smoothed", "delta": 0.1, "samples_per_step": 2},
        adversary={"mode": adversaries.MODE_RANDOMIZED},
    )
    report = run_experiment(cfg)
    assert [v.criterion for v in report.verdicts] == ["AC6"] * 4
    assert report.all_passed
    assert report.transcripts["transcript"] == report.transcripts["transcript_base"]


def _flip_zero_sign(grads, flags, rows):
    grads[rows, -1] = -grads[rows, -1]  # at x_1 = 0 and beyond the chain: a zero
    assert (grads[rows, -1] == 0.0).all()


def _flip_flag(grads, flags, rows):
    flags[rows] = ~flags[rows]


@pytest.mark.parametrize(
    "index, tamper",
    [
        pytest.param(0, _flip_zero_sign, id="_flip_zero_sign"),
        pytest.param(-1, _flip_flag, id="_flip_flag"),
    ],
)
def test_theorem1_ac6_is_bitwise(monkeypatch, index, tamper):
    # a composed channel that differs from the distance function at one iterate
    # only in one zero's sign or in one flag fails AC6; the composed game is then
    # played, and each transcript file holds its own game
    cfg = ExperimentConfig.from_dict({"experiment": "theorem1", "T": 5}).validate()
    clean = run_experiment(cfg).transcripts
    assert clean["transcript"] == clean["transcript_base"]
    base = Transcript.from_jsonl(clean["transcript_base"])
    target = base.queries[index]
    real_build = adversaries.build_channel_instance

    def tampered_build(*args, **kwargs):
        instance, diag = real_build(*args, **kwargs)
        real_eval_batch = instance.eval_batch

        def eval_batch(X):
            values, grads, flags, codes = real_eval_batch(X)
            tamper(grads, flags, (np.asarray(X) == target).all(axis=1))
            return values, grads, flags, codes

        instance.eval_batch = eval_batch
        return instance, diag

    real_play = harness.play
    played = []

    def recorded_play(*args, **kwargs):
        played.append(real_play(*args, **kwargs))
        return played[-1]

    monkeypatch.setattr(adversaries, "build_channel_instance", tampered_build)
    monkeypatch.setattr(harness, "play", recorded_play)
    report = run_experiment(cfg)
    ac6 = [v for v in report.verdicts if v.criterion == "AC6"]
    assert [v.passed for v in ac6] == [False, True, True, True]
    texts = report.transcripts
    assert len(played) == 1
    assert texts["transcript"] == played[0].to_jsonl() != clean["transcript"]
    assert texts["transcript_base"] == clean["transcript_base"]
    # the played game asks the distance game's queries and gets its replies,
    # tampered at the one iterate
    grads, flags = base.subgrads.copy(), base.differentiable.copy()
    tamper(grads, flags, np.arange(cfg.T) == index % cfg.T)
    expected = Transcript(T=cfg.T, d=cfg.d)
    expected.extend(base.queries, base.values, grads, flags)
    assert played[0].same_bits(expected)


def _theorem1_by_replay(cfg, descriptor, acfg) -> harness.Report:
    """theorem1 with AC6 decided by replaying the whole game on the composed
    channel, on a fresh algorithm stream: the reference for the one-batch check."""
    instance, diag = adversaries.build_channel_instance(
        acfg, descriptor, cfg.T, cfg.d, rng_state=role_streams(cfg.seed)
    )
    replay = harness.play(
        descriptor, instance, cfg.T, cfg.d, rng=harness.derive_stream(cfg.seed, "algorithm")
    )
    base = diag["transcript"]
    h_values = replay.values.tolist()
    values = instance.eval_batch(replay.queries)[0]
    certs = stationarity.near_stationarity_distance_lb(instance, values)
    min_cert = min(c.value for c in certs)
    h_at_zero = instance.eval(np.zeros(cfg.d)).value
    check = harness.CheckResult
    verdicts = [
        check(
            "AC6",
            "composed-channel iterates identical to distance-oracle iterates",
            replay.same_bits(base),
            {"solver": descriptor.name},
        ),
        check(
            "AC6",
            "min composed value over iterates > 0",
            min(h_values) > 0.0,
            {"min_value": min(h_values)},
        ),
        check(
            "AC6",
            "near-stationarity distance certificate >= 1/7 at every iterate",
            min_cert >= 1.0 / 7.0,
            {"min_certificate": min_cert},
        ),
        check(
            "AC6",
            "composed value at the origin <= 1/2",
            h_at_zero <= 0.5,
            {"value_at_zero": h_at_zero},
        ),
    ]
    records = {"h_values": h_values}
    for key in ("distances", "alignments", "coincidence_hypothesis", "w_norm"):
        records[key] = diag[key]
    return harness.Report(
        kind="experiment:theorem1",
        config=cfg.echo(),
        verdicts=verdicts,
        records=records,
        certificates=[c.to_json() for c in certs],
        transcripts={"transcript": replay.to_jsonl(), "transcript_base": base.to_jsonl()},
    )


def _same_report(report, reference) -> None:
    report.timing_seconds = reference.timing_seconds = 0.0
    assert json.dumps(report.to_json()) == json.dumps(reference.to_json())
    assert report.transcripts == reference.transcripts


RANDOMIZED_SOLVERS = [
    {"name": "smoothed", "delta": 0.1, "samples_per_step": 2},
    {"name": "goldstein", "delta": 0.1, "samples_per_step": 4},
]
THEOREM1_GRID = [
    ({"name": name}, T, d)
    for name in ("subgrad", "steepest")
    for T in (5, 12, 19)
    for d in (2 * T, 4 * T)
] + [(solver, 5, None) for solver in RANDOMIZED_SOLVERS]


@pytest.mark.parametrize("solver, T, d", THEOREM1_GRID)
def test_theorem1_report_matches_the_replayed_game(solver, T, d):
    # deciding AC6 from one batch of composed replies writes the report and
    # both transcripts, byte for byte, that replaying the composed game writes
    doc = {"experiment": "theorem1", "T": T, "d": d, "seed": 4242, "solver": solver}
    if solver["name"] not in ("subgrad", "steepest"):
        doc["adversary"] = {"mode": adversaries.MODE_RANDOMIZED}
    cfg, descriptor, acfg = harness.resolve(ExperimentConfig.from_dict(doc))
    _same_report(run_experiment(cfg), _theorem1_by_replay(cfg, descriptor, acfg))


def test_theorem1_report_matches_the_replayed_game_where_ac6_fails():
    # below the alignment floor, which configs are refused, a w drawn from the
    # sphere can break the coincidence: the composed game is played and
    # diverges, and the runner still writes what the replay writes
    descriptor = solvers.build_solver(name="subgrad")
    acfg = adversaries.ChannelAdversaryConfig(
        mode=adversaries.MODE_RANDOMIZED, w_norm=adversaries.default_w_norm(5)
    )
    failed = 0
    for seed in range(8):
        cfg = ExperimentConfig(experiment="theorem1", T=5, d=10, seed=seed)
        report = harness.run_theorem1(cfg, descriptor, acfg)
        failed += not report.verdicts[0].passed
        _same_report(report, _theorem1_by_replay(cfg, descriptor, acfg))
    assert failed


def test_theorem1_plays_only_the_distance_game_when_ac6_holds(monkeypatch):
    oracles = []
    for module in (adversaries, harness):
        real_play = module.play

        def counted_play(algorithm, oracle, *args, real_play=real_play, **kwargs):
            oracles.append(type(oracle))
            return real_play(algorithm, oracle, *args, **kwargs)

        monkeypatch.setattr(module, "play", counted_play)
    cfg = ExperimentConfig.from_dict({"experiment": "theorem1", "T": 8}).validate()
    report = run_experiment(cfg)
    assert report.verdicts[0].passed
    assert oracles == [zoo.NormDistance]


@pytest.mark.parametrize(
    "solver", [{"name": "subgrad"}, {"name": "smoothed", "delta": 0.1, "samples_per_step": 2}]
)
def test_randomized_trials_match_one_build_per_trial(solver):
    # a span solver's distance game is played once for all trials; a
    # randomized solver's consumes the algorithm stream, so it plays one per trial
    cfg = ExperimentConfig(
        experiment="theorem1_randomized", T=5, d=120, trials=12, seed=31, solver=solver
    ).validate()
    report = run_experiment(cfg)
    streams = role_streams(cfg.seed)
    descriptor = solvers.build_solver(**cfg.solver)
    acfg = adversaries.ChannelAdversaryConfig(mode=adversaries.MODE_RANDOMIZED)
    per_trial = [
        adversaries.build_channel_instance(acfg, descriptor, cfg.T, cfg.d, rng_state=streams)[1]
        for _ in range(cfg.trials)
    ]
    assert report.records["max_alignments"] == [diag["max_alignment"] for diag in per_trial]
    assert len({diag["transcript"].to_jsonl() for diag in per_trial}) == (
        1 if solver["name"] == "subgrad" else cfg.trials
    )


def test_theorem1_evaluates_the_composed_channel_once(monkeypatch):
    # one batch answers the distance game's queries and the origin; the
    # certificates and the value at the origin are read from its rows
    built, calls = [], []
    real_build = adversaries.build_channel_instance
    eval_batch, eval_one = ChannelInstance.eval_batch, ChannelInstance.eval

    def recorded_build(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    def counted_batch(self, X):
        calls.append(("eval_batch", self))
        return eval_batch(self, X)

    def counted_eval(self, x):
        calls.append(("eval", self))
        return eval_one(self, x)

    monkeypatch.setattr(ChannelInstance, "eval_batch", counted_batch)
    monkeypatch.setattr(ChannelInstance, "eval", counted_eval)
    monkeypatch.setattr(adversaries, "build_channel_instance", recorded_build)
    report = run_experiment(ExperimentConfig(experiment="theorem1", T=8, seed=4242))
    assert report.all_passed
    composed = built[0][0]
    assert [name for name, owner in calls if owner is composed] == ["eval_batch"]


def test_theorem1_randomized_few_trials():
    cfg = ExperimentConfig.from_dict(
        {"experiment": "theorem1_randomized", "T": 5, "d": 120, "trials": 10}
    ).validate()
    report = run_experiment(cfg)
    assert report.all_passed
    assert report.verdicts[0].details["failures"] == 0
    assert max(report.records["max_alignments"]) < 1.0 / 3.0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def test_verify_suite_names():
    # the order is the CLI's --suite choices and the "choose from" error message
    assert VERIFY_SUITES == ("prop1", "channel", "quadratic", "remark", "all")
    with pytest.raises(ConfigError):
        run_verify("nope", seed=1)


def test_verify_remark_suite_passes():
    report = run_verify("remark", seed=3)
    assert report.kind == "verify:remark"
    assert report.all_passed
    assert all(v.criterion == "AC8" for v in report.verdicts)


def test_verify_report_records_seconds_per_suite(tmp_path, capsys):
    assert cli.main(["verify", "--suite", "all", "--seed", "3", "--output_path", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    seconds = report["records"]["suite_seconds"]
    assert list(seconds) == ["prop1", "channel", "quadratic", "remark"]
    assert all(isinstance(t, float) and t >= 0.0 for t in seconds.values())
    assert sum(seconds.values()) <= report["timing_seconds"]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines[-6:-1]] == [
        "(verify:prop1", "(verify:channel", "(verify:quadratic", "(verify:remark", "(verify:all"
    ]
    assert list(run_verify("remark", seed=3).records["suite_seconds"]) == ["remark"]


@pytest.mark.parametrize("n", [0, 1, 8191, 8192, 8193, 3 * 8192])
def test_row_blocks_cover_every_row_once_in_order(n):
    blocks = [np.arange(n)[rows] for rows in harness._row_blocks(n)]
    assert all(0 < len(b) <= harness.VERIFY_BLOCK_ROWS for b in blocks)
    assert len(blocks) == -(-n // harness.VERIFY_BLOCK_ROWS)
    assert np.array_equal(np.concatenate([np.arange(0), *blocks]), np.arange(n))


def whole_array_channel_checks(seed):
    """verify_channel's (details, passed) as it computed them before it
    streamed its rows: every sample group drawn first from the same stream
    calls, and one eval_batch per group (the 700k bulk in 100k-row calls)."""
    rng = harness.derive_stream(seed, "certifier")
    w = np.array([0.3, 0.0, 0.0, 0.0])
    instance = ChannelInstance(w=w)
    A = rng.uniform(-2.0, 2.0, size=(100_000, 4))
    B = A + rng.normal(size=(100_000, 4)) * rng.uniform(1e-6, 1.0, size=(100_000, 1))
    gaps = row_norms(A - B)
    diff = np.abs(instance.eval_batch(A)[0] - instance.eval_batch(B)[0])
    max_ratio = float((diff / np.where(gaps > 0, gaps, 1.0)).max())

    bulk = rng.uniform(-2.0, 2.0, size=(700_000, 4))
    near_zero = rng.normal(size=(100_000, 4)) * rng.uniform(0.0, 1e-6, size=(100_000, 1))
    near_minus_w = -w + rng.normal(size=(100_000, 4)) * rng.uniform(0.0, 1e-6, size=(100_000, 1))
    tang = rng.normal(size=(100_000, 4))
    tang[:, 0] = 0.0
    tang /= row_norms(tang)[:, None]
    wbar = w / np.linalg.norm(w)
    cone = rng.uniform(1e-3, 2.0, size=(100_000, 1)) * (0.5 * wbar + (math.sqrt(3.0) / 2.0) * tang)
    cone += rng.normal(size=(100_000, 4)) * rng.uniform(0.0, 1e-9, size=(100_000, 1))
    groups = [*np.array_split(bulk, 7), near_zero, near_minus_w, cone - w]
    min_norm = min(float(row_norms(instance.eval_batch(X)[1]).min()) for X in groups)

    pts = rng.uniform(-2.0, 2.0, size=(100_000, 4))
    _, grads, diffs, codes = instance.eval_batch(pts)
    norms = row_norms(grads)
    bounds = np.where(codes == zoo.CODE_HINGE_BOUNDARY, 1.0 / math.sqrt(2.0), 1.0)
    spot_idx = harness.derive_stream(seed, "adversary").choice(100_000, size=200, replace=False)
    spot_certs = stationarity.subdiff_norm_lower_bound(instance, codes[spot_idx])
    consistent = bool(np.all(norms[diffs] >= bounds[diffs] - 1e-9)) and all(
        norm >= cert.value - 1e-9 for norm, cert in zip(norms[spot_idx].tolist(), spot_certs)
    )
    return [
        ({"max_ratio": max_ratio, "pairs": 100_000}, max_ratio <= 7.0 + 1e-6),
        ({"min_subgradient_norm": min_norm, "samples": 1_000_000},
         min_norm >= 1.0 / math.sqrt(2.0) - 1e-6),
        ({"points": 100_000, "certified_spot_checks": 200}, consistent),
    ]


@pytest.mark.parametrize("seed", [7, 11])
def test_streamed_verify_suites_keep_every_detail(seed):
    channel = harness.verify_channel(seed)
    assert [(c.details, c.passed) for c in channel] == whole_array_channel_checks(seed)

    rng = harness.derive_stream(seed, "certifier")
    spiral = Spiral(delta=1.0)
    inner = row_norms(spiral.eval_batch(sample_ball_batch(2, 1.0, 100_000, rng))[1])
    outer = row_norms(spiral.eval_batch(sample_ball_batch(2, 2.0, 100_000, rng))[1])
    prop1 = harness.verify_prop1(seed)
    assert prop1[1].details == {"min_gradient_norm": float(inner.min())}
    assert prop1[2].details == {"max_gradient_norm": float(outer.max())}


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------


def test_figure_values_match_documented_points():
    assert figure_values("fig2", np.array([[0.0, 0.0]]))[0] == pytest.approx(-0.6)
    assert figure_values("fig3", np.array([[1.0, 1.0]]))[0] == 2.5
    assert figure_values("fig3", np.array([[-1.0, 2.0]]))[0] == 2.5
    assert figure_values("fig1", np.array([[0.0, 1.0]]))[0] == pytest.approx(2.0)
    # the extended spiral is identically zero beyond radius 4
    assert figure_values("fig1", np.array([[4.5, 1.0]]))[0] == 0.0
    with pytest.raises(ConfigError):
        figure_values("fig9", np.zeros((1, 2)))


def test_figure_csv_grid():
    text = figure_csv("fig3", grid={"nu": 5, "nv": 4})
    lines = text.strip().splitlines()
    assert lines[0] == "u,v,value"
    assert len(lines) == 1 + 5 * 4
    u, v, val = lines[1].split(",")
    assert float(u) == -2.0 and float(v) == -2.0
    assert float(val) == figure_values("fig3", np.array([[-2.0, -2.0]]))[0]
    with pytest.raises(ConfigError):
        figure_csv("fig3", grid={"wat": 1})


def reference_figure_csv(figure_id: str, grid: dict | None = None) -> str:
    """figure_csv as it was written before it formatted each coordinate once:
    a row loop over the stacked grid points."""
    spec = {**FIGURE_DEFAULTS[figure_id], **(grid or {})}
    us = np.linspace(spec["umin"], spec["umax"], int(spec["nu"]))
    vs = np.linspace(spec["vmin"], spec["vmax"], int(spec["nv"]))
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    points = np.stack([uu.ravel(), vv.ravel()], axis=1)
    values = figure_values(figure_id, points)
    buf = io.StringIO()
    buf.write("u,v,value\n")
    for (u, v), val in zip(points, values):
        buf.write(f"{float(u)!r},{float(v)!r},{float(val)!r}\n")
    return buf.getvalue()


FIGURE_GRIDS = [
    None,
    {"nu": 7, "nv": 3},  # non-square: u is the slow coordinate
    {"umin": 2.0, "umax": -2.0, "vmin": 1.5, "vmax": -0.5, "nu": 5, "nv": 9},
    {"umin": -1e-7, "umax": 1e-7, "vmin": -3e-5, "vmax": 1e22, "nu": 4, "nv": 6},
    {"umin": -1.0, "umax": 1.0, "vmin": -0.0, "vmax": -1e-300, "nu": 3, "nv": 3},
]


@pytest.mark.parametrize("figure_id", ["fig1", "fig2", "fig3"])
def test_figure_csv_matches_reference_byte_for_byte(figure_id):
    texts = [figure_csv(figure_id, grid) for grid in FIGURE_GRIDS]
    assert texts == [reference_figure_csv(figure_id, grid) for grid in FIGURE_GRIDS]
    assert "e+22" in texts[3] and "e-05" in texts[3]
    assert ",-0.0," in texts[4]


def test_figure_data_stdout_is_the_reference_csv(capsys):
    assert cli.main(["figure-data", "--figure", "fig2", "--grid.nu", "7", "--grid.nv", "3"]) == 0
    assert capsys.readouterr().out == reference_figure_csv("fig2", {"nu": 7, "nv": 3})


# ---------------------------------------------------------------------------
# certification entry point
# ---------------------------------------------------------------------------


def test_certify_point_eps_refutation_path():
    doc = instance_to_json(ChannelInstance(w=[0.3, 0.0]))
    certs, answered = certify_point(doc, [-1.0, 0.0], "eps", eps=0.5)
    # single gradient has norm 1 (no witness) but the region bound 1 > eps
    assert answered and len(certs) == 2
    assert certs[0]["certified"] is False
    assert certs[1]["kind"] == "subdiff_norm_lower_bound"


def test_certify_point_eps_in_clamp_region_gives_only_the_witness_test():
    # (0.4, 0) sits on the clamp boundary of the clamped channel: its one
    # subgradient has norm 1 and no region bound holds there
    doc = instance_to_json(ChannelInstance(w=[0.3, 0.0], clamp=-1.0))
    certs, answered = certify_point(doc, [0.4, 0.0], "eps", eps=0.5)
    assert not answered and len(certs) == 1
    assert certs[0]["kind"] == "eps_stationary_witness" and certs[0]["value"] == 1.0


def test_certify_point_surfaces_other_bound_errors(monkeypatch):
    def broken(instance, X):
        raise DegenerateInputError("broken bound")

    monkeypatch.setattr(stationarity, "subdiff_norm_lower_bound", broken)
    doc = instance_to_json(ChannelInstance(w=[0.3, 0.0]))
    with pytest.raises(DegenerateInputError):
        certify_point(doc, [-1.0, 0.0], "eps", eps=0.5)


def test_certify_point_eps_evaluates_its_point_once(monkeypatch):
    rows = []
    eval_batch = ChannelInstance.eval_batch

    def counted(self, X):
        rows.append(len(X))
        return eval_batch(self, X)

    monkeypatch.setattr(ChannelInstance, "eval_batch", counted)
    doc = instance_to_json(ChannelInstance(w=[0.3, 0.0]))
    certs, answered = certify_point(doc, [-1.0, 0.0], "eps", eps=0.5)
    assert answered and [c["kind"] for c in certs] == [
        "eps_stationary_witness", "subdiff_norm_lower_bound"
    ]
    assert rows == [1]


@pytest.mark.parametrize(
    "point, error, message",
    [
        ([np.nan, 0.0], DegenerateInputError, "vector has non-finite entries"),
        ([1.0, 2.0, 3.0], DimensionMismatchError, "expected rows of dimension 2"),
        ([1e200, 1e200], DegenerateInputError, "oracle reply has non-finite entries"),
    ],
)
def test_certify_point_eps_rejects_a_bad_point_or_reply(point, error, message):
    doc = instance_to_json(ChannelInstance(w=[0.3, 0.0]))
    with pytest.raises(error, match=message), np.errstate(over="ignore", invalid="ignore"):
        certify_point(doc, point, "eps", eps=0.5)


def test_certify_point_eps_witness_path():
    doc = instance_to_json(ChannelInstance(w=[0.3, 0.0]))
    certs, answered = certify_point(doc, [0.0, 0.0], "eps", eps=2.5)
    assert answered and certs[0]["certified"] is True


def test_certify_point_delta_eps():
    doc = instance_to_json(Spiral(delta=0.05))
    certs, answered = certify_point(
        doc,
        [0.0, 0.0],
        "delta_eps",
        eps=1e-8,
        delta=0.05,
        stencil=[[0.0, 0.05], [0.0, -0.05]],
    )
    assert answered and certs[0]["value"] <= 1e-12
    with pytest.raises(ConfigError):
        certify_point(doc, [0.0, 0.0], "delta_eps", eps=0.1)
    with pytest.raises(ConfigError):
        certify_point(doc, [0.0, 0.0], "sideways", eps=0.1)


# ---------------------------------------------------------------------------
# adversary persistence bundle
# ---------------------------------------------------------------------------


def test_build_adversary_files_round_trip():
    cfg = ExperimentConfig.from_dict({"experiment": "theorem1", "T": 5}).validate()
    files = build_adversary_files(cfg)
    assert set(files) == {"instance.json", "diagnostics.json", "transcript.jsonl"}

    instance = instance_from_json(json.loads(files["instance.json"]))
    assert isinstance(instance, ChannelInstance)
    assert instance.clamp == -1.0 and instance.affine is not None

    diag = json.loads(files["diagnostics.json"])
    assert diag["config"]["T"] == 5
    assert diag["max_alignment"] == 0.0

    transcript = Transcript.from_jsonl(files["transcript.jsonl"])
    assert len(transcript) == 5
