"""The parameter envelope of ``nearstat run``.

A configuration outside it exits 2 with ``config error:`` before any game is
played; one inside it runs to a verdict (exit 0, or exit 1 with a ``FAIL``
line) or to a typed ``error:`` line, never to a traceback.  The CLI runs
in-process here, so that ``play`` can be replaced by a function that fails the
test when a game starts.
"""

import contextlib
import functools
import io
import json
import os
import shlex
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nearstat import adversaries, cli, harness
from nearstat.errors import ConfigError

# deterministic and bounded, so tier-1 runs the same examples every time
ENVELOPE_PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=60)

SPAN_SOLVERS = ("subgrad", "steepest")
EXPERIMENTS = ("quad_lower_bound", "det_lower_bound", "theorem1", "theorem1_randomized")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def no_games():
    """Fail loudly if any oracle game starts."""

    def refuse(*args, **kwargs):
        raise AssertionError("a game was played for a configuration outside the envelope")

    with mock.patch.object(harness, "play", refuse), mock.patch.object(adversaries, "play", refuse):
        yield


def assert_rejected(argv: list[str]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = f"{tmp}/out"
        with no_games():
            code, _, err = run_cli(["run", *argv, "--output_path", out])
        assert code == 2, (argv, err)
        assert err.startswith("config error:"), (argv, err)
        assert not os.path.exists(out)


# Each of these got past validation before it was built: it crashed with an
# untyped traceback, exited 1, or ran with a setting silently ignored.
REJECTED = [
    "--solver.name smoothed",
    "--solver.name nosuch",
    "--solver.name subgrad --solver.bogus 1",
    "--solver.name subgrad --solver.schedule 3",
    "--solver.name subgrad --solver.schedule.kind nosuch",
    "--solver.name steepest --solver.schedule.kind constant",
    # a line search is steepest descent's own rule, not a step-size schedule
    "--solver.name subgrad --solver.schedule.kind exact_line_search_quadratic",
    "--experiment quad_lower_bound --solver.name smoothed --solver.delta 0.1"
    " --solver.samples_per_step 4 --solver.schedule.kind exact_line_search_quadratic",
    "--experiment quad_lower_bound --solver.name goldstein --solver.delta 0.1"
    " --solver.samples_per_step 4 --solver.schedule.kind exact_line_search_quadratic",
    "--experiment quad_lower_bound --T 1",
    "--experiment det_lower_bound --T 1",
    "--experiment quad_lower_bound --T 3 --d 2",
    "--experiment quad_lower_bound --T true",
    "--experiment quad_lower_bound --T 3 --seed true",
    "--experiment theorem1 --T 5 --solver.name goldstein --solver.delta 0.1",
    "--experiment theorem1 --T 5 --adversary.mode nosuch",
    "--experiment theorem1 --T 5 --adversary.bogus 1",
    "--experiment quad_lower_bound --T 3 --tolerances.foo 1",
    "--experiment theorem1_randomized --T 5 --adversary.mode deterministic_orthogonal",
    # at d = 2T a w drawn from the sphere fails subgrad's AC6 for seeds 1, 3, 4 of 0-7
    "--experiment theorem1 --T 5 --d 10 --adversary.mode randomized_sphere",
    # the chain experiments build no channel, so an adversary table would be ignored
    "--experiment quad_lower_bound --T 5 --adversary.mode randomized_sphere --adversary.w_norm 5",
    "--experiment det_lower_bound --T 5 --adversary.mode deterministic_orthogonal",
    "--experiment quad_lower_bound --solver.name goldstein --solver.delta 0.1"
    " --solver.stencil [[5,0]]",
    "--experiment quad_lower_bound --solver.name goldstein --solver.delta 0.1"
    " --solver.stencil [[0.01,0,0]]",
    # a JSON true is no number
    "--solver.name subgrad --solver.schedule.scale true",
    "--solver.name smoothed --solver.delta true --solver.samples_per_step 4",
    "--solver.name smoothed --solver.delta 0.1 --solver.samples_per_step true",
    "--solver.name goldstein --solver.delta true",
    "--solver.name goldstein --solver.delta 0.1 --solver.samples_per_step true",
    "--solver.name goldstein --solver.delta 0.1 --solver.eps_stop true",
    "--solver.name goldstein --solver.delta 0.1 --solver.stencil [[true,0]]",
    # a sample count is an integer
    "--experiment quad_lower_bound --solver.name goldstein --solver.delta 0.1"
    " --solver.samples_per_step 2.5",
    "--experiment quad_lower_bound --solver.name smoothed --solver.delta 0.1"
    " --solver.samples_per_step 2.5",
    # a stencil fixes Goldstein's round, so a sample count beside it would be ignored
    "--experiment quad_lower_bound --T 2 --d 2 --solver.name goldstein --solver.delta 0.1"
    " --solver.stencil [[0.05,0],[0,0.05]] --solver.samples_per_step 7",
    "--experiment quad_lower_bound --T 2 --d 2 --solver.name goldstein --solver.delta 0.1"
    " --solver.stencil [[0.05,0],[0,0.05]] --solver.samples_per_step 0",
    "--experiment theorem1_randomized --T 5 --trials 0",
]


@pytest.mark.parametrize("argv", REJECTED)
def test_config_outside_the_envelope_exits_two_before_play(argv):
    assert_rejected(shlex.split(argv))


# Malformed input to ``certify``: each ended in a traceback, or in an untyped
# ``error:`` line with exit 1.
REJECTED_CERTIFY = [
    """--function '{"kind": "spiral"}' --point 0.3,0.2 --eps 0.5""",
    """--function '{"kind": "spiral", "delta": null}' --point 0.3,0.2 --eps 0.5""",
    """--function '{"kind": "channel"}' --point 0.3,0.2 --eps 0.5""",
    """--function '[1]' --point 0.3,0.2 --eps 0.5""",
    """--function '{"kind": "warga" "delta": 1}' --point 0,0 --eps 0.5""",
    """--function '{"kind": "warga"}' --point 0,0 --eps 0.5 --notion delta_eps --delta 0.1"""
    """ --stencil '[[0, 0.1] [0, -0.1]]'""",
    """--function '{"kind": "warga"}' --point a,b --eps 0.5""",
    """--function '{"kind": "mystery"}' --point 0,0 --eps 1""",
    """--function '{"kind": "warga"}' --point 0,0 --eps 0.5 --bogus 1""",
    # an argument that stationarity's checks refuse, or a point of another
    # dimension than the function's, is refused before any evaluation
    """--function '{"kind": "warga"}' --point 0,0,0 --eps 0.5""",
    """--function '{"kind": "warga"}' --point 0,0 --eps -1""",
    """--function '{"kind": "warga"}' --point 0,0 --eps -1 --notion delta_eps --delta 0.1""",
    """--function '{"kind": "warga"}' --point 0,0 --eps 0.5 --notion delta_eps --delta 0""",
    """--function '{"kind": "warga"}' --point 0,0 --eps 0.5 --notion delta_eps --delta -1""",
    """--function '{"kind": "warga"}' --point 0,0 --eps 0.5 --notion delta_eps --delta 0.1"""
    """ --samples -1""",
    """--function '{"kind": "warga"}' --point 0,0 --eps 0.5 --notion delta_eps --delta 0.1"""
    """ --stencil '[[0.5, 0]]'""",
    """--function '{"kind": "warga"}' --point 0,0 --eps 0.5 --notion delta_eps --delta 0.1"""
    """ --stencil '[[0.01, 0, 0]]'""",
    """--function '{"kind": "warga"}' --point 0,0 --eps 0.5 --notion delta_eps --delta 0.1"""
    """ --stencil '[]'""",
    # a threshold or a point that is not finite certifies nothing
    """--function '{"kind": "warga"}' --point 0,0 --eps inf""",
    """--function '{"kind": "warga"}' --point 0,0 --eps nan""",
    """--function '{"kind": "warga"}' --point 0,0 --eps 0.5 --notion delta_eps --delta nan""",
    """--function '{"kind": "warga"}' --point 0,0 --eps 0.5 --notion delta_eps --delta inf""",
    """--function '{"kind": "warga"}' --point nan,0 --eps 0.5""",
    # a stencil entry reads as a config number does
    """--function '{"kind": "warga"}' --point 0,0 --eps 0.5 --notion delta_eps --delta 0.1"""
    """ --stencil '[["0.05", 0], [0, -0.05]]'""",
    """--function '{"kind": "warga"}' --point 0,0 --eps 0.5 --notion delta_eps --delta 1.5"""
    """ --stencil '[[true, 0]]'""",
    """--function '{"kind": "warga"}' --point 0,0 --eps 0.5 --notion delta_eps --delta 0.1"""
    """ --stencil 5""",
    # a function document reads numbers as a config does: a JSON true or a
    # string is no number
    """--function '{"kind": "spiral", "delta": true}' --point 0.3,0.2 --eps 0.5""",
    """--function '{"kind": "spiral", "delta": "1.5"}' --point 0.3,0.2 --eps 0.5""",
    """--function '{"kind": "channel", "w": [0.3, true]}' --point 0,0 --eps 0.5""",
    """--function '{"kind": "channel", "w": [0.3, "0.1"]}' --point 0,0 --eps 0.5""",
    """--function '{"kind": "channel", "w": [0.3, 0], "clamp": "-1"}' --point 0,0 --eps 0.5""",
]


@pytest.mark.parametrize("argv", REJECTED_CERTIFY)
def test_malformed_certify_input_exits_two(argv):
    code, out, err = run_cli(["certify", *shlex.split(argv)])
    assert code == 2 and out == "", (argv, err)
    assert err.startswith("config error:") and err.count("\n") == 1, (argv, err)


@functools.cache
def adversary_document() -> str:
    """The composed channel that ``adversary`` writes at T = 5, d = 20."""
    cfg = harness.ExperimentConfig(experiment="theorem1", T=5, d=20, seed=4242)
    return harness.build_adversary_files(cfg)["instance.json"]


@pytest.mark.parametrize(
    "mutate, point, message",
    [
        pytest.param(
            lambda doc: doc, "0,0,0", "--point has shape (3,); the function takes (20,)",
            id="point-of-3",
        ),
        # the carved w's first five entries are zero, which once named the wrong fault
        pytest.param(
            lambda doc: {**doc, "w": doc["w"][:5]}, "0,0,0,0,0", "'w' has the wrong length",
            id="w-of-5",
        ),
        pytest.param(
            lambda doc: {**doc, "chain": {**doc["chain"], "T": 5.7}}, None,
            "T must be an integer", id="chain-T-5.7",
        ),
        pytest.param(
            lambda doc: {**doc, "clamp": "-1"}, None, "clamp must be a number", id="clamp-string"
        ),
        pytest.param(
            lambda doc: {**doc, "w": [True, *doc["w"][1:]]}, None, "w entry must be a number",
            id="w-entry-true",
        ),
    ],
)
def test_faulty_adversary_document_or_point_exits_two(mutate, point, message):
    doc = mutate(json.loads(adversary_document()))
    point = point or ",".join(["0"] * 20)
    argv = ["certify", "--function", json.dumps(doc), "--point", point, "--eps", "0.5"]
    code, out, err = run_cli(argv)
    assert code == 2 and out == "", err
    assert err.startswith("config error:") and message in err, err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--experiment", "quad_lower_bound", "--T"], "flag --T needs a value"),
        (["run", "--T", "3", "stray"], "unexpected argument 'stray'"),
        (["adversary", "--T", "5", "stray"], "unexpected argument 'stray'"),
        (["figure-data", "--figure", "fig1", "--grid.nu", "1"], "at least 2 points per axis"),
    ],
)
def test_malformed_flags_exit_two_before_play(argv, message):
    with no_games():
        code, out, err = run_cli(argv)
    assert code == 2 and out == "", err
    assert err.startswith("config error:") and message in err, err


def test_a_config_file_must_hold_an_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('[{"experiment": "quad_lower_bound"}]')
    for command in ("run", "adversary"):
        with no_games():
            code, _, err = run_cli([command, "--config", str(path)])
        assert code == 2 and err == "config error: config file must hold a JSON object\n"


def test_a_flag_reads_the_same_as_key_equals_value(tmp_path):
    flags = {"experiment": "det_lower_bound", "T": "4", "solver.name": "steepest"}
    reports = []
    for out, argv in (
        (tmp_path / "a", [token for key, val in flags.items() for token in (f"--{key}", val)]),
        (tmp_path / "b", [f"--{key}={val}" for key, val in flags.items()]),
    ):
        code, _, err = run_cli(["run", *argv, f"--output_path={out}"])
        assert code == 0, err
        report = json.loads((out / "report.json").read_text())
        del report["timing_seconds"], report["config"]["output_path"]
        reports.append((report, (out / "transcript.jsonl").read_text()))
    assert reports[0] == reports[1]
    config = reports[0][0]["config"]
    assert (config["T"], config["solver"]) == (4, {"name": "steepest"})


def _flags(experiment: str, solver: str, T, d, *extra: str) -> list[str]:
    argv = ["--experiment", experiment, "--solver.name", solver, "--T", str(T)]
    return argv + (["--d", str(d)] if d is not None else []) + list(extra)


def _d_floor(experiment: str, T: int) -> int:
    """The smallest d the experiment accepts at T."""
    if experiment == "theorem1_randomized":
        return harness.randomized_min_d(T)
    return T if experiment == "quad_lower_bound" else 2 * T


@st.composite
def outside_configs(draw) -> list[str]:
    """One violation of the envelope, drawn over experiment x solver x T x d."""
    experiment = draw(st.sampled_from(EXPERIMENTS))
    solver = draw(st.sampled_from(SPAN_SOLVERS))
    channel = experiment in harness.CHANNEL_EXPERIMENTS
    T = draw(st.integers(2, adversaries.CHANNEL_T_MAX))
    kind = draw(
        st.sampled_from(
            ["T_low", "T_high", "d_low", "ill_typed", "solver", "adversary", "randomized_solver"]
        )
    )
    if kind == "T_low":
        return _flags(experiment, solver, draw(st.integers(-3, 1)), None)
    if kind == "T_high":
        if not channel:  # only the channel envelope ends at T = 19; draw d < T instead
            return _flags(experiment, solver, T, draw(st.integers(1, T - 1)))
        return _flags(experiment, solver, draw(st.integers(20, 40)), None)
    if kind == "d_low":
        return _flags(experiment, solver, T, draw(st.integers(-2, _d_floor(experiment, T) - 1)))
    if kind == "ill_typed":
        field = draw(st.sampled_from(["--T", "--d", "--seed", "--trials"]))
        value = draw(st.sampled_from(["true", "2.5", "ten", "[4]"]))
        if field == "--trials":
            experiment = "theorem1_randomized"
        return _flags(experiment, solver, T, None, field, value)
    if kind == "solver":
        bad = draw(
            st.sampled_from(
                [
                    ["--solver.bogus", "1"],
                    ["--solver.schedule", "3"],
                    ["--solver.schedule.kind", "nosuch"],
                    ["--solver.schedule.kind", "exact_line_search_quadratic"],
                    ["--solver.schedule.scale", "-1"],
                    ["--solver.name", "nosuch"],
                    ["--solver.name", "smoothed"],
                ]
            )
        )
        if solver == "steepest" and bad[0].startswith("--solver.schedule"):
            bad = ["--solver.schedule.kind", "constant"]
        return _flags(experiment, solver, T, None, *bad)
    if kind == "adversary":
        bad = [
            ["--adversary.bogus", "1"],
            ["--adversary.mode", "nosuch"],
            ["--adversary", "3"],
        ]
        if channel:
            bad.append(["--adversary.w_norm", draw(st.sampled_from(["1e-12", "0", "-1", "small"]))])
        if experiment == "theorem1_randomized":
            bad.append(["--adversary.mode", "deterministic_orthogonal"])
        return _flags(experiment, solver, T, None, *draw(st.sampled_from(bad)))
    # a randomized-class solver against the deterministic carve
    return _flags("theorem1", "goldstein", T, None, "--solver.delta", "0.1")


@ENVELOPE_PROFILE
@given(outside_configs())
def test_drawn_config_outside_the_envelope_exits_two_before_play(argv):
    assert_rejected(argv)


@st.composite
def inside_configs(draw) -> list[str]:
    experiment = draw(st.sampled_from(EXPERIMENTS))
    solver = draw(st.sampled_from(SPAN_SOLVERS))
    T = draw(st.integers(2, adversaries.CHANNEL_T_MAX))
    floor = _d_floor(experiment, T)
    d = draw(st.integers(floor, floor + 3 * T))
    seed = draw(st.integers(0, 2**31))
    return _flags(experiment, solver, T, d, "--seed", str(seed), "--trials", "3")


@ENVELOPE_PROFILE
@given(inside_configs())
# Known exit-1 outcomes inside the envelope: in the channel experiments
# subgrad gets within exp(-T) of the minimizer at T = 2..4 (a typed error),
# and steepest fails AC1/AC2 at T = 3.
@example(_flags("theorem1", "subgrad", 3, 6))
@example(_flags("quad_lower_bound", "steepest", 3, 6))
def test_drawn_config_inside_the_envelope_ends_in_a_verdict_or_typed_error(argv):
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = run_cli(["run", *argv, "--output_path", tmp])
    assert code in (0, 1), (argv, code, err)
    if code == 1:
        assert "[FAIL]" in out or err.startswith("error:"), (argv, out, err)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_a_w_drawn_from_the_sphere_defaults_d_to_the_alignment_floor(experiment):
    # wherever a channel is built in randomized_sphere mode, d defaults to
    # randomized_min_d(T); ``run`` builds none for the chain experiments, so
    # it rejects their adversary table
    doc = {"experiment": experiment, "T": 5, "adversary": {"mode": adversaries.MODE_RANDOMIZED}}
    cfg = harness.ExperimentConfig.from_dict(doc)
    floor = harness.randomized_min_d(5)
    if experiment in harness.CHANNEL_EXPERIMENTS:
        assert harness.resolve(cfg)[0].d == floor
    else:
        with pytest.raises(ConfigError, match="adversary"):
            harness.resolve(cfg)
    assert harness.resolve(cfg, channel=True)[0].d == floor


RANDOMIZED_SOLVER = {"name": "smoothed", "delta": 0.1, "samples_per_step": 2}


@pytest.mark.parametrize("solver", [{"name": "subgrad"}, RANDOMIZED_SOLVER])
@pytest.mark.parametrize(
    "mode", [None, adversaries.MODE_DETERMINISTIC, adversaries.MODE_RANDOMIZED]
)
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_adversary_builds_in_the_mode_run_resolves(experiment, mode, solver):
    # ``adversary`` resolves a config as ``run`` does: its w is picked in the
    # mode ``run`` resolves, or the config exits 2 before any file is written.
    # A deterministic carve needs a deterministic solver, and
    # theorem1_randomized draws w from the sphere.
    doc = {"experiment": experiment, "T": 5, "solver": solver}
    if mode is not None:
        doc["adversary"] = {"mode": mode}
    resolved_mode = mode or (
        adversaries.MODE_RANDOMIZED
        if experiment == "theorem1_randomized"
        else adversaries.MODE_DETERMINISTIC
    )
    rejected = resolved_mode == adversaries.MODE_DETERMINISTIC and (
        solver is RANDOMIZED_SOLVER or experiment == "theorem1_randomized"
    )
    with tempfile.TemporaryDirectory() as tmp:
        out, cfg_path = f"{tmp}/out", f"{tmp}/cfg.json"
        with open(cfg_path, "w") as fh:
            json.dump({**doc, "output_path": out}, fh)
        code, _, err = run_cli(["adversary", "--config", cfg_path])
        if rejected:
            assert code == 2 and err.startswith("config error:"), err
            assert not os.path.exists(out)
            return
        assert code == 0, err
        with open(f"{out}/diagnostics.json") as fh:
            written = json.load(fh)["mode"]
    assert written == resolved_mode
    cfg = harness.ExperimentConfig.from_dict(doc)
    if mode is not None and experiment not in harness.CHANNEL_EXPERIMENTS:
        # ``run`` builds no channel for a chain experiment, so it rejects the table
        with pytest.raises(ConfigError, match="adversary"):
            harness.resolve(cfg)
    else:
        assert harness.resolve(cfg)[2].mode == written
