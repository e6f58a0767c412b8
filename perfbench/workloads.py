"""The three workloads: inputs made from the seed, operations, and their checks.

A workload is a function ``inputs(seed, tmp)`` that builds everything the
operations need (setup) plus a generator ``ops(inputs)`` that yields
one round of :class:`Op` objects.  The generator resumes only after the
previous operation ran and was checked, so later operations may read earlier
outputs (``certify`` at the iterates an ``adversary`` call persisted).  Every
round yields the same operations in the same order for a given seed; the
seed changes the numbers, never the shape of a round, so runs with different
seeds time the same mix.

Operations drive nearstat the way a user does: ``cli.main([...])`` for
``run``, ``adversary`` and ``certify``, ``harness.run_verify`` and
``harness.figure_csv``, and library calls only where the CLI has no entry
point (``solvers.smoothed_estimates``, ``play`` with ``goldstein``).  Module
attributes are looked up at call time so that a traced round sees the
wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks
from checks import require
from nearstat import cli, harness, oracle_game, solvers, stationarity, zoo


class ProgramFailure(Exception):
    """The program itself reported failure: nonzero exit, failed verdict, error."""


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]  # timed
    check: Callable[[Any], None]  # not timed; raises ProgramFailure or CheckError


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``nearstat <argv>`` in-process; returns the exit code and what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def require_exit_zero(result: tuple[int, str]) -> str:
    code, text = result
    if code != 0:
        raise ProgramFailure(f"exit {code}: {text.strip()[-300:]}")
    return text


def load_report(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    failed = [v["name"] for v in report["verdicts"] if not v["passed"]]
    if failed or not report["all_passed"]:
        raise ProgramFailure(f"failed verdicts: {failed}")
    return report


def seeded(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) % 2**63, tag])


# ---------------------------------------------------------------------------
# games: the lower-bound experiments through `nearstat run`
# ---------------------------------------------------------------------------

SPAN_SOLVERS = ("subgrad", "steepest")
GAME_T = range(5, 20)
# (solver, T, d) of the persisted instances whose iterates `certify` visits
ADVERSARY_SHAPES = (("subgrad", 10, 20), ("steepest", 15, 60))
RANDOMIZED_T, RANDOMIZED_D = 10, 200


def games_inputs(seed: int, tmp: str) -> dict:
    rng = seeded(seed, 1)
    blocks = [("config", s, T, d) for s in SPAN_SOLVERS for T in GAME_T for d in (2 * T, 4 * T)]
    blocks.append(("randomized",))
    blocks += [("adversary", i) for i in range(len(ADVERSARY_SHAPES))]
    order = rng.permutation(len(blocks))
    return {
        "tmp": tmp,
        "master_seed": int(rng.integers(1, 2**31)),
        # any span method obeys the bound; the step size is an input like the seed
        "subgrad_scale": float(rng.uniform(0.06, 0.15)),
        "certify_eps": [float(e) for e in rng.uniform(0.05, 0.45, len(ADVERSARY_SHAPES))],
        "blocks": [blocks[i] for i in order],
    }


def _solver_flags(inputs: dict, solver: str) -> list[str]:
    flags = ["--solver.name", solver]
    if solver == "subgrad":
        flags += ["--solver.schedule.scale", repr(inputs["subgrad_scale"])]
    return flags


def _run_experiment(argv: list[str], out_dir: str, transcripts: tuple[str, ...]):
    """`nearstat run`, then reload each transcript it wrote and validate its span."""
    result = run_cli(argv)
    reloaded = {}
    if result[0] == 0:
        for name in transcripts:
            with open(os.path.join(out_dir, f"{name}.jsonl")) as fh:
                text = fh.read()
            transcript = oracle_game.Transcript.from_jsonl(text)
            reloaded[name] = (text, oracle_game.validate_span(transcript))
    return result, reloaded


def _checked_transcript(reloaded: dict, name: str, T: int):
    text, (ok, bad) = reloaded[name]
    if not ok:
        raise ProgramFailure(f"validate_span rejects {name} at query {bad}")
    rows = [json.loads(line) for line in text.splitlines()]
    require(len(rows) == T, f"{name} holds {len(rows)} entries, not T={T}")
    return checks.transcript_arrays(rows)


def _config_ops(inputs: dict, solver: str, T: int, d: int):
    common = ["--T", str(T), "--d", str(d), "--seed", str(inputs["master_seed"])]
    common += _solver_flags(inputs, solver)
    natural = {}  # the quad_lower_bound game, for its rotated twin

    def run_op(experiment: str, transcripts: tuple[str, ...]):
        out = os.path.join(inputs["tmp"], f"{experiment}-{solver}-T{T}-d{d}")
        argv = ["run", "--experiment", experiment, *common, "--output_path", out]
        return out, lambda: _run_experiment(argv, out, transcripts)

    quad_dir, quad_run = run_op("quad_lower_bound", ("transcript",))

    def quad_check(result):
        require_exit_zero(result[0])
        report = load_report(quad_dir)
        Q, V, G = _checked_transcript(result[1], "transcript", T)
        checks.check_chain_replies(Q, V, G, T, d, distance=False)
        dist = checks.check_min_distance(Q, T, d)
        checks.check_span(Q, G)
        reported = report["verdicts"][0]["details"]["min_distance"]
        checks.check_close(reported, dist, 1e-12, 0.0, "reported min distance")
        natural.update(Q=Q, V=V, G=G, dist=dist)

    det_dir, det_run = run_op("det_lower_bound", ("transcript",))

    def det_check(result):
        require_exit_zero(result[0])
        report = load_report(det_dir)
        Q, V, G = _checked_transcript(result[1], "transcript", T)
        checks.check_span(Q, G)
        # The resisting rotation is an isometry hidden from a span method:
        # values, query norms and gradient norms repeat the natural game's.
        require(bool(natural), "the natural game of this configuration failed")
        checks.check_close(V, natural["V"], 1e-12, 0.0, "rotated values vs natural game")
        for name, a, b in (("query", Q, natural["Q"]), ("gradient", G, natural["G"])):
            checks.check_close(
                np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1), 1e-12, 1e-15,
                f"rotated {name} norms vs natural game",
            )
        reported = report["verdicts"][0]["details"]["min_distance"]
        checks.check_close(
            reported, natural["dist"], 1e-9, 0.0, "rotated min distance vs natural game"
        )

    thm_dir, thm_run = run_op("theorem1", ("transcript", "transcript_base"))

    def thm_check(result):
        require_exit_zero(result[0])
        report = load_report(thm_dir)
        checks.check_same_text(
            result[1]["transcript"][0], result[1]["transcript_base"][0],
            "composed-channel and distance-oracle transcripts",
        )
        Q, V, G = _checked_transcript(result[1], "transcript", T)
        checks.check_chain_replies(Q, V, G, T, d, distance=True)
        checks.check_min_distance(Q, T, d)
        checks.check_span(Q, G)
        h = np.array(report["records"]["h_values"])
        require(np.array_equal(h, V), "reported h values differ from the transcript")
        require(bool(np.all(h > 0.0)), f"composed value {h.min()!r} not positive")
        certs = np.array([c["value"] for c in report["certificates"]])
        # value gap over the clamp -1, divided by the Lipschitz constant 7
        checks.check_close(certs, (h + 1.0) / checks.CLAMP_LIPSCHITZ, 1e-12, 0.0, "certificates")
        require(bool(np.all(certs >= 1.0 / 7.0)), f"certificate {certs.min()!r} < 1/7")
        checks.check_close(
            report["records"]["w_norm"], math.exp(-T) / 300.0, 1e-12, 0.0, "w_norm"
        )

    yield Op("run", quad_run, quad_check)
    yield Op("run", det_run, det_check)
    yield Op("run", thm_run, thm_check)


def _randomized_op(inputs: dict):
    out = os.path.join(inputs["tmp"], "theorem1_randomized")
    argv = ["run", "--experiment", "theorem1_randomized", "--T", str(RANDOMIZED_T)]
    argv += ["--d", str(RANDOMIZED_D), "--seed", str(inputs["master_seed"]), "--output_path", out]

    def check(result):
        require_exit_zero(result)
        report = load_report(out)
        checks.check_alignment_fraction(
            report["records"]["max_alignments"],
            report["config"]["trials"],
            report["verdicts"][0]["details"]["fraction"],
        )

    return Op("run", lambda: run_cli(argv), check)


def _adversary_ops(inputs: dict, index: int):
    solver, T, d = ADVERSARY_SHAPES[index]
    eps = inputs["certify_eps"][index]
    out = os.path.join(inputs["tmp"], f"adversary-{index}")
    argv = ["adversary", "--T", str(T), "--d", str(d), "--seed", str(inputs["master_seed"])]
    argv += [*_solver_flags(inputs, solver), "--output_path", out]
    persisted = {}

    def adv_check(result):
        require_exit_zero(result)
        path = os.path.join(out, "instance.json")
        with open(path) as fh:
            doc = json.load(fh)
        require(doc["kind"] == "channel_composed", f"instance kind {doc['kind']!r}")
        require(doc["chain"]["T"] == T and doc["chain"]["d"] == d, "instance chain shape")
        require(doc["clamp"] == -1.0 and doc["rotation_frame"] is None, "instance clamp/frame")
        checks.check_close(doc["x_star"], checks.chain_minimizer(T, d), 0.0, 1e-15, "x_star")
        w = np.array(doc["w"])
        checks.check_close(np.linalg.norm(w), math.exp(-T) / 300.0, 1e-12, 0.0, "|w|")
        Q, V, G = checks.transcript_arrays(checks.read_jsonl(os.path.join(out, "transcript.jsonl")))
        require(len(Q) == T, f"persisted transcript holds {len(Q)} entries")
        checks.check_chain_replies(Q, V, G, T, d, distance=True)
        checks.check_min_distance(Q, T, d)
        checks.check_span(Q, G)
        # the composed channel, rebuilt from instance.json, at every iterate
        h, _ = checks.composed_channel(Q, w, -1.0, T, d)
        checks.check_close(h, V, 1e-9, 1e-15, "composed value vs distance transcript")
        # positive h over the clamp -1 is a value gap giving distance >= 1/7
        require(bool(np.all(h > 0.0)), f"composed value {h.min()!r} not positive")
        persisted.update(path=path, w=w, iterates=Q)

    yield Op("adversary", lambda: run_cli(argv), adv_check)
    if not persisted:
        return

    for x in persisted["iterates"]:
        cert_argv = ["certify", "--function-file", persisted["path"]]
        cert_argv += ["--point", json.dumps(x.tolist()), "--notion", "eps", "--eps", repr(eps)]

        def cert_check(result, x=x):
            certs = json.loads(require_exit_zero(result))
            _, grad = checks.composed_channel(x, persisted["w"], -1.0, T, d)
            gnorm = float(np.linalg.norm(grad))
            witness, bound = certs
            require(witness["kind"] == "eps_stationary_witness", "first certificate kind")
            checks.check_close(witness["value"], gnorm, 1e-9, 0.0, "subgradient norm")
            require(not witness["certified"] and gnorm > eps, "iterate wrongly eps-stationary")
            require(bound["kind"] == "subdiff_norm_lower_bound", "second certificate kind")
            require(eps < bound["value"] <= gnorm + 1e-12, f"norm bound {bound['value']!r}")

        yield Op("certify", lambda argv=cert_argv: run_cli(argv), cert_check)


def games_ops(inputs: dict):
    for block in inputs["blocks"]:
        if block[0] == "config":
            yield from _config_ops(inputs, *block[1:])
        elif block[0] == "randomized":
            yield _randomized_op(inputs)
        else:
            yield from _adversary_ops(inputs, block[1])


# ---------------------------------------------------------------------------
# sampling: smoothed estimates, Goldstein games, sampled (delta, eps) certificates
# ---------------------------------------------------------------------------

SMOOTH_OFFSETS = 2048
SMOOTH_RADIUS = 0.5
# Small enough that a shared offset lands within h of one of Warga's kinks
# with negligible probability; one such crossing moves the mean by < 1e-3.
FD_STEP = 1e-7
FD_TOL = 1e-3
GOLDSTEIN_DELTA = 0.5
GOLDSTEIN_SAMPLES = 32
GOLDSTEIN_ROUNDS = 6
GOLDSTEIN_GAMES = 2
CERT_DELTA = 0.5
CERT_EPS = 1e-6
CERT_SAMPLES = 64
CERT_POINTS = 4
COMPOSED_T = 3


def _unit(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def _ball_offsets(rng, n: int, d: int, radius: float) -> np.ndarray:
    dirs = rng.normal(size=(n, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * (radius * rng.random(n) ** (1.0 / d))[:, None]


def sampling_inputs(seed: int, tmp: str) -> dict:
    rng = seeded(seed, 2)
    channel_w = 0.02 * _unit(rng, 3)
    composed_d = 2 * COMPOSED_T
    composed_w = 1e-3 * _unit(rng, composed_d)
    blank = dict.fromkeys(("delta", "w", "clamp", "x_star", "chain", "rotation_frame"))
    channel_doc = {**blank, "kind": "channel", "w": channel_w.tolist()}
    composed_doc = {
        **blank,
        "kind": "channel_composed",
        "w": composed_w.tolist(),
        "clamp": -1.0,
        "x_star": checks.chain_minimizer(COMPOSED_T, composed_d).tolist(),
        "chain": {"T": COMPOSED_T, "d": composed_d, "k": checks.CHAIN_K},
    }
    docs = {}
    for name, doc in (("channel", channel_doc), ("composed", composed_doc)):
        docs[name] = os.path.join(tmp, f"{name}.json")
        with open(docs[name], "w") as fh:
            json.dump(doc, fh)
    certify = []
    for name, d, base in (
        ("channel", 3, np.zeros(3)),
        ("composed", composed_d, checks.chain_minimizer(COMPOSED_T, composed_d)),
    ):
        for _ in range(CERT_POINTS):
            x = base + _ball_offsets(rng, 1, d, 0.1)[0]
            certify.append((name, x, int(rng.integers(1, 2**31))))
    return {
        "offsets": _ball_offsets(rng, SMOOTH_OFFSETS, 2, SMOOTH_RADIUS),
        "smooth_bases": {"spiral": rng.uniform(-1.5, 1.5, 2), "warga": rng.uniform(-2.0, 2.0, 2)},
        "goldstein_seeds": [int(s) for s in rng.integers(1, 2**31, 3 * GOLDSTEIN_GAMES)],
        "channel_w": channel_w,
        "composed_w": composed_w,
        "docs": docs,
        "certify": certify,
    }


PLANAR = {"spiral": (lambda: zoo.Spiral(delta=1.0), checks.spiral), "warga": (zoo.Warga, checks.warga)}


def _smoothed_ops(inputs: dict, name: str):
    """Estimates at x0 and at x0 +- h e_i over one shared offset batch.

    The last of the five operations also checks the coupled central
    differences of the mean value against the mean subgradient.
    """
    make, closed_form = PLANAR[name]
    fn = make()
    offsets = inputs["offsets"]
    x0 = inputs["smooth_bases"][name]
    points = [x0]
    for i in range(2):
        e = np.zeros(2)
        e[i] = FD_STEP
        points += [x0 + e, x0 - e]
    outputs = []

    for k, x in enumerate(points):

        def check(result, x=x, last=k == len(points) - 1):
            values, grads = result
            ev, eg = closed_form(x + offsets)
            checks.check_close(values, ev, 1e-12, 1e-12, f"{name} smoothed values")
            checks.check_close(grads, eg, 1e-12, 1e-12, f"{name} smoothed subgradients")
            outputs.append(result)
            if last:
                require(len(outputs) == len(points), f"{name}: an earlier estimate failed")
                checks.check_smoothed_gradient(
                    outputs[0][1], [outputs[1][0], outputs[3][0]], [outputs[2][0], outputs[4][0]],
                    FD_STEP, FD_TOL,
                )

        yield Op("smoothed", lambda x=x: solvers.smoothed_estimates(fn.eval, x, offsets), check)


def check_goldstein(transcript, closed_form, rounds_expected: int) -> None:
    """Replies against the closed form, ball membership, and every hull step.

    The game does not expose its Wolfe results, so each round's solve is
    repeated on the recorded subgradients (the solver is deterministic); the
    result must satisfy the hull optimality conditions, and the next round
    must start exactly at ``center - 0.1 * point``.
    """
    Q = np.array(transcript.queries)
    V = np.array([r.value for r in transcript.replies])
    G = np.array([r.subgrad for r in transcript.replies])
    ev, eg = closed_form(Q)
    checks.check_close(V, ev, 1e-12, 1e-12, "goldstein values")
    checks.check_close(G, eg, 1e-12, 1e-12, "goldstein subgradients")
    size = 1 + GOLDSTEIN_SAMPLES
    require(len(Q) == size * rounds_expected, f"goldstein game made {len(Q)} queries")
    center = np.zeros(Q.shape[1])
    for start in range(0, len(Q), size):
        block = Q[start : start + size]
        require(np.array_equal(block[0], center), f"round at query {start + 1} left its center")
        radius = np.linalg.norm(block - center, axis=1).max()
        require(radius <= GOLDSTEIN_DELTA * (1 + 1e-12), f"sample {radius!r} outside the ball")
        result = stationarity.min_norm_point(G[start : start + size])
        checks.check_hull_optimality(
            G[start : start + size], result.coefficients, result.norm, result.point
        )
        if result.norm <= 1e-8:  # the policy stops and re-queries its center
            require(bool(np.all(Q[start + size :] == center)), "stopped game moved")
            return
        center = center - 0.1 * result.point


def _goldstein_ops(inputs: dict):
    fns = [
        (zoo.Spiral(delta=1.0), checks.spiral),
        (zoo.Warga(), checks.warga),
        (zoo.ChannelInstance(w=inputs["channel_w"]),
         lambda X: checks.channel_value_grad(X, inputs["channel_w"])),
    ]
    descriptor = solvers.goldstein_descent(delta=GOLDSTEIN_DELTA, samples_per_step=GOLDSTEIN_SAMPLES)
    budget = (1 + GOLDSTEIN_SAMPLES) * GOLDSTEIN_ROUNDS
    seeds = iter(inputs["goldstein_seeds"])
    for fn, closed_form in fns:
        for _ in range(GOLDSTEIN_GAMES):
            seed = next(seeds)

            def run(fn=fn, seed=seed):
                rng = np.random.default_rng(seed)
                return oracle_game.play(descriptor, fn.eval, budget, fn.dim, rng=rng)

            yield Op(
                "goldstein", run,
                lambda tr, cf=closed_form: check_goldstein(tr, cf, GOLDSTEIN_ROUNDS),
            )


def _certify_delta_ops(inputs: dict):
    T, d = COMPOSED_T, 2 * COMPOSED_T
    for name, x, seed in inputs["certify"]:
        argv = ["certify", "--function-file", inputs["docs"][name], "--point", json.dumps(x.tolist())]
        argv += ["--notion", "delta_eps", "--delta", repr(CERT_DELTA), "--eps", repr(CERT_EPS)]
        argv += ["--samples", str(CERT_SAMPLES), "--seed", str(seed)]
        if name == "channel":
            grads_at = lambda P: checks.channel_value_grad(P, inputs["channel_w"])[1]
        else:
            grads_at = lambda P: checks.composed_channel(P, inputs["composed_w"], -1.0, T, d)[1]

        def check(result, x=x, grads_at=grads_at):
            (cert,) = json.loads(require_exit_zero(result))
            witness = cert["witness"]
            require(cert["certified"] and witness is not None, "no witness")
            P = np.array(witness["points"])
            G = np.array(witness["subgradients"])
            require(len(P) == 1 + CERT_SAMPLES, f"{len(P)} witness points")
            require(np.array_equal(P[0], x), "witness does not start at the point")
            radius = np.linalg.norm(P - x, axis=1).max()
            require(radius <= CERT_DELTA * (1 + 1e-12), f"witness point {radius!r} off the ball")
            checks.check_close(G, grads_at(P), 1e-9, 1e-12, f"{name} witness subgradients")
            checks.check_hull_optimality(G, witness["coefficients"], cert["value"])
            require(cert["value"] <= CERT_EPS, f"certified value {cert['value']!r} > eps")

        yield Op("certify", lambda argv=argv: run_cli(argv), check)


def sampling_ops(inputs: dict):
    for name in PLANAR:
        yield from _smoothed_ops(inputs, name)
    yield from _goldstein_ops(inputs)
    yield from _certify_delta_ops(inputs)


# ---------------------------------------------------------------------------
# verify: the verification suites and figure grids
# ---------------------------------------------------------------------------

VERIFY_SEEDS = 2
FIGURES = ("fig1", "fig2", "fig3")
GRID_SIZES = (41, 101, 201)
VERDICTS_PER_SUITE_ALL = 16


def verify_inputs(seed: int, tmp: str) -> dict:
    rng = seeded(seed, 3)
    grids = []
    for fig in FIGURES:
        half = 4.0 if fig == "fig1" else 2.0
        for n in GRID_SIZES:
            lo, hi = -half - rng.uniform(0.0, 0.5), half + rng.uniform(0.0, 0.5)
            grids.append((fig, {"umin": lo, "umax": hi, "vmin": lo, "vmax": hi, "nu": n, "nv": n}))
    order = rng.permutation(len(grids))
    return {
        "seeds": [int(s) for s in rng.integers(1, 2**31, VERIFY_SEEDS)],
        "grids": [grids[i] for i in order],
    }


def check_verify_report(report) -> None:
    failed = [v.name for v in report.verdicts if not v.passed]
    if failed:
        raise ProgramFailure(f"failed verdicts: {failed}")
    require(len(report.verdicts) == VERDICTS_PER_SUITE_ALL, f"{len(report.verdicts)} verdicts")
    by_name = {v.name: v.details for v in report.verdicts}
    for T, (lo, hi) in by_name["spectrum of M within [1/2, 1] for T in {2, 5, 10}"]["extremes"].items():
        lam = np.linalg.eigvalsh(checks.chain_matrix(int(T), 2 * int(T)))
        checks.check_close([lo, hi], [lam[0], lam[-1]], 1e-9, 1e-12, f"spectrum T={T}")
    norm = by_name["minimizer norm <= sqrt((sqrt 2 - 1)/2) + 1e-12"]["x_star_norm"]
    checks.check_close(norm, np.linalg.norm(checks.chain_minimizer(10, 20)), 1e-14, 0.0, "|x*|")
    for key, dist in by_name["bundled span solvers stay exp(-T) away from the minimizer"][
        "min_distances"
    ].items():
        T = int(key.rsplit("T", 1)[1])
        require(dist >= math.exp(-T), f"{key}: min distance {dist!r} < exp(-{T})")
    # |grad f|^2 = sin^2 + (pi/2)^2 (2 + u)^2 cos^2 >= 1 on the unit ball, <= (2 pi)^2 on 2 delta
    lo = by_name["min gradient norm over the delta-ball >= 1 - 1e-9"]["min_gradient_norm"]
    hi = by_name["max gradient norm over the 2 delta-ball <= 2 pi + 1e-9"]["max_gradient_norm"]
    require(1.0 - 1e-12 <= lo <= hi <= 2.0 * math.pi + 1e-12, f"spiral gradient range {lo}, {hi}")
    floor = by_name["subgradient norms over 1e6 samples >= 1/sqrt(2) - 1e-6"]
    require(floor["samples"] == 1_000_000, "channel floor sample count")
    require(floor["min_subgradient_norm"] >= 1.0 / checks.SQRT2 - 1e-12, "channel norm floor")
    ratio = by_name["value ratio over random pairs <= 7 + 1e-6"]["max_ratio"]
    require(0.0 < ratio <= 7.0 + 1e-9, f"channel Lipschitz ratio {ratio!r}")
    # the clamp sits one below g(0) = -2|w|, so the origin's value gap is exactly 1/7
    dist = by_name["value-gap distance bound at the origin >= 1/7 - 1e-9"]["distance_bound"]
    checks.check_close(dist, 1.0 / 7.0, 0.0, 1e-12, "remark distance bound")


def verify_ops(inputs: dict):
    for seed in inputs["seeds"]:
        yield Op("verify", lambda seed=seed: harness.run_verify("all", seed), check_verify_report)
    for fig, spec in inputs["grids"]:
        yield Op(
            "figure",
            lambda fig=fig, spec=spec: harness.figure_csv(fig, spec),
            lambda text, fig=fig, spec=spec: checks.check_figure(fig, text, spec),
        )


WORKLOADS = {
    "games": (games_inputs, games_ops),
    "sampling": (sampling_inputs, sampling_ops),
    "verify": (verify_inputs, verify_ops),
}
