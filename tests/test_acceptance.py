"""Acceptance gate: one test per headline claim, each printing a pass/fail line.

Every test states its tolerance inline and fails loudly with the measured
quantity, so a regression report is readable without rerunning anything.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nearstat import adversaries as adv
from nearstat import harness, solvers, stationarity, zoo
from nearstat.errors import AdversaryConstructionError
from nearstat.oracle_game import play, query_distances
from nearstat.vectorspace import sample_ball_batch

from brute_force import min_norm_brute_oracle
from test_envelope import ENVELOPE_PROFILE

SOLVER_GRID = ("subgrad", "steepest")
T_GRID = (2, 5, 10, 15)


def announce(criterion: str, name: str, passed: bool, elapsed: float | None = None) -> None:
    tag = "PASS" if passed else "FAIL"
    tail = "" if elapsed is None else f" ({elapsed:.2f}s)"
    print(f"[{tag}] {criterion}: {name}{tail}")


def verify_suite(criterion: str, suite: str, budget: float | None):
    report = harness.run_verify(suite, 12345)
    ok = report.all_passed and (budget is None or report.timing_seconds < budget)
    announce(criterion, f"verification suite '{suite}' all green", ok, report.timing_seconds)
    for verdict in report.verdicts:
        assert verdict.passed, (verdict.name, verdict.details)
    if budget is not None:
        assert report.timing_seconds < budget
    return report


def test_ac1_chain_lower_bound_on_both_solvers():
    t0 = time.perf_counter()
    rows = []
    for name in SOLVER_GRID:
        for T in T_GRID:
            hq = adv.HardQuadratic(T=T, d=2 * T)
            tr = play(solvers.build_solver(name), adv.chain_quadratic_oracle(hq), T, 2 * T)
            rows.append((name, T, query_distances(tr, hq.x_star).min(), math.exp(-T)))
    elapsed = time.perf_counter() - t0
    ok = all(dist >= bound for _, _, dist, bound in rows) and elapsed < 1.0
    announce("AC1", "min iterate distance to the minimizer >= exp(-T)", ok, elapsed)
    for name, T, dist, bound in rows:
        assert dist >= bound, (name, T, dist, bound)
    assert elapsed < 1.0


@pytest.mark.parametrize("experiment", ["quad_lower_bound", "det_lower_bound"])
def test_ac1_known_counterexample_steepest_at_T3(experiment):
    # exact line search gets within exp(-3) of the minimizer: exp(-T) is not a
    # theorem for this chain (its Krylov rate is q = 0.17 < 1/e), so AC1 and
    # AC2 are stated for the bundled solvers and this case fails them
    cfg = harness.ExperimentConfig(experiment=experiment, T=3, solver={"name": "steepest"})
    report = harness.run_experiment(cfg)
    distance = report.verdicts[0].details["min_distance"]
    assert not report.verdicts[0].passed
    assert distance < math.exp(-3)


def test_ac2_lazy_rotation_matches_materialized_map():
    t0 = time.perf_counter()
    worst_rel = 0.0
    bounds_ok = True
    for T in T_GRID:
        d = 2 * T
        rb = adv.RotationBuilder(base=adv.HardQuadratic(T=T, d=d))
        tr = play(solvers.build_solver("subgrad"), adv.rotation_oracle(rb), T, d)
        rmap = rb.materialized_map()
        bounds_ok &= query_distances(tr, rmap.x_star).min() >= math.exp(-T)
        for query, reply in zip(tr.queries, tr.replies):
            dense = rmap.quad_oracle(query)
            worst_rel = max(
                worst_rel,
                abs(reply.value - dense.value) / max(1.0, abs(dense.value)),
                float(np.linalg.norm(reply.subgrad - dense.subgrad))
                / max(1.0, float(np.linalg.norm(dense.subgrad))),
            )
    elapsed = time.perf_counter() - t0
    ok = bounds_ok and worst_rel <= 1e-12 and elapsed < 1.0
    announce("AC2", "lazily rotated replies replay to 1e-12 and keep the bound", ok, elapsed)
    assert bounds_ok
    assert worst_rel <= 1e-12, worst_rel
    assert elapsed < 1.0


def test_ac3_chain_spectrum_minimizer_and_span_induction():
    q = (math.sqrt(2) - 1) / (math.sqrt(2) + 1)
    k = (math.sqrt(2) + 3) / (math.sqrt(2) + 1)
    identity_gap = max(abs(1 - 6 * q + q * q), abs((k + 4) * q - 1))

    spectrum_ok = True
    grad_ok = True
    norm_ok = True
    for T in (2, 5, 10):
        hq = adv.HardQuadratic(T=T, d=2 * T)
        lo, hi = adv.chain_spectrum_check(hq)
        spectrum_ok &= (lo >= 0.5 - 1e-9) and (hi <= 1.0 + 1e-9)
        _, grad_star = adv.chain_value_grad(hq, hq.x_star[None, :])
        grad_ok &= float(np.max(np.abs(grad_star))) <= 1e-12
        norm_limit = math.sqrt((math.sqrt(2) - 1) / 2) + 1e-12
        norm_ok &= float(np.linalg.norm(hq.x_star)) <= norm_limit

    # span induction: the t-th query can only touch the first t coordinates,
    # because each reply extends the reachable span by one chain link
    hq = adv.HardQuadratic(T=10, d=20)
    tr = play(solvers.build_solver("subgrad"), adv.chain_quadratic_oracle(hq), 10, 20)
    leak = max(float(np.max(np.abs(x[t:]))) for t, x in enumerate(tr.queries))

    ok = spectrum_ok and grad_ok and norm_ok and identity_gap <= 1e-14 and leak <= 1e-12
    announce("AC3", "chain spectrum, minimizer identities, span induction", ok)
    assert spectrum_ok
    assert grad_ok
    assert norm_ok
    assert identity_gap <= 1e-14, identity_gap
    assert leak <= 1e-12, leak


def test_ac4_spiral_gradient_norm_suite():
    verify_suite("AC4", "prop1", budget=5.0)


def test_ac5_channel_lipschitz_and_norm_floor_suite():
    verify_suite("AC5", "channel", budget=30.0)


def test_ac6_deterministic_end_to_end():
    cfg = harness.ExperimentConfig.from_dict({"experiment": "theorem1", "T": 10, "d": 20})
    report = harness.run_experiment(cfg.validate())
    ok = report.all_passed and report.timing_seconds < 1.0
    announce("AC6", "composed instance replays bitwise with distance >= 1/7", ok,
             report.timing_seconds)
    for verdict in report.verdicts:
        assert verdict.passed, (verdict.name, verdict.details)
    assert report.timing_seconds < 1.0


@ENVELOPE_PROFILE
@given(
    T=st.integers(2, adv.CHANNEL_T_MAX),
    spread=st.integers(0, 2**16),
    solver=st.sampled_from(SOLVER_GRID),
)
def test_ac6_over_the_envelope(T, spread, solver):
    # either the distance game itself beats exp(-T) (a typed error that names
    # the distance), or every AC6 verdict passes and the replay is byte-identical
    d = 2 * T + spread % (2 * T + 1)
    cfg = harness.ExperimentConfig(experiment="theorem1", T=T, d=d, solver={"name": solver})
    try:
        report = harness.run_experiment(cfg)
    except AdversaryConstructionError as exc:
        assert "of the minimizer" in str(exc), str(exc)
        return
    assert [v.criterion for v in report.verdicts] == ["AC6"] * 4
    for verdict in report.verdicts:
        assert verdict.passed, (T, d, solver, verdict.name, verdict.details)
    assert report.transcripts["transcript"] == report.transcripts["transcript_base"]


def test_ac7_randomized_direction_concentration():
    cfg = harness.ExperimentConfig.from_dict(
        {"experiment": "theorem1_randomized", "T": 10, "d": 200, "trials": 100}
    )
    report = harness.run_experiment(cfg.validate())
    fraction = report.verdicts[0].details["fraction"]
    ok = report.all_passed and fraction <= 0.02 and report.timing_seconds < 10.0
    announce("AC7", "alignment exceeds 1/3 in at most 2% of trials", ok,
             report.timing_seconds)
    assert report.verdicts[0].passed, report.verdicts[0].details
    assert fraction <= 0.02, fraction
    assert report.timing_seconds < 10.0


def test_ac8_carved_channel_certificates():
    verify_suite("AC8", "remark", budget=None)


def test_ac9_min_norm_point_against_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        dim = int(rng.integers(1, 5))
        points = rng.normal(size=(m, dim)) * rng.uniform(0.1, 3.0)
        result = stationarity.min_norm_point(points)
        assert result.converged
        worst = max(worst, abs(result.norm - min_norm_brute_oracle(points)))

    opposite = stationarity.min_norm_point([[1.0, 0.0], [-1.0, 0.0]])
    axes = stationarity.min_norm_point([[1.0, 0.0], [0.0, 1.0]])
    exact_ok = (
        opposite.norm == 0.0
        and np.array_equal(opposite.point, np.zeros(2))
        and np.array_equal(axes.point, np.array([0.5, 0.5]))
        and axes.norm == np.sqrt(0.5)
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and exact_ok and elapsed < 5.0
    announce("AC9", "hull min-norm agrees with brute force to 1e-6", ok, elapsed)
    assert worst <= 1e-6, worst
    assert exact_ok
    assert elapsed < 5.0


def test_ac10_smoothed_gradient_vs_coupled_finite_differences():
    rng = np.random.default_rng(20260814)
    offsets = sample_ball_batch(2, 0.5, 10_000, rng)
    h = 1e-5
    worst = 0.0
    for fn, box in ((zoo.Spiral(delta=1.0), 1.5), (zoo.Warga(), 2.0)):
        for _ in range(5):
            x0 = rng.uniform(-box, box, size=2)
            _, grads = solvers.smoothed_estimates(fn.eval, x0, offsets)
            estimate = grads.mean(axis=0)
            for i in range(2):
                step = np.zeros(2)
                step[i] = h
                plus, _ = solvers.smoothed_estimates(fn.eval, x0 + step, offsets)
                minus, _ = solvers.smoothed_estimates(fn.eval, x0 - step, offsets)
                fd = (plus.mean() - minus.mean()) / (2 * h)
                worst = max(worst, abs(estimate[i] - fd))

    # the first gradient component is odd in v, so its ball average at the
    # origin should vanish up to Monte Carlo noise
    _, grads = solvers.smoothed_estimates(zoo.Spiral(delta=1.0).eval, np.zeros(2), offsets)
    mean = grads.mean(axis=0)
    sigma = grads.std(axis=0) / math.sqrt(len(offsets))
    symmetry_ok = abs(float(mean[0])) <= 3.0 * float(sigma[0])

    ok = worst <= 1e-3 and symmetry_ok
    announce("AC10", "smoothed gradient matches coupled finite differences", ok)
    assert worst <= 1e-3, worst
    assert symmetry_ok, (mean[0], 3 * sigma[0])
