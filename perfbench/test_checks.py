"""Each independent check accepts nearstat's real output and rejects a perturbed copy.

    python3 -m pytest perfbench -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from nearstat import adversaries, harness, oracle_game, solvers, stationarity, zoo  # noqa: E402


def nudged(a, index, by):
    out = np.array(a, dtype=float, copy=True)
    out[index] += by
    return out


def chain_game(T, d, distance=False):
    hq = adversaries.HardQuadratic(T=T, d=d)
    oracle = adversaries.chain_quadratic_oracle(hq)
    if distance:
        oracle = zoo.sqrt_oracle(oracle)
    tr = oracle_game.play(solvers.build_solver("subgrad"), oracle, T, d)
    return (np.array(tr.queries), np.array([r.value for r in tr.replies]),
            np.array([r.subgrad for r in tr.replies]))


@pytest.mark.parametrize("distance", [False, True])
def test_chain_replies_against_dense_quadratic(distance):
    Q, V, G = chain_game(10, 20, distance)
    checks.check_chain_replies(Q, V, G, 10, 20, distance)
    with pytest.raises(CheckError):
        checks.check_chain_replies(Q, nudged(V, 3, 1e-9), G, 10, 20, distance)
    with pytest.raises(CheckError):
        checks.check_chain_replies(Q, V, nudged(G, (4, 0), 1e-9), 10, 20, distance)


def test_chain_sqrt_and_minimizer_closed_forms():
    S = checks.chain_sqrt(10, 20)
    np.testing.assert_allclose(S @ S, checks.chain_matrix(10, 20), atol=1e-14)
    hq = adversaries.HardQuadratic(T=10, d=20)
    np.testing.assert_array_equal(checks.chain_minimizer(10, 20), hq.x_star)
    # the program's M^(1/2), applied to a vector, agrees with the eigh root
    v = np.random.default_rng(0).normal(size=20)
    amap = adversaries.affine_map_from_parameters(10, 20)
    np.testing.assert_allclose(amap.sqrt_apply(v.copy()), S @ v, atol=1e-13)


def test_min_distance_rejects_an_iterate_too_close():
    Q, _, _ = chain_game(8, 16)
    checks.check_min_distance(Q, 8, 16)
    close = Q.copy()
    close[-1] = checks.chain_minimizer(8, 16) + 0.5 * math.exp(-8) / math.sqrt(16)
    with pytest.raises(CheckError):
        checks.check_min_distance(close, 8, 16)


def test_span_rejects_a_query_off_the_span():
    Q, _, G = chain_game(8, 16)
    checks.check_span(Q, G)
    with pytest.raises(CheckError):
        checks.check_span(nudged(Q, (5, 12), 1e-6), G)
    with pytest.raises(CheckError):
        checks.check_span(nudged(Q, (0, 0), 1e-6), G)


def composed_instance(T=6, d=12):
    cfg = adversaries.ChannelAdversaryConfig()
    instance, diag = adversaries.build_channel_instance(
        cfg, solvers.build_solver("subgrad"), T, d
    )
    return instance, np.array(diag["iterates"])


def test_composed_channel_recomputed_from_instance_document():
    instance, iterates = composed_instance()
    doc = json.loads(zoo.instance_to_json_str(instance))
    replies = [instance.eval(x) for x in iterates]
    h, grads = checks.composed_channel(iterates, np.array(doc["w"]), doc["clamp"], 6, 12)
    checks.check_close([r.value for r in replies], h, 1e-9, 1e-15, "composed values")
    checks.check_close([r.subgrad for r in replies], grads, 1e-9, 1e-15, "composed subgrads")
    with pytest.raises(CheckError):
        checks.check_close(nudged(h, 2, 1e-8 * h[2]), [r.value for r in replies], 1e-9, 1e-15, "h")
    # away from the iterates the clamp and the hinge are active, and still agree
    rng = np.random.default_rng(1)
    for x in rng.normal(size=(200, 12)) * 0.5:
        reply = instance.eval(x)
        value, grad = checks.composed_channel(x, instance.w, -1.0, 6, 12)
        checks.check_close(reply.value, value[0], 1e-9, 1e-12, "composed value")
        checks.check_close(reply.subgrad, grad[0], 1e-9, 1e-12, "composed subgradient")


def test_plain_channel_closed_form_at_canonical_points():
    w = np.array([0.3, 0.0, -0.1])
    instance = zoo.ChannelInstance(w=w, clamp=-0.2)
    rng = np.random.default_rng(2)
    points = np.vstack([np.zeros(3), -w, rng.normal(size=(500, 3))])
    values, grads, _, _ = instance.eval_batch(points)
    ev, eg = checks.channel_value_grad(points, w, -0.2)
    checks.check_close(values, ev, 1e-12, 1e-12, "channel values")
    checks.check_close(grads, eg, 1e-12, 1e-12, "channel subgradients")
    with pytest.raises(CheckError):
        checks.check_close(nudged(grads, (0, 1), 1e-6), eg, 1e-12, 1e-12, "channel subgradients")


def test_theorem1_transcripts_compared_bitwise():
    cfg = harness.ExperimentConfig(experiment="theorem1", T=6, d=12).validate()
    transcripts = harness.run_experiment(cfg).transcripts
    replay, base = transcripts["transcript"], transcripts["transcript_base"]
    checks.check_same_text(replay, base, "transcripts")
    row = json.loads(base.splitlines()[3])
    value = row["value"]
    row["value"] = float(np.nextafter(value, 1.0))
    lines = base.splitlines()
    lines[3] = json.dumps(row)
    with pytest.raises(CheckError):
        checks.check_same_text(replay, "\n".join(lines) + "\n", "transcripts")


def test_alignment_fraction_counted_by_the_benchmark():
    align = np.full(100, 0.1)
    checks.check_alignment_fraction(align, 100, 0.0)
    align[:2] = 0.5
    checks.check_alignment_fraction(align, 100, 0.02)
    align[2] = 1.0 / 3.0
    with pytest.raises(CheckError):
        checks.check_alignment_fraction(align, 100, 0.03)
    align[2] = 0.2
    with pytest.raises(CheckError):  # the program under-reports
        checks.check_alignment_fraction(align, 100, 0.01)


def test_hull_optimality_conditions():
    rng = np.random.default_rng(3)
    G = rng.normal(size=(12, 3)) + np.array([2.0, 0.0, 0.0])
    result = stationarity.min_norm_point(G)
    checks.check_hull_optimality(G, result.coefficients, result.norm, result.point)
    checks.check_hull_optimality(G, result.coefficients, result.norm)
    vertex = np.zeros(12)
    vertex[int(np.argmin(np.linalg.norm(G, axis=1)))] = 1.0
    with pytest.raises(CheckError):  # a hull point, but not the closest one
        checks.check_hull_optimality(G, vertex, float(np.linalg.norm(vertex @ G)))
    with pytest.raises(CheckError):
        checks.check_hull_optimality(G, 2.0 * result.coefficients, result.norm)
    bad = result.coefficients.copy()
    bad[0] = -1e-3
    with pytest.raises(CheckError):
        checks.check_hull_optimality(G, bad / bad.sum(), result.norm)


@pytest.mark.parametrize("fn,box", [(zoo.Spiral(delta=1.0), 1.5), (zoo.Warga(), 2.0)])
def test_smoothed_gradient_against_coupled_differences(fn, box):
    rng = np.random.default_rng(4)
    offsets = rng.uniform(-0.35, 0.35, size=(2048, 2))
    x0 = rng.uniform(-box, box, 2)
    h = 1e-7
    _, grads = solvers.smoothed_estimates(fn.eval, x0, offsets)
    plus, minus = [], []
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        plus.append(solvers.smoothed_estimates(fn.eval, x0 + e, offsets)[0])
        minus.append(solvers.smoothed_estimates(fn.eval, x0 - e, offsets)[0])
    checks.check_smoothed_gradient(grads, plus, minus, h, 1e-3)
    with pytest.raises(CheckError):
        checks.check_smoothed_gradient(grads + [2e-3, 0.0], plus, minus, h, 1e-3)


@pytest.mark.parametrize("figure", ["fig1", "fig2", "fig3"])
def test_figure_rows_against_closed_forms(figure):
    spec = dict(harness.FIGURE_DEFAULTS[figure], nu=61, nv=41)
    text = harness.figure_csv(figure, spec)
    assert checks.check_figure(figure, text, spec) == 61 * 41
    lines = text.splitlines()
    # a row inside the checked zone (fig1: the inner disk around the origin)
    k = 1 + 30 * 41 + 20
    u, v, value = lines[k].split(",")
    lines[k] = f"{u},{v},{float(value) + 1e-9!r}"
    with pytest.raises(CheckError):
        checks.check_figure(figure, "\n".join(lines) + "\n", spec)
    with pytest.raises(CheckError):
        checks.check_figure(figure, "\n".join(lines[:-1]) + "\n", spec)
