import dataclasses

import numpy as np
import pytest

from nearstat import solvers
from nearstat.errors import DegenerateInputError, OracleFailure
from nearstat.oracle_game import (
    CLASS_LINEAR_SPAN,
    CLASS_RANDOMIZED,
    AlgorithmDescriptor,
    QueryPolicy,
    Transcript,
    play,
)
from nearstat.solvers import (
    SOLVERS,
    StepSchedule,
    build_solver,
    goldstein_descent,
    smoothed_estimates,
    smoothed_gradient_method,
    steepest_descent_exact,
    subgradient_method,
)
from nearstat.stationarity import min_norm_point
from nearstat.zoo import ChannelInstance, FirstOrderReply, Spiral, Warga, batch_oracle


def isotropic_quadratic(a, c):
    c = np.asarray(c, dtype=float)

    def oracle(x):
        r = x - c
        return FirstOrderReply(a * float(r @ r), 2.0 * a * r, True)

    return oracle


def norm_oracle(x):
    n = float(np.linalg.norm(x))
    g = x / n if n > 0 else np.zeros(len(x))
    return FirstOrderReply(n, g, n > 0)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def test_schedule_kinds():
    assert StepSchedule().step(1) == 0.1
    assert StepSchedule().step(7) == 0.1
    sq = StepSchedule(kind="inverse_sqrt", scale=1.0)
    assert sq.step(4) == 0.5
    with pytest.raises(DegenerateInputError):
        StepSchedule(kind="bogus")
    with pytest.raises(DegenerateInputError):
        StepSchedule(scale=0.0)
    line = StepSchedule(kind="exact_line_search_quadratic")
    with pytest.raises(DegenerateInputError):
        line.step(1)
    assert StepSchedule(**StepSchedule(scale=0.2).as_params()).scale == 0.2


# ---------------------------------------------------------------------------
# subgradient method
# ---------------------------------------------------------------------------


def test_subgradient_iteration_rule():
    tr = play(subgradient_method(), norm_oracle, T=3, d=2)
    assert np.array_equal(tr.queries[0], [0.0, 0.0])
    # at the origin the oracle answers 0 subgradient, so the iterate stays
    assert np.array_equal(tr.queries[1], [0.0, 0.0])


def test_subgradient_follows_schedule_exactly():
    oracle = isotropic_quadratic(1.0, [1.0, 0.0])
    tr = play(subgradient_method(StepSchedule(scale=0.25)), oracle, T=3, d=2)
    # x2 = x1 - 0.25 * g1 with g1 = -2 e1
    assert np.array_equal(tr.queries[1], [0.5, 0.0])
    assert np.array_equal(tr.queries[2], [0.5 - 0.25 * 2.0 * (0.5 - 1.0), 0.0])


def test_subgradient_contracts_geometrically_on_quadratics():
    # with f = 0.5 ||x - c||^2-style curvature the map x - 0.1 g shrinks the
    # distance by the factor (1 - 0.1 * 2 * 0.5) = 0.9 each step
    c = np.array([0.3, -0.2, 0.1])
    oracle = isotropic_quadratic(0.5, c)
    tr = play(subgradient_method(), oracle, T=25, d=3)
    d0 = np.linalg.norm(tr.queries[0] - c)
    d_last = np.linalg.norm(tr.queries[-1] - c)
    assert d_last == pytest.approx(0.9**24 * d0, rel=1e-10)


# ---------------------------------------------------------------------------
# steepest descent with the quadratic line search
# ---------------------------------------------------------------------------


def test_steepest_lands_on_isotropic_minimizer_in_one_step():
    c = np.array([0.4, -0.7, 0.2])
    tr = play(steepest_descent_exact(), isotropic_quadratic(1.5, c), T=5, d=3)
    assert np.array_equal(tr.queries[0], np.zeros(3))
    # query 2 is the value probe at -s g, query 3 the exact-step iterate
    assert np.linalg.norm(tr.queries[2] - c) <= 1e-8
    # the gradient vanishes there, so the policy holds position
    assert np.array_equal(tr.queries[3], tr.queries[2])


def test_steepest_rejects_flat_directions():
    def linear(x):
        return FirstOrderReply(float(x[0]), np.array([1.0, 0.0]), True)

    with pytest.raises(DegenerateInputError):
        play(steepest_descent_exact(), linear, T=3, d=2)


# ---------------------------------------------------------------------------
# smoothed-gradient estimator and method
# ---------------------------------------------------------------------------


def test_smoothed_estimates_are_raw_per_sample_arrays():
    offsets = np.array([[0.1, 0.0], [0.0, -0.1], [0.0, 0.0]])
    values, grads = smoothed_estimates(norm_oracle, np.array([1.0, 0.0]), offsets)
    assert values.shape == (3,) and grads.shape == (3, 2)
    assert values[0] == 1.1 and values[2] == 1.0
    assert np.allclose(grads[2], [1.0, 0.0])


def test_smoothed_estimator_is_unbiased_for_linear_functions():
    def linear(x):
        return FirstOrderReply(float(x @ [2.0, -1.0]), np.array([2.0, -1.0]), True)

    rng = np.random.default_rng(4)
    offsets = rng.normal(size=(50, 2)) * 0.1
    _, grads = smoothed_estimates(linear, np.zeros(2), offsets)
    assert np.array_equal(grads.mean(axis=0), [2.0, -1.0])


def test_smoothed_method_query_structure():
    desc = smoothed_gradient_method(delta=0.2, samples_per_step=4)
    assert desc.class_tag == CLASS_RANDOMIZED
    rng = np.random.default_rng(6)
    oracle = isotropic_quadratic(1.0, [1.0, 0.0])
    tr = play(desc, oracle, T=9, d=2, rng=rng)
    # first round samples the ball around the origin
    for t in range(4):
        assert np.linalg.norm(tr.queries[t]) <= 0.2 + 1e-12
    # the second-round center is the schedule step along the averaged gradient
    avg = np.mean([r.subgrad for r in tr.replies[:4]], axis=0)
    center = -0.1 * avg
    for t in range(4, 8):
        assert np.linalg.norm(tr.queries[t] - center) <= 0.2 + 1e-12


def test_smoothed_method_requires_rng():
    desc = smoothed_gradient_method(delta=0.1, samples_per_step=2)
    with pytest.raises(DegenerateInputError):
        desc.fresh_policy(2, None)
    with pytest.raises(DegenerateInputError):
        smoothed_gradient_method(delta=0.0, samples_per_step=2)
    with pytest.raises(DegenerateInputError):
        smoothed_gradient_method(delta=0.1, samples_per_step=0)


# ---------------------------------------------------------------------------
# goldstein-style descent
# ---------------------------------------------------------------------------


def test_goldstein_stencil_round_structure():
    delta = 0.05
    stencil = [[0.0, delta], [0.0, -delta]]
    desc = goldstein_descent(delta=delta, stencil=stencil)
    oracle = isotropic_quadratic(1.0, [1.0, 0.0])
    tr = play(desc, oracle, T=7, d=2)
    # rounds of three: center, center + (0, delta), center + (0, -delta)
    assert np.array_equal(tr.queries[0], [0.0, 0.0])
    assert np.array_equal(tr.queries[1], [0.0, delta])
    assert np.array_equal(tr.queries[2], [0.0, -delta])
    # round two repeats the pattern around the stepped center
    c1 = tr.queries[3]
    assert np.array_equal(tr.queries[4], c1 + [0.0, delta])
    assert np.array_equal(tr.queries[5], c1 + [0.0, -delta])


def test_goldstein_early_stop_freezes_center():
    # at the spiral origin the two stencil gradients average to zero, so the
    # min-norm element is below any positive threshold and the policy parks
    f = Spiral(delta=0.05)
    stencil = [[0.0, 0.05], [0.0, -0.05]]
    desc = goldstein_descent(delta=0.05, stencil=stencil, eps_stop=1e-6)
    transcript = play(desc, f.eval, 5, 2)
    assert min_norm_point(transcript.subgrads[:3]).norm <= 1e-8
    assert np.array_equal(transcript.queries[3], [0.0, 0.0])
    assert np.array_equal(transcript.queries[4], [0.0, 0.0])


def test_goldstein_does_not_stop_on_an_unconverged_solve(monkeypatch):
    # the same stationary stencil as above, but Wolfe reports no convergence:
    # a small norm from an unfinished solve is no stopping certificate
    solved = solvers.min_norm_point

    def unconverged(points):
        return dataclasses.replace(solved(points), converged=False)

    monkeypatch.setattr(solvers, "min_norm_point", unconverged)
    f = Spiral(delta=0.05)
    stencil = [[0.0, 0.05], [0.0, -0.05]]
    transcript = play(goldstein_descent(delta=0.05, stencil=stencil, eps_stop=1e-6), f.eval, 8, 2)
    assert solved(transcript.subgrads[:3]).norm <= 1e-8
    queries = transcript.queries
    for start in (3, 6):  # a new round after each solve, not parked
        assert np.array_equal(queries[start + 1], queries[start] + [0.0, 0.05])


def test_goldstein_sampled_round_structure():
    desc = goldstein_descent(delta=0.3, samples_per_step=5)
    rng = np.random.default_rng(8)
    g = ChannelInstance(w=[0.3, 0.0])
    tr = play(desc, g.eval, T=6, d=2, rng=rng)
    assert np.array_equal(tr.queries[0], [0.0, 0.0])
    for t in range(1, 6):
        assert np.linalg.norm(tr.queries[t]) <= 0.3 + 1e-12


def test_goldstein_validation():
    with pytest.raises(DegenerateInputError):
        goldstein_descent(delta=-1.0)
    with pytest.raises(DegenerateInputError):
        goldstein_descent(delta=0.1, eps_stop=-1e-3)
    with pytest.raises(DegenerateInputError, match="outside the delta-ball"):
        goldstein_descent(delta=0.1, stencil=[[0.2, 0.0]])
    desc = goldstein_descent(delta=0.1, stencil=[[0.01, 0.0, 0.0]])
    with pytest.raises(DegenerateInputError, match="expected"):
        desc.fresh_policy(2, None)
    for flag in ("delta", "eps_stop"):
        with pytest.raises(DegenerateInputError, match="must be a number"):
            goldstein_descent(**{"delta": 0.1, flag: True})
    for count in (True, 2.5):
        with pytest.raises(DegenerateInputError, match="must be an integer"):
            goldstein_descent(delta=0.1, samples_per_step=count)
    with pytest.raises(DegenerateInputError, match="must be a number"):
        goldstein_descent(delta=0.1, stencil=[[True, 0.0]])
    with pytest.raises(DegenerateInputError):
        goldstein_descent(delta=0.1).fresh_policy(2, None)  # sampling needs rng


# ---------------------------------------------------------------------------
# query blocks: one batched call per round, same game as one query at a time
# ---------------------------------------------------------------------------


class _OneAtATime(QueryPolicy):
    def __init__(self, inner):
        self.inner = inner

    def next_query(self, transcript):
        return self.inner.next_queries(transcript, 1)[0]


def one_at_a_time(desc):
    return AlgorithmDescriptor(
        name=desc.name,
        class_tag=desc.class_tag,
        params=desc.params,
        factory=lambda d, rng: _OneAtATime(desc.fresh_policy(d, rng)),
    )


BLOCK_FUNCTIONS = {
    "spiral": Spiral(),
    "spiral_stop": Spiral(delta=0.05),
    "warga": Warga(),
    "channel": ChannelInstance(w=[0.02, -0.01, 0.015]),
}


def block_solvers(dim):
    stencil = np.zeros((3, dim))
    stencil[0, 1], stencil[1, 1], stencil[2, :2] = 0.05, -0.05, 0.03
    return {
        "goldstein": goldstein_descent(delta=0.5, samples_per_step=8),
        "goldstein_stencil": goldstein_descent(delta=0.05, stencil=stencil, eps_stop=1e-6),
        "smoothed": smoothed_gradient_method(delta=0.5, samples_per_step=6),
    }


@pytest.mark.parametrize("fn_name", sorted(BLOCK_FUNCTIONS))
@pytest.mark.parametrize("solver", ["goldstein", "goldstein_stencil", "smoothed"])
@pytest.mark.parametrize("T", [1, 5, 27, 40])
def test_block_play_matches_one_query_at_a_time(fn_name, solver, T):
    # a round is drawn when it starts, so the rows, and the generator's next
    # draw, do not depend on how many rows each call asks for; budgets that
    # end inside a round included
    fn = BLOCK_FUNCTIONS[fn_name]
    desc = block_solvers(fn.dim)[solver]
    rngs = [np.random.default_rng(21) for _ in range(3)]
    block = play(desc, fn.eval, T, fn.dim, rng=rngs[0])
    single = play(one_at_a_time(desc), lambda x: fn.eval(x), T, fn.dim, rng=rngs[1])
    looped = next_query_loop(desc, fn, T, rngs[2])
    assert len(block) == len(single) == len(looped) == T
    for other in (single, looped):
        for name in ("queries", "values", "subgrads", "differentiable"):
            assert getattr(block, name).tobytes() == getattr(other, name).tobytes()
        assert block.to_jsonl() == other.to_jsonl()
    assert rngs[0].random() == rngs[1].random() == rngs[2].random()


def next_query_loop(desc, fn, T, rng):
    """The game without ``play``: one ``next_query`` call and one answered row at a time."""
    policy = desc.fresh_policy(fn.dim, rng)
    transcript = Transcript(T=T, d=fn.dim)
    answer = batch_oracle(fn)
    while len(transcript) < T:
        x = policy.next_query(transcript)[None, :]
        transcript.extend(x, *answer(x))
    return transcript


class _CountingSpiral(Spiral):
    calls = []

    def eval_batch(self, X):
        self.calls.append(len(X))
        return super().eval_batch(X)


def test_play_answers_each_round_with_one_batch_call():
    fn = _CountingSpiral()
    fn.calls.clear()
    play(goldstein_descent(delta=0.5, samples_per_step=8), fn.eval, 2 * 9 + 4, 2,
         rng=np.random.default_rng(3))
    assert fn.calls == [9, 9, 4]
    fn.calls.clear()
    smoothed_estimates(fn, np.zeros(2), np.zeros((17, 2)))
    assert fn.calls == [17]


def test_block_failure_names_a_query_of_the_block():
    # the second row's reply overflows; the whole block fails as one call
    block = np.array([[0.0, 0.0], [1.5e308, 0.0]])

    class Fixed(QueryPolicy):
        def next_queries(self, transcript, budget):
            return block

    desc = AlgorithmDescriptor("fixed", CLASS_RANDOMIZED, {}, lambda d, rng: Fixed())
    with pytest.raises(OracleFailure) as info, np.errstate(over="ignore"):
        play(desc, Spiral().eval, 2, 2)
    assert any(np.array_equal(info.value.query, q) for q in block)
    assert "non-finite" in str(info.value)
    with pytest.raises(DegenerateInputError):
        play(desc, Spiral().eval, 1, 2)  # more queries than the budget left


def test_smoothed_estimates_batch_matches_scalar_calls():
    rng = np.random.default_rng(9)
    offsets = rng.normal(size=(64, 3)) * 0.05
    x = np.array([0.01, -0.02, 0.0])
    for fn in (BLOCK_FUNCTIONS["channel"], ChannelInstance(w=[0.02, -0.01, 0.015], clamp=-0.02)):
        values, grads = smoothed_estimates(fn.eval, x, offsets)
        want_values, want_grads = smoothed_estimates(lambda p: fn.eval(p), x, offsets)
        assert np.array_equal(values, want_values) and np.array_equal(grads, want_grads)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_registry_names_and_builder():
    assert set(SOLVERS) == {"subgrad", "steepest", "smoothed", "goldstein"}
    desc = build_solver("subgrad", schedule={"kind": "constant", "scale": 0.05})
    assert desc.name == "subgrad" and desc.class_tag == CLASS_LINEAR_SPAN
    assert desc.params["schedule"]["scale"] == 0.05
    smoothed = build_solver("smoothed", delta=0.1, samples_per_step=3)
    assert smoothed.params["delta"] == 0.1
    with pytest.raises(DegenerateInputError):
        build_solver("nonexistent")
