import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from nearstat.adversaries import (
    CHAIN_END_WEIGHT,
    CHANNEL_T_MAX,
    CHAIN_RATIO,
    MODE_DETERMINISTIC,
    MODE_RANDOMIZED,
    ChannelAdversaryConfig,
    HardQuadratic,
    RotationBuilder,
    affine_map_from_parameters,
    build_channel_instance,
    carve_direction,
    chain_quadratic_oracle,
    chain_spectrum_check,
    chain_tridiagonal,
    chain_value_grad,
    norm_distance_instance,
    play_distance_game,
    rotation_oracle,
)
from nearstat.errors import (
    AdversaryConstructionError,
    BudgetExhaustedError,
    DegenerateInputError,
)
from nearstat.oracle_game import CLASS_DETERMINISTIC, AlgorithmDescriptor, QueryPolicy, play
from nearstat.solvers import steepest_descent_exact, subgradient_method
from nearstat.vectorspace import derive_stream
from nearstat.zoo import ChannelInstance, NormDistance

from test_envelope import ENVELOPE_PROFILE
from test_vectorspace import reference_extend_orthonormal


def dense_quadratic_matrix(T, d, dtype=float):
    """Reference M built entrywise: tridiagonal block over the head, 1/2 tail."""
    A = 2.0 * np.eye(T, dtype=dtype) - np.eye(T, k=1) - np.eye(T, k=-1)
    A[-1, -1] = CHAIN_END_WEIGHT
    M = 0.5 * np.eye(d, dtype=dtype)
    M[:T, :T] = (A + 4.0 * np.eye(T)) / 8.0
    return M


def test_chain_parameter_identities():
    q, k = CHAIN_RATIO, CHAIN_END_WEIGHT
    assert abs(1.0 - 6.0 * q + q * q) <= 1e-14
    assert abs((k + 4.0) * q - 1.0) <= 1e-14
    assert 0.0 < q < 1.0 / 5.0


def test_minimizer_coordinates_decay_geometrically():
    hq = HardQuadratic(T=6, d=9)
    xs = hq.x_star
    assert np.array_equal(xs[6:], np.zeros(3))
    for i in range(6):
        assert xs[i] == pytest.approx(CHAIN_RATIO ** (i + 1), rel=1e-15)
    assert np.linalg.norm(xs) ** 2 < (math.sqrt(2.0) - 1.0) / 2.0


def test_hard_quadratic_validation():
    with pytest.raises(DegenerateInputError):
        HardQuadratic(T=1, d=4)
    with pytest.raises(DegenerateInputError):
        HardQuadratic(T=5, d=4)
    with pytest.raises(TypeError):  # k, q and b are the module constants
        HardQuadratic(T=3, d=6, b=1.0)


@pytest.mark.parametrize("T,d", [(2, 2), (3, 6), (8, 11)])
def test_chain_value_grad_matches_dense_matrix(T, d):
    hq = HardQuadratic(T=T, d=d)
    M = dense_quadratic_matrix(T, d)
    xs = hq.x_star
    rng = np.random.default_rng(T * 100 + d)
    X = rng.normal(size=(40, d))
    values, grads = chain_value_grad(hq, X)
    for x, val, grad in zip(X, values, grads):
        ref_val = float((x - xs) @ M @ (x - xs))
        ref_grad = 2.0 * M @ (x - xs)
        assert val == pytest.approx(ref_val, rel=1e-12, abs=1e-14)
        assert np.allclose(grad, ref_grad, atol=1e-13)
        assert val >= 0.0


def test_chain_value_at_origin_and_minimizer():
    hq = HardQuadratic(T=10, d=20)
    (val0, val_star), (grad0, grad_star) = chain_value_grad(hq, np.stack([np.zeros(20), hq.x_star]))
    # g(0) = q / 8 exactly, gradient -e1 / 4 exactly
    assert val0 == CHAIN_RATIO / 8.0
    expected = np.zeros(20)
    expected[0] = -0.25
    assert np.array_equal(grad0, expected)
    assert abs(val_star) <= 1e-16
    assert np.abs(grad_star).max() <= 1e-12


def test_chain_oracle_replies():
    hq = HardQuadratic(T=3, d=5)
    oracle = chain_quadratic_oracle(hq)
    r = oracle(np.zeros(5))
    assert r.value == CHAIN_RATIO / 8.0 and r.differentiable


@pytest.mark.parametrize("T,d", [(2, 4), (5, 10), (10, 20), (15, 30), (80, 160)])
def test_spectrum_between_half_and_one(T, d):
    hq = HardQuadratic(T=T, d=d)
    lo, hi = chain_spectrum_check(hq)
    assert lo >= 0.5 - 1e-9
    assert hi <= 1.0 + 1e-9
    # cross-check the dense eigensolve against LAPACK's tridiagonal bisection
    # on the entrywise reference M; the tail coordinates contribute 1/2
    block = dense_quadratic_matrix(T, d)[:T, :T]
    lam = scipy.linalg.eigvalsh_tridiagonal(
        np.diag(block), np.diag(block, 1), lapack_driver="stebz"
    )
    assert lo == pytest.approx(min(lam[0], 0.5), abs=1e-12)
    assert hi == pytest.approx(max(lam[-1], 0.5), abs=1e-12)


def test_tridiagonal_entries():
    hq = HardQuadratic(T=4, d=4)
    diag, off = chain_tridiagonal(hq)
    assert np.allclose(diag[:-1], 6.0 / 8.0, atol=1e-16)
    assert diag[-1] == pytest.approx((CHAIN_END_WEIGHT + 4.0) / 8.0, rel=1e-15)
    assert np.allclose(off, -1.0 / 8.0, atol=1e-16)


def test_msqrt_squares_back_to_m():
    hq = HardQuadratic(T=5, d=8)
    sqrt_apply = affine_map_from_parameters(hq.T, hq.d, hq=hq).sqrt_apply
    M = dense_quadratic_matrix(5, 8)
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.normal(size=8)
        assert np.allclose(sqrt_apply(sqrt_apply(v)), M @ v, atol=1e-13)
    # mapped minimizer length is sqrt(g(0)) since M x* = e1 / 8
    assert np.linalg.norm(sqrt_apply(hq.x_star)) == pytest.approx(
        math.sqrt(CHAIN_RATIO / 8.0), rel=1e-14
    )


def test_affine_map_matches_dense_sqrtm():
    T, d = 4, 7
    m = affine_map_from_parameters(T, d)
    root = scipy.linalg.sqrtm(dense_quadratic_matrix(T, d)).real
    rng = np.random.default_rng(8)
    for _ in range(20):
        v = rng.normal(size=d)
        assert np.allclose(m.sqrt_apply(v), root @ v, atol=1e-12)
    assert m.provenance["T"] == T


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is plain double here"
)
@pytest.mark.parametrize("T", [2, 5, 10, 19])
def test_norm_distance_matches_a_long_double_reference(T):
    # M and x* come from the float64 CHAIN_END_WEIGHT and x_star the program
    # uses, so the reference is exact for the program's own minimizer; the
    # value and gradient keep ~1e-14 relative accuracy down to 1e-12 from x*
    rng = np.random.default_rng(T)
    radii = np.repeat(10.0 ** -np.arange(1, 13), 8)
    for d in (T, 2 * T, 4 * T):
        U = np.linalg.qr(rng.normal(size=(d, T)))[0].T
        frames = [None] if d < 2 * T else [None, U]
        for frame in frames:
            m = affine_map_from_parameters(T, d, rotation_frame=frame)
            M = dense_quadratic_matrix(T, d, np.longdouble)
            if frame is not None:
                R = frame.astype(np.longdouble)
                M = 0.5 * np.eye(d, dtype=np.longdouble) + R.T @ (M[:T, :T] - 0.5 * np.eye(T)) @ R
            u = rng.normal(size=(len(radii), d))
            X = m.x_star + radii[:, None] * u / np.linalg.norm(u, axis=1)[:, None]
            values, grads, diffs = NormDistance(m).eval_batch(X)
            D = X.astype(np.longdouble) - m.x_star.astype(np.longdouble)
            MD = D @ M
            ref = np.sqrt(np.einsum("ij,ij->i", D, MD))
            ref_grads = MD / ref[:, None]
            assert diffs.all()
            assert np.max(np.abs(values - ref) / ref) <= 1e-14
            grad_err = np.abs(grads - ref_grads).max(axis=1) / np.linalg.norm(ref_grads, axis=1)
            assert np.max(grad_err) <= 1e-14


@st.composite
def chain_blocks(draw):
    """A block of rows in the chain envelope, with a rotation frame for it."""
    T = draw(st.integers(2, CHANNEL_T_MAX))
    d = draw(st.integers(2 * T, 4 * T))
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d)) * rng.uniform(1e-3, 3.0, size=(n, 1))
    U = np.linalg.qr(rng.normal(size=(d, T)))[0].T
    w = rng.normal(size=d)
    return HardQuadratic(T=T, d=d), X, U, 0.3 * w / np.linalg.norm(w), draw(st.integers(1, T))


@ENVELOPE_PROFILE
@given(chain_blocks())
def test_chain_kernels_answer_a_row_alone_as_in_a_block(case):
    hq, X, U, w, t = case
    natural = affine_map_from_parameters(hq.T, hq.d, hq=hq)
    rotated = affine_map_from_parameters(hq.T, hq.d, rotation_frame=U, hq=hq)
    kernels = [
        natural.sqrt_apply,
        rotated.sqrt_apply,
        lambda X: chain_value_grad(hq, X),
        lambda X: chain_value_grad(hq, X, frame=U),
        lambda X: chain_value_grad(hq, X, frame=U[:t]),  # the lazy rotation's partial frame
        NormDistance(natural).eval_batch,
        NormDistance(rotated).eval_batch,
        ChannelInstance(w=w, clamp=-1.0, affine=natural).eval_batch,
        ChannelInstance(w=w, affine=rotated).eval_batch,
    ]
    for kernel in kernels:
        block = kernel(X)
        columns = kernel(np.asfortranarray(X))  # the same rows in another layout
        for i in range(len(X)):
            alone = kernel(X[i : i + 1])
            for b, c, a in zip(*(out if isinstance(out, tuple) else (out,) for out in
                                 (block, columns, alone))):
                assert np.array_equal(b[i], a[0]) and np.array_equal(c[i], a[0])
    for m in (natural, rotated):
        for x in X:
            assert np.array_equal(m.sqrt_apply(x), m.sqrt_apply(x[None, :])[0])


def test_rotated_map_is_the_natural_map_in_new_coordinates():
    T, d = 3, 8
    rng = np.random.default_rng(23)
    U = np.linalg.qr(rng.normal(size=(d, T)))[0].T
    rotated = affine_map_from_parameters(T, d, rotation_frame=U)
    natural = HardQuadratic(T=T, d=d)
    H = rng.normal(size=(25, T))
    vals_nat, _ = chain_value_grad(natural, np.hstack([H, np.zeros((25, d - T))]))
    for h, val_nat in zip(H, vals_nat):
        r = rotated.quad_oracle(U.T @ h)
        assert r.value == pytest.approx(val_nat, rel=1e-12, abs=1e-14)
    # sqrt_apply applied twice equals the gradient halved
    x = rng.normal(size=d)
    r = rotated.quad_oracle(x)
    m_x = rotated.sqrt_apply(rotated.sqrt_apply(x - rotated.x_star))
    assert np.allclose(m_x, r.subgrad / 2.0, atol=1e-12)


# ---------------------------------------------------------------------------
# lazy rotation oracle
# ---------------------------------------------------------------------------


class _DenseProbe(QueryPolicy):
    """Queries with full support, exercising the lazily chosen frame."""

    def __init__(self, d, rng):
        self.d = d
        self.rng = np.random.default_rng(77)

    def next_query(self, transcript):
        return self.rng.normal(size=self.d)


def dense_probe_descriptor():
    return AlgorithmDescriptor(
        name="dense-probe",
        class_tag=CLASS_DETERMINISTIC,
        factory=lambda d, rng: _DenseProbe(d, rng),
    )


def test_rotation_needs_room():
    with pytest.raises(DegenerateInputError):
        RotationBuilder(base=HardQuadratic(T=4, d=6))


def test_rotation_oracle_orthogonality_and_materialization():
    T, d = 4, 9
    rb = RotationBuilder(base=HardQuadratic(T=T, d=d))
    oracle = rotation_oracle(rb)
    transcript = play(dense_probe_descriptor(), oracle, T=T, d=d)

    U = rb.frame.matrix()
    assert U.shape == (T, d)
    assert np.allclose(U @ U.T, np.eye(T), atol=1e-10)
    # the direction revealed at round t is orthogonal to every query seen so far
    for t in range(T):
        for s in range(t + 1):
            assert abs(U[t] @ transcript.queries[s]) <= 1e-10

    mat = rb.materialized_map()
    for x, reply in zip(transcript.queries, transcript.replies):
        check = mat.quad_oracle(x)
        denom = max(1.0, abs(reply.value))
        assert abs(check.value - reply.value) / denom <= 1e-12
        assert np.abs(check.subgrad - reply.subgrad).max() <= 1e-12 * max(
            1.0, np.abs(reply.subgrad).max()
        )

    with pytest.raises(BudgetExhaustedError):
        oracle(np.zeros(d))


def test_rotation_block_answers_as_its_rows_one_at_a_time():
    T, d = 6, 12
    X = np.random.default_rng(31).normal(size=(T, d))
    X[2] = X[0] + X[1]  # a row inside the span of earlier ones
    whole = RotationBuilder(base=HardQuadratic(T=T, d=d))
    first, rest = whole.eval_batch(X[:4]), whole.eval_batch(X[4:])
    single = RotationBuilder(base=HardQuadratic(T=T, d=d))
    replies = [single.eval(x) for x in X]
    values = np.concatenate([first[0], rest[0]])
    grads = np.vstack([first[1], rest[1]])
    assert values.tobytes() == np.array([r.value for r in replies]).tobytes()
    assert grads.tobytes() == np.array([r.subgrad for r in replies]).tobytes()
    assert whole.frame.matrix().tobytes() == single.frame.matrix().tobytes()
    assert first[2].all() and rest[2].all()
    # a block past T is refused whole, before any of its rows is taken
    partial = RotationBuilder(base=HardQuadratic(T=T, d=d))
    partial.eval_batch(X[:4])
    before = partial.constraints.matrix().copy()
    with pytest.raises(BudgetExhaustedError):
        partial.eval_batch(X[:3])
    assert len(partial.frame) == 4 and np.array_equal(partial.constraints.matrix(), before)


def test_rotation_materialization_requires_full_game():
    rb = RotationBuilder(base=HardQuadratic(T=3, d=6))
    oracle = rotation_oracle(rb)
    oracle(np.zeros(6))
    with pytest.raises(AdversaryConstructionError):
        rb.materialized_map()


@pytest.mark.parametrize("solver", [subgradient_method, steepest_descent_exact])
def test_rotation_oracle_preserves_lower_bound(solver):
    T, d = 5, 10
    rb = RotationBuilder(base=HardQuadratic(T=T, d=d))
    transcript = play(solver(), rotation_oracle(rb), T=T, d=d)
    target = rb.materialized_map().x_star
    dist = min(np.linalg.norm(x - target) for x in transcript.queries)
    assert dist >= math.exp(-T)


@pytest.mark.parametrize(
    "descriptor", [subgradient_method(), steepest_descent_exact(), dense_probe_descriptor()]
)
def test_rotation_rows_stay_orthonormal_at_the_largest_budget(descriptor):
    T, d = 19, 76
    rb = RotationBuilder(base=HardQuadratic(T=T, d=d))
    transcript = play(descriptor, rotation_oracle(rb), T=T, d=d)
    U = rb.frame.matrix()
    assert np.abs(U @ U.T - np.eye(T)).max() <= 1e-12
    C = rb.constraints.matrix()
    assert np.abs(C @ C.T - np.eye(len(C))).max() <= 1e-12
    # the kept constraint basis picks the rows a fresh extension per query picks
    for t in range(T):
        u = reference_extend_orthonormal(U[:t], transcript.queries[: t + 1], d)
        assert np.abs(U[t] - u).max() <= 1e-13 * np.sqrt(d)
    mat = rb.materialized_map()
    for x, reply in zip(transcript.queries, transcript.replies):  # det_lower_bound's AC2 error
        direct = mat.quad_oracle(x)
        assert abs(reply.value - direct.value) / max(1.0, abs(direct.value)) <= 1e-12
        assert np.linalg.norm(reply.subgrad - direct.subgrad) <= 1e-12 * max(
            1.0, np.linalg.norm(direct.subgrad)
        )


@pytest.mark.parametrize("solver", [subgradient_method, steepest_descent_exact])
@pytest.mark.parametrize("T", [5, 10, 15, 19])
@pytest.mark.parametrize("factor", [2, 4])
def test_span_solvers_lazy_frame_is_the_leading_identity_rows(solver, T, factor):
    # a span solver's queries stay on the axes already chosen, so every
    # extension picks the next axis exactly and the game's bits never rest on
    # how the extension rounds
    d = factor * T
    rb = RotationBuilder(base=HardQuadratic(T=T, d=d))
    play(solver(), rotation_oracle(rb), T=T, d=d)
    assert np.array_equal(rb.frame.matrix(), np.eye(d)[:T])


# ---------------------------------------------------------------------------
# channel adversary
# ---------------------------------------------------------------------------


def test_channel_adversary_deterministic():
    cfg = ChannelAdversaryConfig(mode=MODE_DETERMINISTIC)
    instance, diag = build_channel_instance(cfg, subgradient_method(), T=5, d=10)
    assert instance.clamp == -1.0
    assert diag["w_norm"] == pytest.approx(math.exp(-5.0) / 300.0, rel=1e-15)
    # w is exactly orthogonal to every mapped iterate direction
    assert diag["max_alignment"] == 0.0
    assert all(diag["coincidence_hypothesis"])
    assert min(diag["distances"]) >= math.exp(-5.0)
    # on its own trajectory the composed function is strictly positive
    for x in diag["transcript"].queries:
        assert instance.eval(x).value > 0.0


def steepest_directions(T, d):
    """The unit mapped iterate directions of steepest descent's distance game."""
    base = norm_distance_instance(HardQuadratic(T=T, d=d))
    transcript = play(steepest_descent_exact(), base.eval, T, d)
    m = base.map
    D = np.stack([m.sqrt_apply(x - m.x_star) for x in transcript.queries])
    return D / np.linalg.norm(D, axis=1)[:, None]


@pytest.mark.parametrize("T,d", [(7, 14), (7, 28), (19, 38), (19, 76)])
def test_carve_ignores_roundoff_in_the_directions(T, d):
    # steepest's directions are numerically rank-deficient (7 of 19 at 1e-12
    # relative); an absolute drop tolerance once turned their roundoff into
    # constraints, and a 1-ulp change moved w by up to 1.9
    D = steepest_directions(T, d)
    w = carve_direction(D)
    rng = np.random.default_rng(T * 1000 + d)
    for _ in range(5):
        nudged = D + rng.choice([-1.0, 1.0], size=D.shape) * np.spacing(D)
        w_nudged = carve_direction(nudged)
        assert np.abs(w_nudged - w).max() <= 1e-10
        assert np.abs(nudged @ w_nudged).max() <= 1e-12
    assert np.abs(D @ w).max() <= 1e-12


def test_channel_adversary_randomized_alignment_is_small():
    cfg = ChannelAdversaryConfig(mode=MODE_RANDOMIZED)
    streams = {"adversary": derive_stream(99, "adversary")}
    instance, diag = build_channel_instance(
        cfg, subgradient_method(), T=5, d=60, rng_state=streams
    )
    assert np.linalg.norm(instance.w) == pytest.approx(diag["w_norm"], rel=1e-12)
    assert diag["max_alignment"] < 1.0 / 3.0


@pytest.mark.parametrize("d, count", [(200, 100), (103, 100), (76, 37)])
def test_randomized_w_block_matches_one_draw_at_a_time(d, count):
    # theorem1_randomized takes every trial's w as one block of rows
    game = play_distance_game(subgradient_method(), 5, d)
    cfg = ChannelAdversaryConfig(mode=MODE_RANDOMIZED, w_norm=0.01)
    block_rng, one_rng = derive_stream(7, "adversary"), derive_stream(7, "adversary")
    block = game.draw_w(cfg, block_rng, count=count)
    one_at_a_time = np.array([game.draw_w(cfg, one_rng) for _ in range(count)])
    assert block.tobytes() == one_at_a_time.tobytes()
    assert block_rng.random() == one_rng.random()


def test_channel_adversary_input_validation():
    cfg = ChannelAdversaryConfig(mode=MODE_DETERMINISTIC)
    with pytest.raises(DegenerateInputError):
        build_channel_instance(cfg, subgradient_method(), T=1, d=4)
    with pytest.raises(DegenerateInputError):
        build_channel_instance(cfg, subgradient_method(), T=21, d=60)
    with pytest.raises(DegenerateInputError):
        build_channel_instance(cfg, subgradient_method(), T=5, d=9)
    with pytest.raises(DegenerateInputError):
        # randomized w needs a generator
        build_channel_instance(
            ChannelAdversaryConfig(mode=MODE_RANDOMIZED), subgradient_method(), T=5, d=10
        )
    with pytest.raises(DegenerateInputError):
        ChannelAdversaryConfig(mode="sideways")


def test_channel_adversary_w_norm_floor():
    cfg = ChannelAdversaryConfig(mode=MODE_DETERMINISTIC, w_norm=1e-13)
    with pytest.raises(DegenerateInputError):
        cfg.check_envelope(subgradient_method(), 5, 10)
