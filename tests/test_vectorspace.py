import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nearstat.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    NoOrthogonalDirectionError,
)
from nearstat.vectorspace import (
    CANDIDATE_RESIDUAL_TOL,
    OrthonormalFrame,
    as_vector,
    ball_norm_limit,
    derive_stream,
    extend_orthonormal,
    frame_tolerance,
    row_norms,
    sample_ball,
    sample_ball_batch,
    sample_sphere,
    sample_sphere_batch,
)

from test_envelope import ENVELOPE_PROFILE


def test_as_vector_coerces_and_rejects():
    v = as_vector([1, 2, 3])
    assert v.dtype == float and v.shape == (3,)
    with pytest.raises(DegenerateInputError):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(DegenerateInputError):
        as_vector([1.0, np.nan])


def test_frame_from_rows_checks_the_gram_matrix_once():
    rows = np.linalg.qr(np.random.default_rng(5).normal(size=(6, 3)))[0].T
    frame = OrthonormalFrame.from_rows(rows)
    assert (frame.dim, len(frame)) == (6, 3) and np.array_equal(frame.matrix(), rows)
    assert len(OrthonormalFrame.from_rows(np.empty((0, 4)))) == 0
    for bad in (rows * (1.0 + 1e-6), np.vstack([rows, rows[:1]]), np.full((1, 6), np.nan)):
        with pytest.raises(DegenerateInputError):
            OrthonormalFrame.from_rows(bad)
    with pytest.raises(DimensionMismatchError):
        OrthonormalFrame.from_rows(rows[0])


def test_frame_append_orthogonal_checks_only_the_unit_norm():
    fr = OrthonormalFrame(3, 2)
    fr.append_orthogonal([1.0, 0.0, 0.0])
    with pytest.raises(DegenerateInputError):
        fr.append_orthogonal([0.0, 2.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        fr.append_orthogonal([0.0, 1.0])
    fr.append_orthogonal([0.0, 1.0, 0.0])
    assert np.array_equal(fr.matrix(), np.eye(3)[:2])


def test_project_out_removes_span_component():
    fr = OrthonormalFrame.from_rows(np.eye(4)[:2])
    r = fr.project_out(np.array([2.0, -3.0, 1.0, 0.5]))
    assert np.allclose(r, [0.0, 0.0, 1.0, 0.5], atol=1e-15)


def test_frame_absorb_drops_dependent_vectors():
    rng = np.random.default_rng(7)
    vs = [rng.normal(size=5) for _ in range(3)]
    vs.append(vs[0] + vs[1])  # dependent, must be skipped
    fr = OrthonormalFrame(5, len(vs))
    for v in vs:
        fr.absorb(v)
    assert len(fr) == 3
    Q = fr.matrix()
    assert np.allclose(Q @ Q.T, np.eye(3), atol=1e-12)
    assert np.allclose(Q.T @ (Q @ vs[3]), vs[3], atol=1e-12)


def test_frame_matrix_is_a_read_only_view():
    fr = OrthonormalFrame(3, 2)
    fr.append_orthogonal([0.0, 1.0, 0.0])
    Q = fr.matrix()
    with pytest.raises(ValueError):
        Q[0, 0] = 1.0
    fr.append_orthogonal([1.0, 0.0, 0.0])
    assert np.array_equal(fr.matrix(), [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


def constraint_frame(d, rows=(), avoid=()):
    """A frame of the orthonormal ``rows`` that has then absorbed ``avoid``: what
    a caller with vectors to avoid hands to :func:`extend_orthonormal`."""
    frame = OrthonormalFrame(d, len(rows) + len(avoid))
    for row in rows:
        frame.append_orthogonal(row)
    for a in avoid:
        frame.absorb(a)
    return frame


def test_extend_orthonormal_prefers_canonical_axes():
    d = 6
    u = extend_orthonormal(OrthonormalFrame(d, 0))
    assert np.array_equal(u, np.eye(d)[0])
    u2 = extend_orthonormal(constraint_frame(d, avoid=[np.eye(d)[0]]))
    assert np.array_equal(u2, np.eye(d)[1])


def test_extend_orthonormal_is_deterministic():
    rng = np.random.default_rng(3)
    avoid = [rng.normal(size=8) for _ in range(3)]
    a = extend_orthonormal(constraint_frame(8, avoid=avoid))
    b = extend_orthonormal(constraint_frame(8, avoid=avoid))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("d", [3, 5, 9])
def test_extend_orthonormal_orthogonality_property(d):
    rng = np.random.default_rng(100 + d)
    for trial in range(50):
        k = int(rng.integers(0, d - 1))
        rows = random_rows(rng, d, k)
        n_avoid = int(rng.integers(0, min(3, d - k)))
        avoid = [rng.normal(size=d) for _ in range(n_avoid)]
        u = extend_orthonormal(constraint_frame(d, rows, avoid))
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
        tol = frame_tolerance(d)
        for v in rows:
            assert abs(u @ v) <= tol
        for v in avoid:
            nv = np.linalg.norm(v)
            if nv > 0:
                assert abs(u @ (v / nv)) <= tol


def test_extend_orthonormal_full_frame_raises():
    with pytest.raises(DegenerateInputError):
        extend_orthonormal(OrthonormalFrame.from_rows(np.eye(3)))


def random_rows(rng, d, k, axes=False):
    """k orthonormal rows: random ones from a QR factor, or distinct standard axes."""
    if axes:
        return np.eye(d)[np.sort(rng.choice(d, size=k, replace=False))]
    return np.linalg.qr(rng.normal(size=(d, k)))[0].T


def reference_extend_orthonormal(frame_rows, avoid, d):
    """The per-vector Gram-Schmidt loop that the matrix kernel replaced, run on
    the frame rows with the avoid vectors absorbed after them."""
    basis = [np.array(u) for u in frame_rows]

    def project_out(v):
        r = v.astype(float, copy=True)
        for _ in range(2):
            for u in basis:
                r -= (u @ r) * u
        return r

    for a in avoid:
        r = project_out(a)
        rn = np.linalg.norm(r)
        if len(basis) < d and rn > 1e-12 * max(1.0, np.linalg.norm(a)):
            basis.append(r / rn)
    if len(basis) >= d:  # the rows kept count, not the vectors absorbed
        raise DegenerateInputError("too many constraints")
    for j in range(d):
        r = project_out(np.eye(d)[j])
        rn = np.linalg.norm(r)
        if rn > CANDIDATE_RESIDUAL_TOL:
            u = r / rn
            if max((abs(c @ u) for c in basis), default=0.0) > frame_tolerance(d):
                raise NoOrthogonalDirectionError("residual above tolerance")
            return u
    raise NoOrthogonalDirectionError("all candidate residuals below tolerance")


def random_avoid_set(rng, d, count):
    """Avoid vectors, some exact or nearly exact combinations of earlier ones."""
    avoid = []
    for _ in range(count):
        kind = rng.integers(4) if avoid else 0
        if kind in (0, 1):
            v = rng.normal(size=d) * 10.0 ** rng.integers(-3, 4)
        else:
            coeffs = rng.normal(size=len(avoid))
            v = coeffs @ np.stack(avoid)
            if kind == 3:  # nearly dependent, well inside the drop tolerance
                v = v + 1e-15 * np.linalg.norm(v) * rng.normal(size=d)
        avoid.append(v)
    return avoid


def test_extend_orthonormal_matches_the_loop_reference():
    rng = np.random.default_rng(20260)
    for trial in range(300):
        d = int(rng.integers(2, 81))
        k = int(rng.integers(0, d))
        rows = random_rows(rng, d, k, axes=bool(trial % 2))
        avoid = random_avoid_set(rng, d, int(rng.integers(0, d - k + 2)))
        frame = constraint_frame(d, rows, avoid)
        try:
            expected = reference_extend_orthonormal(rows, avoid, d)
        except Exception as exc:
            with pytest.raises(type(exc)):
                extend_orthonormal(frame)
            continue
        before = frame.matrix().copy()
        u = extend_orthonormal(frame)
        assert np.array_equal(frame.matrix(), before)  # the caller's frame is not extended
        # u = P e_j / |P e_j| for the chosen axis j, so u_j = |P e_j| is its
        # first entry above the candidate tolerance (|u_i| <= |P e_i| for i < j)
        assert np.argmax(np.abs(u) > CANDIDATE_RESIDUAL_TOL) == np.argmax(
            np.abs(expected) > CANDIDATE_RESIDUAL_TOL
        )
        assert np.abs(u - expected).max() <= 1e-13 * np.sqrt(d)


@pytest.mark.parametrize("residual,axis", [(0.4e-6, 1), (0.9e-6, 1), (1.1e-6, 0), (3e-6, 0)])
def test_extend_orthonormal_at_the_candidate_tolerance(residual, axis):
    # e_0's residual against the frame is `residual`: an axis is taken when
    # its residual exceeds the tolerance, though its score 1 - sum Q_k0^2 is
    # the difference of two numbers within 1e-11 of each other
    d = 5
    frame = OrthonormalFrame.from_rows(
        [[np.sqrt(1.0 - residual**2), residual, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0, 0.0]]
    )
    u = extend_orthonormal(frame)
    assert np.argmax(np.abs(u) > CANDIDATE_RESIDUAL_TOL) == axis
    expected = reference_extend_orthonormal(list(frame.matrix()), [], d)
    assert np.abs(u - expected).max() <= 1e-13 * np.sqrt(d)


def test_extend_orthonormal_takes_an_axis_of_rows_off_orthonormal():
    # from_rows accepts a Gram gap of 1e-10 < frame_tolerance(3): e_0 then
    # scores 1 - a^2 = -9.6e-11, though its residual 2e-6 is above the
    # candidate tolerance, so the rule takes e_0, not e_1
    a = np.sqrt(1.0 + 1e-10 - 4e-12)
    frame = OrthonormalFrame.from_rows([[a, 0.0, 2e-6]])
    u = extend_orthonormal(frame)
    expected = reference_extend_orthonormal(list(frame.matrix()), [], 3)
    assert np.abs(u - expected).max() <= 1e-9
    assert np.abs(u - [2e-6, 0.0, -1.0]).max() <= 1e-9


def test_derive_stream_reproducible_and_role_separated():
    a = derive_stream(42, "algorithm").standard_normal(4)
    b = derive_stream(42, "algorithm").standard_normal(4)
    c = derive_stream(42, "adversary").standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # huge and zero seeds both map into the accepted entropy range
    derive_stream(2**70 + 5, "certifier").random()
    derive_stream(0, "certifier").random()


def test_sphere_and_ball_sampling_radii():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = sample_sphere(5, 2.5, rng)
        assert abs(np.linalg.norm(x) - 2.5) <= 1e-12
        y = sample_ball(5, 0.7, rng)
        assert np.linalg.norm(y) <= 0.7 + 1e-12
    X = sample_sphere_batch(3, 1.0, 1000, rng)
    assert np.allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-12)
    Y = sample_ball_batch(3, 1.0, 1000, rng)
    assert np.linalg.norm(Y, axis=1).max() <= 1.0 + 1e-12


@pytest.mark.parametrize("d", range(1, 9))
def test_sphere_and_ball_draws_are_row_0_of_the_kernel(d):
    # one block of normals, then the uniforms; a scalar draw is row 0 of a
    # one-row block and leaves the stream where that block leaves it
    for seed in range(25):
        for radius in (1.0, 0.37, 1e5):
            for count in (1, 5):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                g = ref.standard_normal((count, d))
                want = radius * g / np.linalg.norm(g, axis=1)[:, None]
                assert sample_sphere_batch(d, radius, count, rng).tobytes() == want.tobytes()
                g = ref.standard_normal((count, d))
                u = 1.0 * g / np.linalg.norm(g, axis=1)[:, None]
                want = u * (radius * ref.random(count) ** (1.0 / d))[:, None]
                assert sample_ball_batch(d, radius, count, rng).tobytes() == want.tobytes()
                assert rng.random() == ref.random()
            for one, kernel in ((sample_sphere, sample_sphere_batch), (sample_ball, sample_ball_batch)):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                assert one(d, radius, rng).tobytes() == kernel(d, radius, 1, ref)[0].tobytes()
                assert rng.random() == ref.random()


class _ZeroRowFirst:
    """A generator whose first block of normals has an all-zero row 1."""

    def __init__(self):
        self.rng = np.random.default_rng(5)
        self.blocks = []

    def standard_normal(self, size):
        g = self.rng.standard_normal(size)
        if not self.blocks:
            g[1] = 0.0
        self.blocks.append(size)
        return g

    def random(self, size):
        return self.rng.random(size)


def test_a_zero_normal_row_is_drawn_again():
    stub = _ZeroRowFirst()
    X = sample_ball_batch(3, 2.0, 4, stub)
    assert stub.blocks == [(4, 3), (1, 3)]
    assert 0.0 < np.linalg.norm(X, axis=1).min() and np.linalg.norm(X, axis=1).max() <= 2.0
    X = sample_sphere_batch(3, 2.0, 4, _ZeroRowFirst())
    assert np.allclose(np.linalg.norm(X, axis=1), 2.0, rtol=0.0, atol=1e-12)


def test_ball_norm_limit_allows_one_rounding_at_any_scale():
    for radius in (1e-3, 0.5, 1.0):
        assert ball_norm_limit(radius) == radius + 1e-12
    assert ball_norm_limit(1e5) == 1e5 + 1e-7


def test_ball_sampling_is_not_concentrated_at_center():
    # radii of a uniform ball draw in dim d follow r**d; the median is 2**(-1/d)
    rng = np.random.default_rng(2)
    r = np.linalg.norm(sample_ball_batch(4, 1.0, 4000, rng), axis=1)
    assert abs(np.median(r) - 2.0 ** (-1.0 / 4.0)) < 0.02


def test_sampling_rejects_bad_arguments():
    rng = np.random.default_rng(0)
    for sample in (sample_sphere, sample_ball):
        with pytest.raises(DegenerateInputError):
            sample(0, 1.0, rng)
        with pytest.raises(DegenerateInputError):
            sample(3, -1.0, rng)


# ---------------------------------------------------------------------------
# row norms: numpy's bits, narrow rows summed column by column
# ---------------------------------------------------------------------------

# squares of 1e-160 underflow to zero, squares of 1e200 overflow to inf
SPECIAL_ENTRIES = (0.0, -0.0, 1e-160, -1e-160, 1e200, -1e200)


def _laid_out(X: np.ndarray, layout: str) -> np.ndarray:
    """X as a C-order array, an F-order copy or a strided view with X's values."""
    if layout == "C":
        return np.ascontiguousarray(X)
    if layout == "F":
        return np.asfortranarray(X)
    n, d = X.shape
    spread = np.full((2 * n + 1, 3 * d + 1), np.nan)
    view = spread[2 * n - 1 :: -2, 1::3] if n else spread[:0, 1::3]
    view[...] = X
    return view


def _assert_numpy_bits(X: np.ndarray) -> None:
    with np.errstate(over="ignore"):
        got, want = row_norms(X), np.linalg.norm(X, axis=1)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@st.composite
def row_blocks(draw) -> np.ndarray:
    """Entries of random sign and magnitude, so rows differ in their low bits,
    with drawn entries (the special ones among them) planted at drawn places."""
    n, d = draw(st.integers(0, 64)), draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-4.0, 4.0, size=(n, d))
    entries = st.one_of(st.sampled_from(SPECIAL_ENTRIES), st.floats(allow_nan=False))
    planted = st.tuples(st.integers(0, 10**6), entries)
    if X.size:
        for place, value in draw(st.lists(planted, max_size=12)):
            X.flat[place % X.size] = value
    return _laid_out(X, draw(st.sampled_from(["C", "F", "strided"])))


@ENVELOPE_PROFILE
@given(row_blocks())
def test_row_norms_match_numpy_bit_for_bit(X):
    _assert_numpy_bits(X)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("d", [2, 4])
def test_row_norms_match_numpy_on_tall_blocks(d, layout):
    rng = np.random.default_rng(860 + d)
    X = rng.standard_normal((100_000, d)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(100_000, 1))
    X[rng.integers(0, 100_000, size=60), rng.integers(0, d, size=60)] = np.resize(
        SPECIAL_ENTRIES, 60
    )
    _assert_numpy_bits(_laid_out(X, layout))


def test_row_norms_reject_a_vector():
    with pytest.raises(DimensionMismatchError):
        row_norms(np.ones(3))
