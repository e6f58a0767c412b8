import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nearstat import stationarity
from nearstat.errors import ClampRegionError, DegenerateInputError, DimensionMismatchError
from nearstat.stationarity import (
    DEDUP_TOL,
    CONSTANTS,
    KIND_DELTA_EPS_WITNESS,
    KIND_EPS_WITNESS,
    KIND_NEAR_DISTANCE,
    KIND_SUBDIFF_NORM,
    StationarityCertificate,
    Witness,
    certify_delta_eps,
    certify_eps_stationary,
    min_norm_point,
    near_stationarity_distance_lb,
    _dedup,
    subdiff_norm_lower_bound,
)
from nearstat.vectorspace import derive_stream
from nearstat.zoo import (
    REGION_CLAMP_ACTIVE,
    REGION_CLAMP_BOUNDARY,
    REGION_HINGE_ACTIVE,
    REGION_HINGE_BOUNDARY,
    REGION_HINGE_INACTIVE,
    REGION_MINUS_W,
    REGION_ORIGIN,
    ChannelInstance,
    Spiral,
)

from brute_force import min_norm_brute_oracle
from test_envelope import ENVELOPE_PROFILE
from test_zoo import _composed_channels, _planted_channel_rows, region_names


# ---------------------------------------------------------------------------
# minimum-norm point
# ---------------------------------------------------------------------------


def test_opposite_points_cancel_exactly():
    r = min_norm_point([[1.0, 0.0], [-1.0, 0.0]])
    assert r.norm == 0.0
    assert np.array_equal(r.point, [0.0, 0.0])
    assert np.array_equal(r.coefficients, [0.5, 0.5])
    assert r.converged


def test_two_axes_give_midpoint():
    r = min_norm_point([[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(r.point, [0.5, 0.5])
    assert r.norm == np.sqrt(0.5)


def test_single_point_and_interior_origin():
    r = min_norm_point([[2.0, -1.0]])
    assert np.array_equal(r.point, [2.0, -1.0]) and r.coefficients == pytest.approx([1.0])
    r0 = min_norm_point([[1.0, 1.0], [-1.0, 1.0], [0.0, -1.0]])
    assert r0.norm <= 1e-10


def test_collinear_segment_picks_near_end():
    r = min_norm_point([[3.0, 0.0], [1.0, 0.0]])
    assert r.norm == pytest.approx(1.0, abs=1e-12)
    assert r.coefficients[1] == pytest.approx(1.0, abs=1e-10)


def test_duplicate_points_share_one_coefficient():
    r = min_norm_point([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    assert len(r.coefficients) == 3
    assert r.norm == 0.0
    # dedup assigns the merged mass to the first occurrence
    assert r.coefficients[1] == 0.0


def reference_dedup(P):
    """The row-by-row scan that _dedup reproduces: indices of the representatives."""
    reps = []
    for i, p in enumerate(P):
        if not reps or (np.max(np.abs(p - P[reps]), axis=1) > DEDUP_TOL).all():
            reps.append(i)
    return reps


def _rows_with_copies(rng, m, dim):
    """Random rows with exact copies, copies shifted by 1/2 to 2 tolerances,
    ties in column 0, signed zeros and magnitudes where an ulp exceeds the
    tolerance, so that closeness is not transitive and the scan order decides
    owners."""
    scale = rng.choice([1.0, 1e-13, 1e3])
    P = rng.normal(size=(m, dim)) * scale
    shifts = np.array([0.0, 0.0, 0.5, 1.0, 2.0]) * DEDUP_TOL
    for i in rng.integers(0, m, size=m // 2):
        j = int(rng.integers(0, m))
        P[i] = P[j] + rng.choice(shifts) * rng.choice([-1.0, 1.0], size=dim)
    for i in rng.integers(0, m, size=m // 8):  # the same first entry, other later ones
        P[i, 0] = P[int(rng.integers(0, m)), 0]
    P[rng.random(size=(m, dim)) < 0.05] = 0.0
    P[rng.random(size=(m, dim)) < 0.05] = -0.0
    return P


@pytest.mark.parametrize("block_entries", [None, 7])
def test_dedup_matches_reference_scan(block_entries, monkeypatch):
    # a tiny block splits the candidate pairs, and single rows' windows,
    # across many chunks
    if block_entries is not None:
        monkeypatch.setattr(stationarity, "_DEDUP_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(8)
    for trial in range(300):
        m = int(rng.integers(1, 600 if trial % 10 == 0 else 70))
        P = _rows_with_copies(rng, m, int(rng.integers(1, 6)))
        assert _dedup(P).tolist() == reference_dedup(P), trial


def test_dedup_time_budget():
    # the sorted window makes the common case (no two first entries close)
    # and a block of identical rows cost one sort each, not m^2 comparisons
    rng = np.random.default_rng(20)
    for P, reps in (
        (rng.normal(size=(20_000, 6)), list(range(20_000))),
        (np.ones((4097, 6)), [0]),
    ):
        t0 = time.perf_counter()
        got = _dedup(P).tolist()
        elapsed = time.perf_counter() - t0
        assert got == reps
        assert elapsed < 0.5, (P.shape, elapsed)


def test_dedup_memory_is_bounded_by_the_block(monkeypatch):
    # 2,000 distinct rows with one first entry: every pair is a candidate,
    # about 2e6 of them, yet no chunk holds more than the block
    monkeypatch.setattr(stationarity, "_DEDUP_BLOCK_ENTRIES", 1 << 10)
    P = np.column_stack([np.zeros(2000), np.arange(2000.0)])
    tracemalloc.start()
    try:
        got = _dedup(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == list(range(2000))
    assert peak < 1_000_000, peak


def test_dedup_chain_within_tolerance_keeps_scan_order():
    # 0 and 1 tol apart merge; 2 tol is too far from the first representative
    # even though it is within tol of the merged middle point
    P = np.array([[0.0], [DEDUP_TOL], [2.0 * DEDUP_TOL], [0.0]])
    assert _dedup(P).tolist() == [0, 2]
    coeffs = min_norm_point(P).coefficients  # the mass sits on row 0, the origin
    assert coeffs.tolist() == [1.0, 0.0, 0.0, 0.0] and not np.signbit(coeffs).any()


def test_min_norm_result_invariants_random():
    rng = np.random.default_rng(42)
    for _ in range(200):
        m = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 7))
        P = rng.normal(size=(m, dim)) * rng.uniform(0.05, 5.0)
        r = min_norm_point(P)
        coeffs = np.asarray(r.coefficients)
        assert coeffs.min() >= -1e-12
        assert abs(coeffs.sum() - 1.0) <= 1e-10
        assert np.linalg.norm(coeffs @ P - r.point) <= 1e-10
        assert abs(np.linalg.norm(r.point) - r.norm) <= 1e-12
        assert r.converged
        # no hull element can beat the reported norm
        assert r.norm <= np.linalg.norm(P, axis=1).min() + 1e-10


def test_agrees_with_brute_enumeration_small():
    rng = np.random.default_rng(33)
    for _ in range(100):
        m = int(rng.integers(1, 6))
        dim = int(rng.integers(1, 5))
        P = rng.normal(size=(m, dim))
        assert min_norm_point(P).norm == pytest.approx(min_norm_brute_oracle(P), abs=1e-6)


@st.composite
def point_sets_with_copies(draw):
    """Up to six rows in dimension <= 5: distinct base rows, then exact copies
    and copies within half the dedup tolerance, each placed after its original.
    Returns the rows, which of them are copies, and the rows' scale."""
    k, dim = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    base = rng.standard_normal((k, dim)) * scale
    rows, sources = list(base), list(range(k))  # a copy sits after its base row
    for _ in range(draw(st.integers(0, 6 - k))):
        i = draw(st.integers(0, k - 1))
        shift = draw(st.sampled_from([0.0, 0.5])) * DEDUP_TOL
        at = draw(st.integers(sources.index(i) + 1, len(rows)))
        rows.insert(at, base[i] + shift * rng.choice([-1.0, 1.0], size=dim))
        sources.insert(at, i)
    copies = [i in sources[:p] for p, i in enumerate(sources)]
    return np.array(rows), np.array(copies), scale


@ENVELOPE_PROFILE
@given(point_sets_with_copies())
def test_min_norm_point_against_brute_force_with_planted_copies(drawn):
    P, copies, scale = drawn
    r = min_norm_point(P)
    assert r.converged
    assert r.norm == pytest.approx(min_norm_brute_oracle(P), abs=1e-6 * scale)
    # a copy's mass stays with its first occurrence: every copy holds +0.0, and
    # the originals hold what the solve over the originals alone gives
    assert not np.signbit(r.coefficients).any()
    assert r.coefficients[copies].tolist() == [0.0] * copies.sum()
    alone = min_norm_point(P[~copies])
    assert r.coefficients[~copies].tobytes() == alone.coefficients.tobytes()
    assert r.point.tobytes() == alone.point.tobytes()


def test_min_norm_input_validation():
    with pytest.raises(DegenerateInputError):
        min_norm_point([])
    with pytest.raises(DimensionMismatchError):
        min_norm_point([[1.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(DegenerateInputError):
        min_norm_brute_oracle(np.zeros((7, 2)))  # enumeration cap is 6 points
    with pytest.raises(DegenerateInputError):
        min_norm_brute_oracle(np.zeros((2, 6)))  # and dimension 5


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_certificate_witness_discipline():
    with pytest.raises(DegenerateInputError):
        StationarityCertificate(
            kind=KIND_EPS_WITNESS, value=0.1, certified=True, sound_direction="stationarity_only"
        )
    with pytest.raises(DegenerateInputError):
        StationarityCertificate(
            kind=KIND_NEAR_DISTANCE,
            value=0.1,
            certified=True,
            sound_direction="refutation_only",
            witness=Witness([], [], []),
        )
    with pytest.raises(DegenerateInputError):
        StationarityCertificate(
            kind=KIND_NEAR_DISTANCE, value=-0.5, certified=True, sound_direction="refutation_only"
        )


def test_certificate_json_round_trip():
    g = ChannelInstance(w=[0.3, 0.0])
    cert = certify_eps_stationary([0.0, 0.0], g.eval([0.0, 0.0]).subgrad, eps=2.0)
    doc = json.loads(json.dumps(cert.to_json()))
    assert doc["kind"] == KIND_EPS_WITNESS
    assert doc["certified"] is True
    assert doc["value"] == 2.0
    assert doc["witness"]["subgradients"] == [[-2.0, 0.0]]
    assert doc["constants"]["lipschitz_channel"] == 7.0


def test_eps_certifier_on_channel_origin():
    subgrad = ChannelInstance(w=[0.3, 0.0]).eval([0.0, 0.0]).subgrad
    tight = certify_eps_stationary([0.0, 0.0], subgrad, eps=1.0)
    assert tight.value == 2.0 and not tight.certified and tight.witness is None
    loose = certify_eps_stationary([0.0, 0.0], subgrad, eps=2.5)
    assert loose.certified and loose.witness is not None
    with pytest.raises(DegenerateInputError):
        certify_eps_stationary([0.0, 0.0], subgrad, eps=-1.0)


def test_delta_eps_stencil_certifies_spiral_origin():
    # gradients at (0, +delta) and (0, -delta) are (1, 0) and (-1, 0): their
    # hull contains the origin even though no single gradient is small
    f = Spiral(delta=0.05)
    cert = certify_delta_eps(
        f.eval, [0.0, 0.0], delta=0.05, eps=1e-8, sampling=[[0.0, 0.05], [0.0, -0.05]]
    )
    assert cert.kind == KIND_DELTA_EPS_WITNESS
    assert cert.value <= 1e-12 and cert.certified
    assert cert.sound_direction == "stationarity_only"
    assert len(cert.witness.coefficients) == 2


def test_delta_eps_ball_sampling_needs_rng_and_stays_inside():
    f = Spiral(delta=0.05)
    with pytest.raises(DegenerateInputError):
        certify_delta_eps(f.eval, [0.0, 0.0], delta=0.05, eps=0.1, sampling=16)
    rng = derive_stream(7, "certifier")
    cert = certify_delta_eps(f.eval, [0.0, 0.0], delta=0.05, eps=2.0, sampling=32, rng_state=rng)
    assert cert.certified  # single-gradient norms stay <= 2*pi, hull min is small here
    with pytest.raises(DegenerateInputError):
        certify_delta_eps(
            f.eval, [0.0, 0.0], delta=0.05, eps=0.1, sampling=[[0.0, 0.06]]
        )
    # the first offending offset decides which error is raised
    for stencil, error in (
        ([[0.0, 0.06], [0.01]], DegenerateInputError),
        ([[0.01], [0.0, 0.06]], DimensionMismatchError),
        ([[0.0, 0.01], [0.01, 0.0, 0.0], [0.0, 0.06]], DimensionMismatchError),
    ):
        with pytest.raises(error):
            certify_delta_eps(f.eval, [0.0, 0.0], delta=0.05, eps=0.1, sampling=stencil)


def test_delta_eps_batch_answers_match_scalar_calls():
    from nearstat.adversaries import affine_map_from_parameters

    g = ChannelInstance(w=[0.02, -0.01, 0.015])
    chain = affine_map_from_parameters(2, 3)
    composed = ChannelInstance(w=[0.02, -0.01, 0.015], clamp=-1.0, affine=chain)
    for instance, x in ((g, [0.01, 0.02, 0.0]), (composed, chain.x_star + [0.01, 0.02, 0.0])):
        certs = [
            certify_delta_eps(oracle, x, 0.5, 1e-6, 64, rng_state=derive_stream(3, "certifier"))
            for oracle in (instance.eval, lambda p: instance.eval(p))
        ]
        assert json.dumps(certs[0].to_json()) == json.dumps(certs[1].to_json())
        assert certs[0].certified


def test_subdiff_norm_lower_bound_by_region():
    g = ChannelInstance(w=[0.3, 0.0])
    boundary_x = np.array([0.5 - 0.3, math.sqrt(3.0) / 2.0])
    codes = g.eval_batch([[-1.0, 0.0], boundary_x])[3]
    inactive, boundary = subdiff_norm_lower_bound(g, codes)
    assert inactive.value == 1.0 and inactive.sound_direction == "refutation_only"
    assert boundary.value == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert boundary.kind == KIND_SUBDIFF_NORM


def test_subdiff_norm_bound_scales_under_composition():
    from nearstat.adversaries import HardQuadratic, norm_distance_instance

    base = norm_distance_instance(HardQuadratic(T=2, d=2))
    g = ChannelInstance(w=[0.3, 0.0], affine=base.map)
    far = base.map.x_star + np.array([5.0, 5.0])
    (cert,) = subdiff_norm_lower_bound(g, g.eval_batch([far])[3])
    assert cert.value == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)


def test_clamp_region_refuses_norm_bound():
    g = ChannelInstance(w=[0.3, 0.0], clamp=-1.0)
    free = np.array([[-1.0, 0.0], [0.0, 0.0], [-0.3, 0.0], [0.0, 2.0]])
    # a clamped row alone, first, among the others or last refuses the block
    for X in ([[0.7, 0.0]], *(np.insert(free, row, [0.7, 0.0], axis=0) for row in range(5))):
        row = int(np.flatnonzero(np.asarray(X)[:, 0] == 0.7)[0])
        with pytest.raises(ClampRegionError, match=f"row {row}: .*'clamp_active'"):
            subdiff_norm_lower_bound(g, g.eval_batch(X)[3])
    assert len(subdiff_norm_lower_bound(g, g.eval_batch(free)[3])) == len(free)


def _channels_with_planted_rows():
    """Plain, clamped and composed channels, each with uniform rows and rows
    planted on and around every region threshold."""
    rng = np.random.default_rng(338)
    w = rng.normal(size=4)
    w *= 0.3 / np.linalg.norm(w)
    origin_value = ChannelInstance(w=w).eval(np.zeros(4)).value
    for clamp in (None, origin_value - 1.0, origin_value / 2.0):
        X = np.vstack([rng.uniform(-1.5, 1.5, size=(100, 4)), _planted_channel_rows(w, clamp, rng)])
        yield ChannelInstance(w=w, clamp=clamp), X
    yield from _composed_channels("natural", rng)


def test_subdiff_norm_lower_bound_batch_equals_one_row_calls():
    seen = {"plain": set(), "composed": set()}  # regions of the certified rows
    for instance, X in _channels_with_planted_rows():
        regions = region_names(instance.eval_batch(X)[3])
        X = X[~np.isin(regions, (REGION_CLAMP_ACTIVE, REGION_CLAMP_BOUNDARY))]
        regions = region_names(instance.eval_batch(X)[3])
        seen["plain" if instance.affine is None else "composed"] |= set(regions.tolist())
        scale = 1.0 if instance.affine is None else 1.0 / math.sqrt(2.0)
        certs = subdiff_norm_lower_bound(instance, instance.eval_batch(X)[3])
        assert len(certs) == len(X)
        for x, region, cert in zip(X, regions.tolist(), certs):
            (alone,) = subdiff_norm_lower_bound(instance, instance.eval_batch(x[None, :])[3])
            assert json.dumps(cert.to_json()) == json.dumps(alone.to_json())
            bound = 1.0 / math.sqrt(2.0) if region == REGION_HINGE_BOUNDARY else 1.0
            assert cert.value == pytest.approx(bound * scale, rel=1e-15)
    every_free_region = {
        REGION_ORIGIN, REGION_MINUS_W, REGION_HINGE_BOUNDARY, REGION_HINGE_ACTIVE,
        REGION_HINGE_INACTIVE,
    }
    assert seen == {"plain": every_free_region, "composed": every_free_region}


def test_near_distance_bound_from_value_gap():
    g = ChannelInstance(w=[0.3, 0.0], clamp=-1.0)
    values = g.eval_batch([[0.0, 0.0], [0.7, 0.0]])[0]
    cert, deep = near_stationarity_distance_lb(g, values)
    assert cert.kind == KIND_NEAR_DISTANCE
    assert cert.value == pytest.approx((-0.6 + 1.0) / 7.0, rel=1e-15)
    assert deep.value == 0.0
    with pytest.raises(DegenerateInputError):
        near_stationarity_distance_lb(ChannelInstance(w=[0.3, 0.0]), values)


def test_near_distance_bounds_evaluate_nothing(monkeypatch):
    from nearstat.adversaries import affine_map_from_parameters

    g = ChannelInstance(w=[0.02, -0.01, 0.015], clamp=-1.0, affine=affine_map_from_parameters(2, 3))
    X = np.random.default_rng(24).normal(size=(6, 3))
    want = [max(0.0, (g.eval(x).value - g.clamp) / 7.0) for x in X]
    values = g.eval_batch(X)[0]

    def refuse(self, rows):
        raise AssertionError("a certificate builder evaluated the instance")

    monkeypatch.setattr(ChannelInstance, "eval_batch", refuse)
    certs = near_stationarity_distance_lb(g, values)
    assert [c.value for c in certs] == want
    assert all(c.kind == KIND_NEAR_DISTANCE and c.certified for c in certs)


def test_constants_table_defaults():
    assert list(CONSTANTS) == [
        "lipschitz_channel",
        "stationarity_threshold",
        "value_gap",
        "distance_bound",
        "lipschitz_spiral_ball",
    ]
    assert CONSTANTS["lipschitz_channel"] == 7.0
    assert CONSTANTS["stationarity_threshold"] == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)))
    assert CONSTANTS["distance_bound"] == pytest.approx(1.0 / 7.0)
