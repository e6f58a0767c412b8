import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nearstat.adversaries import (
    HardQuadratic,
    RotationBuilder,
    affine_map_from_parameters,
    chain_quadratic_oracle,
    rotation_oracle,
)
from nearstat.errors import ConfigError, DegenerateInputError, DimensionMismatchError
from nearstat.zoo import (
    REGION_CLAMP_ACTIVE,
    REGION_CLAMP_BOUNDARY,
    REGION_HINGE_ACTIVE,
    REGION_HINGE_BOUNDARY,
    REGION_HINGE_INACTIVE,
    REGION_MINUS_W,
    REGION_NAMES,
    REGION_ORIGIN,
    REGION_TOL,
    ChannelInstance,
    FirstOrderReply,
    NormDistance,
    Spiral,
    Warga,
    batch_oracle,
    clamped_channel,
    identity_map,
    instance_from_json,
    instance_to_json,
    instance_to_json_str,
    sqrt_oracle,
)

from test_envelope import ENVELOPE_PROFILE


def test_reply_coercion_and_finiteness():
    r = FirstOrderReply(1, [1, 2], True)
    assert r.value == 1.0 and r.subgrad.dtype == float
    with pytest.raises(DegenerateInputError):
        FirstOrderReply(np.inf, [0.0], True)
    with pytest.raises(DegenerateInputError):
        FirstOrderReply(0.0, [np.nan], True)


# ---------------------------------------------------------------------------
# spiral
# ---------------------------------------------------------------------------


def test_spiral_hand_values():
    f = Spiral(delta=1.0)
    r = f.eval([0.0, 1.0])
    assert r.value == pytest.approx(2.0, abs=1e-15)
    assert np.allclose(r.subgrad, [1.0, 0.0], atol=1e-15)
    r0 = f.eval([0.0, 0.0])
    assert r0.value == 0.0
    assert np.allclose(r0.subgrad, [0.0, math.pi], atol=1e-15)
    r2 = f.eval([0.5, 1.0 / 3.0])
    assert r2.value == pytest.approx(2.5 * math.sin(math.pi / 6.0), rel=1e-15)


def test_spiral_gradient_norm_bounds_sampled():
    rng = np.random.default_rng(5)
    f = Spiral(delta=0.7)
    # unit-gradient floor on the delta ball, 2*pi cap on the 2*delta ball
    X = rng.normal(size=(4000, 2))
    X *= (0.7 * rng.random(4000) ** 0.5 / np.linalg.norm(X, axis=1))[:, None]
    _, grads, _ = f.eval_batch(X)
    norms = np.linalg.norm(grads, axis=1)
    assert norms.min() >= 1.0 - 1e-9
    X2 = 2.0 * X
    _, grads2, _ = f.eval_batch(X2)
    assert np.linalg.norm(grads2, axis=1).max() <= 2.0 * math.pi + 1e-9


def test_spiral_extension_matches_inside_and_vanishes_far():
    f = Spiral(delta=1.0, extended=True)
    plain = Spiral(delta=1.0)
    rng = np.random.default_rng(9)
    X = rng.uniform(-1.2, 1.2, size=(100, 2))
    vals_e, grads_e, _ = f.eval_batch(X)
    vals_p, grads_p, _ = plain.eval_batch(X)
    inside = np.linalg.norm(X, axis=1) < 2.0
    assert np.array_equal(vals_e[inside], vals_p[inside])
    assert np.array_equal(grads_e[inside], grads_p[inside])
    far = f.eval([5.0, 1.0])
    assert far.value == 0.0 and np.array_equal(far.subgrad, [0.0, 0.0])


def test_spiral_extension_continuity_and_seams():
    f = Spiral(delta=1.0, extended=True)
    x = np.array([0.6, 0.8])  # unit direction
    for r in (2.0, 4.0):
        lo = f.eval((r - 1e-9) * x).value
        hi = f.eval((r + 1e-9) * x).value
        assert abs(hi - lo) < 1e-7
        assert not f.eval(r * x).differentiable
    # taper factor is 1/2 at radius 3*delta
    inner = f.eval(2.0 * x).value
    mid = f.eval(3.0 * x).value
    assert mid == pytest.approx(0.5 * inner, rel=1e-12)


def test_spiral_rejects_bad_inputs():
    with pytest.raises(DegenerateInputError):
        Spiral(delta=0.0)
    with pytest.raises(DimensionMismatchError):
        Spiral().eval_batch(np.zeros((3, 4)))


# ---------------------------------------------------------------------------
# Warga's function
# ---------------------------------------------------------------------------


def test_warga_hand_values():
    f = Warga()
    assert f.eval([1.0, 1.0]).value == 2.5
    assert f.eval([-1.0, 2.0]).value == 2.5
    r = f.eval([1.0, 1.0])
    assert np.array_equal(r.subgrad, [1.5, 1.0]) and r.differentiable
    # u = 0 uses sign(0) = 0 and is flagged nondifferentiable
    r0 = f.eval([0.0, 1.0])
    assert np.array_equal(r0.subgrad, [0.5, 1.0]) and not r0.differentiable
    assert f.eval([0.0, 0.0]).value == 0.0


def test_warga_descent_direction_exists_at_origin():
    # the origin is not a local minimum: moving along (-1, -1) decreases f
    f = Warga()
    assert f.eval([-0.1, -0.1]).value == pytest.approx(-0.05, abs=1e-15)


# ---------------------------------------------------------------------------
# sqrt transform and norm-distance instances
# ---------------------------------------------------------------------------


def test_sqrt_oracle_cases():
    def constant(value, subgrad):
        return sqrt_oracle(lambda x: FirstOrderReply(value, subgrad, True))

    r = constant(4.0, [8.0, 0.0])(np.zeros(2))
    assert r.value == 2.0 and np.array_equal(r.subgrad, [2.0, 0.0]) and r.differentiable
    for zero in (0.0, -0.0):
        z = constant(zero, [1.0, 1.0])(np.zeros(2))
        assert z.value == 0.0 and not np.signbit(z.value)
        assert np.array_equal(z.subgrad, [0.0, 0.0])
        assert not z.differentiable
    with pytest.raises(DegenerateInputError):
        constant(-1e-9, [0.0])(np.zeros(1))


def test_sqrt_oracle_gives_unit_gradients_of_distance():
    def quad(x):
        return FirstOrderReply(float(x @ x), 2.0 * x, True)

    dist = sqrt_oracle(quad)
    rng = np.random.default_rng(1)
    for _ in range(30):
        x = rng.normal(size=3)
        r = dist(x)
        assert r.value == pytest.approx(np.linalg.norm(x), rel=1e-15)
        assert np.linalg.norm(r.subgrad) == pytest.approx(1.0, abs=1e-14)


def test_identity_norm_distance():
    nd = NormDistance(identity_map([1.0, -2.0]))
    r = nd.eval([1.0, 0.0])
    assert r.value == 2.0 and np.array_equal(r.subgrad, [0.0, 1.0])
    at_star = nd.eval([1.0, -2.0])
    assert at_star.value == 0.0 and not at_star.differentiable
    with pytest.raises(DimensionMismatchError):
        nd.eval([0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# channel family
# ---------------------------------------------------------------------------


def region_names(codes):
    """The region names of eval_batch's int8 region codes, through the name table."""
    return np.array(REGION_NAMES)[codes]


def region_of(g, x):
    """The name of the region eval_batch gives the one row x."""
    return REGION_NAMES[g.eval_batch(np.array([x], dtype=float))[3][0]]


def test_channel_canonical_regions_and_values():
    g = ChannelInstance(w=[0.3, 0.0])
    r0 = g.eval([0.0, 0.0])
    assert r0.value == pytest.approx(-0.6, abs=1e-15)
    assert np.array_equal(r0.subgrad, [-2.0, 0.0])
    assert region_of(g, [0.0, 0.0]) == REGION_ORIGIN

    rm = g.eval([-0.3, 0.0])
    assert rm.value == pytest.approx(0.3, abs=1e-15)
    assert np.array_equal(rm.subgrad, [-3.0, 0.0])
    assert region_of(g, [-0.3, 0.0]) == REGION_MINUS_W

    # deep in the channel: x + w = wbar
    ra = g.eval([0.7, 0.0])
    assert region_of(g, [0.7, 0.0]) == REGION_HINGE_ACTIVE
    assert ra.value == pytest.approx(-1.3, abs=1e-15)
    assert np.allclose(ra.subgrad, [-1.0, 0.0], atol=1e-15)

    # behind the channel the function is the plain norm
    rb = g.eval([-1.0, 0.0])
    assert region_of(g, [-1.0, 0.0]) == REGION_HINGE_INACTIVE
    assert rb.value == 1.0 and np.array_equal(rb.subgrad, [-1.0, 0.0])

    # x + w on the 60-degree cone around w: the hinge vanishes identically
    xb = np.array([0.5 - 0.3, math.sqrt(3.0) / 2.0])
    assert region_of(g, xb) == REGION_HINGE_BOUNDARY
    assert np.linalg.norm(g.eval(xb).subgrad) == pytest.approx(1.0, abs=1e-14)


def test_channel_gradient_norms_never_small():
    rng = np.random.default_rng(12)
    g = ChannelInstance(w=[0.2, -0.4, 0.1])
    X = rng.uniform(-1.5, 1.5, size=(5000, 3))
    _, grads, _, _ = g.eval_batch(X)
    assert np.linalg.norm(grads, axis=1).min() >= 1.0 / math.sqrt(2.0) - 1e-9


def test_channel_lipschitz_ratio_sampled():
    rng = np.random.default_rng(13)
    g = ChannelInstance(w=[0.3, 0.0])
    A = rng.uniform(-2, 2, size=(3000, 2))
    B = rng.uniform(-2, 2, size=(3000, 2))
    va, _, _, _ = g.eval_batch(A)
    vb, _, _, _ = g.eval_batch(B)
    gaps = np.linalg.norm(A - B, axis=1)
    assert (np.abs(va - vb) <= 7.0 * gaps + 1e-12).all()


def test_channel_eval_matches_eval_batch():
    # a scalar reply is its batch row, bit for bit, in every region and in
    # dimensions where BLAS would split the rows differently; for composed
    # instances too, whose rows are mapped through einsum row kernels
    rng = np.random.default_rng(14)
    for dim in (2, 9, 40):
        w = np.zeros(dim)
        w[:2] = [0.25, -0.1]
        g = ChannelInstance(w=w, clamp=-1.0)
        near = np.zeros((3, dim))
        near[1] = -w
        near[2, 0] = 0.7
        X = np.vstack(
            [rng.uniform(-1, 1, size=(200, dim)), rng.normal(size=(50, dim)) * 1e-3, near]
        )
        assert len(set(_assert_scalar_calls_are_batch_rows(g, X))) >= 3
    for kind in ("natural", "rotated"):
        seen = set()
        for g, X in _composed_channels(kind, rng):
            seen |= set(_assert_scalar_calls_are_batch_rows(g, X))
        assert len(seen) == 7


def _assert_scalar_calls_are_batch_rows(g, X):
    vals, grads, diffs, regions = g.eval_batch(X)
    for i, x in enumerate(X):
        r = g.eval(x)
        assert r.value == vals[i]
        assert np.array_equal(r.subgrad, grads[i])
        assert np.array_equal(np.signbit(r.subgrad), np.signbit(grads[i]))
        assert r.differentiable == bool(diffs[i])
        alone = g.eval_batch(x[None, :])  # its region too
        for a, b in zip(alone, (vals, grads, diffs, regions)):
            assert np.array_equal(a[0], b[i])
    return regions


def _composed_channels(kind, rng):
    """Composed instances over a natural, rotated or identity map, unclamped and
    clamped at two levels, each with rows x whose mapped points M^(1/2)(x - x_star)
    are planted in every region."""
    T, d = 4, 9
    frame = None
    if kind == "rotated":
        frame = np.linalg.qr(rng.normal(size=(d, T)))[0].T
    affine = identity_map(rng.normal(size=d)) if kind == "identity" else (
        affine_map_from_parameters(T, d, rotation_frame=frame)
    )
    root = np.stack([affine.sqrt_apply(e) for e in np.eye(d)], axis=1)
    w = rng.normal(size=d)
    w *= 0.3 / np.linalg.norm(w)
    origin_value = ChannelInstance(w=w).eval(np.zeros(d)).value
    for clamp in (None, origin_value - 1.0, origin_value / 2.0):
        Y = np.vstack([rng.uniform(-1.5, 1.5, size=(150, d)), _planted_channel_rows(w, clamp, rng)])
        X = affine.x_star + np.linalg.solve(root, Y.T).T
        yield ChannelInstance(w=w, clamp=clamp, affine=affine), X


def reference_channel_eval_batch(instance, X):
    """ChannelInstance.eval_batch as it was written before its region codes:
    boolean masks, masked writes into a string array, gathered copies."""
    Y = np.atleast_2d(np.asarray(X, dtype=float))
    wbar = instance.w_bar
    S = Y + instance.w
    ny = np.linalg.norm(Y, axis=1)
    ns = np.linalg.norm(S, axis=1)
    hinge = 4.0 * np.einsum("ij,j->i", S, wbar) - 2.0 * ns
    raw = ny - np.maximum(hinge, 0.0)

    n = len(Y)
    grads = np.zeros_like(Y)
    diffs = np.zeros(n, dtype=bool)
    regions = np.empty(n, dtype="<U16")

    at_origin = ny <= REGION_TOL
    at_minus_w = ~at_origin & (ns <= REGION_TOL)
    on_boundary = ~at_origin & ~at_minus_w & (np.abs(hinge) <= REGION_TOL)
    active = ~at_origin & ~at_minus_w & ~on_boundary & (hinge > 0.0)
    inactive = ~at_origin & ~at_minus_w & ~on_boundary & ~active

    regions[at_origin] = REGION_ORIGIN
    regions[at_minus_w] = REGION_MINUS_W
    regions[on_boundary] = REGION_HINGE_BOUNDARY
    regions[active] = REGION_HINGE_ACTIVE
    regions[inactive] = REGION_HINGE_INACTIVE

    grads[at_origin] = -2.0 * wbar
    grads[at_minus_w] = -3.0 * wbar
    safe_ny = np.where(ny > 0.0, ny, 1.0)
    ybar = Y / safe_ny[:, None]
    grads[on_boundary | inactive] = ybar[on_boundary | inactive]
    if np.any(active):
        sbar = S[active] / ns[active, None]
        grads[active] = ybar[active] - (4.0 * wbar - 2.0 * sbar)
    diffs[active | inactive] = True

    values = raw.copy()
    if instance.clamp is not None:
        gap = raw - instance.clamp
        clamped = gap < -REGION_TOL
        boundary = ~clamped & (gap <= REGION_TOL)
        values[clamped] = instance.clamp
        grads[clamped] = 0.0
        diffs[clamped] = True
        regions[clamped] = REGION_CLAMP_ACTIVE
        values[boundary] = np.maximum(instance.clamp, raw[boundary])
        diffs[boundary] = False
        regions[boundary] = REGION_CLAMP_BOUNDARY
    return values, grads, diffs, regions


def _planted_channel_rows(w, clamp, rng):
    """Rows on and within 1e-13 of the origin, -w and the hinge-boundary cone,
    and rows whose value lies within about 3e-12 of the clamp level."""
    dim = len(w)
    w_norm = np.linalg.norm(w)
    wbar = w / w_norm
    tang = rng.normal(size=(60, dim))
    tang -= np.outer(tang @ wbar, wbar)
    tang /= np.linalg.norm(tang, axis=1, keepdims=True)
    # s = x + w at 60 degrees from w, where the hinge argument changes sign
    cone = rng.uniform(1e-3, 2.0, size=(60, 1)) * (0.5 * wbar + (math.sqrt(3.0) / 2.0) * tang) - w
    rows = [
        np.zeros((1, dim)),
        -w[None, :],
        1e-13 * rng.normal(size=(20, dim)),
        -w + 1e-13 * rng.normal(size=(20, dim)),
        cone,
        cone + 1e-13 * rng.normal(size=cone.shape),
    ]
    if clamp is not None:
        # the unclamped value is -t - 2|w| at t wbar, and 3t - 2|w| at -t wbar (t < |w|)
        offsets = np.linspace(-1e-12, 1e-12, 21)[:, None]
        t_plus, t_minus = -clamp - 2.0 * w_norm, (clamp + 2.0 * w_norm) / 3.0
        if t_plus > 0.0:
            rows.append((t_plus + offsets) * wbar)
        if 0.0 < t_minus < w_norm:
            rows.append(-(t_minus + offsets) * wbar)
    return np.vstack(rows)


@pytest.mark.parametrize("dim", [2, 4, 9, 40])
def test_channel_eval_batch_matches_reference_bit_for_bit(dim):
    rng = np.random.default_rng(140 + dim)
    w = rng.normal(size=dim)
    w *= 0.3 / np.linalg.norm(w)
    origin_value = ChannelInstance(w=w).eval(np.zeros(dim)).value
    seen = set()
    # no clamp, the clamp of the remark one below g(0), and a clamp above
    # g(0) that cuts off part of the bulk
    for clamp in (None, origin_value - 1.0, origin_value / 2.0):
        g = ChannelInstance(w=w, clamp=clamp)
        X = np.vstack([rng.uniform(-1.5, 1.5, size=(300, dim)), _planted_channel_rows(w, clamp, rng)])
        got = g.eval_batch(X)
        want = reference_channel_eval_batch(g, X)
        for a, b in zip(got[:3], want[:3]):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert got[3].dtype == np.int8
        names = region_names(got[3])
        assert np.array_equal(names, want[3])
        assert np.array_equal(np.signbit(got[0]), np.signbit(want[0]))
        assert np.array_equal(np.signbit(got[1]), np.signbit(want[1]))
        seen |= set(names)
        if clamp is not None:
            assert {REGION_CLAMP_ACTIVE, REGION_CLAMP_BOUNDARY} <= set(names)
            # rows just under the clamp level take max(clamp, raw)
            on_level = names == REGION_CLAMP_BOUNDARY
            assert np.any(got[0][on_level] == clamp)
            assert np.any(got[0][on_level] > clamp)
        for i, x in enumerate(X):
            alone = g.eval_batch(x[None, :])
            for a, b in zip(alone, got):
                assert np.array_equal(a[0], b[i])
    assert len(seen) == 7


def test_clamped_channel_never_answers_below_its_floor():
    # a value about REGION_TOL under the clamp level once passed neither the
    # clamped nor the boundary test and kept its raw value, in hinge_active
    g = ChannelInstance(w=[0.3, 0.0], clamp=-1.6)
    assert g.eval([1.000000000001, 0.0]).value == -1.6
    assert region_of(g, [1.000000000001, 0.0]) in (REGION_CLAMP_ACTIVE, REGION_CLAMP_BOUNDARY)
    # the sweep along w across that level: 23 of these rows fell below it
    X = np.outer(np.linspace(1.0 + 0.99e-12, 1.0 + 1.01e-12, 2001), [1.0, 0.0])
    values, _, _, codes = g.eval_batch(X)
    assert values.min() == -1.6
    assert set(region_names(codes)) <= {REGION_CLAMP_ACTIVE, REGION_CLAMP_BOUNDARY}


def reference_composed_eval(instance, x):
    """ChannelInstance.eval of a composed instance as it was written before
    composed rows went through eval_batch: the scalar region logic of the old
    ``_pieces`` on y = M^(1/2)(x - x_star).  Returns (reply, region, margin);
    the margin is the distance of the quantities that pick the region from
    the nearest region threshold."""
    affine = instance.affine
    y = affine.sqrt_apply(x - affine.x_star)
    wbar = instance.w_bar
    s = y + instance.w
    ny = float(np.linalg.norm(y))
    ns = float(np.linalg.norm(s))
    hinge = 4.0 * float(wbar @ s) - 2.0 * ns
    raw = ny - max(hinge, 0.0)
    margins = [abs(ny - REGION_TOL), abs(ns - REGION_TOL), abs(abs(hinge) - REGION_TOL)]
    if instance.clamp is not None:
        margins += [
            abs(raw - (instance.clamp - REGION_TOL)),
            abs(abs(raw - instance.clamp) - REGION_TOL),
        ]
    margin = min(margins)
    if ny <= REGION_TOL:
        region, grad_y, diff = REGION_ORIGIN, -2.0 * wbar, False
    elif ns <= REGION_TOL:
        region, grad_y, diff = REGION_MINUS_W, -3.0 * wbar, False
    elif abs(hinge) <= REGION_TOL:
        region, grad_y, diff = REGION_HINGE_BOUNDARY, y / ny, False
    elif hinge > 0.0:
        region, grad_y, diff = REGION_HINGE_ACTIVE, y / ny - (4.0 * wbar - 2.0 * s / ns), True
    else:
        region, grad_y, diff = REGION_HINGE_INACTIVE, y / ny, True
    if instance.clamp is not None:
        if raw < instance.clamp - REGION_TOL:
            reply = FirstOrderReply(instance.clamp, np.zeros(instance.dim), True)
            return reply, REGION_CLAMP_ACTIVE, margin
        if abs(raw - instance.clamp) <= REGION_TOL:
            region, diff = REGION_CLAMP_BOUNDARY, False
            raw = max(instance.clamp, raw)
    if region == REGION_HINGE_INACTIVE:
        # the distance function's reply, which the channel replays bit for bit
        return NormDistance(affine).eval(x), region, margin
    return FirstOrderReply(raw, affine.sqrt_apply(grad_y), diff), region, margin


@pytest.mark.parametrize("kind", ["natural", "rotated", "identity"])
def test_composed_channel_matches_reference_composed_eval(kind):
    rng = np.random.default_rng(160 + len(kind))
    seen = set()
    ties = rows = 0
    for g, X in _composed_channels(kind, rng):
        vals, grads, diffs, codes = g.eval_batch(X)
        regions = region_names(codes)
        seen |= set(regions)
        rows += len(X)
        for i, x in enumerate(X):
            want, region, margin = reference_composed_eval(g, x)
            if margin <= 1e-14:
                # a planted row on a region threshold: the two paths round
                # apart by ~1e-16 and may fall on either side of it
                ties += 1
                assert abs(vals[i] - want.value) <= 2.0 * REGION_TOL
                continue
            assert regions[i] == region
            assert bool(diffs[i]) == want.differentiable
            if region in (REGION_HINGE_INACTIVE, REGION_CLAMP_ACTIVE):
                assert vals[i] == want.value
                assert np.array_equal(grads[i], want.subgrad)
            else:
                scale = max(abs(want.value), np.abs(want.subgrad).max())
                assert abs(vals[i] - want.value) <= 1e-14 * scale
                assert np.abs(grads[i] - want.subgrad).max() <= 1e-14 * scale
    assert len(seen) == 7
    assert ties <= 0.02 * rows


@st.composite
def threshold_rows(draw):
    """A channel parameter w, a clamp level below g(0) and rows y within a few
    REGION_TOL of every region threshold: ||y||, ||y + w||, the hinge, and the
    clamp level +- REGION_TOL with the sliver between those two roundings."""
    dim = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.normal(size=dim)
    w *= draw(st.sampled_from([1e-3, 0.02, 0.3])) / np.linalg.norm(w)
    w_norm = np.linalg.norm(w)
    wbar = w / w_norm
    depth = draw(st.floats(1e-3, 1.0))
    tols = REGION_TOL * np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=6)))
    units = rng.normal(size=(len(tols), dim))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    tang = units - np.outer(units @ wbar, wbar)
    tang /= np.linalg.norm(tang, axis=1, keepdims=True)
    # s = y + w at 60 degrees from w has hinge 0; a step of h/3 along w moves it by about h
    cone = rng.uniform(1e-3, 2.0, size=(len(tols), 1)) * (0.5 * wbar + (math.sqrt(3.0) / 2.0) * tang)
    Y = np.vstack([
        np.abs(tols)[:, None] * units,
        -w + np.abs(tols)[:, None] * units,
        cone + (tols / 3.0)[:, None] * wbar - w,
        # at t wbar the unclamped value is -t - 2|w|: clamp + tols at t = depth - tols
        (depth - tols)[:, None] * wbar,
    ])
    return w, -2.0 * w_norm - depth, Y


@ENVELOPE_PROFILE
@given(threshold_rows())
def test_channel_rows_near_every_threshold_answer_alone_as_in_a_block(case):
    w, clamp, Y = case
    dim = len(w)
    affine = affine_map_from_parameters(max(2, dim // 2), dim)
    root = np.stack([affine.sqrt_apply(e) for e in np.eye(dim)], axis=1)
    X = affine.x_star + np.linalg.solve(root, Y.T).T  # mapped back onto Y up to roundoff
    for level in (None, clamp):
        _assert_scalar_calls_are_batch_rows(ChannelInstance(w=w, clamp=level), Y)
        _assert_scalar_calls_are_batch_rows(ChannelInstance(w=w, clamp=level, affine=affine), X)


def test_batch_oracle_finds_the_batch_form():
    rng = np.random.default_rng(15)
    X = rng.uniform(-1, 1, size=(20, 2))
    plain = ChannelInstance(w=[0.25, -0.1])
    composed = ChannelInstance(w=[0.25, -0.1], affine=identity_map(np.zeros(2)))
    chain = ChannelInstance(w=[0.25, -0.1], clamp=-1.0, affine=affine_map_from_parameters(2, 2))
    quadratic = chain_quadratic_oracle(HardQuadratic(T=2, d=2))
    for fn in (Spiral(), Warga(), plain, composed, chain, quadratic):
        for oracle in (fn, fn.eval, fn.__call__):
            batch = batch_oracle(oracle)
            vals, grads, diffs = batch(X)
            for i, x in enumerate(X):
                r = fn.eval(x)
                assert (r.value, r.differentiable) == (vals[i], diffs[i])
                assert np.array_equal(r.subgrad, grads[i])



def test_every_built_oracle_answers_a_block_with_one_eval_batch_call():
    # the chain oracle, the rotation oracle, the distance function and a
    # composed channel, handed over whole or as their bound eval
    hq = HardQuadratic(T=6, d=12)
    X = np.random.default_rng(17).normal(size=(5, 12))
    makers = [
        lambda: chain_quadratic_oracle(hq),
        lambda: rotation_oracle(RotationBuilder(base=hq)),
        lambda: NormDistance(affine_map_from_parameters(6, 12)),
        lambda: ChannelInstance(
            w=np.full(12, 0.01), clamp=-1.0, affine=affine_map_from_parameters(6, 12)
        ),
    ]
    for make in makers:
        for bound in (False, True):
            instance, calls = make(), []
            native = instance.eval_batch

            def counted(rows, native=native, calls=calls):
                calls.append(len(rows))
                return native(rows)

            instance.eval_batch = counted
            vals, grads, diffs = batch_oracle(instance.eval if bound else instance)(X)
            assert calls == [len(X)], (instance, bound)
            assert vals.shape == (len(X),) and grads.shape == X.shape and diffs.dtype == bool


def test_batch_oracle_asks_any_other_oracle_row_by_row():
    # a closure and the square root of the chain oracle: the rows are asked in
    # order, and each keeps its scalar reply's bits
    rng = np.random.default_rng(16)
    hq = HardQuadratic(T=6, d=12)
    cases = [
        (lambda: (lambda x: Spiral().eval(x)), rng.uniform(-1, 1, size=(20, 2))),
        (lambda: sqrt_oracle(chain_quadratic_oracle(hq)), rng.normal(size=(20, 12))),
    ]
    for make, X in cases:
        vals, grads, diffs = batch_oracle(make())(X)
        scalar = make()
        for i, x in enumerate(X):
            r = scalar(x)
            assert (r.value, r.differentiable) == (vals[i], diffs[i])
            assert grads[i].tobytes() == r.subgrad.tobytes()
        assert grads.shape == X.shape and diffs.dtype == bool


def test_batch_oracle_rejects_non_finite_rows():
    batch = batch_oracle(Spiral().eval)
    with pytest.raises(DegenerateInputError):
        batch(np.array([[0.0, 0.0], [np.nan, 1.0]]))
    with pytest.raises(DegenerateInputError), np.errstate(over="ignore"):
        batch(np.array([[0.0, 0.0], [1.5e308, 0.0]]))  # the gradient overflows
    with pytest.raises(DimensionMismatchError):
        batch(np.zeros(2))


def test_channel_clamp_floor():
    g = ChannelInstance(w=[0.3, 0.0], clamp=-1.0)
    r = g.eval([0.7, 0.0])  # raw value -1.3 sits below the floor
    assert region_of(g, [0.7, 0.0]) == REGION_CLAMP_ACTIVE
    assert r.value == -1.0 and np.array_equal(r.subgrad, [0.0, 0.0])
    # the clamp never moves values above the floor elsewhere
    assert g.eval([0.0, 0.0]).value == pytest.approx(-0.6, abs=1e-15)


def test_clamped_channel_drop_level():
    w = [0.025, 0.0]
    g = clamped_channel(w)
    origin_value = ChannelInstance(w=w).eval([0.0, 0.0]).value
    assert g.clamp == pytest.approx(origin_value - 1.0, abs=1e-15)


def test_channel_rejects_zero_w():
    with pytest.raises(DegenerateInputError):
        ChannelInstance(w=[0.0, 0.0])


# ---------------------------------------------------------------------------
# serialization round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "obj",
    [
        Spiral(delta=0.5),
        Spiral(delta=1.0, extended=True),
        Warga(),
        ChannelInstance(w=[0.3, 0.0]),
        ChannelInstance(w=[0.1, -0.2, 0.05], clamp=-1.0),
    ],
)
def test_json_round_trip_evaluates_identically(obj):
    doc = instance_to_json(obj)
    back = instance_from_json(doc)
    rng = np.random.default_rng(21)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=obj.dim)
        a, b = obj.eval(x), back.eval(x)
        assert a.value == b.value
        assert np.array_equal(a.subgrad, b.subgrad)
        assert a.differentiable == b.differentiable


def test_json_string_round_trip():
    g = ChannelInstance(w=[0.3, 0.0], clamp=-1.0)
    text = instance_to_json_str(g)
    back = instance_from_json(json.loads(text))
    assert back.clamp == g.clamp
    assert np.array_equal(back.w, g.w)


def test_json_rejects_unknown_kind():
    with pytest.raises(DegenerateInputError):
        instance_from_json({"kind": "mystery"})


@pytest.mark.parametrize(
    "doc,field",
    [
        ([1], "kind"),
        ({}, "kind"),
        ({"kind": "spiral"}, "delta"),
        ({"kind": "spiral", "delta": None}, "delta"),
        ({"kind": "channel"}, "w"),
        ({"kind": "channel", "w": "east"}, "w"),
        ({"kind": "channel", "w": [0.3, 0.0], "clamp": [1]}, "clamp"),
        ({"kind": "norm_distance"}, "x_star"),
        ({"kind": "channel_composed", "w": [0.3, 0.0], "x_star": [0, 0], "chain": [2]}, "T"),
        ({"kind": "norm_distance", "x_star": [0, 0], "chain": {"T": 2, "d": 2}}, "k"),
    ],
)
def test_json_with_a_missing_or_ill_typed_field_names_it(doc, field):
    with pytest.raises(ConfigError, match=repr(field)):
        instance_from_json(doc)
