"""Certifiers for three stationarity notions on Lipschitz functions.

- eps-stationarity: some subgradient at x has norm <= eps.
- (delta, eps)-stationarity: the convex hull of subgradients collected in the
  closed delta-ball of x contains an element of norm <= eps.  Computed by
  Wolfe's minimum-norm-point algorithm over sampled subgradients; sampling
  makes this one-sided (a small hull element certifies, a large value refutes
  nothing), which the certificate records as ``sound_direction``.
- near-approximate stationarity: a lower bound on the distance from x to any
  point that is eps-stationary for small eps, obtained from the value gap of a
  clamped channel instance and its Lipschitz constant, for many points at once.

Analytic per-region lower bounds on channel subgradient norms live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from nearstat.errors import ClampRegionError, DegenerateInputError, DimensionMismatchError
from nearstat.vectorspace import as_vector, ball_norm_limit, row_norms, sample_ball_batch
from nearstat.zoo import (
    CODE_CLAMP_ACTIVE,
    CODE_CLAMP_BOUNDARY,
    CODE_HINGE_BOUNDARY,
    REGION_NAMES,
    ChannelInstance,
    batch_oracle,
)

_SQRT2 = math.sqrt(2.0)

KIND_EPS_WITNESS = "eps_stationary_witness"
KIND_DELTA_EPS_WITNESS = "delta_eps_witness"
KIND_NEAR_DISTANCE = "near_distance_lower_bound"
KIND_SUBDIFF_NORM = "subdiff_norm_lower_bound"
WITNESS_KINDS = frozenset({KIND_EPS_WITNESS, KIND_DELTA_EPS_WITNESS})

DEDUP_TOL = 1e-14
# Candidate row pairs that _dedup compares at once, one array entry per pair.
_DEDUP_BLOCK_ENTRIES = 1 << 18
DEFAULT_WOLFE_TOL = 1e-10


# The explicit constants carried by the hardness statements, in the order
# certificate documents list them; each certificate gets its own copy.
CONSTANTS = {
    "lipschitz_channel": 7.0,
    "stationarity_threshold": 1.0 / (2.0 * _SQRT2),
    "value_gap": 1.5,
    "distance_bound": 1.0 / 7.0,
    "lipschitz_spiral_ball": 2.0 * math.pi,
}


@dataclass(frozen=True)
class MinNormResult:
    """Closest point to the origin in the convex hull of the input set."""

    coefficients: np.ndarray
    point: np.ndarray
    norm: float
    iterations: int
    converged: bool


def _affine_min_norm(P: np.ndarray) -> np.ndarray:
    """Coefficients (summing to 1, sign-unconstrained) minimizing ||a @ P||."""
    m = len(P)
    kkt = np.ones((m + 1, m + 1))
    kkt[:m, :m] = P @ P.T
    kkt[m, m] = 0.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    return sol[:m]


def _sorted_windows(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable sort order of ``column`` and, for each sorted entry, how many
    of the entries right after it may lie within ``DEDUP_TOL`` of it.

    In sorted order the rounded difference ``s[j] - s[i]`` never decreases as j
    grows, so the entries close to ``s[i]`` form a window just after it; the
    margin of 2 tolerances and 4 ulps covers the rounding of the sum.
    """
    order = np.argsort(column, kind="stable")
    s = column[order]
    ends = np.searchsorted(s, s + (2.0 * DEDUP_TOL + 4.0 * np.spacing(np.abs(s))), side="right")
    return order, ends - np.arange(1, len(s) + 1)


def _dedup(P: np.ndarray) -> np.ndarray:
    """Indices of the representative rows of P, ascending.

    Rows are scanned in order; a row within ``DEDUP_TOL`` (max-abs) of an
    earlier representative is a copy of it, any other row becomes a
    representative.  Two rows are close only if their first entries are, so
    only the pairs in the sorted windows of column 0 are compared, column by
    column, at most ``_DEDUP_BLOCK_ENTRIES`` pairs at a time; only the rows
    close to an earlier row go through the sequential scan.
    """
    m = len(P)
    # Sampled subgradients seldom hold two close rows; settling that from the
    # sorted column alone skips the lexsort and a second sort.
    if not _sorted_windows(P[:, 0])[1].any():
        return np.arange(m)
    # A row equal to an earlier row is never a representative: the earlier row
    # either is one, or is close to one that the copy is close to as well.
    lex = np.lexsort(P.T)
    ranked = P[lex]
    first = np.ones(m, dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    rows = np.sort(lex[first])
    D = P[rows]
    order, counts = _sorted_windows(D[:, 0])
    ends = np.cumsum(counts)
    total = int(ends[-1])
    if total == 0:
        return rows
    later, earlier = [], []
    # candidate pairs are numbered in sorted order: those of sorted row i are
    # ends[i] - counts[i] .. ends[i] - 1, pairing it with the rows right after it
    for start in range(0, total, _DEDUP_BLOCK_ENTRIES):
        k = np.arange(start, min(total, start + _DEDUP_BLOCK_ENTRIES))
        i = np.searchsorted(ends, k, side="right")
        a, b = order[i], order[k - ends[i] + counts[i] + i + 1]
        for column in D.T:
            near = np.abs(column[a] - column[b]) <= DEDUP_TOL
            a, b = a[near], b[near]
        later.append(np.maximum(a, b))
        earlier.append(np.minimum(a, b))
    later, earlier = np.concatenate(later), np.concatenate(earlier)
    scan = np.lexsort((earlier, later))
    is_rep = [True] * len(D)
    for i, j in zip(later[scan].tolist(), earlier[scan].tolist()):
        if is_rep[i] and is_rep[j]:  # j's status is settled: its pairs came first
            is_rep[i] = False
    return rows[is_rep]


def min_norm_point(points) -> MinNormResult:
    """Wolfe's minimum-norm-point algorithm over the convex hull of ``points``.

    ``converged`` means the Wolfe gap <point, point - candidate> fell below
    ``DEFAULT_WOLFE_TOL``; hitting the iteration cap returns the best iterate with
    ``converged = False``.
    """
    try:
        P_in = np.atleast_2d(np.asarray(points, dtype=float))
    except ValueError as exc:
        raise DimensionMismatchError(f"points must share a common dimension: {exc}") from exc
    if P_in.size == 0:
        raise DegenerateInputError("min_norm_point needs a nonempty point set")
    if P_in.ndim != 2:
        raise DimensionMismatchError("points must share a common dimension")
    if not np.all(np.isfinite(P_in)):
        raise DegenerateInputError("min_norm_point got non-finite points")

    rep_rows = _dedup(P_in)
    P = P_in[rep_rows]
    m = len(P)
    norms = row_norms(P)

    def finish(active: list[int], lam: np.ndarray, iterations: int, converged: bool):
        # a representative's mass goes to its own row, the first of its copies
        point = lam @ P[active]
        coeffs = np.zeros(len(P_in))
        coeffs[rep_rows[active]] = np.where(lam > 0.0, lam, 0.0)
        return MinNormResult(
            coefficients=coeffs,
            point=point,
            norm=float(np.linalg.norm(point)),
            iterations=iterations,
            converged=converged,
        )

    start = int(np.argmin(norms))
    if norms[start] <= DEDUP_TOL:
        return finish([start], np.array([1.0]), 0, True)

    active = [start]
    lam = np.array([1.0])
    x = P[start].copy()
    cap = 50 * m
    iterations = 0
    converged = False
    while iterations < cap:
        iterations += 1
        dots = P @ x
        j = int(dots.argmin())
        gap = float(x @ x - dots[j])
        if gap <= DEFAULT_WOLFE_TOL:
            converged = True
            break
        if j in active:
            # Numerical stall: x is already affine-optimal over the active
            # set, so no further progress is possible.
            converged = gap <= 1e-8 * max(1.0, float(x @ x))
            break
        active.append(j)
        lam = np.concatenate((lam, [0.0]))
        while True:
            P_active = P[active]
            alpha = _affine_min_norm(P_active)
            if alpha.min() > DEDUP_TOL:
                lam = alpha
                break
            shrinking = alpha < lam
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(shrinking, lam / (lam - alpha), np.inf)
            theta = min(1.0, float(ratios.min()))
            lam = (1.0 - theta) * lam + theta * alpha
            lam[lam < DEDUP_TOL] = 0.0
            keep = lam > 0.0
            if not keep.any():
                keep[int(alpha.argmax())] = True
                lam[keep] = 1.0
            active = [a for a, k in zip(active, keep) if k]
            lam = lam[keep]
            lam = lam / lam.sum()
        x = lam @ P_active
    return finish(active, lam, iterations, converged)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """A convex combination certifying a small hull element: points and
    subgradients as rows, one coefficient per row."""

    points: np.ndarray
    subgradients: np.ndarray
    coefficients: np.ndarray


@dataclass(frozen=True)
class StationarityCertificate:
    kind: str
    value: float
    certified: bool
    sound_direction: str
    witness: Witness | None = None

    def __post_init__(self):
        if self.value < 0.0:
            raise DegenerateInputError("certificate value must be nonnegative")
        expect_witness = self.kind in WITNESS_KINDS and self.certified
        if expect_witness != (self.witness is not None):
            raise DegenerateInputError(
                "witness must be present exactly for certified witness kinds"
            )

    def to_json(self) -> dict:
        doc = {
            "kind": self.kind,
            "value": self.value,
            "certified": self.certified,
            "sound_direction": self.sound_direction,
            "constants": dict(CONSTANTS),
            "witness": None,
        }
        if self.witness is not None:
            doc["witness"] = {
                "points": self.witness.points.tolist(),
                "subgradients": self.witness.subgradients.tolist(),
                "coefficients": self.witness.coefficients.tolist(),
            }
        return doc


def check_eps(eps: float) -> None:
    """Refuse a stationarity threshold that is negative or not finite."""
    if not 0.0 <= eps < math.inf:  # NaN fails both comparisons
        raise DegenerateInputError(f"eps must be finite and nonnegative, not {eps!r}")


def certify_eps_stationary(x, subgrad, eps: float) -> StationarityCertificate:
    """Certificate from the single subgradient an oracle returned at x."""
    x = as_vector(x)
    check_eps(eps)
    value = float(np.linalg.norm(subgrad))
    certified = value <= eps
    witness = None
    if certified:
        witness = Witness(
            points=x[None, :].copy(), subgradients=subgrad[None, :], coefficients=np.ones(1)
        )
    return StationarityCertificate(
        kind=KIND_EPS_WITNESS,
        value=value,
        certified=certified,
        sound_direction="stationarity_only",
        witness=witness,
    )


def check_delta_eps(d: int, delta: float, eps: float, sampling) -> np.ndarray | None:
    """Refuse a bad argument of :func:`certify_delta_eps` at a point of dimension
    d before anything is drawn or evaluated; returns the stencil's offsets as
    rows, or None when ``sampling`` is a sample count."""
    check_eps(eps)
    if not 0.0 < delta < math.inf:
        raise DegenerateInputError(f"delta must be finite and positive, not {delta!r}")
    if isinstance(sampling, (int, np.integer)):
        if sampling < 0:
            raise DegenerateInputError(f"samples must be nonnegative, not {sampling!r}")
        return None
    stencil = [as_vector(o) for o in sampling]
    if not stencil:
        raise DegenerateInputError("stencil needs at least one offset")
    # the first offending offset decides the error, so the ball check
    # covers the offsets before the first one of the wrong shape
    fit = next((i for i, o in enumerate(stencil) if o.shape != (d,)), len(stencil))
    offsets = np.array(stencil[:fit]).reshape(fit, d)
    if (row_norms(offsets) > ball_norm_limit(delta)).any():
        raise DegenerateInputError(f"stencil offset outside the delta-ball of radius {delta!r}")
    if fit < len(stencil):
        raise DimensionMismatchError(
            f"stencil offset {fit} has length {len(stencil[fit])}, not the point's {d}"
        )
    return offsets


def certify_delta_eps(
    oracle,
    x,
    delta: float,
    eps: float,
    sampling,
    rng_state: np.random.Generator | None = None,
) -> StationarityCertificate:
    """Hull-minimum-norm certificate over subgradients sampled in the delta-ball.

    ``sampling`` is either an integer (that many uniform draws from the ball,
    plus the center) or a sequence of offsets from x (a stencil, each of norm
    at most delta), checked by :func:`check_delta_eps`.  A value <= eps
    certifies (delta, eps)-stationarity; a larger value certifies nothing,
    which is why ``sound_direction`` says ``stationarity_only``.  The ball
    draws are one sampler call, and the points are answered with one call of
    the oracle's batch form.
    """
    x = as_vector(x)
    d = len(x)
    offsets = check_delta_eps(d, delta, eps, sampling)
    if offsets is None:
        if rng_state is None:
            raise DegenerateInputError("ball sampling needs an rng")
        offsets = np.vstack([np.zeros(d), sample_ball_batch(d, delta, sampling, rng_state)])
        if (row_norms(offsets) > ball_norm_limit(delta)).any():
            raise DegenerateInputError("sampled point left the delta-ball")
    points = x + offsets
    grads = batch_oracle(oracle)(points)[1]
    result = min_norm_point(grads)
    certified = result.converged and result.norm <= eps
    witness = None
    if certified:
        witness = Witness(points=points, subgradients=grads, coefficients=result.coefficients)
    return StationarityCertificate(
        kind=KIND_DELTA_EPS_WITNESS,
        value=result.norm,
        certified=certified,
        sound_direction="stationarity_only",
        witness=witness,
    )


def subdiff_norm_lower_bound(instance: ChannelInstance, codes) -> list[StationarityCertificate]:
    """Per-region lower bound on the subgradient norms of a channel instance,
    one certificate per region code that its ``eval_batch`` returned.

    1 at the origin, at -w and at differentiable points; 1/sqrt(2) on the
    hinge boundary; composed instances scale by the smallest singular value of
    the square-root matrix, 1/sqrt(2) for the chain family.  A code of a clamp
    region is rejected: arbitrarily small subgradients live there.
    """
    codes = np.asarray(codes)
    clamped = np.flatnonzero((codes == CODE_CLAMP_ACTIVE) | (codes == CODE_CLAMP_BOUNDARY))
    if len(clamped):
        row = int(clamped[0])
        region = REGION_NAMES[codes[row]]
        raise ClampRegionError(f"row {row}: no positive bound holds in region {region!r}")

    def certificate(bound: float) -> StationarityCertificate:
        if instance.affine is not None:
            bound /= _SQRT2
        return StationarityCertificate(
            kind=KIND_SUBDIFF_NORM, value=bound, certified=True, sound_direction="refutation_only"
        )

    elsewhere, boundary = certificate(1.0), certificate(1.0 / _SQRT2)
    return [boundary if c == CODE_HINGE_BOUNDARY else elsewhere for c in codes.tolist()]


def near_stationarity_distance_lb(
    instance: ChannelInstance, values
) -> list[StationarityCertificate]:
    """Distance from each point to the nearest point that could be near-stationary,
    one certificate per value that the clamped instance returned.

    On a clamped instance every eps-stationary point (eps below the instance's
    threshold) sits at the clamp value, so the value gap divided by the
    Lipschitz constant 7 lower-bounds the distance from the point to all of them.
    """
    if instance.clamp is None:
        raise DegenerateInputError("distance certificates need a clamped instance")
    return [
        StationarityCertificate(
            kind=KIND_NEAR_DISTANCE,
            value=max(0.0, (value - instance.clamp) / CONSTANTS["lipschitz_channel"]),
            certified=True,
            sound_direction="refutation_only",
        )
        for value in np.asarray(values, dtype=float).tolist()
    ]
