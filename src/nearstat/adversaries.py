"""Hard-instance builders: the chain quadratic, the lazy rotation oracle, and
the channel composer that picks w against a given algorithm.

The chain quadratic in dimension d (first T coordinates active) is

    g(x) = (1/8) (x_1^2 + sum_i (x_i - x_{i+1})^2 + (k-1) x_T^2 - 2 x_1)
           + ||x||^2 / 2 + b
         = (x - x*)^T M (x - x*),

with k = (sqrt(2)+3)/(sqrt(2)+1), minimizer coordinates x*_i = q^i for
q = (sqrt(2)-1)/(sqrt(2)+1), b = q/8, and M = (A + 4 I)/8 for the tridiagonal
A implied by the chain form.  All evaluations use the chain form directly,
O(T + d) per query, never a dense matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from nearstat.errors import (
    AdversaryConstructionError,
    BudgetExhaustedError,
    DegenerateInputError,
    DimensionMismatchError,
    number,
)
from nearstat.oracle_game import (
    CLASS_DETERMINISTIC,
    CLASS_LINEAR_SPAN,
    AlgorithmDescriptor,
    Transcript,
    play,
    query_distances,
    validate_span,
)
from nearstat.vectorspace import (
    AVOID_DROP_TOL,
    OrthonormalFrame,
    extend_orthonormal,
    row_norms,
    sample_sphere,
)
from nearstat.zoo import AffineMap, ChannelInstance, NormDistance, _first_row, _rows

_SQRT2 = math.sqrt(2.0)
CHAIN_END_WEIGHT = (_SQRT2 + 3.0) / (_SQRT2 + 1.0)  # k
CHAIN_RATIO = (_SQRT2 - 1.0) / (_SQRT2 + 1.0)  # q

# Below this, ||w|| drops into a range where double precision starts eating
# the construction's slack.
W_NORM_FLOOR = 1e-11


def default_w_norm(T: int) -> float:
    """The channel parameter's default norm, exp(-T)/300."""
    return math.exp(-T) / 300.0


# A mapped iterate direction whose singular value is at most this fraction of
# the largest is roundoff, not a constraint on w.  Not a tuning knob.
CARVE_RANK_TOL = 1e-12

# The channel adversary's budget envelope: T >= 2 for the chain, and the
# default ||w|| stays at or above W_NORM_FLOOR up to CHANNEL_T_MAX (19).
CHANNEL_T_MIN = 2
CHANNEL_T_MAX = math.floor(-math.log(300.0 * W_NORM_FLOOR))


@dataclass(frozen=True)
class HardQuadratic:
    """The chain quadratic with T active coordinates embedded in dimension d >= T;
    k, q and b are the module constants."""

    T: int
    d: int

    def __post_init__(self):
        if self.T < 2:
            raise DegenerateInputError("chain quadratic needs T >= 2")
        if self.d < self.T:
            raise DegenerateInputError("chain quadratic needs d >= T")

    @property
    def x_star(self) -> np.ndarray:
        out = np.zeros(self.d)
        out[: self.T] = CHAIN_RATIO ** np.arange(1, self.T + 1)
        return out


def chain_value_grad(
    hq: HardQuadratic, X: np.ndarray, frame: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Values and gradients of the chain quadratic g at the rows of X.

    The chain head is ``X[:, :T]``, or ``c = U x`` for a rotation ``frame`` of
    t <= T rows (the lazy rotation's partial frame has t < T, and c is zero past
    t).  Products are einsum contractions over C-ordered rows, so each row has
    the same bits alone as in a block, whatever the layout of X."""
    X = _rows(X, hq.d)
    if frame is None:
        C = X[:, : hq.T]
    else:
        C = np.zeros((len(X), hq.T))
        C[:, : len(frame)] = np.einsum("ij,kj->ki", frame, X)
    first, last, diffs = C[:, 0], C[:, -1], C[:, :-1] - C[:, 1:]
    end = CHAIN_END_WEIGHT - 1.0
    head = first * first + np.einsum("ij,ij->i", diffs, diffs) + end * last * last
    head -= 2.0 * first
    dC = np.zeros(C.shape)
    dC[:, 0] = 2.0 * first - 2.0
    dC[:, :-1] += 2.0 * diffs
    dC[:, 1:] -= 2.0 * diffs
    dC[:, -1] += 2.0 * end * last
    values = head / 8.0 + 0.5 * np.einsum("ij,ij->i", X, X) + CHAIN_RATIO / 8.0
    if frame is None:
        grads = X.copy()
        grads[:, : hq.T] += dC / 8.0
    else:
        grads = X + np.einsum("ij,ki->kj", frame, dC[:, : len(frame)]) / 8.0
    return values, grads


def chain_quadratic_oracle(hq: HardQuadratic) -> AffineMap:
    """First-order oracle for g: the affine map whose quadratic g is."""
    return affine_map_from_parameters(hq.T, hq.d, hq=hq)


# ---------------------------------------------------------------------------
# the dense chain block of M: its spectrum, and M^(1/2) for the affine maps
# ---------------------------------------------------------------------------


def chain_tridiagonal(hq: HardQuadratic) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the T x T block of M = (A + 4I)/8."""
    diag_a = np.full(hq.T, 2.0)
    diag_a[-1] = CHAIN_END_WEIGHT
    diag_m = (diag_a + 4.0) / 8.0
    off_m = np.full(hq.T - 1, -1.0 / 8.0)
    return diag_m, off_m


def _chain_block(T: int) -> np.ndarray:
    """The dense T x T tridiagonal block of M."""
    diag_m, off_m = chain_tridiagonal(HardQuadratic(T=T, d=T))
    return np.diag(diag_m) + np.diag(off_m, 1) + np.diag(off_m, -1)


def chain_spectrum_check(hq: HardQuadratic) -> tuple[float, float]:
    """Extremal eigenvalues of the embedded M (tail coordinates contribute 1/2)."""
    lam = np.linalg.eigvalsh(_chain_block(hq.T))
    lo, hi = float(lam[0]), float(lam[-1])
    if hq.d > hq.T:
        lo, hi = min(lo, 0.5), max(hi, 0.5)
    return lo, hi


@functools.lru_cache(maxsize=32)
def _block_sqrt(T: int) -> np.ndarray:
    """Symmetric square root of the T x T tridiagonal block of M, cached per T."""
    lam, vecs = np.linalg.eigh(_chain_block(T))
    if lam[0] <= 0.0:
        raise AdversaryConstructionError("chain block lost positive definiteness")
    root = (vecs * np.sqrt(lam)) @ vecs.T
    return 0.5 * (root + root.T)


def affine_map_from_parameters(
    T: int, d: int, rotation_frame=None, hq: HardQuadratic | None = None
) -> AffineMap:
    """AffineMap for x -> M^(1/2)(x - x*), natural or rotated coordinates."""
    hq = hq if hq is not None else HardQuadratic(T=T, d=d)
    block = _block_sqrt(hq.T)
    tail_scale = 1.0 / _SQRT2
    provenance = {"T": hq.T, "d": hq.d, "k": CHAIN_END_WEIGHT}
    U = None
    if rotation_frame is not None:
        U = np.asarray(rotation_frame, dtype=float)
        if U.shape != (hq.T, hq.d):
            raise DimensionMismatchError("rotation frame must be T x d")
        provenance["rotation_frame"] = U.tolist()

    # einsum, not matrix products: BLAS rounds a row differently depending on
    # how many rows it sees, and a row must give the same bits alone or in a
    # block; "...j" maps one vector or the rows of a matrix
    def sqrt_apply(V: np.ndarray) -> np.ndarray:
        V = np.ascontiguousarray(V)
        if U is None:
            out = V * tail_scale
            out[..., : hq.T] = np.einsum("ij,...j->...i", block, V[..., : hq.T])
            return out
        C = np.einsum("ij,...j->...i", U, V)
        head = np.einsum("ji,...j->...i", U, np.einsum("ij,...j->...i", block, C))
        return (V - np.einsum("ji,...j->...i", U, C)) * tail_scale + head

    return AffineMap(
        x_star=hq.x_star if U is None else U.T @ hq.x_star[: hq.T],
        sqrt_apply=sqrt_apply,
        quad_rows=functools.partial(chain_value_grad, hq, frame=U),
        provenance=provenance,
    )


def norm_distance_instance(hq: HardQuadratic) -> NormDistance:
    """The distance-to-minimizer function paired with the chain quadratic."""
    return NormDistance(map=affine_map_from_parameters(hq.T, hq.d, hq=hq))


# ---------------------------------------------------------------------------
# lazy rotation oracle
# ---------------------------------------------------------------------------


@dataclass
class RotationBuilder:
    """The resisting rotation game's oracle of g(Ux): rows chosen so far plus queries seen.

    Row u_t is selected orthogonal to u_1..u_{t-1} and to every query up to
    and including x_t, so all chain terms involving unselected rows vanish and
    the oracle never has to represent them.  ``constraints`` is an orthonormal
    basis of span(u_1.., x_1..) kept between queries.  Needs d >= 2T for the
    selections to exist.
    """

    base: HardQuadratic
    frame: OrthonormalFrame = field(init=False)
    constraints: OrthonormalFrame = field(init=False)

    def __post_init__(self):
        if self.base.d < 2 * self.base.T:
            raise DegenerateInputError("rotation construction needs d >= 2T")
        self.frame = OrthonormalFrame(self.base.d)
        self.constraints = OrthonormalFrame(self.base.d)

    def eval_batch(self, X: np.ndarray):
        """The rows of X in order, each choosing its rotation row; a block
        that would pass T queries is refused whole."""
        hq = self.base
        X = _rows(X, hq.d)
        if len(self.frame) + len(X) > hq.T:
            raise BudgetExhaustedError("rotation oracle answers at most T queries")
        values, grads = np.empty(len(X)), np.empty(X.shape)
        for t, x in enumerate(X):
            self.constraints.absorb(x, AVOID_DROP_TOL)
            # extend_orthonormal has checked u against every constraint, the
            # frame's rows among them; the frame's append checks its unit norm
            u = extend_orthonormal(self.constraints)
            self.frame.append(u)
            self.constraints._store(u)
            value, grad = chain_value_grad(hq, x[None, :], frame=self.frame.matrix())
            values[t], grads[t] = value[0], grad[0]
        return values, grads, np.ones(len(X), dtype=bool)

    eval = __call__ = _first_row

    def materialized_map(self) -> AffineMap:
        """Commit to U after all T queries; the map's x_star is the rotated minimizer."""
        if len(self.frame) < self.base.T:
            raise AdversaryConstructionError("materialization requires all T queries")
        return affine_map_from_parameters(
            self.base.T, self.base.d, rotation_frame=self.frame.matrix(), hq=self.base
        )


def rotation_oracle(rb: RotationBuilder) -> RotationBuilder:
    """Stateful oracle answering g(Ux) while choosing the rotation rows lazily."""
    return rb


# ---------------------------------------------------------------------------
# channel composer
# ---------------------------------------------------------------------------

MODE_DETERMINISTIC = "deterministic_orthogonal"
MODE_RANDOMIZED = "randomized_sphere"


@dataclass
class ChannelAdversaryConfig:
    """How to pick w when composing the channel on top of the hard quadratic."""

    mode: str = MODE_DETERMINISTIC
    w_norm: float | None = None  # default exp(-T)/300

    def __post_init__(self):
        if self.mode not in (MODE_DETERMINISTIC, MODE_RANDOMIZED):
            raise DegenerateInputError(f"unknown adversary mode {self.mode!r}")

    def check_envelope(self, algorithm: AlgorithmDescriptor, T: int, d: int) -> float:
        """Reject a build outside the channel envelope; returns the resolved ||w||.

        d >= T is the chain quadratic's rule, checked when it is built.
        """
        if not CHANNEL_T_MIN <= T <= CHANNEL_T_MAX:
            raise DegenerateInputError(
                f"the channel adversary supports {CHANNEL_T_MIN} <= T <= {CHANNEL_T_MAX}: past it"
                f" the default ||w|| = exp(-T)/300 falls below {W_NORM_FLOOR:.0e}"
            )
        w_norm = number("w_norm", self.w_norm if self.w_norm is not None else default_w_norm(T))
        if not W_NORM_FLOOR <= w_norm < math.inf:
            raise DegenerateInputError(f"w_norm {w_norm!r} must be finite, >= {W_NORM_FLOOR:.0e}")
        if self.mode == MODE_DETERMINISTIC:
            if d < 2 * T:
                raise DegenerateInputError("deterministic mode needs d >= 2T")
            if algorithm.class_tag not in (CLASS_DETERMINISTIC, CLASS_LINEAR_SPAN):
                raise DegenerateInputError(
                    f"deterministic mode needs a deterministic algorithm, not {algorithm.name!r}"
                )
        return w_norm


def carve_direction(directions: np.ndarray) -> np.ndarray:
    """The unit w of the deterministic mode, carved with :func:`extend_orthonormal`
    against the numerical row space of ``directions``: the right singular vectors
    whose singular values exceed ``CARVE_RANK_TOL`` times the largest.  A
    last-bit change of the directions moves w by roundoff only."""
    _, s, Vt = np.linalg.svd(directions, full_matrices=False)
    basis = Vt[s > CARVE_RANK_TOL * s[0]]
    return extend_orthonormal(None, avoid=list(basis), dim=directions.shape[1])


@dataclass
class DistanceGame:
    """An algorithm's game against the distance function, and the pick of w against it."""

    base: NormDistance
    transcript: Transcript
    distances: np.ndarray
    directions: np.ndarray  # the unit rows M^(1/2)(x_t - x*)

    def draw_w(self, cfg: ChannelAdversaryConfig, adversary_rng=None) -> np.ndarray:
        """w of norm ``cfg.w_norm``: carved in deterministic mode, drawn from the
        sphere with ``adversary_rng`` in randomized mode."""
        if cfg.mode == MODE_DETERMINISTIC:
            return cfg.w_norm * carve_direction(self.directions)
        if adversary_rng is None:
            raise DegenerateInputError("randomized_sphere mode needs an adversary rng")
        return sample_sphere(self.base.dim, cfg.w_norm, adversary_rng)

    def alignments(self, w: np.ndarray) -> np.ndarray:
        """The alignment of w with each mapped iterate direction."""
        return self.directions @ (w / np.linalg.norm(w))

    def pick_w(self, cfg: ChannelAdversaryConfig, adversary_rng=None):
        """w from :meth:`draw_w`, and the clamped composed channel instance over it.

        Returns the instance plus diagnostics: the distance-function transcript
        and iterates, distances to the minimizer, the alignments of w with the
        mapped iterate directions, and the per-iterate coincidence hypothesis

            alignment_t <= 1/(2 sqrt 2) - exp(-T) / (100 * distance_t),

        under which the composed function agrees with the distance function at x_t.
        """
        w = self.draw_w(cfg, adversary_rng)
        alignments = self.alignments(w)
        margin = 1.0 / (2.0 * _SQRT2) - math.exp(-self.transcript.T) / (100.0 * self.distances)
        diagnostics = {
            "mode": cfg.mode,
            "w_norm": cfg.w_norm,
            "transcript": self.transcript,
            "iterates": self.transcript.queries.tolist(),
            "distances": self.distances.tolist(),
            "alignments": alignments.tolist(),
            "max_alignment": float(alignments.max()),
            "coincidence_hypothesis": (alignments <= margin).tolist(),
        }
        return ChannelInstance(w=w, clamp=-1.0, affine=self.base.map), diagnostics


def play_distance_game(algorithm: AlgorithmDescriptor, T: int, d: int, rng=None) -> DistanceGame:
    """Run the algorithm on the distance function; raises when it leaves its
    declared span or gets within exp(-T) of the minimizer."""
    base = norm_distance_instance(HardQuadratic(T=T, d=d))
    transcript = play(algorithm, base, T, d, rng=rng)
    if algorithm.class_tag == CLASS_LINEAR_SPAN:
        ok, bad_index = validate_span(transcript)
        if not ok:
            raise AdversaryConstructionError(
                f"algorithm {algorithm.name!r} left the declared span at query {bad_index}"
            )
    iterates = transcript.queries
    distances = query_distances(transcript, base.map.x_star)
    if distances.min() < math.exp(-T):
        raise AdversaryConstructionError(
            f"iterate got within {distances.min():.3e} < exp(-T) of the minimizer; "
            "the base lower bound failed"
        )
    directions = base.map.sqrt_apply(iterates - base.map.x_star)
    directions /= row_norms(directions)[:, None]
    return DistanceGame(base, transcript, distances, directions)


def build_channel_instance(
    cfg: ChannelAdversaryConfig,
    algorithm: AlgorithmDescriptor,
    T: int,
    d: int,
    rng_state: dict[str, np.random.Generator] | None = None,
) -> tuple[ChannelInstance, dict]:
    """Check the envelope, play the distance game, then pick w against its iterates.
    ``rng_state`` may carry generators under the keys ``"algorithm"`` (consumed by
    randomized solvers) and ``"adversary"`` (consumed by randomized w selection)."""
    cfg = replace(cfg, w_norm=cfg.check_envelope(algorithm, T, d))
    rng_state = rng_state or {}
    game = play_distance_game(algorithm, T, d, rng_state.get("algorithm"))
    return game.pick_w(cfg, rng_state.get("adversary"))
