"""Test functions: the spiral, the channel family, distance compositions, Warga's example.

Every function exposes a first-order oracle returning a value, one Clarke
subgradient and a differentiability flag.  At nondifferentiable points a fixed
canonical element is returned so that runs replay exactly:

- channel at the origin: ``-2 * wbar``; at ``-w``: ``-3 * wbar``,
- channel on the hinge boundary: the inactive-branch gradient ``ybar``,
- clamp boundary: the unclamped branch element; strictly clamped: zero,
- Warga kinks: the midpoint element obtained from the ``sign(0) = 0`` convention.

``eval_batch`` is the evaluation path: the spiral, Warga's example, the
distance function, every channel instance, plain or composed, and the affine
map's quadratic evaluate a scalar query as row 0 of a one-row batch, and a
row's answer has the same bits whether it is asked alone or in a block.  A
channel labels each row with an int8 region code in one pass over the rows and
returns the codes, not names: ``REGION_NAMES[code]`` names a row's region, and
a histogram of the regions is one ``np.bincount``.  The distance function is
the norm of the mapped point y = M^(1/2) (x - x_star), its gradient y / ||y||
mapped back.  A composed channel maps its rows in and its subgradients back
with one call each of the same row kernel, so in the inactive hinge region,
where it is ||y||, it runs the distance function's own operations and replays
the distance oracle the adversary played against bit for bit.  An oracle is an
object with ``eval_batch`` or a foreign callable that :func:`batch_oracle` asks
once per row, so consumers that fix their points before asking (games,
smoothed estimates, sampled certificates) have one path.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nearstat.errors import ConfigError, DegenerateInputError, DimensionMismatchError, count, number
from nearstat.vectorspace import OrthonormalFrame, as_vector, row_norms

# Absolute tolerance on the defining equalities of nondifferentiable regions.
REGION_TOL = 1e-12

REGION_ORIGIN = "origin"
REGION_MINUS_W = "minus_w"
REGION_HINGE_INACTIVE = "hinge_inactive"
REGION_HINGE_ACTIVE = "hinge_active"
REGION_HINGE_BOUNDARY = "hinge_boundary"
REGION_CLAMP_ACTIVE = "clamp_active"
REGION_CLAMP_BOUNDARY = "clamp_boundary"

# ChannelInstance.eval_batch labels each row with an int8 region code, an
# index into these two tables; a later code overrides an earlier one
REGION_NAMES = (
    REGION_HINGE_INACTIVE, REGION_HINGE_ACTIVE, REGION_HINGE_BOUNDARY, REGION_MINUS_W,
    REGION_ORIGIN, REGION_CLAMP_ACTIVE, REGION_CLAMP_BOUNDARY,
)
_CODE_DIFFERENTIABLE = np.array([True, True, False, False, False, True, False])
(CODE_HINGE_INACTIVE, CODE_HINGE_ACTIVE, CODE_HINGE_BOUNDARY, CODE_MINUS_W, CODE_ORIGIN,
 CODE_CLAMP_ACTIVE, CODE_CLAMP_BOUNDARY) = range(len(REGION_NAMES))


@dataclass(frozen=True)
class FirstOrderReply:
    """One oracle answer: function value, a subgradient, differentiability flag."""

    value: float
    subgrad: np.ndarray
    differentiable: bool

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "subgrad", np.asarray(self.subgrad, dtype=float))
        if not math.isfinite(self.value) or not np.isfinite(self.subgrad).all():
            raise DegenerateInputError("oracle reply has non-finite entries")


# an object with eval_batch (its eval is row 0), or a foreign callable of one vector
Oracle = Callable[[np.ndarray], FirstOrderReply]


def _first_row(instance, x) -> FirstOrderReply:
    """``eval`` of every zoo instance: row 0 of a one-row ``eval_batch``."""
    vals, grads, diffs = instance.eval_batch(as_vector(x)[None, :])[:3]
    return FirstOrderReply(vals[0], grads[0], bool(diffs[0]))


def _rows(X, dim: int) -> np.ndarray:
    """X as C-ordered float rows of dimension ``dim``, the input of every ``eval_batch``."""
    X = np.atleast_2d(np.ascontiguousarray(X, dtype=float))
    if X.ndim != 2 or X.shape[1] != dim:
        raise DimensionMismatchError(f"expected rows of dimension {dim}, got shape {X.shape}")
    return X


# ---------------------------------------------------------------------------
# spiral
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Spiral:
    """f(u, v) = (2*delta + u) * sin(pi * v / (2*delta)) on the plane.

    The plain variant is smooth everywhere; ``extended`` tapers it to zero
    outside the ball of radius ``2*delta`` (constant zero beyond ``4*delta``)
    with kinks on the two seam circles.  Lipschitz constant ``2*pi`` on the
    closed ``2*delta`` ball; the extension stays globally Lipschitz.
    """

    delta: float = 1.0
    extended: bool = False
    dim = 2  # a class constant, not a field

    def __post_init__(self):
        if self.delta <= 0:
            raise DegenerateInputError("spiral delta must be positive")

    def eval_batch(self, X: np.ndarray):
        X = _rows(X, 2)
        d = self.delta
        u, v = X[:, 0], X[:, 1]
        theta = (math.pi / (2.0 * d)) * v
        amp = 2.0 * d + u
        sin = np.sin(theta)
        vals = amp * sin
        grads = np.stack([sin, (math.pi / (2.0 * d)) * amp * np.cos(theta)], axis=1)
        diffs = np.ones(len(X), dtype=bool)
        if not self.extended:
            return vals, grads, diffs

        r = row_norms(X)
        inner_seam = np.abs(r - 2.0 * d) <= REGION_TOL
        outer_seam = np.abs(r - 4.0 * d) <= REGION_TOL
        middle = (r > 2.0 * d) & ~inner_seam
        far = (r >= 4.0 * d) & ~outer_seam & middle
        middle &= ~far

        if np.any(middle):
            idx = np.where(middle)[0]
            Xi = X[idx]
            ri = r[idx]
            xbar = Xi / ri[:, None]
            P = 2.0 * d * xbar
            fp, gp, _ = Spiral(d, extended=False).eval_batch(P)  # untapered, on the inner seam
            phi = 2.0 - ri / (2.0 * d)
            vals[idx] = phi * fp
            radial = np.einsum("ij,ij->i", xbar, gp)
            tangential = gp - radial[:, None] * xbar
            grads[idx] = (-fp / (2.0 * d))[:, None] * xbar + (
                phi * (2.0 * d) / ri
            )[:, None] * tangential
        if np.any(far):
            vals[far] = 0.0
            grads[far] = 0.0
        diffs[inner_seam | outer_seam] = False
        return vals, grads, diffs

    eval = __call__ = _first_row


# ---------------------------------------------------------------------------
# Warga's example
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Warga:
    """f(u, v) = ||u| + v| + u/2; the origin is Clarke stationary but not a local min."""

    dim = 2

    def eval_batch(self, X: np.ndarray):
        X = _rows(X, 2)
        u, v = X[:, 0], X[:, 1]
        a = np.abs(u) + v
        vals = np.abs(a) + 0.5 * u
        su, sa = np.sign(u), np.sign(a)
        grads = np.stack([sa * su + 0.5, sa], axis=1)
        diffs = (u != 0.0) & (a != 0.0)
        return vals, grads, diffs

    eval = __call__ = _first_row


# ---------------------------------------------------------------------------
# sqrt transform of a nonnegative oracle
# ---------------------------------------------------------------------------


def sqrt_oracle(oracle: Oracle) -> Oracle:
    """The square root of a nonnegative oracle: ``grad / (2 root)`` away from
    its zeros, and value 0 with a zero subgradient, nondifferentiable, at them."""

    def wrapped(x):
        reply = oracle(x)
        if reply.value < 0.0:
            raise DegenerateInputError(f"sqrt transform got negative value {reply.value!r}")
        root = math.sqrt(reply.value)
        if root == 0.0:  # the root of -0.0 is -0.0
            return FirstOrderReply(0.0, np.zeros_like(reply.subgrad), False)
        return FirstOrderReply(root, reply.subgrad / (2.0 * root), reply.differentiable)

    return wrapped


# ---------------------------------------------------------------------------
# affine pre-composition support
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class AffineMap:
    """The map ``x -> M^(1/2) (x - x_star)`` plus its quadratic ``||M^(1/2)(x - x_star)||^2``.

    ``sqrt_apply`` applies ``M^(1/2)`` to the rows of a matrix, or to one
    vector; the distance function and the composed channel map points in and
    gradients back with it.  ``quad_rows`` gives the quadratic's values and
    gradients at the rows of a matrix in its native form (the chain form for
    the hard quadratic); the map answers its quadratic's rows with
    ``eval_batch``.  Each row's bits do not depend on the rows around it.
    ``provenance`` carries the construction parameters for serialization.
    """

    x_star: np.ndarray
    sqrt_apply: Callable[[np.ndarray], np.ndarray]
    quad_rows: Callable[[np.ndarray], tuple]
    provenance: dict | None = None

    def __post_init__(self):
        self.x_star = as_vector(self.x_star)

    @property
    def dim(self) -> int:
        return len(self.x_star)

    def eval_batch(self, X: np.ndarray):
        """The quadratic's ``(values, grads, differentiable)``; differentiable everywhere."""
        values, grads = self.quad_rows(_rows(X, self.dim))
        return values, grads, np.ones(len(values), dtype=bool)

    eval = __call__ = _first_row

    def quad_oracle(self, x) -> FirstOrderReply:
        """The quadratic's reply at one vector."""
        return self.eval(x)


def identity_map(x_star) -> AffineMap:
    x_star = as_vector(x_star)

    def quad_rows(X):
        D = X - x_star
        return np.einsum("ij,ij->i", D, D), 2.0 * D

    return AffineMap(
        x_star=x_star, sqrt_apply=lambda v: v, quad_rows=quad_rows, provenance={"identity": True}
    )


@dataclass(eq=False)
class NormDistance:
    """f(x) = ||y|| for the mapped point y = M^(1/2) (x - x_star), with gradient
    M^(1/2) y / ||y||; at y = 0 the subgradient is zero and the flag is False.

    Mapping the difference ``x - x_star``, not expanding the quadratic, keeps
    the value and gradient within a few ulps relative near x_star, where the
    expanded quadratic cancels to no correct digit."""

    map: AffineMap

    @property
    def dim(self) -> int:
        return self.map.dim

    eval = __call__ = _first_row

    def eval_batch(self, X: np.ndarray):
        """``(values, grads, differentiable)`` over the rows of X."""
        X = _rows(X, self.dim)
        Y = self.map.sqrt_apply(X - self.map.x_star)
        ny = row_norms(Y)
        nonzero = ny > 0.0
        # the composed channel's inactive hinge rows are these same operations
        grads = self.map.sqrt_apply(Y / np.where(nonzero, ny, 1.0)[:, None])
        grads[~nonzero] = 0.0
        return ny, grads, nonzero


# ---------------------------------------------------------------------------
# the channel family
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ChannelInstance:
    """g_w(x) = ||x|| - max(4 wbar.(x + w) - 2 ||x + w||, 0), optionally clamped below
    and optionally pre-composed with an affine map.

    ``clamp`` turns the instance into ``max(clamp, g_w(.))``; ``affine`` turns
    the argument into ``M^(1/2) (x - x_star)``.  7-Lipschitz in all variants.
    """

    w: np.ndarray
    clamp: float | None = None
    affine: AffineMap | None = None

    def __post_init__(self):
        self.w = as_vector(self.w)
        if self.affine is not None and self.affine.dim != len(self.w):
            raise DimensionMismatchError(f"w has {len(self.w)} entries, the map {self.affine.dim}")
        if np.linalg.norm(self.w) == 0.0:
            raise DegenerateInputError("channel parameter w must be nonzero")

    @property
    def dim(self) -> int:
        return len(self.w)

    @functools.cached_property
    def w_bar(self) -> np.ndarray:
        return self.w / float(np.linalg.norm(self.w))

    eval = __call__ = _first_row

    def eval_batch(self, X: np.ndarray):
        """Evaluation over the rows of X.

        Returns ``(values, grads, differentiable, codes)``, where ``codes``
        holds each row's int8 region code, an index into ``REGION_NAMES``;
        :meth:`eval` is row 0 of a one-row batch.  A composed instance maps
        the rows through ``affine.sqrt_apply`` and the unclamped subgradients
        back with one call each; on its inactive hinge rows these are the
        operations of :class:`NormDistance`, so those rows carry its bits.
        """
        X = _rows(X, self.dim)
        affine = self.affine
        Y = X if affine is None else affine.sqrt_apply(X - affine.x_star)
        wbar = self.w_bar
        S = Y + self.w
        ny = row_norms(Y)
        ns = row_norms(S)
        # einsum, not a matrix-vector product: BLAS rounds a row differently
        # depending on how many rows it sees, and each row must give the same
        # bits whether it comes alone or in a block
        hinge = 4.0 * np.einsum("ij,j->i", S, wbar) - 2.0 * ns
        values = ny - np.maximum(hinge, 0.0)

        at_origin = ny <= REGION_TOL
        at_minus_w = ns <= REGION_TOL
        codes = (hinge > 0.0).astype(np.int8)  # CODE_HINGE_ACTIVE (1) or CODE_HINGE_INACTIVE (0)
        codes[np.abs(hinge) <= REGION_TOL] = CODE_HINGE_BOUNDARY
        codes[at_minus_w] = CODE_MINUS_W
        codes[at_origin] = CODE_ORIGIN

        grads = Y / np.where(ny > 0.0, ny, 1.0)[:, None]
        active = np.flatnonzero(codes == CODE_HINGE_ACTIVE)
        if len(active):
            sbar = S.take(active, axis=0) / ns.take(active)[:, None]
            grads[active] = grads.take(active, axis=0) - (4.0 * wbar - 2.0 * sbar)
        grads[at_minus_w] = -3.0 * wbar
        grads[at_origin] = -2.0 * wbar

        if self.clamp is not None:
            # one rounding decides: a row is clamped, on the boundary or above it
            gap = values - self.clamp
            clamped = gap < -REGION_TOL
            boundary = ~clamped & (gap <= REGION_TOL)
            codes[clamped] = CODE_CLAMP_ACTIVE
            codes[boundary] = CODE_CLAMP_BOUNDARY
            grads[clamped] = 0.0
            values[boundary] = np.maximum(self.clamp, values[boundary])
            values[clamped] = self.clamp
        diffs = _CODE_DIFFERENTIABLE[codes]

        if affine is not None:
            mapped = codes != CODE_CLAMP_ACTIVE
            if mapped.any():
                grads[mapped] = affine.sqrt_apply(grads[mapped])
        return values, grads, diffs, codes


def batch_oracle(oracle) -> Callable[[np.ndarray], tuple]:
    """The batch form of ``oracle``: a function of the rows of X returning
    ``(values, subgradients, differentiable)``, each row bitwise equal to the
    scalar reply at that row.

    An object with ``eval_batch``, or its bound ``eval``, answers a block with
    one ``eval_batch`` call; a foreign callable (a closure, :func:`sqrt_oracle`)
    is asked once per row, in order.  Non-finite queries and replies are
    rejected, and so is a reply of another shape than the queries.
    """
    owner = getattr(oracle, "__self__", None)
    if owner is not None and oracle == getattr(owner, "eval", None):
        oracle = owner
    native = hasattr(oracle, "eval_batch")

    def answer(X):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise DimensionMismatchError("queries must be the rows of a matrix")
        if not np.isfinite(X).all():
            raise DegenerateInputError("vector has non-finite entries")
        if not native:  # each FirstOrderReply has checked its own entries
            replies = [oracle(x) for x in X]
            if any(r.subgrad.shape != X.shape[1:] for r in replies):
                raise DimensionMismatchError("oracle reply dimension does not match the query")
            grads = np.array([r.subgrad for r in replies]).reshape(X.shape)
            diffs = np.array([r.differentiable for r in replies], dtype=bool)
            return np.array([r.value for r in replies]), grads, diffs
        values, grads, diffs = oracle.eval_batch(X)[:3]
        if np.shape(values) != X.shape[:1] or np.shape(grads) != X.shape:
            raise DimensionMismatchError("oracle replies do not match the queries in shape")
        if not (np.isfinite(values).all() and np.isfinite(grads).all()):
            raise DegenerateInputError("oracle reply has non-finite entries")
        return values, grads, diffs

    return answer


def clamped_channel(w) -> ChannelInstance:
    """The channel clamped at its origin value minus 1."""
    w = as_vector(w)
    base = ChannelInstance(w=w)
    level = base.eval(np.zeros(len(w))).value - 1.0
    return ChannelInstance(w=w, clamp=level)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_SCHEMA_FIELDS = ("kind", "delta", "w", "clamp", "x_star", "chain", "rotation_frame")


def instance_to_json(obj) -> dict:
    """Serialize a zoo instance to the fixed-field document format."""
    doc = {k: None for k in _SCHEMA_FIELDS}
    if isinstance(obj, Spiral):
        doc["kind"] = "spiral_extended" if obj.extended else "spiral"
        doc["delta"] = obj.delta
        return doc
    if isinstance(obj, Warga):
        doc["kind"] = "warga"
        return doc
    if isinstance(obj, NormDistance):
        doc["kind"] = "norm_distance"
        doc.update(_map_fields(obj.map))
        return doc
    if isinstance(obj, ChannelInstance):
        doc["kind"] = "channel" if obj.affine is None else "channel_composed"
        doc["w"] = obj.w.tolist()
        doc["clamp"] = obj.clamp
        if obj.affine is not None:
            doc.update(_map_fields(obj.affine))
        return doc
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _map_fields(m: AffineMap) -> dict:
    prov = m.provenance or {}
    fields = {"x_star": m.x_star.tolist(), "chain": None, "rotation_frame": None}
    if "T" in prov:
        fields["chain"] = {"T": prov["T"], "d": prov["d"], "k": prov["k"]}
    if prov.get("rotation_frame") is not None:
        fields["rotation_frame"] = [list(row) for row in prov["rotation_frame"]]
    return fields


def _field(doc, name: str, convert, where: str = "function document"):
    """``convert(name, doc[name])``; a missing, ill-typed or out-of-range field is a
    ConfigError naming it."""
    if not isinstance(doc, dict) or name not in doc:
        raise ConfigError(f"{where} must be a JSON object with a {name!r} field")
    return _named(name, lambda: convert(name, doc[name]), where)


def _named(name: str, make, where: str = "function document"):
    """``make()``; the TypeError or ValueError of a field's reader, or of the
    constructor that checks it, is a ConfigError naming the field."""
    try:
        return make()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} field {name!r} is invalid: {exc}") from exc


def json_vector(name: str, value) -> np.ndarray:
    """A vector read from JSON: a list of numbers; ``true`` and strings are no numbers."""
    if not isinstance(value, list):
        raise TypeError(f"{name} must be a list of numbers, not {type(value).__name__}")
    for v in value:
        if isinstance(v, (bool, str)):
            raise TypeError(f"{name} entry must be a number, not {v!r}")
    return as_vector(value)


def _frame_rows(name: str, value) -> np.ndarray:
    """Rows read as vectors are, that pass the frame's one Gram check."""
    if not isinstance(value, list):
        raise TypeError(f"{name} must be a list of rows, not {type(value).__name__}")
    return OrthonormalFrame.from_rows([json_vector(name, row) for row in value]).matrix()


def _map_from_fields(doc: dict) -> AffineMap:
    from nearstat import adversaries

    x_star = _field(doc, "x_star", json_vector)
    chain = doc.get("chain")
    if chain is None:
        return identity_map(x_star)
    T, d = _field(chain, "T", count, "chain"), _field(chain, "d", count, "chain")
    k = _field(chain, "k", number, "chain")
    if abs(k - adversaries.CHAIN_END_WEIGHT) > 1e-12:
        raise ConfigError(f"chain field 'k' is {k!r}, not {adversaries.CHAIN_END_WEIGHT!r}")
    # before anything of size d is built, so the document's own x_star bounds d
    if len(x_star) != d:
        raise ConfigError(f"function document field 'x_star' has {len(x_star)} entries, d = {d}")
    hq = _named("chain", lambda: adversaries.HardQuadratic(T=T, d=d))
    frame = doc.get("rotation_frame")
    if frame is not None:
        frame = _field(doc, "rotation_frame", _frame_rows)
    m = _named(
        "rotation_frame",
        lambda: adversaries.affine_map_from_parameters(T, d, rotation_frame=frame, hq=hq),
    )
    if not np.allclose(m.x_star, x_star, rtol=0.0, atol=1e-12):
        raise ConfigError("function document field 'x_star' does not match its chain and frame")
    return m


def instance_from_json(doc: dict):
    """The instance an :func:`instance_to_json` document describes; a ConfigError for a
    document that is no object, of an unknown kind, or lacking or mistyping a field,
    numbers read as the config side reads them."""
    kind = _field(doc, "kind", lambda name, kind: kind)
    if kind in ("spiral", "spiral_extended"):
        delta = _field(doc, "delta", number)
        return _named("delta", lambda: Spiral(delta=delta, extended=(kind == "spiral_extended")))
    if kind == "warga":
        return Warga()
    if kind == "norm_distance":
        return NormDistance(map=_map_from_fields(doc))
    if kind in ("channel", "channel_composed"):
        w = _field(doc, "w", json_vector)
        clamp = None if doc.get("clamp") is None else _field(doc, "clamp", number)
        affine = _map_from_fields(doc) if kind == "channel_composed" else None
        return _named("w", lambda: ChannelInstance(w=w, clamp=clamp, affine=affine))
    raise ConfigError(f"unknown function kind {kind!r}")


def instance_to_json_str(obj) -> str:
    return json.dumps(instance_to_json(obj))
