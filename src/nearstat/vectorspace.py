"""Deterministic vector-space utilities: orthonormal frames, orthogonal extension, sampling.

Vectors are plain 1-d ``numpy`` arrays of float64.  Randomness flows through
counter-based Philox generators so that every consumer can derive its own
named stream from a single master seed and replay results exactly.
"""

from __future__ import annotations

import hashlib

import numpy as np

from nearstat.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    NoOrthogonalDirectionError,
)

# Residual below which a candidate direction counts as already spanned.
CANDIDATE_RESIDUAL_TOL = 1e-6
# A vector whose residual against a frame is at most this, relative to
# max(1, its norm), adds no row when absorbed.
AVOID_DROP_TOL = 1e-12
# numpy adds the squares of a row shorter than this left to right; from 8 on
# its pairwise sum keeps 8 accumulators, so only narrower rows can be summed
# column by column and still give numpy's bits.  Not a tuning knob.
SEQUENTIAL_ROW_WIDTH = 8
# A point lies in the closed ball of radius r when its norm exceeds r by at
# most this times max(1, r): roundoff of a point on the sphere, at any scale.
BALL_SLACK = 1e-12


def as_vector(x) -> np.ndarray:
    """Coerce ``x`` to a finite 1-d float64 array of dimension >= 1."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DegenerateInputError(f"expected a 1-d vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise DegenerateInputError("vector has non-finite entries")
    return v


def row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-d array; ``np.linalg.norm(X, axis=1)`` bit for bit.

    The squares of narrow float64 rows are summed column by column, in
    numpy's order, with n-long temporaries: numpy's one short reduction per
    row costs more than the arithmetic.  Anything else goes to numpy.
    """
    X = np.asarray(X)
    if X.ndim != 2:
        raise DimensionMismatchError(f"row norms need a 2-d array, got shape {X.shape}")
    d = X.shape[1]
    if X.dtype != np.float64 or not 0 < d < SEQUENTIAL_ROW_WIDTH:
        return np.linalg.norm(X, axis=1)
    total = X[:, 0] * X[:, 0]
    square = np.empty_like(total)
    for k in range(1, d):
        column = X[:, k]
        total += np.multiply(column, column, out=square)
    return np.sqrt(total, out=total)


def ball_norm_limit(radius: float) -> float:
    """The largest norm a point of the closed ball of ``radius`` may show after roundoff."""
    return radius + BALL_SLACK * max(1.0, radius)


def frame_tolerance(dim: int) -> float:
    return 1e-10 * np.sqrt(dim)


def orthogonal_residual(Q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Component of ``v`` orthogonal to the rows of the orthonormal matrix ``Q``.

    ``v`` is one vector or a block of vectors held as columns.  Classical
    Gram-Schmidt applied twice (CGS2): two matrix products per pass, and the
    second pass restores orthogonality to working precision ("twice is
    enough", Giraud, Langou & Rozloznik 2005).
    """
    r = v - Q.T @ (Q @ v)
    return r - Q.T @ (Q @ r)


class OrthonormalFrame:
    """Mutually orthonormal vectors in a fixed dimension, at most ``capacity`` of them.

    The vectors are the leading rows of one preallocated ``(capacity, dim)``
    array, so the frame matrix is a view and never re-stacked.  Each caller
    knows how many rows it will add and sizes the frame to that; there is no
    growth path.  ``gap`` is the largest entry of |Q Q^T - I| that
    :meth:`from_rows` accepted; rows the frame normalized itself leave it 0.
    """

    def __init__(self, dim: int, capacity: int):
        if dim < 1:
            raise DegenerateInputError("frame dimension must be >= 1")
        self.dim = int(dim)
        self._rows = np.zeros((capacity, self.dim))
        self._count = 0
        self.gap = 0.0

    def __len__(self) -> int:
        return self._count

    def matrix(self) -> np.ndarray:
        """Frame vectors as rows, shape ``(len(self), dim)``; a read-only view."""
        view = self._rows[: self._count]
        view.flags.writeable = False
        return view

    @classmethod
    def from_rows(cls, rows) -> "OrthonormalFrame":
        """A full frame of the rows of a 2-d array, checked once: their Gram
        matrix must be the identity within the frame tolerance."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2:
            raise DimensionMismatchError(f"frame rows need a 2-d array, got shape {rows.shape}")
        frame = cls(rows.shape[1], len(rows))
        gap = np.abs(rows @ rows.T - np.eye(len(rows))).max(initial=0.0)
        if not gap <= frame_tolerance(frame.dim):  # a NaN gap fails too
            raise DegenerateInputError(f"frame rows are not orthonormal: Gram gap {gap:.3e}")
        frame._rows[:] = rows
        frame._count = len(rows)
        frame.gap = gap
        return frame

    def append_orthogonal(self, v) -> None:
        """Add a vector the caller has checked against every frame row; only
        its dimension and unit norm are checked here."""
        v = as_vector(v)
        if v.shape != (self.dim,):
            raise DimensionMismatchError(f"expected dimension {self.dim}, got {v.shape}")
        if abs(np.linalg.norm(v) - 1.0) > frame_tolerance(self.dim):
            raise DegenerateInputError("frame vector is not unit norm")
        self._store(v)

    def _store(self, v: np.ndarray) -> None:
        """Add a vector already known to be unit and orthogonal to the frame."""
        self._rows[self._count] = v
        self._count += 1

    def project_out(self, v: np.ndarray) -> np.ndarray:
        """Component of ``v`` (a vector, or vectors as columns) orthogonal to the frame."""
        return orthogonal_residual(self.matrix(), np.asarray(v, dtype=float))

    def absorb(self, v: np.ndarray) -> None:
        """Extend the frame by the normalized residual of ``v``, unless already spanned.

        ``v`` counts as spanned when its residual is at most ``AVOID_DROP_TOL``
        times ``max(1, ||v||)``, or when the frame already fills the space.
        """
        if self._count == self.dim:
            return
        r = self.project_out(v)
        rn = np.linalg.norm(r)
        if rn > AVOID_DROP_TOL * max(1.0, np.linalg.norm(v)):
            self._store(r / rn)


def extend_orthonormal(frame: OrthonormalFrame) -> np.ndarray:
    """Deterministically pick a unit vector orthogonal to every row of a frame.

    A caller with vectors to avoid absorbs them into the frame first.
    Candidates are the standard basis vectors in index order; the first whose
    residual against span(frame) exceeds ``CANDIDATE_RESIDUAL_TOL`` is
    orthonormalized and returned.  All d axes are scored in one O(k d) pass
    from the k frame rows Q: ||(I - Q^T Q) e_j||^2 = 1 - sum_k Q_kj^2.
    That formula holds for orthonormal rows; for rows whose Gram matrix is
    off the identity by the frame's ``gap`` it errs by up to about k * gap.
    Only the axes whose score clears (tol/2)^2 - k * gap are tried, in index
    order, each by its CGS2 residual: (tol/2)^2 is far above the formula's
    roundoff, and k * gap covers its error.  The first axis whose residual
    norm exceeds tol is taken.  No d x d array is formed.  Requires strictly
    fewer frame rows than the ambient dimension.
    """
    d = frame.dim
    if len(frame) >= d:
        raise DegenerateInputError(f"constraint count {len(frame)} >= dimension {d}")
    Q = frame.matrix()
    scores = 1.0 - np.einsum("kj,kj->j", Q, Q)
    floor = (CANDIDATE_RESIDUAL_TOL / 2) ** 2 - len(frame) * frame.gap
    for j in np.flatnonzero(scores > floor):
        r = orthogonal_residual(Q, np.eye(1, d, j)[0])
        norm = np.linalg.norm(r)
        if norm > CANDIDATE_RESIDUAL_TOL:
            break
    else:
        raise NoOrthogonalDirectionError("all candidate residuals below tolerance")
    u = r / norm
    tol = frame_tolerance(d)
    worst = np.abs(Q @ u).max(initial=0.0)
    if worst > tol:
        raise NoOrthogonalDirectionError(
            f"orthogonalization residual {worst:.3e} above tolerance {tol:.3e}"
        )
    return u


def derive_stream(seed: int, role: str) -> np.random.Generator:
    """A Philox generator keyed by ``(seed, role)``; identical inputs replay exactly."""
    digest = hashlib.sha256(role.encode("utf-8")).digest()
    role_key = int.from_bytes(digest[:8], "little")
    ss = np.random.SeedSequence(entropy=[int(seed) & (2**63 - 1), role_key])
    return np.random.Generator(np.random.Philox(ss))


def sample_sphere_batch(dim: int, radius: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` uniform draws from the sphere of the given radius, as rows.

    The one sampler kernel: one ``(count, dim)`` block of normals, each row
    scaled to the radius by its :func:`row_norms` norm.  A row of norm zero
    (probability zero) is drawn again before anything else is drawn.
    """
    if dim < 1:
        raise DegenerateInputError("sphere dimension must be >= 1")
    if radius < 0:
        raise DegenerateInputError("sphere radius must be nonnegative")
    g = rng.standard_normal((count, dim))
    n = row_norms(g)
    while not n.all():
        zero = n == 0.0
        g[zero] = rng.standard_normal((int(zero.sum()), dim))
        n[zero] = row_norms(g[zero])
    return radius * g / n[:, None]


def sample_ball_batch(dim: int, radius: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` uniform draws from the closed ball, as rows: sphere directions
    scaled by ``r * U**(1/d)``, the block of normals first, then ``count`` uniforms."""
    if radius < 0:
        raise DegenerateInputError("ball radius must be nonnegative")
    u = sample_sphere_batch(dim, 1.0, count, rng)
    scale = radius * rng.random(count) ** (1.0 / dim)
    return u * scale[:, None]


def sample_sphere(dim: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """One sphere draw: row 0 of a one-row :func:`sample_sphere_batch`."""
    return sample_sphere_batch(dim, radius, 1, rng)[0]


def sample_ball(dim: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """One ball draw: row 0 of a one-row :func:`sample_ball_batch`."""
    return sample_ball_batch(dim, radius, 1, rng)[0]
