"""The query/reply protocol between first-order algorithms and oracles.

A game is a fixed budget of T sequential queries.  The algorithm side is an
:class:`AlgorithmDescriptor` (a declared class tag plus a factory for
per-game query policies); the oracle side is an object with ``eval_batch``,
as every oracle nearstat builds is, or a foreign callable of one query vector,
asked once per row.  A policy may fix a block of queries before any is
answered; :func:`play` answers every block with one call of the oracle's batch
form, and every row still counts as one query.
Transcripts record the full interaction as row arrays, which policies read,
and serialize to JSON lines for replay.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nearstat.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    OracleFailure,
)
from nearstat.vectorspace import as_vector, orthogonal_residual, row_norms
from nearstat.zoo import FirstOrderReply, Oracle, batch_oracle

CLASS_DETERMINISTIC = "deterministic"
CLASS_LINEAR_SPAN = "linear_span"
CLASS_RANDOMIZED = "randomized"

# A query whose residual against the span of earlier subgradients exceeds
# this, relative to max(1, its norm), leaves the span.
SPAN_TOL = 1e-8
# A subgradient whose residual against the span of earlier ones is at most
# this, relative to max(1, its norm), does not widen the span.
SUBGRAD_DROP_TOL = 1e-14


class Transcript:
    """Ordered record of one oracle game, held as row arrays.

    Row t of :attr:`queries`, :attr:`values`, :attr:`subgrads` and
    :attr:`differentiable` is the t-th query and its reply.  The arrays are
    preallocated for the budget T; answers go in a block at a time with
    :meth:`extend`, and the properties are read-only views of the rows filled
    so far.
    """

    def __init__(self, T: int, d: int):
        self.T = T
        self.d = d
        # queries, values, subgradients, flags; read through read-only views
        self._columns = (np.empty((T, d)), np.empty(T), np.empty((T, d)), np.empty(T, dtype=bool))
        self._views = tuple(column.view() for column in self._columns)
        for view in self._views:
            view.flags.writeable = False
        self._length = 0

    def extend(self, queries, values, subgrads, differentiable) -> None:
        """Record a block of answered queries with one slice write per array:
        rows of queries and subgradients, one value and one flag per row."""
        n = len(queries)
        stop = self._length + n
        if stop > self.T:
            raise DegenerateInputError(
                f"transcript holds {self._length} of T = {self.T} entries, no room for {n} more"
            )
        if (
            np.shape(queries) != (n, self.d)
            or np.shape(subgrads) != (n, self.d)
            or np.shape(values) != (n,)
            or np.shape(differentiable) != (n,)
        ):
            raise DimensionMismatchError("entry dimension does not match the game")
        for column, block in zip(self._columns, (queries, values, subgrads, differentiable)):
            column[self._length : stop] = block
        self._length = stop

    def __len__(self) -> int:
        return self._length

    @property
    def queries(self) -> np.ndarray:
        return self._views[0][: self._length]

    @property
    def values(self) -> np.ndarray:
        return self._views[1][: self._length]

    @property
    def subgrads(self) -> np.ndarray:
        return self._views[2][: self._length]

    @property
    def differentiable(self) -> np.ndarray:
        return self._views[3][: self._length]

    def same_bits(self, other: "Transcript") -> bool:
        """Whether both record the same rows bit for bit; -0.0 and 0.0 differ,
        as in their JSON texts."""
        return (len(self), self.d) == (len(other), other.d) and all(
            mine[: len(self)].tobytes() == theirs[: len(other)].tobytes()
            for mine, theirs in zip(self._views, other._views)
        )

    @property
    def replies(self) -> list[FirstOrderReply]:
        """One reply object per row, built on request."""
        return [
            FirstOrderReply(v, g, f)
            for v, g, f in zip(self.values.tolist(), self.subgrads, self.differentiable.tolist())
        ]

    def to_jsonl(self) -> str:
        rows = zip(*(view[: self._length].tolist() for view in self._views))
        lines = [
            json.dumps({"index": i, "query": q, "value": v, "subgrad": g, "differentiable": f})
            for i, (q, v, g, f) in enumerate(rows, start=1)
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_jsonl(cls, text: str) -> "Transcript":
        """The transcript a :meth:`to_jsonl` document records, with T its row count."""
        rows = [json.loads(line) for line in text.splitlines() if line.strip()]
        if not rows:
            raise DegenerateInputError("empty transcript document")
        try:
            t = cls(T=len(rows), d=len(rows[0]["query"]))
            queries, values, subgrads = (
                np.array([row[key] for row in rows], dtype=float)
                for key in ("query", "value", "subgrad")
            )
            flags = [row["differentiable"] for row in rows]
        except (KeyError, TypeError, ValueError) as exc:
            raise _entry_fault(rows) from exc
        if not np.isfinite(queries).all():
            raise DegenerateInputError("transcript query has non-finite entries")
        if not (np.isfinite(values).all() and np.isfinite(subgrads).all()):
            raise DegenerateInputError("oracle reply has non-finite entries")
        if any(not isinstance(flag, bool) for flag in flags):
            raise DegenerateInputError("differentiable flags must be true or false")
        try:
            t.extend(queries, values, subgrads, flags)
        except DimensionMismatchError as exc:
            raise _entry_fault(rows) from exc
        return t


def _entry_fault(rows: list) -> ValueError:
    """The typed error naming the first field of a transcript document that
    does not read as a row, with its 1-based row; asked only once the document
    as a whole has failed to read."""
    vector = None  # the shape of row 1's query, which every query and subgradient shares
    for i, row in enumerate(rows, start=1):
        if not isinstance(row, dict):
            return DegenerateInputError(f"transcript row {i} is not an object")
        for key in ("query", "value", "subgrad", "differentiable"):
            if key not in row:
                return DegenerateInputError(f"transcript row {i} has no {key!r}")
        for key in ("query", "value", "subgrad"):
            try:
                shape = np.shape(np.array(row[key], dtype=float))
            except (TypeError, ValueError):
                return DegenerateInputError(
                    f"{key} of transcript row {i} does not read as numbers: {row[key]!r}"
                )
            if vector is None and len(shape) != 1:
                return DimensionMismatchError(
                    f"query of transcript row 1 is not a list of numbers: {row[key]!r}"
                )
            vector = vector or shape
            want = () if key == "value" else vector
            if shape != want:
                return DimensionMismatchError(
                    f"{key} of transcript row {i} has shape {shape}, not {want}"
                )
    return DimensionMismatchError("transcript rows differ in shape")


class QueryPolicy:
    """Per-game algorithm state: produces queries from the history.

    A policy reads the game so far from the transcript's arrays and
    implements :meth:`next_query`, or :meth:`next_queries` when it fixes
    several queries before seeing any of their replies.
    """

    def next_query(self, transcript: Transcript) -> np.ndarray:
        raise NotImplementedError

    def next_queries(self, transcript: Transcript, budget: int) -> np.ndarray:
        """The next block of queries as rows, at least one and at most ``budget``."""
        return np.asarray(self.next_query(transcript), dtype=float)[None, :]


@dataclass(frozen=True)
class AlgorithmDescriptor:
    """A name, a declared oracle-game class tag and a policy factory.

    ``factory(d, rng)`` returns a fresh :class:`QueryPolicy` for one game;
    deterministic and linear-span algorithms must ignore ``rng``.  The
    settings the algorithm was built with live in the policies it makes.
    """

    name: str
    class_tag: str
    factory: Callable[[int, np.random.Generator | None], QueryPolicy]

    def __post_init__(self):
        if self.class_tag not in (CLASS_DETERMINISTIC, CLASS_LINEAR_SPAN, CLASS_RANDOMIZED):
            raise DegenerateInputError(f"unknown class tag {self.class_tag!r}")

    def fresh_policy(self, d: int, rng: np.random.Generator | None = None) -> QueryPolicy:
        return self.factory(d, rng)


def play(
    algorithm: AlgorithmDescriptor,
    oracle: Oracle,
    T: int,
    d: int,
    rng: np.random.Generator | None = None,
) -> Transcript:
    """Run one game of exactly T queries and return the transcript.

    Each block the policy hands over is answered with one call of the
    oracle's batch form (:func:`~nearstat.zoo.batch_oracle`) and recorded
    with one block write.  Each row is one transcript entry and one unit of
    the budget.
    """
    if T < 1 or d < 1:
        raise DegenerateInputError("need T >= 1 and d >= 1")
    policy = algorithm.fresh_policy(d, rng)
    batch = batch_oracle(oracle)
    transcript = Transcript(T=T, d=d)
    while len(transcript) < T:
        remaining = T - len(transcript)
        block = np.asarray(policy.next_queries(transcript, remaining), dtype=float)
        if block.ndim != 2 or block.shape[1] != d:
            raise DimensionMismatchError("algorithm produced a query of wrong dimension")
        if not 1 <= len(block) <= remaining:
            raise DegenerateInputError(
                f"algorithm produced {len(block)} queries with {remaining} left in the budget"
            )
        if not np.isfinite(block).all():
            raise DegenerateInputError("vector has non-finite entries")
        transcript.extend(block, *_ask(batch, block))
    return transcript


def _ask(batch, block: np.ndarray) -> tuple:
    """The oracle's answers to a block; a reply of the wrong shape is the
    game's dimension error, any other failure the oracle's."""
    try:
        return batch(block)
    except DimensionMismatchError:
        raise
    except Exception as exc:
        raise OracleFailure(
            f"oracle failed on the block of {len(block)} queries starting at {block[0]!r}: {exc}",
            query=block[0],
        ) from exc


def validate_span(transcript: Transcript) -> tuple[bool, int | None]:
    """Check x1 = 0 and x_t in span(g_1..g_(t-1)) up to a residual tolerance.

    The tolerance ``SPAN_TOL`` is relative to ``||x_t||`` when that norm
    exceeds 1, absolute otherwise.  Returns ``(ok, first_violating_index)`` with
    1-based indices.  The accepted subgradients are kept orthonormalized as
    the rows of one array; x_t and g_t are projected off them together, and
    their squared residuals are compared with squared limits, so a square
    root is taken only when g_t widens the basis.
    """
    if len(transcript) == 0:
        raise DegenerateInputError("empty transcript")
    X, G = transcript.queries, transcript.subgrads
    x_limits = SPAN_TOL * np.maximum(1.0, row_norms(X))
    x_limits[0] = SPAN_TOL  # x_1 = 0, absolutely
    g_limits = SUBGRAD_DROP_TOL * np.maximum(1.0, row_norms(G))
    limits = np.square(np.stack([x_limits, g_limits], axis=1)).tolist()
    pairs = np.stack([X, G], axis=2)  # x_t and g_t as the columns of pairs[t]
    basis = np.zeros((min(len(X), transcript.d), transcript.d))
    k = 0
    for t, (pair, (x_limit, g_limit)) in enumerate(zip(pairs, limits)):
        R = orthogonal_residual(basis[:k], pair)
        x_res, g_res = np.einsum("ij,ij->j", R, R).tolist()
        if x_res > x_limit:
            return False, t + 1
        if g_res > g_limit and k < len(basis):
            basis[k] = R[:, 1] / math.sqrt(g_res)
            k += 1
    return True, None


def query_distances(transcript: Transcript, target) -> np.ndarray:
    """Euclidean distance from each recorded query to ``target``: per row the
    square root of its dot product with itself, a 1-d ``np.linalg.norm``'s
    arithmetic without its dispatch.  :func:`row_norms` rounds differently."""
    if len(transcript) == 0:
        raise DegenerateInputError("empty transcript")
    target = as_vector(target)
    if target.shape != (transcript.d,):
        raise DimensionMismatchError("target dimension does not match the game")
    return np.array([math.sqrt(row.dot(row)) for row in transcript.queries - target])
