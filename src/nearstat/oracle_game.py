"""The query/reply protocol between first-order algorithms and oracles.

A game is a fixed budget of T sequential queries.  The algorithm side is an
:class:`AlgorithmDescriptor` (a declared class tag plus a factory for
per-game query policies); the oracle side is any callable mapping a query
vector to a :class:`~nearstat.zoo.FirstOrderReply`.  A policy may fix a block
of queries before any is answered; :func:`play` answers such a block with one
batched call when the oracle has a batch form, and every row still counts as
one query.  Transcripts record the full interaction and serialize to JSON
lines for replay.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

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

# A subgradient whose residual against the span of earlier ones is at most
# this, relative to max(1, its norm), does not widen the span.
SUBGRAD_DROP_TOL = 1e-14


@dataclass
class Transcript:
    """Ordered record of one oracle game."""

    T: int
    d: int
    entries: list[tuple[np.ndarray, FirstOrderReply]] = field(default_factory=list)

    def append(self, query: np.ndarray, reply: FirstOrderReply) -> None:
        if len(self.entries) >= self.T:
            raise DegenerateInputError("transcript already holds T entries")
        if query.shape != (self.d,) or reply.subgrad.shape != (self.d,):
            raise DimensionMismatchError("entry dimension does not match the game")
        self.entries.append((query, reply))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def queries(self) -> list[np.ndarray]:
        return [q for q, _ in self.entries]

    @property
    def replies(self) -> list[FirstOrderReply]:
        return [r for _, r in self.entries]

    def to_jsonl(self) -> str:
        lines = []
        for i, (q, r) in enumerate(self.entries, start=1):
            lines.append(
                json.dumps(
                    {
                        "index": i,
                        "query": q.tolist(),
                        "value": r.value,
                        "subgrad": r.subgrad.tolist(),
                        "differentiable": r.differentiable,
                    }
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_jsonl(cls, text: str, T: int | None = None) -> "Transcript":
        rows = [json.loads(line) for line in text.splitlines() if line.strip()]
        if not rows:
            raise DegenerateInputError("empty transcript document")
        d = len(rows[0]["query"])
        t = cls(T=T if T is not None else len(rows), d=d)
        for row in rows:
            reply = FirstOrderReply(row["value"], np.array(row["subgrad"], dtype=float), row["differentiable"])
            t.append(np.array(row["query"], dtype=float), reply)
        return t


class QueryPolicy:
    """Per-game algorithm state: produces queries from the history.

    A policy implements :meth:`next_query`, or :meth:`next_queries` when it
    fixes several queries before seeing any of their replies.
    """

    def next_query(self, entries: list[tuple[np.ndarray, FirstOrderReply]]) -> np.ndarray:
        raise NotImplementedError

    def next_queries(
        self, entries: list[tuple[np.ndarray, FirstOrderReply]], budget: int
    ) -> np.ndarray:
        """The next block of queries as rows, at least one and at most ``budget``."""
        return np.asarray(self.next_query(entries), dtype=float)[None, :]


@dataclass(frozen=True)
class AlgorithmDescriptor:
    """A named algorithm with declared oracle-game class membership.

    ``factory(d, rng)`` returns a fresh :class:`QueryPolicy` for one game;
    deterministic and linear-span algorithms must ignore ``rng``.
    """

    name: str
    class_tag: str
    params: dict
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

    Each block the policy hands over is answered with one batched call when
    the oracle has a batch form (:func:`~nearstat.zoo.batch_oracle`), and one
    row at a time through ``oracle`` otherwise; each row is one transcript
    entry and one unit of the budget.
    """
    if T < 1 or d < 1:
        raise DegenerateInputError("need T >= 1 and d >= 1")
    policy = algorithm.fresh_policy(d, rng)
    batch = batch_oracle(oracle)
    transcript = Transcript(T=T, d=d)
    while len(transcript) < T:
        remaining = T - len(transcript)
        block = np.asarray(policy.next_queries(transcript.entries, remaining), dtype=float)
        if block.ndim != 2 or block.shape[1] != d:
            raise DimensionMismatchError("algorithm produced a query of wrong dimension")
        if not 1 <= len(block) <= remaining:
            raise DegenerateInputError(
                f"algorithm produced {len(block)} queries with {remaining} left in the budget"
            )
        if not np.isfinite(block).all():
            raise DegenerateInputError("vector has non-finite entries")
        if batch is None:
            for x in block:
                transcript.append(x, _ask(oracle, x))
        else:
            for x, reply in zip(block, _ask_batch(batch, block)):
                transcript.append(x, reply)
    return transcript


def _ask_batch(batch, block: np.ndarray) -> list[FirstOrderReply]:
    try:
        values, grads, diffs = batch(block)
    except Exception as exc:
        raise OracleFailure(
            f"oracle failed on the block of {len(block)} queries starting at {block[0]!r}: {exc}",
            query=block[0],
        ) from exc
    return [FirstOrderReply(v, g, bool(dif)) for v, g, dif in zip(values, grads, diffs)]


def _ask(oracle: Oracle, x: np.ndarray) -> FirstOrderReply:
    try:
        return oracle(x)
    except Exception as exc:
        raise OracleFailure(f"oracle failed on query {x!r}: {exc}", query=x) from exc


def validate_span(transcript: Transcript, tol: float = 1e-8) -> tuple[bool, int | None]:
    """Check x1 = 0 and x_t in span(g_1..g_(t-1)) up to a residual tolerance.

    The tolerance is relative to ``||x_t||`` when that norm exceeds 1,
    absolute otherwise.  Returns ``(ok, first_violating_index)`` with
    1-based indices.  The accepted subgradients are kept orthonormalized as
    the rows of one array; x_t and g_t are projected off them together.
    """
    if len(transcript) == 0:
        raise DegenerateInputError("empty transcript")
    X = np.array(transcript.queries)
    G = np.array([reply.subgrad for reply in transcript.replies])
    x_limits = tol * np.maximum(1.0, row_norms(X))
    x_limits[0] = tol  # x_1 = 0, absolutely
    g_limits = SUBGRAD_DROP_TOL * np.maximum(1.0, row_norms(G))
    pairs = np.stack([X, G], axis=2)  # x_t and g_t as the columns of pairs[t]
    basis = np.zeros((min(len(X), transcript.d), transcript.d))
    k = 0
    for t, pair in enumerate(pairs):
        R = orthogonal_residual(basis[:k], pair)
        x_res, g_res = np.linalg.norm(R, axis=0)
        if x_res > x_limits[t]:
            return False, t + 1
        if g_res > g_limits[t] and k < len(basis):
            basis[k] = R[:, 1] / g_res
            k += 1
    return True, None


def min_distance_to(transcript: Transcript, target) -> float:
    """Minimum Euclidean distance from any recorded query to ``target``."""
    if len(transcript) == 0:
        raise DegenerateInputError("empty transcript")
    target = as_vector(target)
    if target.shape != (transcript.d,):
        raise DimensionMismatchError("target dimension does not match the game")
    return min(float(np.linalg.norm(q - target)) for q in transcript.queries)
