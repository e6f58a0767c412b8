import numpy as np
import pytest

from nearstat.errors import DegenerateInputError, DimensionMismatchError, OracleFailure
from nearstat.oracle_game import (
    CLASS_DETERMINISTIC,
    AlgorithmDescriptor,
    QueryPolicy,
    Transcript,
    min_distance_to,
    play,
    validate_span,
)
from nearstat.adversaries import HardQuadratic, RotationBuilder, chain_quadratic_oracle, rotation_oracle
from nearstat.solvers import steepest_descent_exact, subgradient_method
from nearstat.zoo import FirstOrderReply, sqrt_oracle


def norm_oracle(x):
    n = float(np.linalg.norm(x))
    g = x / n if n > 0 else np.zeros(len(x))
    return FirstOrderReply(n, g, n > 0)


class _Scripted(QueryPolicy):
    """Walk through the canonical basis, one axis per round."""

    def __init__(self, d):
        self.d = d

    def next_query(self, entries):
        return np.eye(self.d)[len(entries) % self.d]


def scripted_descriptor(d):
    return AlgorithmDescriptor(
        name="scripted", class_tag=CLASS_DETERMINISTIC, params={}, factory=lambda dd, rng: _Scripted(dd)
    )


def test_transcript_append_guards():
    t = Transcript(T=2, d=3)
    t.append(np.zeros(3), FirstOrderReply(0.0, np.zeros(3), False))
    with pytest.raises(DimensionMismatchError):
        t.append(np.zeros(2), FirstOrderReply(0.0, np.zeros(3), False))
    t.append(np.ones(3), FirstOrderReply(1.0, np.ones(3), True))
    with pytest.raises(DegenerateInputError):
        t.append(np.zeros(3), FirstOrderReply(0.0, np.zeros(3), False))
    assert len(t) == 2
    assert len(t.queries) == len(t.replies) == 2


def test_play_runs_exactly_T_queries():
    calls = []

    def oracle(x):
        calls.append(x.copy())
        return norm_oracle(x)

    tr = play(scripted_descriptor(3), oracle, T=5, d=3)
    assert len(tr) == 5 and len(calls) == 5
    assert np.array_equal(tr.queries[0], [1.0, 0.0, 0.0])
    assert np.array_equal(tr.queries[3], [1.0, 0.0, 0.0])
    assert tr.replies[0].value == 1.0


def test_play_wraps_oracle_exceptions():
    def broken(x):
        raise ValueError("boom")

    with pytest.raises(OracleFailure):
        play(scripted_descriptor(2), broken, T=1, d=2)
    with pytest.raises(DegenerateInputError):
        play(scripted_descriptor(2), norm_oracle, T=0, d=2)


def test_descriptor_rejects_unknown_class():
    with pytest.raises(DegenerateInputError):
        AlgorithmDescriptor(name="x", class_tag="mystery", params={}, factory=lambda d, rng: _Scripted(d))


def test_jsonl_round_trip_is_exact():
    tr = play(scripted_descriptor(4), norm_oracle, T=3, d=4)
    back = Transcript.from_jsonl(tr.to_jsonl())
    assert back.T == 3 and back.d == 4
    for (q1, r1), (q2, r2) in zip(tr.entries, back.entries):
        assert np.array_equal(q1, q2)
        assert r1.value == r2.value
        assert np.array_equal(r1.subgrad, r2.subgrad)
        assert r1.differentiable == r2.differentiable
    with pytest.raises(DegenerateInputError):
        Transcript.from_jsonl("")


def test_validate_span_accepts_subgradient_method():
    tr = play(subgradient_method(), norm_oracle, T=6, d=4)
    ok, idx = validate_span(tr)
    assert ok and idx is None


def test_validate_span_flags_violations():
    # nonzero first query (violations are reported with 1-based indices)
    t = Transcript(T=1, d=2)
    t.append(np.array([1.0, 0.0]), FirstOrderReply(1.0, np.array([1.0, 0.0]), True))
    ok, idx = validate_span(t)
    assert not ok and idx == 1

    # second query leaves the span of the first reply
    t2 = Transcript(T=2, d=2)
    t2.append(np.zeros(2), FirstOrderReply(0.0, np.array([0.0, 1.0]), True))
    t2.append(np.array([1.0, 0.0]), FirstOrderReply(1.0, np.array([1.0, 0.0]), True))
    ok2, idx2 = validate_span(t2)
    assert not ok2 and idx2 == 2


def reference_validate_span(transcript, tol=1e-8):
    """The per-vector Gram-Schmidt loop that the matrix kernel replaced."""
    basis = []
    for t, (x, reply) in enumerate(transcript.entries, start=1):
        xn = np.linalg.norm(x)
        if t == 1:
            if xn > tol:
                return False, 1
        else:
            r = x.copy()
            for _ in range(2):
                for u in basis:
                    r -= (u @ r) * u
            if np.linalg.norm(r) > tol * max(1.0, xn):
                return False, t
        g = reply.subgrad.copy()
        for _ in range(2):
            for u in basis:
                g -= (u @ g) * u
        gn = np.linalg.norm(g)
        if gn > 1e-14 * max(1.0, np.linalg.norm(reply.subgrad)):
            basis.append(g / gn)
    return True, None


def span_transcripts(rng):
    """Span-method games, then synthetic ones whose gradients are rank-deficient."""
    for T in (3, 8, 19):
        for d in (2 * T, 4 * T):
            for solver in (subgradient_method(), steepest_descent_exact()):
                hq = HardQuadratic(T=T, d=d)
                yield play(solver, chain_quadratic_oracle(hq), T, d)
                yield play(solver, sqrt_oracle(chain_quadratic_oracle(hq)), T, d)
                yield play(solver, rotation_oracle(RotationBuilder(base=hq)), T, d)
    yield play(subgradient_method(), norm_oracle, T=12, d=4)  # more queries than dimensions
    for _ in range(30):
        d = int(rng.integers(2, 40))
        T = int(rng.integers(2, 25))
        G = rng.normal(size=(int(rng.integers(1, d + 1)), d))  # gradients span rows of G
        t = Transcript(T=T, d=d)
        x = np.zeros(d)
        for _ in range(T):
            g = rng.normal(size=len(G)) @ G
            t.append(x, FirstOrderReply(0.0, g, True))
            x = x + rng.normal() * g
        yield t


def perturbed(transcript, rng, scale):
    t = Transcript(T=transcript.T, d=transcript.d)
    bad = int(rng.integers(len(transcript)))
    for i, (x, reply) in enumerate(transcript.entries):
        t.append(x + scale * rng.normal(size=len(x)) if i == bad else x, reply)
    return t


def test_validate_span_matches_the_loop_reference():
    rng = np.random.default_rng(4242)
    outcomes = set()
    for transcript in span_transcripts(rng):
        cases = [transcript] + [perturbed(transcript, rng, s) for s in (1e-3, 1e-6, 1e-13)]
        for t in cases:
            expected = reference_validate_span(t)
            assert validate_span(t) == expected
            outcomes.add(expected[0])
    assert outcomes == {True, False}


def test_min_distance_to():
    t = Transcript(T=2, d=2)
    t.append(np.zeros(2), FirstOrderReply(0.0, np.zeros(2), False))
    t.append(np.array([3.0, 0.0]), FirstOrderReply(3.0, np.array([1.0, 0.0]), True))
    assert min_distance_to(t, [0.0, 4.0]) == 4.0
    assert min_distance_to(t, [3.0, 0.0]) == 0.0
