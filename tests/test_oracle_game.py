import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nearstat.errors import DegenerateInputError, DimensionMismatchError, OracleFailure
from nearstat.oracle_game import (
    CLASS_DETERMINISTIC,
    AlgorithmDescriptor,
    QueryPolicy,
    Transcript,
    play,
    query_distances,
    validate_span,
)
from nearstat.adversaries import (
    ChannelAdversaryConfig,
    HardQuadratic,
    RotationBuilder,
    build_channel_instance,
    chain_quadratic_oracle,
    rotation_oracle,
)
from nearstat.solvers import (
    goldstein_descent,
    smoothed_gradient_method,
    steepest_descent_exact,
    subgradient_method,
)
from nearstat.zoo import ChannelInstance, FirstOrderReply, Spiral, Warga, sqrt_oracle

from test_envelope import ENVELOPE_PROFILE


def norm_oracle(x):
    n = float(np.linalg.norm(x))
    g = x / n if n > 0 else np.zeros(len(x))
    return FirstOrderReply(n, g, n > 0)


class _Scripted(QueryPolicy):
    """Walk through the canonical basis, one axis per round."""

    def __init__(self, d):
        self.d = d

    def next_query(self, transcript):
        return np.eye(self.d)[len(transcript) % self.d]


def scripted_descriptor(d):
    return AlgorithmDescriptor(
        name="scripted", class_tag=CLASS_DETERMINISTIC, factory=lambda dd, rng: _Scripted(dd)
    )


def record(t, x, reply):
    """Write one answered query as a one-row block."""
    t.extend(np.asarray(x, dtype=float)[None, :], [reply.value], reply.subgrad[None, :],
             [reply.differentiable])


def test_transcript_extend_guards():
    t = Transcript(T=2, d=3)
    record(t, np.zeros(3), FirstOrderReply(0.0, np.zeros(3), False))
    with pytest.raises(DimensionMismatchError):
        record(t, np.zeros(2), FirstOrderReply(0.0, np.zeros(3), False))
    with pytest.raises(DimensionMismatchError):
        record(t, np.zeros(3), FirstOrderReply(0.0, np.zeros(2), False))
    with pytest.raises(DimensionMismatchError):
        t.extend(np.zeros((1, 3)), [0.0, 1.0], np.zeros((1, 3)), [True])
    record(t, np.ones(3), FirstOrderReply(1.0, np.ones(3), True))
    with pytest.raises(DegenerateInputError):
        record(t, np.zeros(3), FirstOrderReply(0.0, np.zeros(3), False))
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
        AlgorithmDescriptor(name="x", class_tag="mystery", factory=lambda d, rng: _Scripted(d))


def test_jsonl_round_trip_is_exact():
    tr = play(scripted_descriptor(4), norm_oracle, T=3, d=4)
    back = Transcript.from_jsonl(tr.to_jsonl())
    assert back.T == 3 and back.d == 4
    for name in ("queries", "values", "subgrads", "differentiable"):
        assert getattr(tr, name).tobytes() == getattr(back, name).tobytes()
    for empty in ("", "\n", "  \n\n"):
        with pytest.raises(DegenerateInputError):
            Transcript.from_jsonl(empty)


def test_validate_span_accepts_subgradient_method():
    tr = play(subgradient_method(), norm_oracle, T=6, d=4)
    ok, idx = validate_span(tr)
    assert ok and idx is None


def test_validate_span_flags_violations():
    # nonzero first query (violations are reported with 1-based indices)
    t = Transcript(T=1, d=2)
    record(t, [1.0, 0.0], FirstOrderReply(1.0, np.array([1.0, 0.0]), True))
    ok, idx = validate_span(t)
    assert not ok and idx == 1

    # second query leaves the span of the first reply
    t2 = Transcript(T=2, d=2)
    record(t2, np.zeros(2), FirstOrderReply(0.0, np.array([0.0, 1.0]), True))
    record(t2, [1.0, 0.0], FirstOrderReply(1.0, np.array([1.0, 0.0]), True))
    ok2, idx2 = validate_span(t2)
    assert not ok2 and idx2 == 2


def reference_validate_span(transcript, tol=1e-8):
    """The per-vector Gram-Schmidt loop that the matrix kernel replaced."""
    basis = []
    for t, (x, reply) in enumerate(zip(transcript.queries, transcript.replies), start=1):
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
            record(t, x, FirstOrderReply(0.0, g, True))
            x = x + rng.normal() * g
        yield t


def perturbed(transcript, rng, scale):
    t = Transcript(T=transcript.T, d=transcript.d)
    bad = int(rng.integers(len(transcript)))
    for i, (x, reply) in enumerate(zip(transcript.queries, transcript.replies)):
        record(t, x + scale * rng.normal(size=len(x)) if i == bad else x, reply)
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


def test_query_distances():
    t = Transcript(T=2, d=2)
    record(t, np.zeros(2), FirstOrderReply(0.0, np.zeros(2), False))
    record(t, [3.0, 0.0], FirstOrderReply(3.0, np.array([1.0, 0.0]), True))
    assert query_distances(t, [0.0, 4.0]).tolist() == [4.0, 5.0]
    assert query_distances(t, [3.0, 0.0]).min() == 0.0
    with pytest.raises(DimensionMismatchError):
        query_distances(t, [0.0, 0.0, 0.0])
    with pytest.raises(DegenerateInputError):
        query_distances(Transcript(T=1, d=2), [0.0, 0.0])


# ---------------------------------------------------------------------------
# the block path: one batched call and one block write per answered block
# ---------------------------------------------------------------------------


def block_games():
    """(descriptor, oracle with a batch form, T, d, seed) of games answered in blocks."""
    spiral, channel = Spiral(), ChannelInstance(w=[0.02, -0.01, 0.015])
    for fn in (spiral, Warga(), channel):
        yield goldstein_descent(delta=0.5, samples_per_step=8), fn, 31, fn.dim, 5
        yield smoothed_gradient_method(delta=0.5, samples_per_step=6), fn, 29, fn.dim, 6
    T, d = 6, 12
    composed, _ = build_channel_instance(ChannelAdversaryConfig(), subgradient_method(), T, d)
    yield subgradient_method(), composed, T, d, None


@pytest.mark.parametrize("desc, fn, T, d, seed", list(block_games()))
def test_block_write_matches_per_row_answers(desc, fn, T, d, seed):
    rngs = [None if seed is None else np.random.default_rng(seed) for _ in range(2)]
    block = play(desc, fn.eval, T, d, rng=rngs[0])
    scalar = play(desc, lambda x: fn.eval(x), T, d, rng=rngs[1])  # a closure: asked row by row
    assert block.to_jsonl() == scalar.to_jsonl()


class _Fixed(QueryPolicy):
    def __init__(self, block):
        self.block = block

    def next_queries(self, transcript, budget):
        return self.block


def fixed_descriptor(block):
    return AlgorithmDescriptor("fixed", CLASS_DETERMINISTIC, lambda d, rng: _Fixed(block))


class _ShortSpiral(Spiral):
    """Answers every block but its last row."""

    def eval_batch(self, X):
        return tuple(part[:-1] for part in super().eval_batch(X))


class _WideSpiral(Spiral):
    def eval_batch(self, X):
        values, grads, *rest = super().eval_batch(X)
        return values, np.hstack([grads, grads]), *rest


class _NanSpiral(Spiral):
    def eval_batch(self, X):
        values, grads, *rest = super().eval_batch(X)
        return values, np.where(grads > 0.0, np.nan, grads), *rest


def widened_after(rows):
    """A closure answering as the spiral, with one extra subgradient entry from row ``rows`` on."""
    asked = []

    def oracle(x):
        asked.append(x)
        reply = Spiral().eval(x)
        if len(asked) > rows:
            return FirstOrderReply(reply.value, np.append(reply.subgrad, 0.0), True)
        return reply

    return oracle


def failing_at(row):
    asked = []

    def oracle(x):
        asked.append(x)
        if len(asked) > row:
            raise ValueError("boom")
        return Spiral().eval(x)

    return oracle


def test_block_reply_of_the_wrong_shape_or_non_finite_is_rejected():
    block = np.array([[0.1, 0.2], [0.3, -0.4]])
    desc = fixed_descriptor(block)
    # every reply too wide, or only the second (a ragged block), through the per-row answers
    for oracle in (_ShortSpiral().eval, _WideSpiral().eval, widened_after(0), widened_after(1)):
        with pytest.raises(DimensionMismatchError):
            play(desc, oracle, 2, 2)
    with pytest.raises(OracleFailure, match="non-finite"):
        play(desc, _NanSpiral().eval, 2, 2)
    with pytest.raises(OracleFailure, match="boom") as info:
        play(desc, failing_at(1), 2, 2)
    assert any(np.array_equal(info.value.query, q) for q in block)
    with pytest.raises(DimensionMismatchError):
        play(fixed_descriptor(np.zeros((2, 3))), Spiral().eval, 2, 2)
    with pytest.raises(DegenerateInputError, match="non-finite"):
        play(fixed_descriptor(np.array([[0.0, np.inf]])), Spiral().eval, 1, 2)


def test_transcript_views_are_read_only():
    tr = play(scripted_descriptor(3), norm_oracle, T=2, d=3)
    for name in ("queries", "values", "subgrads", "differentiable"):
        view = getattr(tr, name)
        assert len(view) == 2 and not view.flags.writeable
    with pytest.raises(DegenerateInputError):
        tr.extend(np.zeros((1, 3)), [0.0], np.zeros((1, 3)), [True])


# ---------------------------------------------------------------------------
# JSON lines: today's text, exact round trips, typed errors
# ---------------------------------------------------------------------------

# signed zeros, subnormals and entries near the top of the range
SPECIAL_ENTRIES = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300)


@st.composite
def transcript_rows(draw):
    """Rows of a game, (queries, values, subgradients, flags), with special entries planted."""
    T, d = draw(st.integers(1, 12)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q, G = (rng.standard_normal((T, d)) * 10.0 ** rng.uniform(-8.0, 8.0, size=(T, d)) for _ in "QG")
    V = rng.standard_normal(T)
    planted = st.tuples(st.integers(0, 10**6), st.sampled_from(SPECIAL_ENTRIES))
    for place, value in draw(st.lists(planted, max_size=12)):
        rows = (Q, V, G)[place % 3]
        rows.flat[place // 3 % rows.size] = value
    return Q, V, G, rng.random(T) < 0.5


def reference_jsonl(Q, V, G, flags) -> str:
    """The text of one ``json.dumps`` per row, as the transcript wrote it row by row."""
    lines = [
        json.dumps(
            {
                "index": i,
                "query": q.tolist(),
                "value": float(v),
                "subgrad": g.tolist(),
                "differentiable": bool(f),
            }
        )
        for i, (q, v, g, f) in enumerate(zip(Q, V, G, flags), start=1)
    ]
    return "\n".join(lines) + "\n"


@ENVELOPE_PROFILE
@given(transcript_rows())
def test_jsonl_text_and_round_trip_over_drawn_rows(rows):
    Q, V, G, flags = rows
    t = Transcript(T=len(Q), d=Q.shape[1])
    t.extend(Q, V, G, flags)
    text = t.to_jsonl()
    assert text == reference_jsonl(Q, V, G, flags)
    back = Transcript.from_jsonl(text)
    assert (back.T, back.d) == Q.shape
    for got, want in ((back.queries, Q), (back.values, V), (back.subgrads, G)):
        assert got.tobytes() == want.tobytes()
    assert back.differentiable.tolist() == flags.tolist()
    assert back.same_bits(t) and t.same_bits(back)
    lines = text.splitlines()
    for key in ("query", "subgrad"):
        last = json.loads(lines[-1])
        last[key] = last[key] + [1.0]
        with pytest.raises(DimensionMismatchError):
            Transcript.from_jsonl("\n".join(lines[:-1] + [json.dumps(last)]))


def test_jsonl_with_a_non_finite_reply_is_rejected():
    line = '{"index": 1, "query": [0.0], "value": NaN, "subgrad": [1.0], "differentiable": true}'
    with pytest.raises(DegenerateInputError, match="non-finite"):
        Transcript.from_jsonl(line)


def test_jsonl_with_a_non_finite_query_is_rejected():
    line = '{"index": 1, "query": [NaN], "value": 0.0, "subgrad": [1.0], "differentiable": true}'
    with pytest.raises(DegenerateInputError, match="non-finite"):
        Transcript.from_jsonl(line)


@pytest.mark.parametrize("flag", ['"no"', "1", "null"])
def test_jsonl_with_a_non_boolean_flag_is_rejected(flag):
    line = f'{{"index": 1, "query": [0.0], "value": 0.0, "subgrad": [1.0], "differentiable": {flag}}}'
    with pytest.raises(DegenerateInputError, match="true or false"):
        Transcript.from_jsonl(line)


JSONL_ROW = {"index": 1, "query": [0.0, 1.0], "value": 0.5, "subgrad": [1.0, 0.0], "differentiable": True}


def _row_two(**fields):
    """A two-row document whose second row is row 1 with ``fields`` changed;
    a field given as ``...`` is left out."""
    second = {**JSONL_ROW, "index": 2, **fields}
    return json.dumps(JSONL_ROW) + "\n" + json.dumps({k: v for k, v in second.items() if v is not ...})


@pytest.mark.parametrize(
    "text,error,message",
    [
        (_row_two(query=...), DegenerateInputError, "row 2 has no 'query'"),
        (_row_two(value=...), DegenerateInputError, "row 2 has no 'value'"),
        (_row_two(subgrad=...), DegenerateInputError, "row 2 has no 'subgrad'"),
        (_row_two(differentiable=...), DegenerateInputError, "row 2 has no 'differentiable'"),
        (json.dumps(JSONL_ROW) + "\n[1, 2]", DegenerateInputError, "row 2 is not an object"),
        ("[1, 2]", DegenerateInputError, "row 1 is not an object"),
        (json.dumps({**JSONL_ROW, "query": 5}), DimensionMismatchError, "query of transcript row 1"),
        (_row_two(query=5), DimensionMismatchError, r"query of transcript row 2 has shape \(\)"),
        (_row_two(value="a"), DegenerateInputError, "value of transcript row 2 does not read"),
        (_row_two(value=[1.0]), DimensionMismatchError, "value of transcript row 2 has shape"),
        (_row_two(subgrad=[1.0, "x"]), DegenerateInputError, "subgrad of transcript row 2"),
        (
            json.dumps({**JSONL_ROW, "subgrad": [1.0, 0.0, 0.0]}),
            DimensionMismatchError,
            r"subgrad of transcript row 1 has shape \(3,\), not \(2,\)",
        ),
    ],
    ids=[
        "no-query", "no-value", "no-subgrad", "no-flag", "list-row-2", "list-row-1",
        "number-query-row-1", "number-query-row-2", "string-value", "list-value",
        "string-subgrad-entry", "long-subgrad",
    ],
)
def test_jsonl_with_a_malformed_row_names_its_field_and_row(text, error, message):
    with pytest.raises(error, match=message):
        Transcript.from_jsonl(text)
