"""Independent computations the benchmark holds nearstat's outputs against.

Nothing here imports nearstat.  Every expected quantity is rebuilt from the
closed forms of the constructions (the chain quadratic, the channel, the
spiral, Warga's example) with plain numpy, so a check passes only when the
program and this second computation agree.  Each check raises
:class:`CheckError` with the measured quantity when it rejects an output.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

SQRT2 = math.sqrt(2.0)
CHAIN_Q = (SQRT2 - 1.0) / (SQRT2 + 1.0)
CHAIN_K = (SQRT2 + 3.0) / (SQRT2 + 1.0)
CLAMP_LIPSCHITZ = 7.0
# The documented equality tolerance of the channel's nondifferentiable sets.
REGION_TOL = 1e-12


class CheckError(AssertionError):
    """An output of the program disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# the chain quadratic, rebuilt densely
# ---------------------------------------------------------------------------


def chain_minimizer(T: int, d: int) -> np.ndarray:
    """x*_i = q^i for i <= T, zero beyond."""
    out = np.zeros(d)
    out[:T] = CHAIN_Q ** np.arange(1, T + 1)
    return out


@functools.lru_cache(maxsize=None)
def _chain_matrices(T: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    # g(x) = (x - x*)^T M (x - x*) with M = (A + 4I)/8 on the first T
    # coordinates (A = tridiag(-1, [2, ..., 2, k], -1)) and I/2 on the tail.
    M = 0.5 * np.eye(d)
    A = 2.0 * np.eye(T) - np.eye(T, k=1) - np.eye(T, k=-1)
    A[-1, -1] = CHAIN_K
    M[:T, :T] = (A + 4.0 * np.eye(T)) / 8.0
    lam, vecs = np.linalg.eigh(M)
    require(lam[0] > 0.0, f"chain matrix not positive definite: {lam[0]!r}")
    root = (vecs * np.sqrt(lam)) @ vecs.T
    return M, 0.5 * (root + root.T)


def chain_matrix(T: int, d: int) -> np.ndarray:
    return _chain_matrices(T, d)[0]


def chain_sqrt(T: int, d: int) -> np.ndarray:
    """M^(1/2) by numpy.linalg.eigh of the dense M."""
    return _chain_matrices(T, d)[1]


def check_chain_replies(queries, values, grads, T: int, d: int, distance: bool) -> None:
    """Replies of the chain quadratic (or, with ``distance``, its square root)."""
    M = chain_matrix(T, d)
    x_star = chain_minimizer(T, d)
    R = np.asarray(queries) - x_star
    MR = R @ M
    quad = np.einsum("ij,ij->i", R, MR)
    values = np.asarray(values)
    grads = np.asarray(grads)
    if distance:
        # sqrt(g) and grad g / (2 sqrt g), compared after mapping back
        require(bool(np.all(values > 0.0)), "distance oracle value not positive")
        got_quad = values * values
        got_half_grad = grads * values[:, None]
    else:
        got_quad = values
        got_half_grad = 0.5 * grads
    vtol = 1e-14 + 1e-11 * np.abs(quad)
    verr = np.abs(got_quad - quad)
    require(bool(np.all(verr <= vtol)), f"chain value off by {verr.max():.3e}")
    gerr = np.abs(got_half_grad - MR).max(axis=1)
    gtol = 1e-14 + 1e-11 * np.abs(MR).max(axis=1)
    require(bool(np.all(gerr <= gtol)), f"chain gradient off by {gerr.max():.3e}")


def check_min_distance(queries, T: int, d: int) -> float:
    """The closest iterate stays at least exp(-T) from the closed-form minimizer."""
    dist = float(np.linalg.norm(np.asarray(queries) - chain_minimizer(T, d), axis=1).min())
    require(dist >= math.exp(-T), f"iterate within {dist:.3e} < exp(-{T}) of x*")
    return dist


def check_span(queries, grads, tol: float = 1e-8) -> None:
    """x_1 = 0 and x_t lies in span(g_1 .. g_(t-1)), by QR of the reply block."""
    X = np.asarray(queries, dtype=float)
    G = np.asarray(grads, dtype=float)
    require(float(np.linalg.norm(X[0])) <= tol, "first query is not the origin")
    for t in range(1, len(X)):
        prev = np.unique(G[:t], axis=0)
        Q, _ = np.linalg.qr(prev.T)
        x = X[t]
        resid = float(np.linalg.norm(x - Q @ (Q.T @ x)))
        require(
            resid <= tol * max(1.0, float(np.linalg.norm(x))),
            f"query {t + 1} leaves the span of earlier replies (residual {resid:.3e})",
        )


# ---------------------------------------------------------------------------
# the channel, its clamp and its composition with the chain
# ---------------------------------------------------------------------------


def channel_value_grad(Y: np.ndarray, w: np.ndarray, clamp=None):
    """Value and y-space subgradient of max(clamp, ||y|| - max(4 wbar.(y+w) - 2||y+w||, 0)).

    Nondifferentiable points get the documented canonical elements: -2 wbar at
    the origin, -3 wbar at -w, ybar on the hinge boundary, and zero where the
    clamp is strictly active.
    """
    Y = np.atleast_2d(Y)
    w = np.asarray(w, dtype=float)
    wbar = w / np.linalg.norm(w)
    S = Y + w
    ny = np.linalg.norm(Y, axis=1)
    ns = np.linalg.norm(S, axis=1)
    hinge = 4.0 * (S @ wbar) - 2.0 * ns
    raw = ny - np.maximum(hinge, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        ybar = Y / ny[:, None]
        sbar = S / ns[:, None]
    grads = np.where((hinge > REGION_TOL)[:, None], ybar - (4.0 * wbar - 2.0 * sbar), ybar)
    grads[ns <= REGION_TOL] = -3.0 * wbar
    grads[ny <= REGION_TOL] = -2.0 * wbar
    if clamp is None:
        return raw, grads
    grads[raw < clamp - REGION_TOL] = 0.0
    return np.maximum(raw, clamp), grads


def composed_channel(X: np.ndarray, w, clamp, T: int, d: int):
    """The channel at y = M^(1/2)(x - x*); returns values and x-space subgradients."""
    S = chain_sqrt(T, d)
    Y = (np.atleast_2d(X) - chain_minimizer(T, d)) @ S
    values, grads_y = channel_value_grad(Y, w, clamp)
    return values, grads_y @ S


def check_close(got, expected, rtol: float, atol: float, what: str) -> None:
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    require(got.shape == expected.shape, f"{what}: shape {got.shape} != {expected.shape}")
    err = np.abs(got - expected)
    bad = err > atol + rtol * np.abs(expected)
    require(not bool(np.any(bad)), f"{what} off by {err.max():.3e}")


# ---------------------------------------------------------------------------
# the planar examples
# ---------------------------------------------------------------------------


def spiral(X: np.ndarray, delta: float = 1.0):
    """(2 delta + u) sin(pi v / (2 delta)) and its gradient (the untapered branch)."""
    X = np.atleast_2d(X)
    u, v = X[:, 0], X[:, 1]
    theta = math.pi * v / (2.0 * delta)
    values = (2.0 * delta + u) * np.sin(theta)
    grads = np.stack(
        [np.sin(theta), (math.pi / (2.0 * delta)) * (2.0 * delta + u) * np.cos(theta)], axis=1
    )
    return values, grads


def warga(X: np.ndarray):
    """||u| + v| + u/2 with the sign(0) = 0 subgradient convention."""
    X = np.atleast_2d(X)
    u, v = X[:, 0], X[:, 1]
    a = np.abs(u) + v
    values = np.abs(a) + 0.5 * u
    grads = np.stack([np.sign(a) * np.sign(u) + 0.5, np.sign(a)], axis=1)
    return values, grads


# ---------------------------------------------------------------------------
# minimum-norm points and stationarity certificates
# ---------------------------------------------------------------------------


def check_hull_optimality(grads, coefficients, norm: float, point=None, tol: float = 1e-8) -> None:
    """Coefficients >= 0 summing to 1, p = sum c_i g_i of norm ``norm``, p.g >= |p|^2 - tol.

    ``point`` is the solver's p where it is known; otherwise p is formed here
    from the coefficients.
    """
    G = np.asarray(grads, dtype=float)
    c = np.asarray(coefficients, dtype=float)
    require(c.shape == (len(G),), f"{c.shape} coefficients for {len(G)} points")
    require(bool(np.all(c >= 0.0)), f"negative hull coefficient {c.min():.3e}")
    require(abs(float(c.sum()) - 1.0) <= 1e-9, f"hull coefficients sum to {c.sum()!r}")
    scale = max(1.0, float(np.abs(G).max()))
    combo = c @ G
    p = combo if point is None else np.asarray(point, dtype=float)
    off = float(np.abs(combo - p).max())
    require(off <= 1e-9 * scale, f"point is not the stated combination (off by {off:.3e})")
    pn = float(np.linalg.norm(p))
    require(abs(pn - norm) <= 1e-9 * scale, f"stated norm {norm!r} != |p| {pn!r}")
    worst = float(np.min(G @ p)) - pn * pn
    require(worst >= -tol * scale * scale, f"p.g - |p|^2 = {worst:.3e} below -tol")


def check_smoothed_gradient(grads, plus_values, minus_values, h: float, tol: float) -> None:
    """Mean sampled subgradient against central differences of the mean value.

    ``plus_values[i]`` and ``minus_values[i]`` are the values at x +- h e_i
    over the same offset batch as ``grads``, so the coupled difference
    estimates the same smoothed gradient.
    """
    estimate = np.asarray(grads).mean(axis=0)
    for i, (plus, minus) in enumerate(zip(plus_values, minus_values)):
        fd = (float(np.mean(plus)) - float(np.mean(minus))) / (2.0 * h)
        require(
            abs(estimate[i] - fd) <= tol,
            f"smoothed gradient {estimate[i]!r} vs coupled difference {fd!r} in coordinate {i}",
        )


def check_alignment_fraction(alignments, trials: int, reported: float, limit: float = 0.02) -> None:
    """At most ``limit`` of the trials align with w by 1/3 or more, as reported."""
    align = np.asarray(alignments, dtype=float)
    require(len(align) == trials, f"{len(align)} alignments for {trials} trials")
    require(bool(np.all(np.abs(align) <= 1.0 + 1e-12)), "alignment outside [-1, 1]")
    fraction = int(np.count_nonzero(align >= 1.0 / 3.0)) / trials
    require(fraction <= limit, f"alignment fraction {fraction} > {limit}")
    require(reported == fraction, f"reported fraction {reported} != counted {fraction}")


def check_same_text(a: str, b: str, what: str) -> None:
    """Bitwise equality of two serialized documents."""
    if a != b:
        lines = zip(a.splitlines(), b.splitlines())
        at = next((i for i, (x, y) in enumerate(lines, start=1) if x != y), "the end")
        raise CheckError(f"{what} differ at line {at}")


# ---------------------------------------------------------------------------
# figure grids
# ---------------------------------------------------------------------------


def parse_csv(text: str) -> np.ndarray:
    lines = text.splitlines()
    require(lines[0] == "u,v,value", f"unexpected CSV header {lines[0]!r}")
    return np.array([[float(f) for f in line.split(",")] for line in lines[1:]])


def check_figure(figure: str, text: str, spec: dict) -> int:
    """Grid coordinates and values of a figure CSV against the closed forms.

    fig1 is the tapered spiral (delta 1), checked on its inner disk (r < 2)
    and its far zone (r > 4); fig2 is the plain channel with w = (0.3, 0)
    clamped at -1; fig3 is Warga's example.  Returns the row count.
    """
    rows = parse_csv(text)
    nu, nv = spec["nu"], spec["nv"]
    require(rows.shape == (nu * nv, 3), f"{figure}: {rows.shape[0]} rows for a {nu}x{nv} grid")
    us = spec["umin"] + (spec["umax"] - spec["umin"]) * np.arange(nu) / (nu - 1)
    vs = spec["vmin"] + (spec["vmax"] - spec["vmin"]) * np.arange(nv) / (nv - 1)
    check_close(rows[:, 0], np.repeat(us, nv), 1e-12, 1e-12, f"{figure} u grid")
    check_close(rows[:, 1], np.tile(vs, nu), 1e-12, 1e-12, f"{figure} v grid")
    P, got = rows[:, :2], rows[:, 2]
    if figure == "fig1":
        r = np.linalg.norm(P, axis=1)
        inner, far = r < 2.0 - 1e-9, r > 4.0 + 1e-9
        require(bool(inner.any() and far.any()), "fig1 grid misses the inner disk or far zone")
        check_close(got[inner], spiral(P[inner])[0], 1e-12, 1e-12, "fig1 inner disk")
        check_close(got[far], np.zeros(int(far.sum())), 0.0, 0.0, "fig1 far zone")
    elif figure == "fig2":
        expected, _ = channel_value_grad(P, np.array([0.3, 0.0]), -1.0)
        check_close(got, expected, 1e-12, 1e-12, "fig2 clamped channel")
    else:
        check_close(got, warga(P)[0], 1e-12, 1e-12, "fig3 warga")
    return len(rows)


def read_jsonl(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def transcript_arrays(rows: list[dict]):
    queries = np.array([r["query"] for r in rows], dtype=float)
    values = np.array([r["value"] for r in rows], dtype=float)
    grads = np.array([r["subgrad"] for r in rows], dtype=float)
    return queries, values, grads
