"""Bundled first-order methods, each wrapped as an oracle-game algorithm.

All methods start at the origin and spend their whole budget through
``next_query``: line-search probes and smoothing samples are oracle queries
like any other, so a game of T queries really is T oracle calls.

Solver names registered for the harness: "subgrad", "steepest", "smoothed",
"goldstein".  A descriptor is a name, a class tag and a policy factory; the
settings a solver was built with live in its policies, and reports echo the
config that named them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from nearstat.errors import DegenerateInputError, count, number
from nearstat.oracle_game import (
    CLASS_LINEAR_SPAN,
    CLASS_RANDOMIZED,
    AlgorithmDescriptor,
    QueryPolicy,
)
from nearstat.stationarity import min_norm_point
from nearstat.vectorspace import ball_norm_limit, sample_ball_batch
from nearstat.zoo import batch_oracle

SCHEDULE_CONSTANT = "constant"
SCHEDULE_INVERSE_SQRT = "inverse_sqrt"

_PROBE_SCALE = 1e-3


@dataclass(frozen=True)
class StepSchedule:
    """Step-size rule eta_t for t = 1, 2, ...: ``scale`` for the constant kind,
    ``scale / sqrt(t)`` for inverse_sqrt; scale must be positive."""

    kind: str = SCHEDULE_CONSTANT
    scale: float = 0.1

    def __post_init__(self):
        if self.kind not in (SCHEDULE_CONSTANT, SCHEDULE_INVERSE_SQRT):
            raise DegenerateInputError(f"unknown schedule kind {self.kind!r}")
        if number("schedule scale", self.scale) <= 0.0:
            raise DegenerateInputError("schedule scale must be positive")

    def step(self, t: int) -> float:
        if self.kind == SCHEDULE_CONSTANT:
            return self.scale
        return self.scale / math.sqrt(t)


class _SubgradientPolicy(QueryPolicy):
    """x_{t+1} = x_t - eta_t g_t, derived from the transcript alone."""

    def __init__(self, d: int, schedule: StepSchedule):
        self.d = d
        self.schedule = schedule

    def next_query(self, transcript):
        t = len(transcript)
        if not t:
            return np.zeros(self.d)
        return transcript.queries[-1] - self.schedule.step(t) * transcript.subgrads[-1]


def subgradient_method(schedule: StepSchedule | None = None) -> AlgorithmDescriptor:
    schedule = schedule if schedule is not None else StepSchedule()
    return AlgorithmDescriptor(
        name="subgrad",
        class_tag=CLASS_LINEAR_SPAN,
        factory=lambda d, rng: _SubgradientPolicy(d, schedule),
    )


class _SteepestPolicy(QueryPolicy):
    """Exact line search on a quadratic, one value probe per step.

    Queries alternate iterate, probe: the probe at x + s d (d = -g) pins the
    curvature of the one-dimensional restriction, giving the exact minimizing
    step eta = ||g||^2 / (2 kappa) with kappa = (f_probe - f - s g.d) / s^2.
    """

    def __init__(self, d: int):
        self.d = d

    @staticmethod
    def _resolvable(x, g) -> bool:
        # the probe offset s*g must move the value by more than the
        # floating-point resolution of points at ||x|| scale, otherwise the
        # curvature estimate is pure cancellation noise
        return float(np.linalg.norm(g)) > 1e-9 * max(1.0, float(np.linalg.norm(x)))

    def next_query(self, transcript):
        t = len(transcript)
        if not t:
            return np.zeros(self.d)
        if t % 2 == 1:
            x, g = transcript.queries[-1], transcript.subgrads[-1]
            if not self._resolvable(x, g):
                return x.copy()
            s = _PROBE_SCALE * max(1.0, float(np.linalg.norm(x)))
            return x - s * g
        x, g = transcript.queries[-2], transcript.subgrads[-2]
        value, probe_value = transcript.values[-2:].tolist()
        gn2 = float(g @ g)
        if not self._resolvable(x, g):
            return x.copy()
        s = _PROBE_SCALE * max(1.0, float(np.linalg.norm(x)))
        kappa = (probe_value - value + s * gn2) / (s * s)
        if not np.isfinite(kappa) or kappa <= 0.0:
            raise DegenerateInputError(
                f"line-search curvature {kappa!r} is unusable; oracle is not a"
                " strictly convex quadratic along the probe direction"
            )
        return x - (gn2 / (2.0 * kappa)) * g


def steepest_descent_exact() -> AlgorithmDescriptor:
    return AlgorithmDescriptor(
        name="steepest",
        class_tag=CLASS_LINEAR_SPAN,
        factory=lambda d, rng: _SteepestPolicy(d),
    )


def smoothed_estimates(oracle, x, offsets) -> tuple[np.ndarray, np.ndarray]:
    """Values and subgradients of ``oracle`` at ``x + offsets`` (rows).

    The raw per-sample arrays let callers couple estimators across nearby
    base points by reusing one offset batch.
    """
    x = np.asarray(x, dtype=float)
    points = x + np.atleast_2d(np.asarray(offsets, dtype=float))
    values, grads, _ = batch_oracle(oracle)(points)
    return values, grads


class _SmoothedPolicy(QueryPolicy):
    """Steps along the negative ball-average of sampled subgradients.

    Each round's samples are drawn with one sampler call when the round
    starts; :meth:`next_queries` hands out slices of them, so a game's rows do
    not depend on how many rows each call asks for.
    """

    def __init__(self, d: int, rng, delta: float, samples_per_step: int, schedule: StepSchedule):
        if rng is None:
            raise DegenerateInputError("smoothed method needs an rng")
        self.d = d
        self.rng = rng
        self.delta = delta
        self.samples = samples_per_step
        self.schedule = schedule
        self.center = np.zeros(d)
        self.pending = 0
        self.steps_done = 0

    def next_query(self, transcript):
        return self.next_queries(transcript, 1)[0]

    def next_queries(self, transcript, budget):
        if self.pending == self.samples:
            grads = transcript.subgrads[-self.samples :]
            self.steps_done += 1
            self.center = self.center - self.schedule.step(self.steps_done) * grads.mean(axis=0)
            self.pending = 0
        if self.pending == 0:
            self.round = self.center + sample_ball_batch(self.d, self.delta, self.samples, self.rng)
        rows = self.round[self.pending : self.pending + budget]
        self.pending += len(rows)
        return rows


def smoothed_gradient_method(
    delta: float, samples_per_step: int, schedule: StepSchedule | None = None
) -> AlgorithmDescriptor:
    if number("delta", delta) <= 0.0:
        raise DegenerateInputError("smoothing radius must be positive")
    if count("samples_per_step", samples_per_step) < 1:
        raise DegenerateInputError("need at least one sample per step")
    schedule = schedule if schedule is not None else StepSchedule()
    return AlgorithmDescriptor(
        name="smoothed",
        class_tag=CLASS_RANDOMIZED,
        factory=lambda d, rng: _SmoothedPolicy(d, rng, delta, samples_per_step, schedule),
    )


class _GoldsteinPolicy(QueryPolicy):
    """Minimum-norm hull step over delta-ball subgradients, with early stop.

    Each round queries the center then the ball samples (or a fixed stencil),
    all drawn when the round starts and handed out in slices, solves for the
    minimum-norm convex combination, and either stops (all further queries
    sit at the center) or steps along its negation.
    """

    def __init__(self, d, rng, delta, samples_per_step, schedule, eps_stop, stencil):
        self.d = d
        self.delta = delta
        self.schedule = schedule
        self.eps_stop = eps_stop
        self.rng = rng
        self.stencil = None
        if stencil is not None:
            for off in stencil:
                if off.shape != (d,):
                    raise DegenerateInputError(
                        f"stencil offset has shape {off.shape}, expected ({d},)"
                    )
            self.stencil = np.array(stencil).reshape(len(stencil), d)
            self.round_size = 1 + len(stencil)
        else:
            if rng is None:
                raise DegenerateInputError("ball sampling needs an rng")
            self.round_size = 1 + samples_per_step
        self.center = np.zeros(d)
        self.pending = 0
        self.steps_done = 0
        self.stopped = False

    def next_query(self, transcript):
        return self.next_queries(transcript, 1)[0]

    def next_queries(self, transcript, budget):
        if not self.stopped and self.pending == self.round_size:
            result = min_norm_point(transcript.subgrads[-self.round_size :])
            self.steps_done += 1
            self.pending = 0
            if result.converged and result.norm <= self.eps_stop:
                self.stopped = True
            else:
                self.center = self.center - self.schedule.step(self.steps_done) * result.point
        if self.stopped:
            return np.tile(self.center, (budget, 1))
        if self.pending == 0:
            offsets = self.stencil
            if offsets is None:
                offsets = sample_ball_batch(self.d, self.delta, self.round_size - 1, self.rng)
            self.round = np.vstack([self.center, self.center + offsets])
        rows = self.round[self.pending : self.pending + budget]
        self.pending += len(rows)
        return rows


def goldstein_descent(
    delta: float,
    samples_per_step: int | None = None,
    schedule: StepSchedule | None = None,
    eps_stop: float = 1e-8,
    stencil=None,
) -> AlgorithmDescriptor:
    """Each round samples ``samples_per_step`` points of the delta-ball (32 when
    not given), or asks a fixed ``stencil`` of offsets, which takes no count."""
    if number("delta", delta) <= 0.0:
        raise DegenerateInputError("ball radius must be positive")
    if stencil is not None and samples_per_step is not None:
        raise DegenerateInputError("a stencil fixes each round, so it takes no samples_per_step")
    if stencil is None:
        samples_per_step = 32 if samples_per_step is None else samples_per_step
        if count("samples_per_step", samples_per_step) < 1:
            raise DegenerateInputError("need at least one sample per step")
    if number("eps_stop", eps_stop) < 0.0:
        raise DegenerateInputError("stopping threshold must be nonnegative")
    if stencil is not None:
        stencil = [
            np.array([number("stencil entry", v) for v in offset], dtype=float)
            for offset in stencil
        ]
        if any(float(np.linalg.norm(offset)) > ball_norm_limit(delta) for offset in stencil):
            raise DegenerateInputError("stencil offset outside the delta-ball")
    schedule = schedule if schedule is not None else StepSchedule()
    return AlgorithmDescriptor(
        name="goldstein",
        class_tag=CLASS_RANDOMIZED,
        factory=lambda d, rng: _GoldsteinPolicy(
            d, rng, delta, samples_per_step, schedule, eps_stop, stencil
        ),
    )


SOLVERS = {
    "subgrad": subgradient_method,
    "steepest": steepest_descent_exact,
    "smoothed": smoothed_gradient_method,
    "goldstein": goldstein_descent,
}


def build_solver(name: str, **params) -> AlgorithmDescriptor:
    """Construct a bundled solver by registry name.

    ``schedule`` may be passed as a dict of :class:`StepSchedule` fields.
    """
    if name not in SOLVERS:
        raise DegenerateInputError(f"unknown solver {name!r}; choose from {sorted(SOLVERS)}")
    schedule = params.get("schedule")
    if isinstance(schedule, dict):
        params["schedule"] = StepSchedule(**schedule)
    elif schedule is not None and not isinstance(schedule, StepSchedule):
        raise DegenerateInputError(f"schedule {schedule!r} must be a table of step-size fields")
    return SOLVERS[name](**params)
