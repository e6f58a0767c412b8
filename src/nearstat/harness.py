"""Experiment configuration, named experiment runners, property-verification
suites, figure grids, and JSON report assembly.

Verdict records carry the acceptance-criterion identifier (AC1..AC10) they
substantiate, so a report is auditable against the stated claims.  All
randomness flows from one 64-bit master seed through per-role streams
("algorithm", "adversary", "certifier").
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import operator
import os
import stat
import time
from dataclasses import dataclass, field

import numpy as np

from nearstat import adversaries, solvers, stationarity, zoo
from nearstat.errors import (
    ClampRegionError,
    ConfigError,
    DegenerateInputError,
    DimensionMismatchError,
    count,
    number,
)
from nearstat.oracle_game import (
    CLASS_RANDOMIZED,
    AlgorithmDescriptor,
    Transcript,
    play,
    query_distances,
)
from nearstat.vectorspace import as_vector, derive_stream, row_norms, sample_ball_batch

_SQRT2 = math.sqrt(2.0)

ENV_OUTPUT_DIR = "NEARSTAT_OUTPUT_DIR"
DEFAULT_OUTPUT_DIR = "nearstat_out"

# the experiments that build a channel instance against the solver, and the
# adversary mode each picks w in; the chain experiments pick deterministically
CHANNEL_MODES = {
    "theorem1": adversaries.MODE_DETERMINISTIC,
    "theorem1_randomized": adversaries.MODE_RANDOMIZED,
}
CHANNEL_EXPERIMENTS = tuple(CHANNEL_MODES)
# AC7: at most this fraction of randomized trials may align >= 1/3 with w
AC7_MAX_FAILURE_FRACTION = 0.02


def randomized_alignment_bound(T: int, d: int) -> float:
    """T exp(-d/18): chance that a random w aligns >= 1/3 with one of T directions."""
    return T * math.exp(-d / 18.0)


def randomized_min_d(T: int) -> int:
    """Smallest d at which the alignment bound meets AC7's failure fraction."""
    d = 1
    while randomized_alignment_bound(T, d) > AC7_MAX_FAILURE_FRACTION:
        d += 1
    return d


def role_streams(
    seed: int, roles: tuple[str, ...] = ("algorithm", "adversary", "certifier")
) -> dict[str, np.random.Generator]:
    return {role: derive_stream(seed, role) for role in roles}


def channel_streams(seed: int, acfg: adversaries.ChannelAdversaryConfig) -> dict:
    """The streams a channel build reads: the algorithm's, and the adversary's
    when w is drawn from the sphere."""
    randomized = acfg.mode == adversaries.MODE_RANDOMIZED
    return role_streams(seed, ("algorithm", "adversary") if randomized else ("algorithm",))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _config_errors():
    """Turn what a constructor or an argument check raises on a bad parameter into
    a ConfigError; a DimensionMismatchError is a stencil offset of the wrong length."""
    try:
        yield
    except (TypeError, DegenerateInputError, DimensionMismatchError) as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class ExperimentConfig:
    experiment: str
    T: int = 10
    d: int | None = None
    seed: int = 12345
    trials: int = 100
    solver: dict = field(default_factory=lambda: {"name": "subgrad"})
    adversary: dict = field(default_factory=dict)
    output_path: str | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        with _config_errors():
            return cls(**doc)

    def validate(self) -> "ExperimentConfig":
        """A copy with d resolved, proven by :func:`resolve`."""
        return resolve(self)[0]

    def echo(self) -> dict:
        return dataclasses.asdict(self)


ExperimentConfig._FIELDS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))


def resolve(
    cfg: ExperimentConfig, channel: bool = False
) -> tuple[ExperimentConfig, AlgorithmDescriptor, adversaries.ChannelAdversaryConfig]:
    """What a config runs, each piece proven by building it: the config with d
    resolved, its solver (and the policy at d), and its adversary in
    ``adversary.mode`` or else the experiment's mode; also the chain quadratic
    and the rotation.  The channel envelope is checked, and ||w|| resolved, for
    the channel experiments, and for any experiment when ``channel`` is set;
    a channel whose w is drawn from the sphere also needs d >= randomized_min_d(T).
    A config that builds no channel has no use for an ``adversary`` table."""
    if cfg.experiment not in EXPERIMENT_NAMES:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}; choose from {EXPERIMENT_NAMES}")
    randomized = cfg.experiment == "theorem1_randomized"
    channel = channel or cfg.experiment in CHANNEL_EXPERIMENTS
    if cfg.adversary and not channel:
        raise ConfigError(
            f"experiment {cfg.experiment!r} builds no channel, so its adversary table"
            f" {cfg.adversary!r} would be ignored"
        )
    with _config_errors():
        for name in ("T", "seed", "trials") if cfg.d is None else ("T", "d", "seed", "trials"):
            count(name, getattr(cfg, name))
        mode = CHANNEL_MODES.get(cfg.experiment, adversaries.MODE_DETERMINISTIC)
        acfg = adversaries.ChannelAdversaryConfig(**{"mode": mode, **cfg.adversary})
        if randomized and acfg.mode != mode:
            raise ConfigError(f"theorem1_randomized draws w at random, not in mode {acfg.mode!r}")
        sphere = channel and acfg.mode == adversaries.MODE_RANDOMIZED
        d = cfg.d
        if d is None:
            d = randomized_min_d(cfg.T) if sphere else 2 * cfg.T
        if randomized and cfg.trials < 1:
            raise ConfigError("trials must be >= 1")
        if sphere and d < (d_min := randomized_min_d(cfg.T)):
            raise ConfigError(
                f"a w drawn in {adversaries.MODE_RANDOMIZED!r} mode needs d >= {d_min} at"
                f" T = {cfg.T}: below it the alignment bound T exp(-d/18) exceeds AC7's"
                f" {AC7_MAX_FAILURE_FRACTION}"
            )
        cfg = dataclasses.replace(cfg, d=d)
        if not isinstance(cfg.solver, dict):
            raise ConfigError(f"solver must be a table of solver fields, not {cfg.solver!r}")
        descriptor = solvers.build_solver(**cfg.solver)
        descriptor.fresh_policy(d, derive_stream(cfg.seed, "algorithm"))
        if channel:
            acfg.w_norm = acfg.check_envelope(descriptor, cfg.T, d)
        hq = adversaries.HardQuadratic(T=cfg.T, d=d)
        if cfg.experiment == "det_lower_bound":
            adversaries.RotationBuilder(base=hq)
    return cfg, descriptor, acfg


def adversary_experiment(adversary) -> str:
    """The channel experiment whose mode an ``adversary`` table names, theorem1
    by default: what the ``adversary`` command runs when no experiment is given."""
    mode = adversary.get("mode") if isinstance(adversary, dict) else None
    return next((e for e, m in CHANNEL_MODES.items() if m == mode), "theorem1")


def parse_override_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def apply_override(doc: dict, dotted: str, raw_value: str) -> None:
    """Set ``doc[a][b]... = value`` for a flag like ``--a.b`` (JSON-parsed)."""
    parts = dotted.split(".")
    if parts[0] not in ExperimentConfig._FIELDS:
        raise ConfigError(f"unknown config field {parts[0]!r} in override --{dotted}")
    node = doc
    for p in parts[:-1]:
        nxt = node.get(p)
        if nxt is None:
            nxt = node[p] = {}
        if not isinstance(nxt, dict):
            raise ConfigError(f"override --{dotted} descends into non-table field {p!r}")
        node = nxt
    node[parts[-1]] = parse_override_value(raw_value)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    criterion: str  # acceptance criterion id, e.g. "AC1"
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass
class Report:
    kind: str
    config: dict
    verdicts: list[CheckResult]
    records: dict = field(default_factory=dict)
    certificates: list[dict] = field(default_factory=list)
    timing_seconds: float = 0.0
    transcripts: dict = field(default_factory=dict)  # name -> JSONL text

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_json(self) -> dict:
        """Every field but the transcripts, which go to files of their own, then
        ``all_passed``; shallow, as ``dataclasses.asdict`` deep-copies every record."""
        doc = dict(vars(self), verdicts=[dict(vars(v)) for v in self.verdicts])
        del doc["transcripts"]
        doc["all_passed"] = self.all_passed
        return doc


def resolve_output_dir(config_path: str | None) -> str:
    if config_path:
        return config_path
    return os.environ.get(ENV_OUTPUT_DIR, DEFAULT_OUTPUT_DIR)


def write_output(path: str, text: str) -> None:
    """Write ``text`` to ``path``.  A regular file or symlink there is deleted
    and a new file created, which costs less than truncating the old one; any
    other path (a device such as ``/dev/null``, a FIFO) is opened for writing."""
    with contextlib.suppress(FileNotFoundError):
        mode = os.lstat(path).st_mode
        if stat.S_ISREG(mode) or stat.S_ISLNK(mode):
            os.unlink(path)
    with open(path, "w") as fh:
        fh.write(text)


def write_files(out_dir: str, texts: dict[str, str]) -> list[str]:
    """Write each named text to ``out_dir`` with :func:`write_output`; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, name) for name in texts]
    for path, text in zip(paths, texts.values()):
        write_output(path, text)
    return paths


def write_report_files(report: Report, out_dir: str) -> list[str]:
    texts = {f"{name}.jsonl": jsonl for name, jsonl in report.transcripts.items()}
    return write_files(out_dir, {"report.json": json.dumps(report.to_json()) + "\n", **texts})


# ---------------------------------------------------------------------------
# named experiments
# ---------------------------------------------------------------------------


def _exp_t_verdict(criterion: str, minimizer: str, distances, T: int, solver: str) -> CheckResult:
    """The span lower bound: no iterate comes within exp(-T) of ``minimizer``."""
    mind = float(distances.min())
    bound = math.exp(-T)
    name = f"min iterate distance to {minimizer} >= exp(-T)"
    return CheckResult(
        criterion, name, mind >= bound, {"min_distance": mind, "bound": bound, "solver": solver}
    )


def run_quad_lower_bound(cfg: ExperimentConfig, descriptor, acfg) -> dict:
    hq = adversaries.HardQuadratic(T=cfg.T, d=cfg.d)
    rng = derive_stream(cfg.seed, "algorithm")
    transcript = play(descriptor, adversaries.chain_quadratic_oracle(hq), cfg.T, cfg.d, rng=rng)
    distances = query_distances(transcript, hq.x_star)
    return {
        "verdicts": [_exp_t_verdict("AC1", "minimizer", distances, cfg.T, descriptor.name)],
        "records": {"distances": distances.tolist()},
        "transcripts": {"transcript": transcript.to_jsonl()},
    }


def run_det_lower_bound(cfg: ExperimentConfig, descriptor, acfg) -> dict:
    hq = adversaries.HardQuadratic(T=cfg.T, d=cfg.d)
    rb = adversaries.RotationBuilder(base=hq)
    rng = derive_stream(cfg.seed, "algorithm")
    transcript = play(descriptor, adversaries.rotation_oracle(rb), cfg.T, cfg.d, rng=rng)
    rotated = rb.materialized_map()
    distances = query_distances(transcript, rotated.x_star)
    values, grads = rotated.quad_rows(transcript.queries)
    rel_errs = np.maximum(
        np.abs(transcript.values - values) / np.maximum(1.0, np.abs(values)),
        row_norms(transcript.subgrads - grads) / np.maximum(1.0, row_norms(grads)),
    ).tolist()
    worst = max(rel_errs)
    verdicts = [
        _exp_t_verdict("AC2", "rotated minimizer", distances, cfg.T, descriptor.name),
        CheckResult(
            criterion="AC2",
            name="materialized replies match recorded replies (relative 1e-12)",
            passed=worst <= 1e-12,
            details={"worst_relative_error": worst},
        ),
    ]
    return {
        "verdicts": verdicts,
        "records": {"reply_relative_errors": rel_errs},
        "transcripts": {"transcript": transcript.to_jsonl()},
    }


def run_theorem1(cfg: ExperimentConfig, descriptor, acfg) -> dict:
    instance, diag = adversaries.build_channel_instance(
        acfg, descriptor, cfg.T, cfg.d, rng_state=channel_streams(cfg.seed, acfg)
    )
    # AC6 asks whether the algorithm, run on the composed channel, repeats its
    # distance game.  A policy's next query depends only on its rng stream and
    # the replies it has seen, so by induction over the queries it does exactly
    # when the composed channel answers every distance-game query with the
    # distance reply's bits: the first query is the same, and each equal reply
    # makes the next query the same.  This rests on eval_batch answering each
    # row with the same bits alone or in a block, so one batch over the T
    # queries and the origin gives the replies the game would get block by block.
    base = diag["transcript"]
    values, grads, diffs = instance.eval_batch(np.vstack([base.queries, np.zeros(cfg.d)]))[:3]
    answered = Transcript(T=cfg.T, d=cfg.d)
    answered.extend(base.queries, values[:-1], grads[:-1], diffs[:-1])
    identical = answered.same_bits(base)
    replay, base_text = base, base.to_jsonl()
    replay_text = base_text
    if not identical:
        # play the composed game, on a fresh stream of the role the distance
        # game drew from, to record where it diverges
        replay = play(descriptor, instance, cfg.T, cfg.d, rng=derive_stream(cfg.seed, "algorithm"))
        replay_text = replay.to_jsonl()
    h_values = replay.values.tolist()
    min_h = min(h_values)
    certs = stationarity.near_stationarity_distance_lb(instance, replay.values)
    min_cert = min(c.value for c in certs)
    h_at_zero = float(values[-1])
    verdicts = [
        CheckResult(
            criterion="AC6",
            name="composed-channel iterates identical to distance-oracle iterates",
            passed=identical,
            details={"solver": descriptor.name},
        ),
        CheckResult(
            criterion="AC6",
            name="min composed value over iterates > 0",
            passed=min_h > 0.0,
            details={"min_value": min_h},
        ),
        CheckResult(
            criterion="AC6",
            name="near-stationarity distance certificate >= 1/7 at every iterate",
            passed=min_cert >= 1.0 / 7.0,
            details={"min_certificate": min_cert},
        ),
        CheckResult(
            criterion="AC6",
            name="composed value at the origin <= 1/2",
            passed=h_at_zero <= 0.5,
            details={"value_at_zero": h_at_zero},
        ),
    ]
    records = {"h_values": h_values}
    for key in ("distances", "alignments", "coincidence_hypothesis", "w_norm"):
        records[key] = diag[key]
    return {
        "verdicts": verdicts,
        "records": records,
        "certificates": [c.to_json() for c in certs],
        "transcripts": {"transcript": replay_text, "transcript_base": base_text},
    }


def run_theorem1_randomized(cfg: ExperimentConfig, descriptor, acfg) -> dict:
    streams = channel_streams(cfg.seed, acfg)
    max_alignments = []
    game = adversaries.play_distance_game(descriptor, cfg.T, cfg.d, streams["algorithm"])
    # every trial's w from one sampler call on the adversary stream, which no game reads
    for trial, w in enumerate(game.draw_w(acfg, streams["adversary"], count=cfg.trials)):
        # a randomized solver's game consumes the algorithm stream: one per trial
        if trial and descriptor.class_tag == CLASS_RANDOMIZED:
            game = adversaries.play_distance_game(descriptor, cfg.T, cfg.d, streams["algorithm"])
        max_alignments.append(float(game.alignments(w).max()))
    failures = sum(alignment >= 1.0 / 3.0 for alignment in max_alignments)
    fraction = failures / cfg.trials
    verdict = CheckResult(
        criterion="AC7",
        name="fraction of trials with max alignment >= 1/3 is <= 2%",
        passed=fraction <= AC7_MAX_FAILURE_FRACTION,
        details={
            "failures": failures,
            "trials": cfg.trials,
            "fraction": fraction,
            "analytic_bound": randomized_alignment_bound(cfg.T, cfg.d),
        },
    )
    return {"verdicts": [verdict], "records": {"max_alignments": max_alignments}}


# each runner takes what resolve() returns, the config, its solver and its adversary,
# and returns what it found: verdicts, records, and certificates and transcripts if any
EXPERIMENTS = {
    "quad_lower_bound": run_quad_lower_bound,
    "det_lower_bound": run_det_lower_bound,
    "theorem1": run_theorem1,
    "theorem1_randomized": run_theorem1_randomized,
}
EXPERIMENT_NAMES = tuple(EXPERIMENTS)


def run_experiment(cfg: ExperimentConfig) -> Report:
    """The report of ``cfg``'s experiment: what its runner found, timed, named and echoed."""
    cfg, descriptor, acfg = resolve(cfg)
    start = time.perf_counter()
    found = EXPERIMENTS[cfg.experiment](cfg, descriptor, acfg)
    return Report(
        kind=f"experiment:{cfg.experiment}",
        config=cfg.echo(),
        timing_seconds=time.perf_counter() - start,
        **found,
    )


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

# Rows per eval_batch call in the sampled checks.  A sample group drawn from
# uniforms alone is drawn one block of this many rows at a time (each entry
# takes one draw, so the blocks hold the rows of the whole draw); a group that
# mixes normals and uniforms is drawn whole, in its own helper so that its
# arrays die when it returns, and checked in blocks.  Each block is reduced on
# the spot; the temporaries of one block of the d = 4 channel (1.2 MB at their
# peak under tracemalloc, its outputs included) stay in a 2 MB per-core L2
# cache.  eval_batch answers each row with the same bits in any block, so the
# block size moves no detail.
VERIFY_BLOCK_ROWS = 8192


def _row_blocks(n: int):
    """Slices of at most ``VERIFY_BLOCK_ROWS`` rows that cover rows 0..n-1 in order."""
    return (slice(i, i + VERIFY_BLOCK_ROWS) for i in range(0, n, VERIFY_BLOCK_ROWS))


def _uniform_blocks(rng, n: int, d: int):
    """The rows of ``rng.uniform(-2, 2, size=(n, d))``, one block at a time."""
    for start in range(0, n, VERIFY_BLOCK_ROWS):
        yield rng.uniform(-2.0, 2.0, size=(min(VERIFY_BLOCK_ROWS, n - start), d))


def _grad_norm_range(instance, X) -> tuple[float, float]:
    """The smallest and largest subgradient norm of ``instance`` over the rows of X."""
    lo, hi = math.inf, -math.inf
    for rows in _row_blocks(len(X)):
        norms = row_norms(instance.eval_batch(X[rows])[1])
        lo, hi = min(lo, float(norms.min())), max(hi, float(norms.max()))
    return lo, hi


def verify_prop1(seed: int) -> list[CheckResult]:
    """The spiral claims: stencil hull stationarity, gradient norm range."""
    rng = derive_stream(seed, "certifier")
    spiral = zoo.Spiral(delta=1.0)
    checks = []

    stencil = [np.array([0.0, 1.0]), np.array([0.0, -1.0])]
    cert = stationarity.certify_delta_eps(spiral, np.zeros(2), 1.0, 1e-8, stencil)
    checks.append(
        CheckResult(
            "AC4",
            "stencil min-norm at the origin <= 1e-8",
            cert.certified and cert.value <= 1e-8,
            {"value": cert.value},
        )
    )

    min_inner = _grad_norm_range(spiral, sample_ball_batch(2, 1.0, 100_000, rng))[0]
    checks.append(
        CheckResult(
            "AC4",
            "min gradient norm over the delta-ball >= 1 - 1e-9",
            min_inner >= 1.0 - 1e-9,
            {"min_gradient_norm": min_inner},
        )
    )

    max_outer = _grad_norm_range(spiral, sample_ball_batch(2, 2.0, 100_000, rng))[1]
    checks.append(
        CheckResult(
            "AC4",
            "max gradient norm over the 2 delta-ball <= 2 pi + 1e-9",
            max_outer <= 2.0 * math.pi + 1e-9,
            {"max_gradient_norm": max_outer},
        )
    )

    # one stencil round, then one query: a stopped descent re-asks its center
    round_size = 1 + len(stencil)
    descriptor = solvers.goldstein_descent(delta=1.0, stencil=stencil)
    transcript = play(descriptor, spiral, round_size + 1, 2)
    hull = stationarity.min_norm_point(transcript.subgrads[:round_size])
    queries = transcript.queries
    checks.append(
        CheckResult(
            "AC4",
            "stencil-driven hull descent stops with min-norm <= 1e-8",
            hull.converged and hull.norm <= 1e-8 and np.array_equal(queries[-1], queries[0]),
            {"min_norm": hull.norm},
        )
    )
    return checks


def _max_value_ratio(instance, rng, n: int, d: int) -> float:
    """Largest |f(a) - f(b)| / |a - b| over n random pairs."""
    A = rng.uniform(-2.0, 2.0, size=(n, d))
    B = rng.normal(size=(n, d))
    B *= rng.uniform(1e-6, 1.0, size=(n, 1))
    B += A
    max_ratio = 0.0
    for rows in _row_blocks(n):
        a, b = A[rows], B[rows]
        gaps = row_norms(a - b)
        va, vb = instance.eval_batch(a)[0], instance.eval_batch(b)[0]
        max_ratio = max(max_ratio, float((np.abs(va - vb) / np.where(gaps > 0, gaps, 1.0)).max()))
    return max_ratio


def _min_norm_near(instance, rng, n: int, d: int, center=None) -> float:
    """Smallest subgradient norm over n points within 1e-6 of ``center``
    (of the origin when it is None: adding a zero would turn -0.0 into +0.0)."""
    X = rng.normal(size=(n, d))
    X *= rng.uniform(0.0, 1e-6, size=(n, 1))
    if center is not None:
        X += center
    return _grad_norm_range(instance, X)[0]


def _min_norm_cone(instance, rng, n: int, d: int, w) -> float:
    """Smallest subgradient norm over n points around the hinge boundary cone:
    s = y + w at 60 degrees from w, where the hinge argument changes sign."""
    cone = rng.normal(size=(n, d))
    cone[:, 0] = 0.0
    cone /= row_norms(cone)[:, None]
    cone *= math.sqrt(3.0) / 2.0
    cone += 0.5 * (w / np.linalg.norm(w))
    cone *= rng.uniform(1e-3, 2.0, size=(n, 1))  # the radii
    noise = rng.normal(size=(n, d))
    noise *= rng.uniform(0.0, 1e-9, size=(n, 1))
    cone += noise
    del noise
    cone -= w
    return _grad_norm_range(instance, cone)[0]


def verify_channel(seed: int) -> list[CheckResult]:
    """Lipschitz ratio, no-small-subgradient, and per-region bound consistency.

    Each sample group is drawn and checked in its own helper or loop, so only
    one group's arrays are alive at a time.
    """
    rng = derive_stream(seed, "certifier")
    d = 4
    w = np.zeros(d)
    w[0] = 0.3
    instance = zoo.ChannelInstance(w=w)
    checks = []

    n_pairs = 100_000
    max_ratio = _max_value_ratio(instance, rng, n_pairs, d)
    checks.append(
        CheckResult(
            "AC5",
            "value ratio over random pairs <= 7 + 1e-6",
            max_ratio <= 7.0 + 1e-6,
            {"max_ratio": max_ratio, "pairs": n_pairs},
        )
    )

    n_bulk, n_near = 700_000, 100_000
    min_norm = min(
        min(_grad_norm_range(instance, X)[0] for X in _uniform_blocks(rng, n_bulk, d)),
        _min_norm_near(instance, rng, n_near, d),
        _min_norm_near(instance, rng, n_near, d, -w),
        _min_norm_cone(instance, rng, n_near, d, w),
    )
    checks.append(
        CheckResult(
            "AC5",
            "subgradient norms over 1e6 samples >= 1/sqrt(2) - 1e-6",
            min_norm >= 1.0 / _SQRT2 - 1e-6,
            {"min_subgradient_norm": min_norm, "samples": n_bulk + 3 * n_near},
        )
    )

    n_cons = 100_000
    norms = np.empty(n_cons)
    codes = np.empty(n_cons, dtype=np.int8)
    consistent = True
    for rows, pts in zip(_row_blocks(n_cons), _uniform_blocks(rng, n_cons, d)):
        _, grads, diffs, codes[rows] = instance.eval_batch(pts)
        norms[rows] = row_norms(grads)
        bounds = np.where(codes[rows] == zoo.CODE_HINGE_BOUNDARY, 1.0 / _SQRT2, 1.0)
        consistent &= bool(np.all(norms[rows][diffs] >= bounds[diffs] - 1e-9))
    spot_rng = derive_stream(seed, "adversary")
    spot_idx = spot_rng.choice(n_cons, size=200, replace=False)
    spot_certs = stationarity.subdiff_norm_lower_bound(instance, codes[spot_idx])
    spot_ok = not any(
        norm < cert.value - 1e-9 for norm, cert in zip(norms[spot_idx].tolist(), spot_certs)
    )
    checks.append(
        CheckResult(
            "AC5",
            "sampled gradient norms respect the per-region analytic bound",
            consistent and spot_ok,
            {"points": n_cons, "certified_spot_checks": len(spot_idx)},
        )
    )
    return checks


def verify_quadratic(seed: int) -> list[CheckResult]:
    """Chain-structure facts plus the span lower bound for bundled solvers."""
    checks = []
    spectra = {}
    ok_spec = True
    for T in (2, 5, 10):
        hq = adversaries.HardQuadratic(T=T, d=2 * T)
        lo, hi = adversaries.chain_spectrum_check(hq)
        spectra[T] = (lo, hi)
        ok_spec &= 0.5 - 1e-9 <= lo and hi <= 1.0 + 1e-9
    checks.append(
        CheckResult(
            "AC3",
            "spectrum of M within [1/2, 1] for T in {2, 5, 10}",
            ok_spec,
            {"extremes": {str(t): list(v) for t, v in spectra.items()}},
        )
    )

    hq = adversaries.HardQuadratic(T=10, d=20)
    _, grad_star = adversaries.chain_value_grad(hq, hq.x_star[None, :])
    grad_inf = float(np.max(np.abs(grad_star)))
    checks.append(
        CheckResult(
            "AC3",
            "gradient at the minimizer vanishes (sup-norm <= 1e-12)",
            grad_inf <= 1e-12,
            {"grad_inf_norm": grad_inf},
        )
    )

    q, k = adversaries.CHAIN_RATIO, adversaries.CHAIN_END_WEIGHT
    id1 = abs(1.0 - 6.0 * q + q * q)
    id2 = abs((k + 4.0) * q - 1.0)
    checks.append(
        CheckResult(
            "AC3",
            "defining identities of q and k hold to 1e-14",
            id1 <= 1e-14 and id2 <= 1e-14,
            {"residuals": [id1, id2]},
        )
    )

    norm_bound = math.sqrt((_SQRT2 - 1.0) / 2.0)
    x_star_norm = float(np.linalg.norm(hq.x_star))
    checks.append(
        CheckResult(
            "AC3",
            "minimizer norm <= sqrt((sqrt 2 - 1)/2) + 1e-12",
            x_star_norm <= norm_bound + 1e-12,
            {"x_star_norm": x_star_norm, "bound": norm_bound},
        )
    )

    rng = derive_stream(seed, "certifier")
    X = np.zeros((hq.T - 1, hq.d))
    for j in range(1, hq.T):
        X[j - 1, :j] = rng.normal(size=j)
    _, grads = adversaries.chain_value_grad(hq, X)
    worst_leak = max(float(np.max(np.abs(grad[j + 1 :]))) for j, grad in enumerate(grads, 1))
    checks.append(
        CheckResult(
            "AC3",
            "gradient support grows by one coordinate per query (span induction)",
            worst_leak <= 1e-12,
            {"worst_leak": worst_leak},
        )
    )

    ok_lb = True
    lb_details = {}
    for name in ("subgrad", "steepest"):
        for T in (2, 5, 10):
            cfg = ExperimentConfig(
                experiment="quad_lower_bound", T=T, d=2 * T, seed=seed, solver={"name": name}
            )
            report = run_experiment(cfg)
            v = report.verdicts[0]
            ok_lb &= v.passed
            lb_details[f"{name}_T{T}"] = v.details["min_distance"]
    checks.append(
        CheckResult(
            "AC1",
            "bundled span solvers stay exp(-T) away from the minimizer",
            ok_lb,
            {"min_distances": lb_details},
        )
    )
    return checks


def verify_remark(seed: int) -> list[CheckResult]:
    """The clamped pure-channel example: flat hull at 0, distance bound 1/7."""
    delta = 0.05
    d = 2
    w = np.array([delta / 2.0, 0.0])
    gtilde = zoo.clamped_channel(w)
    v = np.array([0.0, delta])
    checks = []

    values, grads = gtilde.eval_batch(np.stack([v, -v, np.zeros(d)]))[:2]
    resid = float(np.linalg.norm(0.5 * (grads[0] + grads[1])))
    checks.append(
        CheckResult(
            "AC8",
            "opposite stencil gradients cancel to 1e-12",
            resid <= 1e-12,
            {"residual": resid},
        )
    )

    cert = stationarity.certify_delta_eps(gtilde, np.zeros(d), delta, 1e-12, [v, -v])
    checks.append(
        CheckResult(
            "AC8",
            "hull certificate at the origin has value <= 1e-12",
            cert.certified and cert.value <= 1e-12,
            {"value": cert.value},
        )
    )

    [dist] = stationarity.near_stationarity_distance_lb(gtilde, values[2:])
    checks.append(
        CheckResult(
            "AC8",
            "value-gap distance bound at the origin >= 1/7 - 1e-9",
            dist.value >= 1.0 / 7.0 - 1e-9,
            {"distance_bound": dist.value},
        )
    )
    return checks


SUITES = {
    "prop1": verify_prop1,
    "channel": verify_channel,
    "quadratic": verify_quadratic,
    "remark": verify_remark,
}
VERIFY_SUITES = (*SUITES, "all")


def run_verify(suite: str, seed: int) -> Report:
    if suite not in VERIFY_SUITES:
        raise ConfigError(f"unknown verify suite {suite!r}; choose from {VERIFY_SUITES}")
    start = time.perf_counter()
    names = list(SUITES) if suite == "all" else [suite]
    verdicts: list[CheckResult] = []
    suite_seconds = {}
    for name in names:
        suite_start = time.perf_counter()
        verdicts.extend(SUITES[name](seed))
        suite_seconds[name] = time.perf_counter() - suite_start
    return Report(
        kind=f"verify:{suite}",
        config={"suite": suite, "seed": seed},
        verdicts=verdicts,
        records={"suite_seconds": suite_seconds},
        timing_seconds=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# figure grids
# ---------------------------------------------------------------------------

FIGURE_DEFAULTS = {
    "fig1": {"umin": -4.0, "umax": 4.0, "vmin": -4.0, "vmax": 4.0, "nu": 101, "nv": 101},
    "fig2": {"umin": -2.0, "umax": 2.0, "vmin": -2.0, "vmax": 2.0, "nu": 101, "nv": 101},
    "fig3": {"umin": -2.0, "umax": 2.0, "vmin": -2.0, "vmax": 2.0, "nu": 101, "nv": 101},
}


def figure_values(figure_id: str, points: np.ndarray) -> np.ndarray:
    if figure_id == "fig1":
        values, _, _ = zoo.Spiral(delta=1.0, extended=True).eval_batch(points)
    elif figure_id == "fig2":
        instance = zoo.ChannelInstance(w=np.array([0.3, 0.0]), clamp=-1.0)
        values, _, _, _ = instance.eval_batch(points)
    elif figure_id == "fig3":
        values, _, _ = zoo.Warga().eval_batch(points)
    else:
        raise ConfigError(f"unknown figure id {figure_id!r}")
    return values


def figure_csv(figure_id: str, grid: dict | None = None) -> str:
    if figure_id not in FIGURE_DEFAULTS:
        raise ConfigError(f"unknown figure id {figure_id!r}")
    spec = {**FIGURE_DEFAULTS[figure_id], **(grid or {})}
    with _config_errors():  # each field is read before any point is evaluated
        for key, val in spec.items():
            if key not in FIGURE_DEFAULTS[figure_id]:
                raise ConfigError(f"unknown grid field {key!r}")
            (count if key in ("nu", "nv") else number)(f"grid.{key}", val)
    nu, nv = spec["nu"], spec["nv"]
    if nu < 2 or nv < 2:
        raise ConfigError("grid needs at least 2 points per axis")
    us = np.linspace(spec["umin"], spec["umax"], nu)
    vs = np.linspace(spec["vmin"], spec["vmax"], nv)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    points = np.stack([uu.ravel(), vv.ravel()], axis=1)
    values = figure_values(figure_id, points).reshape(nu, nv)
    # u-major: each u is one block of nv lines "\nu,v,value", joined in C from
    # the v cells (formatted once) and the repr of that grid row's values.  One
    # join takes the header, the blocks and the last newline: adding the header
    # and newline to a joined text would copy the whole text twice more.
    v_cells = [f"{v!r}," for v in vs.tolist()]
    blocks = ["u,v,value"]
    for u, row in zip(us.tolist(), values):
        lead = f"\n{u!r},"
        blocks.append(lead + lead.join(map(operator.add, v_cells, map(repr, row.tolist()))))
    blocks.append("\n")
    return "".join(blocks)


# ---------------------------------------------------------------------------
# certification entry (shared by the CLI)
# ---------------------------------------------------------------------------


def certify_point(
    function_doc: dict,
    point,
    notion: str,
    *,
    eps: float,
    delta: float | None = None,
    samples: int | None = None,
    stencil=None,
    seed: int = 12345,
) -> tuple[list[dict], bool]:
    """Certify a point of a serialized zoo function; returns (certs, answered).

    ``answered`` means the certificates settle the question at the requested
    level: a witness, or an analytic lower bound above eps (refutation).  A
    fault in an argument (a point of the wrong dimension or not finite, a bad
    eps, delta, sample count or stencil) is a ConfigError, raised before any
    evaluation.
    """
    instance = zoo.instance_from_json(function_doc)
    x = np.asarray(point, dtype=float)
    if x.shape != (instance.dim,):
        raise ConfigError(f"--point has shape {x.shape}; the function takes ({instance.dim},)")
    if not np.isfinite(x).all():
        raise ConfigError(f"--point has non-finite entries: {x.tolist()}")
    if notion == "eps":
        with _config_errors():
            stationarity.check_eps(eps)
        out = instance.eval_batch(as_vector(x)[None, :])
        reply = zoo.FirstOrderReply(out[0][0], out[1][0], bool(out[2][0]))  # rejects non-finite
        cert = stationarity.certify_eps_stationary(x, reply.subgrad, eps)
        certs = [cert.to_json()]
        answered = cert.certified
        if not answered and isinstance(instance, zoo.ChannelInstance):
            try:
                bound = stationarity.subdiff_norm_lower_bound(instance, out[3])[0]
            except ClampRegionError:  # no bound holds in a clamp region
                return certs, answered
            certs.append(bound.to_json())
            answered = bound.value > eps
        return certs, answered
    if notion == "delta_eps":
        if delta is None:
            raise ConfigError("delta_eps certification needs --delta")
        if stencil is not None:
            if not isinstance(stencil, list):  # check_delta_eps reads an int as a count
                raise ConfigError(f"--stencil must be a list of offsets, not {stencil!r}")
            sampling, rng = stencil, None
        else:
            sampling = 64 if samples is None else samples
            rng = derive_stream(seed, "certifier")
        with _config_errors():
            stationarity.check_delta_eps(len(x), delta, eps, sampling)
        cert = stationarity.certify_delta_eps(instance, x, delta, eps, sampling, rng_state=rng)
        return [cert.to_json()], cert.certified
    raise ConfigError(f"unknown stationarity notion {notion!r}")


def build_adversary_files(cfg: ExperimentConfig) -> dict[str, str]:
    """Build a hard channel instance, whatever the experiment, and render its documents."""
    cfg, descriptor, acfg = resolve(cfg, channel=True)
    instance, diag = adversaries.build_channel_instance(
        acfg, descriptor, cfg.T, cfg.d, rng_state=channel_streams(cfg.seed, acfg)
    )
    transcript = diag.pop("transcript")
    diag["config"] = cfg.echo()
    return {
        "instance.json": zoo.instance_to_json_str(instance) + "\n",
        "diagnostics.json": json.dumps(diag) + "\n",
        "transcript.jsonl": transcript.to_jsonl(),
    }
