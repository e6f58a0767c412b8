"""The benchmark's trace hooks (``perfbench/tracing.py``) still fit the package.

``perfbench/run.py --trace 1`` wraps nearstat functions by module and
attribute name, so renaming one of them under ``src/`` would break the traced
benchmark run without failing anything else.
"""

import importlib.util
import pathlib

import numpy as np

import nearstat.cli  # noqa: F401  (loads every module the hooks wrap)
from nearstat import adversaries, oracle_game, solvers

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _function(raw):
    return raw.__func__ if isinstance(raw, classmethod) else raw


def test_trace_hooks_resolve_and_come_off():
    tracing = load_tracing()
    originals = {}
    for targets in tracing.TARGETS.values():
        for module, path in targets:
            owner, attr = tracing._resolve(module, path)
            originals[module, path] = vars(owner)[attr]
    undo = tracing.install(tracing.Tracer())
    try:
        for (module, path), raw in originals.items():
            owner, attr = tracing._resolve(module, path)
            wrapped = getattr(_function(vars(owner)[attr]), "__wrapped__", None)
            assert wrapped is _function(raw), f"{module}.{path} is not traced"
    finally:
        tracing.uninstall(undo)
    for (module, path), raw in originals.items():
        owner, attr = tracing._resolve(module, path)
        assert vars(owner)[attr] is raw, f"{module}.{path} was not restored"


def test_traced_oracle_factories_hand_out_answering_oracles():
    # install() also wraps the adversaries' oracle factories; the affine one
    # reads and reassigns AffineMap.quad_oracle on the map it returns
    tracing = load_tracing()
    tracer = tracing.Tracer()
    hq = adversaries.HardQuadratic(T=3, d=6)
    x = np.linspace(-1.0, 1.0, 6)
    want = adversaries.chain_quadratic_oracle(hq)(x)
    undo = tracing.install(tracer)
    try:
        chain = adversaries.chain_quadratic_oracle(hq)
        rotation = adversaries.rotation_oracle(adversaries.RotationBuilder(base=hq))
        quad = adversaries.affine_map_from_parameters(hq.T, hq.d).quad_oracle
        for oracle in (chain, rotation, quad):
            assert hasattr(oracle, "__wrapped__"), oracle
            reply = oracle(x)
            assert reply.subgrad.shape == x.shape
        for oracle in (chain, quad):
            reply = oracle(x)
            assert reply.value == want.value and np.array_equal(reply.subgrad, want.subgrad)
    finally:
        tracing.uninstall(undo)
    assert tracer.totals[tracing.ORACLE]["calls"] == 5


def test_traced_games_count_one_adversary_oracle_call_per_row():
    # untraced, the adversaries answer each block with one eval_batch call; the
    # traced factories hand out wrappers that are asked once per row, same bits
    tracing = load_tracing()
    tracer = tracing.Tracer()
    hq = adversaries.HardQuadratic(T=6, d=12)
    factories = (
        lambda: adversaries.chain_quadratic_oracle(hq),
        lambda: adversaries.rotation_oracle(adversaries.RotationBuilder(base=hq)),
    )
    descriptors = (
        solvers.build_solver("subgrad"),
        solvers.build_solver("goldstein", delta=0.1, samples_per_step=2),  # blocks of three
    )
    cases = [(make, desc) for make in factories for desc in descriptors]

    def game(make, desc):
        return oracle_game.play(desc, make(), hq.T, hq.d, rng=np.random.default_rng(5))

    want = [game(make, desc) for make, desc in cases]
    undo = tracing.install(tracer)
    try:
        for (make, desc), expected in zip(cases, want):
            tracer.reset()
            got = game(make, desc)
            assert tracer.totals[tracing.ORACLE]["calls"] == len(got) == hq.T
            assert got.same_bits(expected)
    finally:
        tracing.uninstall(undo)
