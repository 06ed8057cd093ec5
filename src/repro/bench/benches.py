"""The benchmark suite: hot-path micro-benchmarks + pipeline macros.

Micro benchmarks isolate one hot operation each (the same regions the
profiler's phases cover); macro benchmarks run a short but complete
pipeline stage.  Everything is seeded, so two runs on the same machine
measure the same work — the only variable is the code under test.

Setup cost (building environments, pre-training models, filling replay
pools) happens in the factory, outside the timed region.  One repetition
loops ``items`` inner operations because the single operations run in
micro- to milliseconds, far below timer jitter.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np

from repro.bench.registry import bench

_SEED = 1234


def _make_env(seed: int = _SEED):
    from repro.factory import make_env

    return make_env("WC", "D1", seed=seed)


def _trained_deepcat(iterations: int = 120):
    from repro.core.deepcat import DeepCAT

    env = _make_env()
    tuner = DeepCAT.from_env(env, seed=_SEED)
    tuner.train_offline(env, iterations)
    return tuner


def _fill_buffer(buffer, env, n: int) -> None:
    from repro.replay.base import Transition

    rng = np.random.default_rng(_SEED)
    dim = env.state.shape[0]
    act_dim = env.space.dim
    for _ in range(n):
        reward = float(rng.uniform(-1.0, 1.0))
        buffer.push(
            Transition(
                state=rng.uniform(0.0, 1.0, dim),
                action=rng.uniform(0.0, 1.0, act_dim),
                reward=reward,
                next_state=rng.uniform(0.0, 1.0, dim),
            )
        )


# ------------------------------------------------------------------ micro


@bench("sim.step", kind="micro", items=50,
       description="simulator evaluation of one configuration")
def _bench_sim_step():
    env = _make_env()
    rng = np.random.default_rng(_SEED)
    actions = [env.space.sample_vector(rng) for _ in range(50)]

    def run() -> None:
        for action in actions:
            env.step(action)

    return run


@bench("td3.update", kind="micro", items=25,
       description="one TD3 gradient update on a fixed batch")
def _bench_td3_update():
    from repro.core.deepcat import DeepCAT

    env = _make_env()
    tuner = DeepCAT.from_env(env, seed=_SEED)
    _fill_buffer(tuner.buffer, env, 256)
    batch = tuner.buffer.sample(tuner.agent.hp.batch_size)

    def run() -> None:
        for _ in range(25):
            tuner.agent.update(batch)

    return run


@bench("rdper.push", kind="micro", items=2000,
       description="RDPER transition routing into the dual pools")
def _bench_rdper_push():
    from repro.replay.base import Transition
    from repro.replay.rdper import RewardDrivenReplayBuffer

    env = _make_env()
    dim = env.state.shape[0]
    act_dim = env.space.dim
    rng = np.random.default_rng(_SEED)
    buffer = RewardDrivenReplayBuffer(
        capacity=4096, state_dim=dim, action_dim=act_dim, rng=rng
    )
    transitions = [
        Transition(
            state=rng.uniform(0.0, 1.0, dim),
            action=rng.uniform(0.0, 1.0, act_dim),
            reward=float(rng.uniform(-1.0, 1.0)),
            next_state=rng.uniform(0.0, 1.0, dim),
        )
        for _ in range(2000)
    ]

    def run() -> None:
        for tr in transitions:
            buffer.push(tr)

    return run


@bench("rdper.sample", kind="micro", items=500,
       description="RDPER dual-pool batch sampling (m=64)")
def _bench_rdper_sample():
    from repro.replay.rdper import RewardDrivenReplayBuffer

    env = _make_env()
    buffer = RewardDrivenReplayBuffer(
        capacity=4096,
        state_dim=env.state.shape[0],
        action_dim=env.space.dim,
        rng=np.random.default_rng(_SEED),
    )
    _fill_buffer(buffer, env, 1024)

    def run() -> None:
        for _ in range(500):
            buffer.sample(64)

    return run


@bench("twinq.accept", kind="micro", items=20,
       description="Twin-Q Optimizer accept loop on one recommendation")
def _bench_twinq_accept():
    from repro.core.twinq import twin_q_optimize

    tuner = _trained_deepcat(iterations=40)
    env = _make_env(seed=_SEED + 1)
    state = env.state
    rng = np.random.default_rng(_SEED)
    actions = [env.space.sample_vector(rng) for _ in range(20)]

    def run() -> None:
        for action in actions:
            twin_q_optimize(
                tuner.agent,
                state,
                action,
                q_threshold=0.3,
                noise_sigma=0.1,
                rng=rng,
            )

    return run


@bench("codec.roundtrip", kind="micro", items=500,
       description="configuration vector decode + dict encode round-trip")
def _bench_codec_roundtrip():
    from repro.config.pipeline import build_pipeline_space

    space = build_pipeline_space()
    rng = np.random.default_rng(_SEED)
    vectors = [space.sample_vector(rng) for _ in range(500)]

    def run() -> None:
        for vec in vectors:
            space.encode(space.decode(vec))

    return run


@bench("codec.batch", kind="micro", items=500,
       description="columnar decode_batch + encode_batch of 500 vectors")
def _bench_codec_batch():
    from repro.config.pipeline import build_pipeline_space

    space = build_pipeline_space()
    rng = np.random.default_rng(_SEED)
    vectors = space.sample_vectors(rng, 500)

    def run() -> None:
        space.encode_batch(space.decode_batch(vectors))

    return run


@bench("sim.batch", kind="micro", items=50,
       description="batched simulator evaluation of 50 configurations")
def _bench_sim_batch():
    env = _make_env()
    sim = env.runner.simulator
    rng = np.random.default_rng(_SEED)
    vectors = env.space.sample_vectors(rng, 50)

    def run() -> None:
        sim.evaluate_batch(vectors, env.space)

    return run


@bench("rdper.sample_batch", kind="micro", items=200,
       description="RDPER allocation-free sampling at m=256")
def _bench_rdper_sample_batch():
    from repro.replay.rdper import RewardDrivenReplayBuffer

    env = _make_env()
    buffer = RewardDrivenReplayBuffer(
        capacity=4096,
        state_dim=env.state.shape[0],
        action_dim=env.space.dim,
        rng=np.random.default_rng(_SEED),
    )
    _fill_buffer(buffer, env, 1024)

    def run() -> None:
        for _ in range(200):
            buffer.sample(256)

    return run


@bench("cache.roundtrip", kind="micro", items=50,
       description="ResultCache store + load of one pickled session")
def _bench_cache_roundtrip():
    from repro.experiments.engine import ResultCache, TaskSpec

    root = tempfile.mkdtemp(prefix="repro-bench-cache-")
    cache = ResultCache(root)
    payload = {"rewards": list(range(100)), "best_s": 123.4}
    tasks = [
        TaskSpec(kind="bench-dummy", params={"i": i}) for i in range(50)
    ]

    def run() -> None:
        for task in tasks:
            cache.store(task, payload)
            cache.load(task)

    def cleanup() -> None:
        shutil.rmtree(root, ignore_errors=True)

    return run, cleanup


@bench("telemetry.diagnostics", kind="micro", items=1000,
       description="one full diagnostics observe cycle (step+update+rdper)")
def _bench_diagnostics():
    from repro.telemetry.diagnostics import DiagnosticsEngine

    engine = DiagnosticsEngine()
    rng = np.random.default_rng(_SEED)
    rewards = rng.uniform(-1.0, 1.0, 1000)
    losses = rng.uniform(0.0, 1.0, 1000)
    betas = rng.uniform(0.4, 0.8, 1000)

    def run() -> None:
        for i in range(1000):
            engine.observe_update(float(losses[i]), mean_q=0.5)
            engine.observe_rdper(
                realized_beta=float(betas[i]), beta=0.6,
                staleness=i % 50, high_size=64, low_size=256,
            )
            engine.observe_step(
                step=i, reward=float(rewards[i]), success=True,
                q_pred=0.4, sigma=0.3,
            )
            engine.drain_alerts()

    return run


@bench("telemetry.ledger", kind="micro", items=1000,
       description="one streamed charge + counterfactual ledger cycle")
def _bench_ledger():
    from repro.telemetry.ledger import CostLedger

    root = tempfile.mkdtemp(prefix="repro-bench-ledger-")
    config = {f"knob.{i}": i * 7 for i in range(12)}
    state = {"ledger": CostLedger(os.path.join(root, "bench.ledger.jsonl"))}

    def run() -> None:
        led = state["ledger"]
        for i in range(1000):
            led.charge(
                "evaluation", 80.0 + i, step=i, tuner="bench",
                success=True, attempts=1, config=config,
            )
            led.counterfactual(
                "screening", 0.5, step=i, original_q=0.1, final_q=0.4,
            )
        led.close()
        # each repetition streams a fresh file, like a fresh run would
        state["ledger"] = CostLedger(
            os.path.join(root, "bench.ledger.jsonl")
        )

    def cleanup() -> None:
        state["ledger"].close()
        shutil.rmtree(root, ignore_errors=True)

    return run, cleanup


# ------------------------------------------------------------------ macro


@bench("pipeline.offline_train", kind="macro", items=80,
       description="short offline training run (fresh model, 80 steps)")
def _bench_offline_train():
    from repro.core.deepcat import DeepCAT

    def run() -> None:
        env = _make_env()
        tuner = DeepCAT.from_env(env, seed=_SEED)
        tuner.train_offline(env, 80)

    return run


@bench("pipeline.online_tune", kind="macro", items=5,
       description="5-step online tuning session from a pre-trained model")
def _bench_online_tune():
    import copy

    tuner = _trained_deepcat(iterations=120)

    def run() -> None:
        env = _make_env(seed=_SEED + 7)
        copy.deepcopy(tuner).tune_online(env, steps=5)

    return run


# ------------------------------------------------------- population

_POP_N = 64
_POP_STEPS = 5

#: shard count for ``pipeline.population`` (set via ``bench run
#: --shards``); 1 = the single-process lockstep
_POP_SHARDS = 1


def set_population_shards(shards: int) -> None:
    """Route ``pipeline.population`` through ``shards`` worker processes
    (1 restores the single-process lockstep).  The resulting record
    carries ``shards`` plus the barrier/tail split so speedup numbers
    are attributable."""
    global _POP_SHARDS
    if shards < 1:
        raise ValueError("shards must be >= 1")
    _POP_SHARDS = shards


def _population_tuner_proto():
    """One trained DeepCAT to deep-copy per population member.

    A small replay buffer keeps the per-member deepcopy cheap so the
    timed region is dominated by stepping, not construction.
    """
    from repro.core.deepcat import DeepCAT

    env = _make_env()
    tuner = DeepCAT.from_env(env, seed=_SEED, buffer_capacity=512)
    tuner.train_offline(env, 120)
    return tuner


def _population_members():
    import copy

    proto = _population_tuner_proto()
    tuners = [copy.deepcopy(proto) for _ in range(_POP_N)]
    envs = [_make_env(seed=_SEED + 7 + i) for i in range(_POP_N)]
    return tuners, envs


@bench("population.step", kind="micro", items=_POP_N * _POP_STEPS,
       description="vectorized lockstep of 64 environments x 5 steps")
def _bench_population_step():
    from repro.envs.population import VectorTuningEnv

    envs = [_make_env(seed=_SEED + 7 + i) for i in range(_POP_N)]
    venv = VectorTuningEnv(envs)
    rng = np.random.default_rng(_SEED)
    action_mats = [
        np.stack([env.space.sample_vector(rng) for env in envs])
        for _ in range(_POP_STEPS)
    ]

    def run() -> None:
        for actions in action_mats:
            venv.step(actions)

    return run


@bench("pipeline.population", kind="macro", items=_POP_N * _POP_STEPS,
       description="64 tuning sessions x 5 steps as one lockstep population")
def _bench_pipeline_population():
    from repro.core.population import PopulationTuner

    shards = _POP_SHARDS
    last: dict = {}

    def run() -> None:
        tuners, envs = _population_members()
        if shards > 1:
            from repro.parallel.sharding import ShardedPopulation

            population = ShardedPopulation(
                tuners, envs, shards=shards, fine_tune_updates=0
            )
            population.tune(steps=_POP_STEPS)
            last["stats"] = population.stats
        else:
            PopulationTuner.from_deepcat(
                tuners, envs, fine_tune_updates=0
            ).tune(steps=_POP_STEPS)

    def cleanup() -> None:
        pass

    def extras() -> dict:
        stats = last.get("stats")
        if stats is None:
            return {"shards": 1}
        # Timings are from the final repetition — the steady-state one.
        return {
            "shards": stats.shards,
            "barrier_s": round(stats.barrier_s, 6),
            "tail_s": round(stats.tail_s, 6),
            "max_round_s": round(stats.max_round_s, 6),
        }

    return run, cleanup, extras


@bench("pipeline.population_sequential", kind="macro",
       items=_POP_N * _POP_STEPS,
       description="the same 64 sessions x 5 steps as a sequential loop")
def _bench_pipeline_population_sequential():
    def run() -> None:
        tuners, envs = _population_members()
        for tuner, env in zip(tuners, envs):
            tuner.tune_online(env, steps=_POP_STEPS, fine_tune_updates=0)

    return run
