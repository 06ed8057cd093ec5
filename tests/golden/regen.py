"""Regenerate the golden files.

Usage::

    PYTHONPATH=src python tests/golden/regen.py

Five golden artifacts live here:

* ``sim_defaults.json`` — the *noise-free* default-configuration
  execution time of every paper workload at dataset D1 on both
  clusters.  Pure functions of the simulator's physics.
* ``population_trace.json`` — a seeded 3-member population tuning
  trace (``PopulationTuner``, 3 lockstep steps).  Pins the combined
  actor/critic math, Twin-Q screening, RNG stream plan, and simulator
  stack end to end; because the population is bit-identical to
  sequential serving, the same trace also pins ``OnlineTuner.tune``.
* ``cdbtune_trace.json`` — a seeded CDBTune offline-training run: its
  critic losses plus a SHA-256 of the PER sum-tree's bytes.  Pins the
  TD-error prioritized replay (sampling descent, IS weights, priority
  repair) together with the DDPG update it feeds.
* ``deepcat_trace.json`` — a seeded DeepCAT (TD3 + RDPER) offline
  run: its critic losses plus a SHA-256 over every network's
  parameters (online and target), both Adam moments of every
  optimizer, and each optimizer's step count.  Pins the TD3 update,
  the optimizer and the Polyak averaging byte for byte.
* ``ottertune_trace.json`` — OtterTune on the four quick-grid pairs at
  seed 0: a SHA-256 of each repository workload's (X, M, y) after
  ``train_ottertune``, then each online step's Lasso knob order,
  action, decoded configuration and duration.  Pins offline
  collection, the Lasso path ranking, the GP + EI recommendation and
  workload mapping together.

``td3_parent_format.pkl`` and its ``.json`` companion are not written
here: they are a TD3 agent pickled by the release before flat parameter
arenas, with its state digests at save time and after five more updates,
and they pin that old pickles keep loading and resuming identically
(``tests/test_nn_arena.py``).  ``deepcat_parent_format.pkl`` and its
``.json`` are likewise a small DeepCAT pickled by the release whose
replay rings were allocated at full capacity, with the 5-step session
that release ran from it (``tests/test_fork_footprint.py``).
Regenerating either pair would lose the format it exists to test.

Any edit that moves one of these files must (a) be intentional, (b)
regenerate it with this script, and (c) bump
``repro.experiments.engine.CACHE_VERSION`` so stale on-disk task
results are invalidated alongside.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).parent / "sim_defaults.json"
POPULATION_TRACE_PATH = Path(__file__).parent / "population_trace.json"
CDBTUNE_TRACE_PATH = Path(__file__).parent / "cdbtune_trace.json"
DEEPCAT_TRACE_PATH = Path(__file__).parent / "deepcat_trace.json"
OTTERTUNE_TRACE_PATH = Path(__file__).parent / "ottertune_trace.json"

WORKLOADS = ("WC", "TS", "PR", "KM")
CLUSTERS = ("cluster-a", "cluster-b")
DATASET = "D1"

TRACE_BASE_SEED = 7
TRACE_MEMBERS = 3
TRACE_STEPS = 3

CDBTUNE_SEED = 3
CDBTUNE_ITERATIONS = 200

DEEPCAT_SEED = 5
DEEPCAT_ITERATIONS = 200

OTTERTUNE_SEED = 0


def compute() -> dict[str, float]:
    from repro.cluster.hardware import CLUSTER_A, CLUSTER_B
    from repro.factory import make_env

    spec = {"cluster-a": CLUSTER_A, "cluster-b": CLUSTER_B}
    out = {}
    for cluster in CLUSTERS:
        for workload in WORKLOADS:
            env = make_env(workload, DATASET, cluster=spec[cluster],
                           seed=0, noise_sigma=0.0)
            out[f"{workload}-{DATASET}@{cluster}"] = env.default_duration
    return out


def compute_population_trace() -> list[list[dict]]:
    """One seeded population run, serialized step by step.

    ``json`` round-trips Python floats exactly (repr-precision), so the
    comparison in ``tests/test_population_golden.py`` is bitwise.
    """
    from repro.core.deepcat import DeepCAT
    from repro.core.population import PopulationTuner, population_seed_plan
    from repro.factory import make_env

    seeds = population_seed_plan(TRACE_BASE_SEED, TRACE_MEMBERS)
    envs = [make_env("WC", DATASET, seed=1000 + s) for s in seeds]
    tuners = [
        DeepCAT.from_env(env, seed=s, buffer_capacity=256)
        for s, env in zip(seeds, envs)
    ]
    sessions = PopulationTuner.from_deepcat(tuners, envs).tune(
        steps=TRACE_STEPS
    )
    return [
        [
            {
                "step": s.step,
                "duration_s": s.duration_s,
                "reward": s.reward,
                "success": s.success,
                "action_sum": float(s.action.sum()),
                "twinq_iterations": s.twinq_iterations,
                "twinq_accepted": s.twinq_accepted,
            }
            for s in session.steps
        ]
        for session in sessions
    ]


def compute_cdbtune_trace() -> dict:
    """One seeded CDBTune offline run: critic losses + sum-tree digest.

    The default 20,000-leaf buffer is not a power of two, so its leaves
    sit at two tree depths; the digest covers every node's bytes.
    """
    import hashlib

    from repro.baselines.cdbtune import CDBTune
    from repro.factory import make_env

    env = make_env("TS", DATASET, seed=1000 + CDBTUNE_SEED)
    tuner = CDBTune.from_env(env, seed=CDBTUNE_SEED)
    log = tuner.train_offline(env, iterations=CDBTUNE_ITERATIONS)
    tree = tuner.buffer._tree._tree
    return {
        "critic_losses": [float(v) for v in log.critic_losses],
        "sumtree_sha256": hashlib.sha256(tree.tobytes()).hexdigest(),
    }


def compute_deepcat_trace() -> dict:
    """One seeded DeepCAT offline run: critic losses + state digest.

    The digest walks the agent's networks in a fixed order (the online
    nets, then their targets), then every optimizer's first and second
    moments and step count — the whole learned state a fork carries.
    """
    import hashlib

    from repro.core.deepcat import DeepCAT
    from repro.factory import make_env

    env = make_env("TS", DATASET, seed=1000 + DEEPCAT_SEED)
    tuner = DeepCAT.from_env(env, seed=DEEPCAT_SEED)
    log = tuner.train_offline(env, iterations=DEEPCAT_ITERATIONS)
    agent = tuner.agent
    digest = hashlib.sha256()
    for name in ("actor", "critic1", "critic2", "actor_target",
                 "critic1_target", "critic2_target"):
        for p in getattr(agent, name).parameters():
            digest.update(p.data.tobytes())
    for name in ("actor_opt", "critic1_opt", "critic2_opt"):
        opt = getattr(agent, name)
        digest.update(opt._m.tobytes())
        digest.update(opt._v.tobytes())
        digest.update(str(opt._t).encode())
    return {
        "critic_losses": [float(v) for v in log.critic_losses],
        "state_sha256": digest.hexdigest(),
    }


def compute_ottertune_trace() -> dict:
    """OtterTune's quick-grid cells at seed 0, step by step.

    Each pair trains (or fetches) its repository with
    ``train_ottertune``, digests every workload's stacked arrays, then
    runs a 5-step session from a fork on the pair's online environment,
    exactly as the comparison grid does.  The knob orders are captured
    by wrapping the tuner module's ``rank_knobs`` for the session.
    """
    import hashlib

    from repro.baselines.ottertune import tuner as ottertune_module
    from repro.experiments.common import (
        fork_tuner,
        get_scale,
        online_env,
        train_ottertune,
    )
    from repro.experiments.sessions import QUICK_PAIRS

    rank_knobs = ottertune_module.rank_knobs
    sc = get_scale("quick")
    out: dict[str, dict] = {}
    for workload, dataset in QUICK_PAIRS:
        base = train_ottertune(workload, dataset, OTTERTUNE_SEED, sc)
        repository = {}
        for wid in base.repository.workloads():
            digest = hashlib.sha256()
            for arr in base.repository.get(wid).arrays():
                digest.update(arr.tobytes())
            repository[wid] = digest.hexdigest()

        orders: list[list[int]] = []

        def recording_rank_knobs(x, y):
            order = rank_knobs(x, y)
            orders.append([int(j) for j in order])
            return order

        ottertune_module.rank_knobs = recording_rank_knobs
        try:
            session = fork_tuner(base).tune_online(
                online_env(workload, dataset, OTTERTUNE_SEED),
                steps=sc.online_steps,
            )
        finally:
            ottertune_module.rank_knobs = rank_knobs
        out[f"{workload}-{dataset}"] = {
            "repository_sha256": repository,
            "steps": [
                {
                    "knob_order": order,
                    "action": [float(v) for v in s.action],
                    "config": s.config,
                    "duration_s": s.duration_s,
                }
                for order, s in zip(orders, session.steps)
            ],
        }
    return out


def main() -> None:
    values = compute()
    GOLDEN_PATH.write_text(json.dumps(values, indent=2, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH}:")
    for key, value in sorted(values.items()):
        print(f"  {key:<18} {value:10.4f}s")

    trace = compute_population_trace()
    POPULATION_TRACE_PATH.write_text(
        json.dumps(trace, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {POPULATION_TRACE_PATH}:")
    for i, steps in enumerate(trace):
        line = ", ".join(f"{s['duration_s']:.1f}s" for s in steps)
        print(f"  member {i}: {line}")

    cdbtune = compute_cdbtune_trace()
    CDBTUNE_TRACE_PATH.write_text(
        json.dumps(cdbtune, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {CDBTUNE_TRACE_PATH}: "
          f"{len(cdbtune['critic_losses'])} critic losses, "
          f"sum-tree {cdbtune['sumtree_sha256'][:16]}")

    deepcat = compute_deepcat_trace()
    DEEPCAT_TRACE_PATH.write_text(
        json.dumps(deepcat, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {DEEPCAT_TRACE_PATH}: "
          f"{len(deepcat['critic_losses'])} critic losses, "
          f"state {deepcat['state_sha256'][:16]}")

    ottertune = compute_ottertune_trace()
    OTTERTUNE_TRACE_PATH.write_text(
        json.dumps(ottertune, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {OTTERTUNE_TRACE_PATH}:")
    for pair, trace in ottertune.items():
        line = ", ".join(f"{s['duration_s']:.1f}s" for s in trace["steps"])
        print(f"  {pair}: {line}")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    main()
