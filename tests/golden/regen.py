"""Regenerate the golden files.

Usage::

    PYTHONPATH=src python tests/golden/regen.py

Three golden artifacts live here:

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

WORKLOADS = ("WC", "TS", "PR", "KM")
CLUSTERS = ("cluster-a", "cluster-b")
DATASET = "D1"

TRACE_BASE_SEED = 7
TRACE_MEMBERS = 3
TRACE_STEPS = 3

CDBTUNE_SEED = 3
CDBTUNE_ITERATIONS = 200


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


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    main()
