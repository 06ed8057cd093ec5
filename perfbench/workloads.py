"""The three benchmark workloads and the layer boundaries they trace.

Every workload is one closed-loop client: op ``k + 1`` starts only
after op ``k`` returned.  A workload offers

* ``setup()`` — build what every op starts from (repeatable; each call
  starts cold, so the benchmark can time several set-ups);
* ``op(k)`` — one operation, returning the sessions it produced;
* ``check(records)`` — cross-checks run outside the timed region,
  returning one message per mismatch.

Inputs are a pure function of the ``--seed`` the workload was built
with and of the op index, so the same seed replays the same ops.
"""

from __future__ import annotations

import multiprocessing
import os
from contextlib import nullcontext
import shutil
import tempfile
import time

from measure import nproc, session_digest, value_digest

from repro.core.population import PopulationTuner, population_seed_plan
from repro.core.resilience import ResiliencePolicy
from repro.experiments import common
from repro.experiments.engine import session_task
from repro.experiments.report import make_engine
from repro.experiments.sessions import ALL_PAIRS, QUICK_PAIRS, TUNERS
from repro.telemetry import CostLedger, DiagnosticsEngine, RunContext
from repro.utils.logging import JsonlLogger

WORKLOADS = ("online-requests", "fleet-population", "report-quick")

#: (module, class, method, layer) boundaries wrapped by a traced run
METHOD_LAYERS = (
    ("repro.core.deepcat", "DeepCAT", "train_offline", "offline.train"),
    ("repro.baselines.cdbtune", "CDBTune", "train_offline", "offline.train"),
    ("repro.baselines.ottertune.tuner", "OtterTune", "tune_online",
     "baselines.ottertune"),
    ("repro.agents.td3", "TD3Agent", "update", "agents.update"),
    ("repro.agents.ddpg", "DDPGAgent", "update", "agents.update"),
    ("repro.agents.td3", "TD3Agent", "act", "agents.query"),
    ("repro.agents.td3", "TD3Agent", "min_q", "agents.query"),
    ("repro.agents.td3", "TD3Agent", "twin_q_batch", "agents.query"),
    ("repro.agents.ddpg", "DDPGAgent", "act", "agents.query"),
    ("repro.agents.population", "PopulationTD3View", "act", "agents.query"),
    ("repro.agents.population", "PopulationTD3View", "min_q",
     "agents.query"),
    ("repro.agents.population", "PopulationTD3View", "twin_q_rows",
     "agents.query"),
    ("repro.replay.rdper", "RewardDrivenReplayBuffer", "sample",
     "replay.rdper.sample"),
    ("repro.replay.per", "PrioritizedReplayBuffer", "sample",
     "replay.per.sample"),
    ("repro.replay.per", "PrioritizedReplayBuffer", "update_priorities",
     "replay.per.update"),
    ("repro.replay.uniform", "UniformReplayBuffer", "sample",
     "replay.uniform.sample"),
    ("repro.replay.rdper", "RewardDrivenReplayBuffer", "push",
     "replay.push"),
    ("repro.replay.per", "PrioritizedReplayBuffer", "push", "replay.push"),
    ("repro.replay.uniform", "UniformReplayBuffer", "push", "replay.push"),
    ("repro.envs.tuning_env", "TuningEnv", "step", "envs.step"),
    ("repro.envs.tuning_env", "TuningEnv", "step_batch", "envs.step"),
    ("repro.envs.population", "VectorTuningEnv", "step", "envs.step"),
    ("repro.core.deepcat", "DeepCAT", "tune_online", "online.tune"),
    ("repro.core.population", "PopulationTuner", "from_deepcat",
     "population.tune"),
    ("repro.core.population", "PopulationTuner", "tune", "population.tune"),
    # the population path's Twin-Q screen (it does not call
    # twin_q_optimize); skipped if a later version drops the method
    ("repro.core.population", "PopulationTuner", "_twinq_resolve", "twinq"),
    ("repro.telemetry.context", "RunContext", "save", "telemetry.save"),
    ("repro.telemetry.context", "RunContext", "close", "telemetry.save"),
)

#: (module, function, layer): wrapped under every name it is bound to
FUNCTION_LAYERS = (
    ("repro.core.twinq", "twin_q_optimize", "twinq"),
    ("repro.experiments.common", "fork_tuner", "fork"),
    ("repro.experiments.common", "train_ottertune", "baselines.ottertune"),
    ("repro.factory", "make_env", "envs.make"),
)


def install_layers(tracer) -> None:
    import importlib

    for module, cls, attr, layer in METHOD_LAYERS:
        tracer.patch_method(
            getattr(importlib.import_module(module), cls), attr, layer
        )
    for module, fn, layer in FUNCTION_LAYERS:
        tracer.patch_function(importlib.import_module(module), fn, layer)


def wait_for_children(timeout: float = 60.0) -> None:
    """Join every process this one started (engine pool workers exit
    once the pool is shut down)."""
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join(timeout)


#: training seed of the served models.  The models are the deployed
#: artifact every request starts from, so they stay fixed; ``--seed``
#: varies the requests.
MODEL_SEED = 0


def _train_models() -> dict:
    """One DeepCAT model per workload, on its D1 input, at the quick
    offline budget — cold: the program's model cache is cleared first."""
    common.clear_model_cache()
    models = {w: common.train_deepcat(w, "D1", MODEL_SEED, "quick")
              for w, _ in QUICK_PAIRS}
    common.clear_model_cache()
    return models


def _model_digest(models: dict) -> str:
    return value_digest({
        w: {net: getattr(m.agent, net).state_dict()
            for net in ("actor", "critic1", "critic2")}
        for w, m in models.items()
    })


class Workload:
    name = ""
    #: ops in one full cycle of the inputs; runs stop on a cycle boundary
    cycle = 1
    #: untimed ops run before timing, so lazy first-call costs (the
    #: first op runs ~25% slower) do not land in the first timed op
    warm_up_ops = 1

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        self.setup_digests: list[str] = []
        #: span factory for calls the workload itself makes into a layer;
        #: a traced run swaps in ``Tracer.span``
        self.span = lambda name: nullcontext()

    def setup(self) -> None:
        raise NotImplementedError

    def before_op(self, k: int) -> None:
        """Untimed preparation of op ``k``."""

    def op(self, k: int):
        """Run op ``k``; returns ``(sessions, extra)``."""
        raise NotImplementedError

    def after_op(self, k: int, extra: dict | None) -> dict | None:
        """Untimed clean-up of op ``k``; may add to ``extra``."""
        return extra

    def check(self, records) -> list[str]:
        return []

    def rec_sessions(self, sessions):
        """Sessions whose per-step ``recommendation_s`` the workload
        reports as ``rec_p50_ms``."""
        return sessions


class _ServedModels(Workload):
    """A workload whose ops fork the models trained in set-up, so no op
    sees another op's fine-tuned weights."""

    def setup(self) -> None:
        self.models = _train_models()
        self.setup_digests.append(_model_digest(self.models))


class OnlineRequests(_ServedModels):
    """Tuning requests served one after another, each with the full CLI
    artifact set; every 4th request runs under the ``flaky`` faults."""

    name = "online-requests"
    cycle = len(ALL_PAIRS)
    #: requests per run whose plain (telemetry-off) replay must match
    replayed = 24

    def request(self, k: int):
        workload, dataset = ALL_PAIRS[k % len(ALL_PAIRS)]
        # the flaky share moves to other pairs on every cycle
        flaky = k % 4 == (k // len(ALL_PAIRS)) % 4
        req_seed = (self.seed * 1_000_003 + k) % 2**31
        return workload, dataset, flaky, req_seed

    def _tune(self, k: int, telemetry_dir: str | None):
        workload, dataset, flaky, req_seed = self.request(k)
        tuner = common.fork_tuner(self.models[workload])
        env = common.online_env(workload, dataset, req_seed,
                                fault_profile="flaky" if flaky else None)
        res = ResiliencePolicy.default(seed=req_seed) if flaky else None
        if telemetry_dir is None:
            return tuner.tune_online(env, steps=5, resilience=res)
        p = os.path.join(telemetry_dir, "req")
        with self.span("telemetry.open"):
            ctx = RunContext.recording(
                trace=p + ".trace.jsonl", metrics=p + ".prom",
                manifest=p + ".manifest.json",
                logger=JsonlLogger(p + ".events.jsonl"), seed=req_seed,
                kind="online-tune", diagnostics=DiagnosticsEngine(),
                ledger=CostLedger(p + ".ledger.jsonl"),
            )
            ctx.manifest.workload, ctx.manifest.dataset = workload, dataset
        try:
            session = tuner.tune_online(env, steps=5, telemetry=ctx,
                                        resilience=res)
        finally:
            ctx.close()
        return session

    def before_op(self, k: int) -> None:
        self._dir = tempfile.mkdtemp(prefix="req-", dir=self.scratch)

    def op(self, k: int):
        return [self._tune(k, self._dir)], {}

    def after_op(self, k: int, extra: dict | None) -> dict | None:
        size = sum(os.path.getsize(os.path.join(self._dir, f))
                   for f in os.listdir(self._dir))
        shutil.rmtree(self._dir, ignore_errors=True)
        return None if extra is None else {**extra, "bytes": size}

    def check(self, records) -> list[str]:
        """The first requests, replayed with telemetry off, must produce
        the same sessions (telemetry on ≡ off)."""
        errors = []
        for rec in records[: self.replayed]:
            if rec.digests is None:
                continue
            t0 = time.perf_counter()
            plain = self._tune(rec.k, None)
            rec.plain_s = time.perf_counter() - t0
            if session_digest(plain) != rec.digests[0]:
                errors.append(
                    f"request {rec.k}: observed session differs from the "
                    "same request run with telemetry off"
                )
        return errors


class FleetPopulation(_ServedModels):
    """A 64-member population of one D1 pair per op, tuned in lockstep."""

    name = "fleet-population"
    cycle = len(QUICK_PAIRS)
    members = 64

    def plan(self, k: int):
        workload, dataset = QUICK_PAIRS[k % len(QUICK_PAIRS)]
        base = (self.seed * 7_919 + k) % 2**31
        return workload, dataset, population_seed_plan(base, self.members)

    def op(self, k: int):
        workload, dataset, seeds = self.plan(k)
        model = self.models[workload]
        forks = [common.fork_tuner(model) for _ in seeds]
        envs = [common.online_env(workload, dataset, s) for s in seeds]
        pop = PopulationTuner.from_deepcat(forks, envs)
        return pop.tune(steps=5), {}

    def check(self, records) -> list[str]:
        """Members 0, N-1 and one seed-chosen member of every op must
        equal the same session tuned alone."""
        errors = []
        for rec in records:
            if rec.digests is None:
                continue
            workload, dataset, seeds = self.plan(rec.k)
            picks = {0, self.members - 1,
                     (self.seed + 17 * rec.k) % self.members}
            for i in sorted(picks):
                scalar = common.fork_tuner(self.models[workload]).tune_online(
                    common.online_env(workload, dataset, seeds[i]), steps=5
                )
                if session_digest(scalar) != rec.digests[i]:
                    errors.append(
                        f"op {rec.k}: population member {i} differs from "
                        "its scalar tune_online"
                    )
        return errors


class ReportQuick(Workload):
    """One cold pass of the quick comparison grid on a fresh engine.

    The pass is the grid ``repro report --scale quick`` runs: the quick
    pairs × tuners × the scale's own seeds, so its inputs do not depend
    on ``--seed``, which picks the cells the pooled spot check re-runs.
    The timed pass runs at ``repro report``'s default ``--jobs 1``.  A
    pass on ``jobs = nproc`` pool workers, with the program's default
    BLAS threads in each, swings 32-51 s from run to run on a 2-vCPU
    host (the oversubscription it suffers is itself the noise), so it
    is measured where no bound applies: the traced run reports it as
    ``engine.*`` layer metrics, and every run checks it against the
    inline pass.
    """

    name = "report-quick"
    #: every pass starts cold by definition (fresh engine, empty caches)
    warm_up_ops = 0
    #: workers of the pooled pass (what ``repro report --jobs N`` uses)
    pool_jobs = nproc()

    def setup(self) -> None:
        scale = common.get_scale("quick")
        self.tasks = [
            session_task(workload=w, dataset=d, tuner=t, seed=seed,
                         scale=scale)
            for w, d in QUICK_PAIRS for seed in scale.seeds for t in TUNERS
        ]
        common.clear_model_cache()

    def grid(self, jobs: int, tasks=None):
        """The grid (or ``tasks`` of it) on a fresh engine, cold;
        returns ``(sessions, engine stats)``."""
        common.clear_model_cache()
        engine = make_engine(jobs=jobs)
        try:
            sessions = engine.run(self.tasks if tasks is None else tasks)
        finally:
            engine.close()
            wait_for_children()
            common.clear_model_cache()
        return sessions, engine.stats

    def op(self, k: int):
        sessions, stats = self.grid(1)
        return sessions, {"stats": stats}

    def rec_sessions(self, sessions):
        return [s for s in sessions if s.tuner.startswith("DeepCAT")]

    def check(self, records) -> list[str]:
        """Two seed-chosen cells, run on a ``pool_jobs`` worker pool,
        must equal the inline pass (the traced run pools the whole
        grid)."""
        rec = records[0]
        if rec.digests is None:
            return []
        n = len(self.tasks)
        picks = sorted({self.seed % n, (self.seed + 5) % n})
        pooled, _ = self.grid(self.pool_jobs, [self.tasks[i] for i in picks])
        return [
            f"cell {i}: jobs={self.pool_jobs} result differs from the "
            "inline pass"
            for i, session in zip(picks, pooled)
            if session_digest(session) != rec.digests[i]
        ]


def make(name: str, seed: int, scratch: str) -> Workload:
    cls = {w.name: w for w in (OnlineRequests, FleetPopulation, ReportQuick)}
    return cls[name](seed, scratch)
