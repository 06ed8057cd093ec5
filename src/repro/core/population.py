"""Lockstep online tuning for a population of independent sessions.

:class:`PopulationTuner` drives N fully independent online tuning
sessions — each with its own agent, replay buffer, environment, RNG
streams, and resilience policy — through one lockstep loop that batches
every *deterministic* tensor computation across the population:

* the greedy actor forward (one stacked ``(N, 1, 9)`` pass),
* the Twin-Q Optimizer's ``min(Q1, Q2)`` screenings (one stacked pass
  per escalation round, all sessions' candidate fans at once),
* the configuration evaluation (one shared analytic simulator pass via
  :class:`~repro.envs.population.VectorTuningEnv`).

Everything *stochastic* or session-local stays scalar and runs per
member in member order: exploration noise, Twin-Q candidate draws,
retries, safety-guard bookkeeping, replay pushes, fine-tune updates,
record construction, and telemetry.  Because every member owns disjoint
generator objects, interleaving members across lockstep phases cannot
reorder any single member's draw sequence — which is the whole
bit-identity argument, phase by phase:

1. a member's per-step draw order (exploration noise → Twin-Q fan →
   simulator noise/tails → fault perturbation → metric dropout →
   retries → fine-tune) is preserved exactly, because the lockstep
   phases run in that order and each phase visits members in order;
2. the batched tensor math is bit-identical per row to the scalar calls
   (:mod:`repro.nn.population`, :mod:`repro.agents.population`,
   :mod:`repro.envs.population` each pin their own layer of this);
3. the scalar fine-tune updates write *through* the stacked parameter
   views, so batched forwards always see the latest per-member weights.

Workspaces are per population, not per member: every member's networks
and Adam optimizers run on member 0's layer and optimizer workspaces
(:meth:`~repro.agents.td3.TD3Agent.share_workspaces`).  That is safe
because of the same phase structure: the scalar tail runs each member's
fine-tune updates to completion before the next member starts, and no
phase holds a member's forward/backward output across another member's
call (the ownership rule in :mod:`repro.nn.layers`).  Pickles and deep
copies drop workspaces, so checkpoints and forks are unaffected.

The one documented divergence is ``recommendation_s``: the population
measures one batched recommendation wall-clock per lockstep iteration
and splits it equally among participating members, so this field (and
anything derived from it, i.e. ``time_budget_s`` cut-offs) is
wall-clock-dependent exactly as it is in sequential runs.
:func:`repro.core.result.sessions_equal` already excludes it.

Pinned by ``tests/test_population_equivalence.py`` and the
``-m determinism`` population cases.
"""

from __future__ import annotations

import inspect
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.core.online import OnlineTuner
from repro.core.resilience import (
    ResiliencePolicy,
    burnt_attempt_seconds,
    sanitize_state,
)
from repro.core.result import OnlineSession, TuningStepRecord
from repro.core.twinq import twin_q_optimize
from repro.envs.population import VectorTuningEnv
from repro.envs.tuning_env import StepOutcome, TuningEnv
from repro.replay.base import Transition
from repro.replay.per import PrioritizedReplayBuffer

__all__ = ["PopulationMember", "PopulationTuner", "population_seed_plan"]

#: Candidate budget per Twin-Q escalation round — must track the scalar
#: optimizer's default, which the online loop always uses.
_TWINQ_MAX_ITERATIONS = int(
    inspect.signature(twin_q_optimize).parameters["max_iterations"].default
)


def population_seed_plan(base_seed: int, n: int) -> list[int]:
    """Derive ``n`` independent member seeds from one base seed.

    Uses ``SeedSequence.spawn`` so the members' stream families are
    provably non-overlapping; each returned seed is an ordinary integer
    usable anywhere a scalar ``--seed`` is (a population member ``i`` is
    exactly the sequential run ``--seed plan[i]``).
    """
    if n < 1:
        raise ValueError("population size must be >= 1")
    return [
        int(child.generate_state(1, dtype=np.uint32)[0])
        for child in np.random.SeedSequence(base_seed).spawn(n)
    ]


@dataclass
class PopulationMember:
    """One session of the population: tuner + environment + run state."""

    tuner: OnlineTuner
    env: TuningEnv
    resilience: ResiliencePolicy | None = None
    session: OnlineSession | None = None
    start_step: int = 0
    # -- runtime state owned by the lockstep loop -----------------------
    state: np.ndarray = field(default=None, repr=False)  # type: ignore
    done: bool = field(default=False, repr=False)
    #: isolated from the lockstep after non-finite parameters; finished
    #: sequentially so one diverged member can't poison the stacked math
    quarantined: bool = field(default=False, repr=False)


class PopulationTuner:
    """Runs N independent online tuning sessions in lockstep.

    ``tune`` is bit-identical (per member) to calling each member's
    :meth:`OnlineTuner.tune` sequentially with the same arguments —
    see the module docstring for the argument and the test suite for
    the enforcement.
    """

    def __init__(
        self,
        members: Sequence[PopulationMember],
        *,
        param_allocator=None,
    ):
        members = list(members)
        if not members:
            raise ValueError("population needs at least one member")
        for attr in ("tuner", "env"):
            objs = [getattr(m, attr) for m in members]
            if len({id(o) for o in objs}) != len(objs):
                raise ValueError(
                    f"population members must have distinct {attr}s"
                )
        for m in members:
            if m.session is not None and m.start_step != len(m.session.steps):
                raise ValueError(
                    "start_step must equal len(session.steps) when resuming"
                )
            if m.tuner.use_twin_q and m.tuner.twinq_noise_sigma <= 0:
                raise ValueError("noise_sigma must be positive")
        self.members = members
        # These validate distinctness and shared shapes/workloads.
        self.venv = VectorTuningEnv([m.env for m in members])
        from repro.agents.population import PopulationTD3View

        self.view = PopulationTD3View(
            [m.tuner.agent for m in members], allocator=param_allocator
        )
        for m in members[1:]:
            m.tuner.agent.share_workspaces(members[0].tuner.agent)
        n = len(members)
        self._states = np.zeros((n, self.view.state_dim))
        self._actions = np.zeros((n, self.view.action_dim))
        self._originals = np.zeros((n, self.view.action_dim))
        self._noise = np.zeros((n, self.view.action_dim))
        self._cands = np.zeros(
            (n, _TWINQ_MAX_ITERATIONS, self.view.action_dim)
        )

    # ------------------------------------------------------------ factory

    @classmethod
    def from_deepcat(
        cls,
        tuners: Sequence,
        envs: Sequence[TuningEnv],
        *,
        fine_tune_updates: int = 2,
        exploration_sigma: float = 0.3,
        telemetry=None,
        resiliences: Sequence[ResiliencePolicy | None] | None = None,
        sessions: Sequence[OnlineSession | None] | None = None,
        start_steps: Sequence[int] | None = None,
        param_allocator=None,
    ) -> "PopulationTuner":
        """Build a population from :class:`~repro.core.deepcat.DeepCAT`
        instances, mirroring ``DeepCAT.tune_online``'s construction of
        the per-session :class:`OnlineTuner` (same name, thresholds, and
        — critically — the same ``_online_rng`` stream).
        """
        tuners = list(tuners)
        envs = list(envs)
        if len(tuners) != len(envs):
            raise ValueError("need one environment per tuner")
        n = len(tuners)
        resiliences = list(resiliences) if resiliences is not None else [None] * n
        sessions = list(sessions) if sessions is not None else [None] * n
        start_steps = list(start_steps) if start_steps is not None else [0] * n
        if not (len(resiliences) == len(sessions) == len(start_steps) == n):
            raise ValueError("per-member argument lists must match in length")
        members = []
        for dc, env, res, session, start in zip(
            tuners, envs, resiliences, sessions, start_steps
        ):
            dc._record_provenance(telemetry, env)
            online = OnlineTuner(
                dc.agent,
                dc.buffer,
                name="DeepCAT" if dc.use_twin_q else "DeepCAT-noTwinQ",
                use_twin_q=dc.use_twin_q,
                q_threshold=dc.q_threshold,
                twinq_noise_sigma=dc.twinq_noise_sigma,
                fine_tune_updates=fine_tune_updates,
                exploration_sigma=exploration_sigma,
                rng=dc._online_rng,
                telemetry=telemetry,
            )
            members.append(
                PopulationMember(
                    tuner=online,
                    env=env,
                    resilience=res,
                    session=session,
                    start_step=start,
                )
            )
        return cls(members, param_allocator=param_allocator)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def sessions(self) -> list[OnlineSession]:
        return [m.session for m in self.members]

    # ----------------------------------------------------------- resilience

    def _finish_resilient(
        self,
        m: PopulationMember,
        first_outcome: StepOutcome,
        action: np.ndarray,
        step: int,
        member: int | None = None,
    ) -> tuple[StepOutcome, int, float]:
        """``OnlineTuner._evaluate_resilient`` with attempt 1 precomputed
        (the batched population evaluation); retries fall back to scalar
        ``env.step`` on the member's own streams.
        """
        mt = m.tuner
        t = mt.telemetry
        resilience = m.resilience
        watchdog = resilience.watchdog
        schedule = (
            resilience.retry.schedule() if resilience.retry is not None else ()
        )
        max_attempts = resilience.max_attempts
        extra_cost = 0.0
        outcome = first_outcome
        for attempt in range(max_attempts):
            if attempt > 0:
                outcome = m.env.step(action)
            if watchdog is not None:
                verdict = watchdog.inspect(
                    outcome.duration_s, m.env.default_duration
                )
                if verdict.aborted:
                    outcome = replace(
                        outcome,
                        duration_s=verdict.charged_s,
                        success=False,
                        reward=float(
                            m.env.reward_fn(verdict.charged_s, success=False)
                        ),
                        faults=(*outcome.faults, "watchdog-abort"),
                    )
                    t.count(
                        "resilience.watchdog_aborts_total",
                        help="evaluations aborted by the watchdog",
                        tuner=mt.name,
                    )
                    mt._note_intervention("watchdog-abort", step)
            if outcome.success or attempt == max_attempts - 1:
                return outcome, attempt + 1, extra_cost
            burnt = burnt_attempt_seconds(
                outcome.duration_s, schedule[attempt]
            )
            extra_cost += burnt
            if t.ledger.enabled:
                t.ledger.charge(
                    "retry",
                    burnt,
                    step=step,
                    member=member,
                    attempt=attempt + 1,
                    faults=list(outcome.faults),
                )
            t.count(
                "resilience.retries_total",
                help="failed evaluations retried with backoff",
                tuner=mt.name,
            )
            mt._note_intervention("retry", step)
        raise AssertionError("unreachable")  # pragma: no cover

    # ---------------------------------------------------------------- twinq

    def _twinq_resolve(
        self, indices: list[int], step: int
    ) -> dict[int, dict]:
        """Run the Twin-Q Optimizer for every member in ``indices``,
        batching each escalation round's critic scoring across members.

        Replicates :func:`repro.core.twinq.twin_q_optimize` (wrapper
        counters included) member by member: candidate fans are drawn
        eagerly per member in member order — exactly as the scalar
        ``_optimize`` builds all three rounds up front — and round ``r``
        is scored for every still-unresolved member in one stacked
        critic pass whose rows are bit-identical to ``twin_q_batch``.
        """
        members = self.members
        for i in indices:
            self._originals[i] = np.clip(
                np.asarray(self._actions[i], dtype=np.float64), 0.0, 1.0
            )
        min_qs = self.view.min_q(self._states, self._originals)

        n_cand = _TWINQ_MAX_ITERATIONS
        pending: dict[int, tuple] = {}  # i -> (round0, round1, round2)
        resolved: dict[int, tuple] = {}  # i -> (q, iters, accepted)
        scored: dict[int, int] = {}
        for i in indices:
            mt = members[i].tuner
            original_q = min_qs[i]
            if original_q >= mt.q_threshold:
                resolved[i] = (original_q, 0, True)
                continue
            rng = mt._rng
            original = self._originals[i]
            sigma = mt.twinq_noise_sigma
            local_sigmas = sigma * (
                1.0 + 2.0 * np.arange(n_cand) / max(n_cand - 1, 1)
            )
            pending[i] = (
                np.clip(
                    original[None, :]
                    + rng.normal(0.0, 1.0, (n_cand, original.size))
                    * local_sigmas[:, None],
                    0.0,
                    1.0,
                ),
                np.clip(
                    original[None, :]
                    + rng.normal(0.0, 4.0 * sigma, (n_cand, original.size)),
                    0.0,
                    1.0,
                ),
                rng.uniform(0.0, 1.0, (n_cand, original.size)),
            )
            scored[i] = 0

        for r in range(3):
            need = [i for i in indices if i in pending]
            if not need:
                break
            for i in need:
                self._cands[i] = pending[i][r]
            scores = self.view.twin_q_rows(self._states, self._cands)
            for i in need:
                qs = scores[i]
                above = np.flatnonzero(qs >= members[i].tuner.q_threshold)
                if above.size:
                    first = int(above[0])
                    scored[i] += first + 1
                    self._actions[i] = pending[i][r][first]
                    resolved[i] = (float(qs[first]), scored[i], True)
                    del pending[i]
                else:
                    scored[i] += n_cand
        for i in list(pending):
            # Nothing cleared Q_th: fall back to the original
            # recommendation, exactly as the scalar optimizer does.
            self._actions[i] = self._originals[i]
            resolved[i] = (min_qs[i], scored[i], False)
            del pending[i]

        diags: dict[int, dict] = {}
        for i in indices:
            mt = members[i].tuner
            t = mt.telemetry
            q_value, iterations, accepted = resolved[i]
            original_q = min_qs[i]
            with t.phase("twinq.optimize"), t.span(
                "twinq.optimize"
            ) as span:
                span.set_attr("iterations", iterations)
                span.set_attr("accepted", accepted)
            t.count(
                "twinq.invocations_total",
                help="recommendations screened by the Twin-Q Optimizer",
            )
            t.count(
                "twinq.iterations_total",
                iterations,
                help="candidate actions scored across all screenings",
            )
            if iterations == 0:
                t.count(
                    "twinq.passthrough_total",
                    help="recommendations accepted without perturbation",
                )
            elif accepted:
                t.count(
                    "twinq.accepted_total",
                    help="perturbed candidates that cleared Q_th",
                )
            else:
                t.count(
                    "twinq.rejected_total",
                    help="screenings that fell back to the original action",
                )
            t.observe(
                "twinq.q_improvement",
                q_value - original_q,
                help="min(Q1,Q2) gain of the executed action over the "
                "original",
            )
            diags[i] = {
                "twinq_iterations": iterations,
                "twinq_accepted": accepted,
                "original_q": original_q,
                "final_q": q_value,
            }
        return diags

    # ----------------------------------------------------------------- tune

    def tune(
        self,
        steps: int = 5,
        time_budget_s: float | None = None,
        checkpoint=None,
    ) -> list[OnlineSession]:
        """Run every member for up to ``steps`` online tuning steps.

        Returns the per-member sessions in member order.  ``checkpoint``
        is a :class:`~repro.core.persistence.PopulationCheckpointManager`
        snapshotting the whole population after each lockstep iteration;
        on ``KeyboardInterrupt`` a final snapshot is written before the
        interrupt propagates (mirroring :meth:`OnlineTuner.tune`).
        """
        if steps <= 0:
            raise ValueError("steps must be positive")
        members = self.members
        self.begin(steps)
        lead = members[0].tuner.telemetry
        try:
            with lead.phase("population.tune"), lead.span(
                "population.tune", n=len(members), steps=steps
            ):
                for step in range(steps):
                    status = self.run_round(step, time_budget_s)
                    if status == "complete":
                        break
                    if status == "stepped" and checkpoint is not None:
                        checkpoint.on_step(self.sessions, step + 1)
                self._finish_quarantined(steps, time_budget_s)
        except KeyboardInterrupt:
            if checkpoint is not None:
                checkpoint.save_if_stale(
                    self.sessions,
                    [len(m.session.steps) for m in members],
                )
            raise
        self.record_manifests()
        return self.sessions

    def begin(self, steps: int) -> None:
        """Prepare every member for lockstep rounds (idempotent setup):
        attach telemetry, create missing sessions, seed the runtime
        ``state``/``done`` flags.  Split out of :meth:`tune` so a shard
        worker can drive rounds one at a time via :meth:`run_round`."""
        for m in self.members:
            mt = m.tuner
            t = mt.telemetry
            if hasattr(m.env, "attach_telemetry"):
                m.env.attach_telemetry(t)
            if mt.buffer is not None and hasattr(mt.buffer, "set_telemetry"):
                mt.buffer.set_telemetry(t)
            if hasattr(mt.agent, "telemetry"):
                mt.agent.telemetry = t
            if m.session is None:
                m.session = OnlineSession(
                    tuner=mt.name,
                    workload=m.env.runner.workload.code,
                    dataset=m.env.runner.dataset.label,
                    default_duration_s=m.env.default_duration,
                )
            state = (
                m.env.observation
                if hasattr(m.env, "observation")
                else m.env.state
            )
            if m.resilience is not None:
                state, _ = sanitize_state(state)
            m.state = state
            m.done = m.start_step >= steps

    def run_round(
        self, step: int, time_budget_s: float | None = None
    ) -> str:
        """Drive one lockstep round; requires a prior :meth:`begin`.

        Returns ``"stepped"`` when members advanced, ``"idle"`` when no
        member was eligible this step but some remain (staggered
        ``start_step`` resumes), and ``"complete"`` when every member is
        done or quarantined.
        """
        members = self.members
        active = [
            i
            for i, m in enumerate(members)
            if not m.done and not m.quarantined and step >= m.start_step
        ]
        if active:
            active = self._screen_nonfinite(active, step)
        if not active:
            if all(m.done or m.quarantined for m in members):
                return "complete"
            return "idle"
        self._lockstep(step, active, time_budget_s)
        return "stepped"

    def finish(self, steps: int, time_budget_s: float | None = None) -> None:
        """Post-round teardown for callers driving :meth:`run_round`
        directly: sequential quarantine finish + manifest records."""
        self._finish_quarantined(steps, time_budget_s)
        self.record_manifests()

    def record_manifests(self) -> None:
        for m in self.members:
            t = m.tuner.telemetry
            successes = [s for s in m.session.steps if s.success]
            if t.manifest is not None:
                t.manifest.record_stage(
                    "online-tune",
                    tuner=m.tuner.name,
                    workload=m.session.workload,
                    dataset=m.session.dataset,
                    steps=len(m.session.steps),
                    best_duration_s=(
                        m.session.best_duration_s if successes else None
                    ),
                    total_tuning_seconds=m.session.total_tuning_seconds,
                )

    def _screen_nonfinite(self, active: list[int], step: int) -> list[int]:
        """Drop members whose nets went non-finite from the lockstep.

        A diverged member's NaN parameters would flow through the shared
        stacked forwards; instead it is flagged ``quarantined`` and
        finished sequentially by :meth:`_finish_quarantined`.  Pure
        observation on the healthy path — no RNG draws, no writes — so
        an all-finite population is bit-identical with or without the
        screen.
        """
        finite = self.view.members_finite()
        if all(finite[i] for i in active):
            return active
        kept = []
        for i in active:
            if finite[i]:
                kept.append(i)
                continue
            m = self.members[i]
            m.quarantined = True
            t = m.tuner.telemetry
            t.count(
                "population.quarantined_total",
                help="members isolated from the lockstep after "
                     "non-finite parameters",
                tuner=m.tuner.name,
            )
            t.event("member-quarantined", member=i, step=step,
                    tuner=m.tuner.name)
        return kept

    def _finish_quarantined(
        self, steps: int, time_budget_s: float | None
    ) -> None:
        """Run each quarantined member's remaining steps alone via the
        scalar :meth:`OnlineTuner.tune` path.  Its nets are already
        damaged, so even the sequential finish may fail — that failure
        is contained to the member and recorded, never propagated."""
        for i, m in enumerate(self.members):
            if not m.quarantined or m.done:
                continue
            start = len(m.session.steps) if m.session is not None else 0
            if start >= steps:
                continue
            t = m.tuner.telemetry
            try:
                m.tuner.tune(
                    m.env, steps=steps, time_budget_s=time_budget_s,
                    session=m.session, start_step=start,
                    resilience=m.resilience,
                )
            except Exception as exc:
                t.count(
                    "population.quarantine_failures_total",
                    help="quarantined members whose sequential finish "
                         "also failed",
                    tuner=m.tuner.name,
                )
                t.event(
                    "member-quarantine-failed", member=i,
                    error=f"{type(exc).__name__}: {exc}",
                )

    def _lockstep(
        self, step: int, active: list[int], time_budget_s: float | None
    ) -> None:
        """One population step: batched recommend + evaluate, scalar tail."""
        members = self.members
        lead = members[0].tuner.telemetry
        t0 = time.perf_counter()

        # Phase A+B+C — recommendation.  Guard fallbacks and exploration
        # sigmas first (scalar, member order), then one stacked actor
        # pass, then per-member exploration noise, then the batched
        # Twin-Q resolution.
        fallback: dict[int, bool] = {}
        sigma: dict[int, float | None] = {}
        diags: dict[int, dict] = {}
        recommend_idx: list[int] = []
        with lead.span("population.recommend", step=step):
            for i in active:
                m = members[i]
                mt = m.tuner
                guard = (
                    m.resilience.guard if m.resilience is not None else None
                )
                if guard is not None and guard.should_fallback:
                    self._actions[i] = guard.trigger_fallback()
                    fallback[i] = True
                    sigma[i] = None
                    diags[i] = {}
                    mt.telemetry.count(
                        "resilience.fallbacks_total",
                        help="safety-guard fallbacks to "
                        "best-known-good configuration",
                        tuner=mt.name,
                    )
                    mt._note_intervention("fallback", step)
                else:
                    fallback[i] = False
                    sigma[i] = (
                        guard.effective_sigma(mt.exploration_sigma)
                        if guard is not None
                        else mt.exploration_sigma
                    )
                    self._states[i] = m.state
                    recommend_idx.append(i)
            if recommend_idx:
                acts = self.view.act(self._states)
                # Exploration noise: the *draws* stay scalar per member,
                # in member order (each member owns its own generator, so
                # merging them would change the streams); only the
                # elementwise add+clip over the collected rows is batched,
                # which is bit-identical to the per-member expression.
                noisy: list[int] = []
                for i in recommend_idx:
                    mt = members[i].tuner
                    if sigma[i] > 0:
                        self._noise[i] = mt._rng.normal(
                            0.0, sigma[i], (self.view.action_dim,)
                        )
                        noisy.append(i)
                    else:
                        self._actions[i] = acts[i]
                if noisy:
                    rows = np.asarray(noisy)
                    self._actions[rows] = np.clip(
                        acts[rows] + self._noise[rows], 0.0, 1.0
                    )
                twinq_idx = [
                    i for i in recommend_idx if members[i].tuner.use_twin_q
                ]
                if twinq_idx:
                    diags.update(self._twinq_resolve(twinq_idx, step))
                for i in recommend_idx:
                    diags.setdefault(i, {})
        # One batched recommendation, split equally; sessions_equal
        # excludes this wall-clock field (module docstring).
        rec_share = (time.perf_counter() - t0) / len(active)

        # Phase D — evaluation: attempt 1 for every member through one
        # shared simulator pass; retries scalar per member.
        with lead.span("population.evaluate", step=step):
            first = self.venv.step(self._actions[active], indices=active)
            resolved: list[tuple[StepOutcome, int, float]] = []
            for pos, i in enumerate(active):
                m = members[i]
                if m.resilience is not None:
                    resolved.append(
                        self._finish_resilient(
                            m, first[pos], self._actions[i], step, member=i
                        )
                    )
                else:
                    resolved.append((first[pos], 1, 0.0))

        # Phase E — scalar tail per member, in member order: replay push,
        # fine-tune (writes through the stacked views), record, counters.
        # Sinks are put in deferred-flush mode for the whole tail, so the
        # round issues one flush per distinct event log / ledger instead
        # of one per member (content and order unchanged).
        with ExitStack() as flushes:
            seen: set[int] = set()
            for i in active:
                t = members[i].tuner.telemetry
                for sink in (t.logger, t.ledger):
                    if id(sink) not in seen:
                        seen.add(id(sink))
                        flushes.enter_context(sink.deferred())
            self._scalar_tail(
                step, active, resolved, diags, fallback, sigma,
                rec_share, time_budget_s,
            )

    def _scalar_tail(
        self,
        step: int,
        active: list[int],
        resolved: list[tuple[StepOutcome, int, float]],
        diags: dict[int, dict],
        fallback: dict[int, bool],
        sigma: dict[int, float | None],
        rec_share: float,
        time_budget_s: float | None,
    ) -> None:
        members = self.members
        for pos, i in enumerate(active):
            m = members[i]
            mt = m.tuner
            t = mt.telemetry
            outcome, attempts, extra_cost = resolved[pos]
            next_state = outcome.next_state
            if m.resilience is not None:
                next_state, n_repaired = sanitize_state(next_state)
                if n_repaired:
                    t.count(
                        "resilience.state_repairs_total",
                        n_repaired,
                        help="NaN observation entries repaired",
                        tuner=mt.name,
                    )
                    mt._note_intervention("state-repair", step)
            m.state = next_state
            guard = m.resilience.guard if m.resilience is not None else None
            if guard is not None:
                guard.record(outcome.success, outcome.reward, outcome.action)

            if mt.buffer is not None:
                mt.buffer.push(
                    Transition(
                        state=outcome.state,
                        action=outcome.action,
                        reward=outcome.reward,
                        next_state=next_state,
                    )
                )
                if mt.buffer.can_sample(mt.agent.hp.batch_size):
                    with t.span("online.finetune"):
                        for _ in range(mt.fine_tune_updates):
                            batch = mt.buffer.sample(mt.agent.hp.batch_size)
                            d = mt.agent.update(batch)
                            if isinstance(
                                mt.buffer, PrioritizedReplayBuffer
                            ):
                                mt.buffer.update_priorities(
                                    batch.indices, d["td_errors"]
                                )

            step_cost_s = float(outcome.duration_s + extra_cost)
            diag = diags[i]
            m.session.add(
                TuningStepRecord(
                    step=step,
                    duration_s=step_cost_s,
                    recommendation_s=rec_share,
                    reward=outcome.reward,
                    success=outcome.success,
                    config=outcome.config,
                    action=outcome.action,
                    twinq_iterations=diag.get("twinq_iterations"),
                    twinq_accepted=diag.get("twinq_accepted"),
                    original_q=diag.get("original_q"),
                    final_q=diag.get("final_q"),
                    attempts=attempts,
                    aborted="watchdog-abort" in outcome.faults,
                    fallback=fallback[i],
                    faults=outcome.faults,
                )
            )
            if t.ledger.enabled:
                # Same per-step charge shape as the scalar loop; the
                # batched recommendation is split equally (rec_share).
                mt._charge_step(
                    m.env, step, outcome, diag, fallback[i], rec_share,
                    attempts, member=i,
                )
            t.count(
                "online.steps_total",
                help="online tuning steps served",
                tuner=mt.name,
            )
            t.count(
                "online.recommendation_seconds_total",
                rec_share,
                help="cumulative recommendation time",
                tuner=mt.name,
            )
            t.count(
                "online.evaluation_seconds_total",
                step_cost_s,
                help="cumulative configuration evaluation time",
                tuner=mt.name,
            )
            t.observe(
                "online.step_reward",
                float(outcome.reward),
                help="per-step reward",
                tuner=mt.name,
            )
            if t.diagnostics.enabled:
                q_pred = diag.get("final_q")
                if q_pred is None and hasattr(mt.agent, "min_q"):
                    q_pred = float(
                        mt.agent.min_q(outcome.state, outcome.action)
                    )
                t.diagnostics.observe_step(
                    step=step,
                    reward=float(outcome.reward),
                    success=bool(outcome.success),
                    q_pred=q_pred,
                    sigma=sigma[i],
                )
                for alert in t.diagnostics.drain_alerts():
                    t.event("alert", **alert.as_event_fields())
            t.event(
                "online-step",
                tuner=mt.name,
                step=step,
                duration_s=step_cost_s,
                reward=float(outcome.reward),
                success=bool(outcome.success),
                recommendation_s=float(rec_share),
                attempts=attempts,
                fallback=fallback[i],
                faults=list(outcome.faults),
            )
            if (
                time_budget_s is not None
                and m.session.total_tuning_seconds >= time_budget_s
            ):
                m.done = True
