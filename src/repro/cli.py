"""Command-line interface.

Subcommands::

    python -m repro.cli train   --workload TS --dataset D1 --iterations 1500 \
                                --model model.npz
    python -m repro.cli tune    --workload TS --dataset D1 --model model.npz \
                                --steps 5
    python -m repro.cli evaluate --workload TS --dataset D1 [--set k=v ...]
    python -m repro.cli bench-report --scale quick

``train`` runs the offline stage and saves the model; ``tune`` loads it
and serves an online tuning request; ``evaluate`` runs a single
configuration on the simulator (the HiBench-equivalent one-off run);
``bench-report`` regenerates EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys
from pathlib import Path

import numpy as np

from repro.baselines.cdbtune import CDBTune
from repro.cluster.hardware import CLUSTER_A, CLUSTER_B
from repro.core.deepcat import DeepCAT
from repro.core.persistence import load_tuner, save_tuner
from repro.factory import make_env
from repro.faults import PROFILES

__all__ = ["main", "build_parser"]

_CLUSTERS = {"cluster-a": CLUSTER_A, "cluster-b": CLUSTER_B}

#: conventional exit status for "terminated by SIGINT"
_INTERRUPTED_RC = 130

#: the committed regression-gate baseline (see tools/bench_baseline.py)
BASELINE_BENCH_PATH = "benchmarks/baselines/BENCH_baseline.json"


@contextlib.contextmanager
def _sigterm_as_interrupt():
    """Deliver SIGTERM as KeyboardInterrupt for the wrapped block.

    Long-running commands get one graceful-shutdown path for Ctrl-C and
    ``kill``: flush telemetry, write the final checkpoint, exit 130.
    Restores the previous handler on exit; a no-op off the main thread
    (where ``signal.signal`` is unavailable).
    """

    def handler(signum, frame):
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, handler)
    except ValueError:
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DeepCAT reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--workload", default="TS",
                       choices=("WC", "TS", "PR", "KM",
                                "BAY", "AGG", "JOIN"))
        p.add_argument("--dataset", default="D1",
                       choices=("D1", "D2", "D3"))
        p.add_argument("--cluster", default="cluster-a",
                       choices=sorted(_CLUSTERS))
        p.add_argument("--seed", type=int, default=0)

    def telemetry_flags(p):
        p.add_argument(
            "--trace", default=None, metavar="PATH",
            help="write a JSONL span trace here (plus a Chrome "
                 "trace_event file next to it, suffix .chrome.json)",
        )
        p.add_argument(
            "--metrics-out", default=None, metavar="PATH",
            help="write the metrics dump here (.json => JSON, anything "
                 "else => Prometheus text format)",
        )
        p.add_argument(
            "--manifest", default=None, metavar="PATH",
            help="write the run manifest (seed, git SHA, hyper-params, "
                 "wall-clock breakdown) here",
        )
        p.add_argument(
            "--events", default=None, metavar="PATH",
            help="append structured JSONL events (offline-step, "
                 "online-step, sim-stage, ...) here",
        )
        p.add_argument(
            "--ledger", default=None, metavar="PATH",
            help="stream a typed tuning-cost ledger (JSONL) here: "
                 "evaluation/warmup/retry/watchdog_abort/fallback/"
                 "recommendation charges plus Twin-Q counterfactual "
                 "savings; inspect with 'repro explain'",
        )

    def run_flags(p):
        """Profiling/heartbeat flags for the long-running run commands."""
        p.add_argument(
            "--profile", action="store_true",
            help="profile the run: per-phase timing report plus a "
                 "cProfile capture (pstats dump + hotspot table)",
        )
        p.add_argument(
            "--profile-out", default=None, metavar="PATH",
            help="where to write the pstats dump (default: "
                 "profile.pstats; implies --profile)",
        )
        p.add_argument(
            "--heartbeat", default=None, metavar="PATH",
            help="overwrite a small JSON progress document here every "
                 "step (readable live via 'repro telemetry watch')",
        )
        p.add_argument(
            "--diagnostics", action="store_true",
            help="run the learning-health detectors (Q-overestimation, "
                 "critic divergence, reward plateau, RDPER pool health, "
                 "exploration collapse, intervention rate); alerts go to "
                 "--events and the end-of-run summary. Pure observers: "
                 "science outputs are bit-identical either way",
        )

    p_train = sub.add_parser("train", help="offline-train a tuner")
    common(p_train)
    telemetry_flags(p_train)
    run_flags(p_train)
    p_train.add_argument("--tuner", default="deepcat",
                         choices=("deepcat", "cdbtune"))
    p_train.add_argument("--iterations", type=int, default=1500)
    p_train.add_argument("--model", required=True,
                         help="output .npz path")

    p_tune = sub.add_parser("tune", help="serve an online tuning request")
    common(p_tune)
    telemetry_flags(p_tune)
    run_flags(p_tune)
    p_tune.add_argument("--model", default=None,
                        help="trained .npz path (required unless --resume)")
    p_tune.add_argument("--steps", type=int, default=5)
    p_tune.add_argument("--time-budget", type=float, default=None,
                        help="total tuning cost constraint in seconds")
    p_tune.add_argument(
        "--fault-profile", default="none", choices=sorted(PROFILES),
        help="chaos preset injected into evaluations (default: none)",
    )
    p_tune.add_argument(
        "--no-resilience", action="store_true",
        help="disable retry/watchdog/safety-guard even under faults",
    )
    p_tune.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="snapshot the session here for crash recovery",
    )
    p_tune.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="snapshot cadence in steps (default: every step)",
    )
    p_tune.add_argument(
        "--resume", default=None, metavar="CKPT",
        help="resume a killed session from its checkpoint; --steps is "
             "the TOTAL step count (already-completed steps are kept)",
    )
    p_tune.add_argument(
        "--no-twin-q", action="store_true",
        help="disable the Twin-Q Optimizer screening for this session "
             "(the model's training is unchanged)",
    )
    p_tune.add_argument(
        "--q-threshold", type=float, default=None, metavar="Q",
        help="override the Twin-Q acceptance threshold Q_th for this "
             "session",
    )
    p_tune.add_argument(
        "--population", type=int, default=None, metavar="N",
        help="serve N independent sessions in one lockstep population "
             "(member i uses the i-th seed derived from --seed); "
             "bit-identical to N sequential runs, much faster",
    )
    p_tune.add_argument(
        "--shards", type=int, default=1, metavar="K",
        help="step the population across K worker processes over shared "
             "memory (requires --population or a population checkpoint); "
             "results are bit-identical to --shards 1",
    )
    p_tune.add_argument(
        "--blas-threads", type=int, default=1, metavar="T",
        help="BLAS threads per shard worker (default: 1 — process-level "
             "parallelism wants single-threaded math kernels)",
    )

    p_eval = sub.add_parser(
        "evaluate", help="run one configuration on the simulator"
    )
    common(p_eval)
    p_eval.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a parameter (repeatable)",
    )

    p_rep = sub.add_parser(
        "bench-report", aliases=["report"], help="regenerate EXPERIMENTS.md"
    )
    p_rep.add_argument("--scale", default="quick",
                       choices=("quick", "standard", "full"))
    p_rep.add_argument("--output", default="EXPERIMENTS.md")
    telemetry_flags(p_rep)
    from repro.experiments.report import add_engine_arguments

    add_engine_arguments(p_rep)

    p_corpus = sub.add_parser(
        "corpus", help="generate an offline sample corpus (.npz)"
    )
    common(p_corpus)
    p_corpus.add_argument("--samples", type=int, default=500)
    p_corpus.add_argument("--sampler", default="uniform",
                          choices=("uniform", "lhs"))
    p_corpus.add_argument("--output", required=True, help="output .npz path")

    p_tel = sub.add_parser(
        "telemetry", help="inspect telemetry artifacts from a tuned run"
    )
    p_tel.add_argument(
        "action", choices=("summary", "dump", "watch", "top", "stitch"),
        help="summary: human-readable cost breakdown; dump: normalized "
             "JSON of the artifact; watch: tail a live heartbeat file; "
             "top: fleet dashboard over many heartbeats (files or "
             "directories); stitch: merge a grid's worker traces into "
             "one Chrome/Perfetto file with the critical path",
    )
    p_tel.add_argument(
        "path", nargs="+",
        help="a trace .jsonl, a metrics .prom/.json dump, a run "
             "manifest .json, an events .jsonl, or (watch/top) "
             "heartbeat files — top also accepts directories to scan; "
             "stitch takes a bus directory or trace .jsonl files",
    )
    p_tel.add_argument(
        "--out", default=None, metavar="PATH",
        help="stitch: where to write the merged Chrome trace (default: "
             "<bus-dir>/stitched.chrome.json)",
    )
    p_tel.add_argument(
        "--min-ms", type=float, default=0.0,
        help="hide spans shorter than this in the trace summary",
    )
    p_tel.add_argument(
        "--follow", action="store_true",
        help="watch: keep re-rendering until interrupted (default: "
             "print the current heartbeat once)",
    )
    p_tel.add_argument(
        "--once", action="store_true",
        help="top: render the dashboard once and exit (default: "
             "refresh until interrupted)",
    )
    p_tel.add_argument(
        "--interval", type=float, default=2.0,
        help="watch --follow / top: poll cadence in seconds",
    )
    p_tel.add_argument(
        "--stale-after", type=float, default=None, metavar="SECONDS",
        help="watch/top: mark a session STALLED when its heartbeat file "
             "is older than this (default: 3x the session's mean step "
             "interval, floor 10s)",
    )
    p_tel.add_argument(
        "--fail-on-stall", action="store_true",
        help="watch/top: exit with status 3 when a session is STALLED "
             "or CRASHED",
    )

    p_doc = sub.add_parser(
        "doctor", help="post-mortem diagnosis of a run's artifacts"
    )
    p_doc.add_argument(
        "path",
        help="a run directory (events/timeline + manifest + heartbeat) "
             "or a single events .jsonl file",
    )
    p_doc.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the machine-readable diagnosis document",
    )
    p_doc.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="show only the N highest-ranked findings",
    )
    p_doc.add_argument(
        "--fail-on-findings", action="store_true",
        help="exit with status 4 when any warning/critical finding "
             "survives ranking (CI gate mode)",
    )

    p_exp = sub.add_parser(
        "explain",
        help="cost breakdown of a run from its tuning-cost ledger",
    )
    p_exp.add_argument(
        "path", nargs="+",
        help="ledger .jsonl file(s), or a run/bus directory containing "
             "a ledgers/ subdirectory; multiple files are merged "
             "(--compare takes exactly two)",
    )
    p_exp.add_argument(
        "--compare", action="store_true",
        help="diff two ledgers account-by-account instead of "
             "summarizing one",
    )
    p_exp.add_argument(
        "--top", type=int, default=5, metavar="K",
        help="show the K most expensive charge entries (default: 5)",
    )
    p_exp.add_argument(
        "--knobs", type=int, default=8, metavar="K",
        help="show the K knobs with the widest cost spread across "
             "evaluated configs (default: 8)",
    )

    p_bench = sub.add_parser(
        "bench", help="performance benchmarks and regression gating"
    )
    bench_sub = p_bench.add_subparsers(dest="bench_action", required=True)

    pb_run = bench_sub.add_parser("run", help="measure and write BENCH_*.json")
    pb_run.add_argument(
        "--out", default=None, metavar="PATH",
        help="output file (default: BENCH_<utc-timestamp>.json)",
    )
    pb_run.add_argument("--repetitions", type=int, default=5)
    pb_run.add_argument("--warmup", type=int, default=1)
    pb_run.add_argument(
        "--kind", default=None, choices=("micro", "macro"),
        help="run only this benchmark kind (default: all)",
    )
    pb_run.add_argument(
        "--only", action="append", default=[], metavar="NAME",
        help="run only the named benchmark (repeatable)",
    )
    pb_run.add_argument(
        "--no-alloc", action="store_true",
        help="skip the tracemalloc allocation pass",
    )
    pb_run.add_argument(
        "--shards", type=int, default=1, metavar="K",
        help="run pipeline.population across K shard processes "
             "(default: 1 = single-process lockstep); recorded in the "
             "document's config block",
    )

    pb_cmp = bench_sub.add_parser(
        "compare", help="gate a candidate bench file against a baseline"
    )
    pb_cmp.add_argument("candidate", help="candidate BENCH_*.json")
    pb_cmp.add_argument(
        "baseline", nargs="?", default=BASELINE_BENCH_PATH,
        help=f"baseline bench file (default: {BASELINE_BENCH_PATH})",
    )
    pb_cmp.add_argument(
        "--threshold", type=float, default=None, metavar="FRAC",
        help="median slowdown that fails the gate (default: 0.25 = 25%%)",
    )
    pb_cmp.add_argument(
        "--check-schema", action="store_true",
        help="only validate both documents against the bench schema; "
             "no timing comparison (CI mode — timings are not asserted "
             "on shared runners)",
    )

    bench_sub.add_parser("list", help="list registered benchmarks")
    return parser


def _coerce(param, raw: str):
    """Parse a CLI override against the parameter's type."""
    from repro.config.parameter import (
        BoolParameter,
        CategoricalParameter,
        FloatParameter,
        IntParameter,
    )

    if isinstance(param, BoolParameter):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"{param.name}: cannot parse boolean {raw!r}")
    if isinstance(param, IntParameter):
        return int(raw)
    if isinstance(param, FloatParameter):
        return float(raw)
    if isinstance(param, CategoricalParameter):
        return raw
    raise TypeError(f"unknown parameter type for {param.name}")


def _run_logger(args, total_steps: int | None):
    """The event logger from --events/--heartbeat (``None`` when unset)."""
    from repro.telemetry import HeartbeatWriter
    from repro.utils.logging import JsonlLogger, TeeLogger

    events = JsonlLogger(args.events) if args.events else None
    heartbeat = (
        HeartbeatWriter(args.heartbeat, total_steps=total_steps)
        if getattr(args, "heartbeat", None)
        else None
    )
    if events and heartbeat:
        return TeeLogger(events, heartbeat)
    return events or heartbeat


def _run_profiler(args):
    """A cProfile-capable profiler when --profile[-out] is set, else None."""
    if getattr(args, "profile", False) or getattr(args, "profile_out", None):
        from repro.telemetry import Profiler

        return Profiler(cprofile=True)
    return None


def _telemetry_context(args, kind: str, total_steps: int | None = None):
    """Build a RunContext from the --trace/--metrics-out/... flags.

    Returns the shared null context when no flag is set, so the default
    CLI path stays on the telemetry-free fast path.  ``--profile`` and
    ``--heartbeat`` ride on the same context: profiling-only runs get a
    plain context (no recording pillars, nothing extra written).
    """
    from repro.telemetry import NULL_CONTEXT, RunContext

    logger = _run_logger(args, total_steps)
    profiler = _run_profiler(args)
    diagnostics = None
    if getattr(args, "diagnostics", False):
        from repro.telemetry import DiagnosticsEngine

        diagnostics = DiagnosticsEngine()
    ledger = None
    if getattr(args, "ledger", None):
        from repro.telemetry import CostLedger

        ledger = CostLedger(args.ledger)
    if not (args.trace or args.metrics_out or args.manifest):
        if (
            logger is None
            and profiler is None
            and diagnostics is None
            and ledger is None
        ):
            return NULL_CONTEXT
        return RunContext(
            logger=logger,
            profiler=profiler,
            diagnostics=diagnostics,
            ledger=ledger,
        )
    ctx = RunContext.recording(
        trace=args.trace,
        metrics=args.metrics_out,
        manifest=args.manifest,
        logger=logger,
        seed=args.seed,
        kind=kind,
        profiler=profiler,
        diagnostics=diagnostics,
        ledger=ledger,
    )
    ctx.manifest.workload = args.workload
    ctx.manifest.dataset = args.dataset
    ctx.manifest.extra["cluster_name"] = args.cluster
    return ctx


@contextlib.contextmanager
def _profiled(ctx, args):
    """Run the wrapped block under the context's profiler, if any.

    On exit (normal or interrupted) the capture stops, the nn-layer hook
    is deactivated, the phase table and cProfile hotspot table print,
    and the pstats dump is written (``--profile-out``, default
    ``profile.pstats``).
    """
    from repro.telemetry import NullProfiler
    from repro.telemetry.profiling import activate, deactivate

    prof = ctx.profiler
    if isinstance(prof, NullProfiler):
        yield
        return
    activate(prof)
    prof.start()
    try:
        yield
    finally:
        prof.stop()
        deactivate()
        print("\nprofile: per-phase wall time")
        print(prof.report())
        if prof.has_cprofile:
            out = args.profile_out or "profile.pstats"
            prof.dump_pstats(out)
            print(f"\nprofile: wrote pstats dump {out}")
            print(prof.hotspot_table(top_n=15))


def _print_diagnostics(ctx) -> None:
    """End-of-run learning-health summary (``--diagnostics`` runs only)."""
    if not ctx.diagnostics.enabled:
        return
    summary = ctx.diagnostics.summary()
    if not summary["alerts_total"]:
        print("diagnostics: healthy (no alerts)")
        return
    print(f"diagnostics: {summary['alerts_total']} alert(s)")
    for name, entry in sorted(summary["by_name"].items()):
        print(
            f"  [{entry['severity']}] {name} x{entry['count']} "
            f"(last step {entry['last_step']})"
        )
    print("diagnostics: run 'repro doctor' on the run artifacts for "
          "ranked remediation hints")


def _apply_twinq_flags(args, tuner) -> None:
    """Apply --no-twin-q / --q-threshold session overrides to a tuner.

    These are plain attributes on the DeepCAT tuner read at tune time;
    agents without Twin-Q (e.g. CDBTune) silently ignore the flags.
    """
    if getattr(args, "no_twin_q", False) and hasattr(tuner, "use_twin_q"):
        tuner.use_twin_q = False
    threshold = getattr(args, "q_threshold", None)
    if threshold is not None and hasattr(tuner, "q_threshold"):
        tuner.q_threshold = float(threshold)


def _print_ledger_summary(ctx) -> None:
    """One-line cost accounting for --ledger runs; details via explain."""
    led = ctx.ledger
    if not led.enabled:
        return
    saved = led.saved_by_screening
    print(
        f"ledger: {len(led.charges())} charge(s) totalling "
        f"{led.total_charged():.1f}s, screening saved {saved:.1f}s"
        + (f" (run 'repro explain {led.path}' for the breakdown)"
           if led.path else "")
    )


def _finish_telemetry(ctx) -> None:
    _print_diagnostics(ctx)
    _print_ledger_summary(ctx)
    written = ctx.save()
    for path in written:
        print(f"telemetry: wrote {path}")


def _finalize_heartbeat(args, status: str) -> None:
    """Stamp the heartbeat's terminal marker so `telemetry top/watch`
    can tell this deliberate exit from a crash (pid gone, no marker)."""
    path = getattr(args, "heartbeat", None)
    if not path:
        return
    from repro.telemetry import finalize_heartbeat

    finalize_heartbeat(path, status)


def _finish_interrupted(ctx, stage: str) -> None:
    """Seal telemetry for a command cut short by SIGINT/SIGTERM.

    The manifest (when recording) is stamped ``interrupted`` so a
    partial run is never mistaken for a complete one.
    """
    if ctx.manifest is not None:
        ctx.manifest.extra["interrupted"] = True
        ctx.manifest.extra["interrupted_stage"] = stage
    _finish_telemetry(ctx)


def _cmd_train(args) -> int:
    env = make_env(args.workload, args.dataset,
                   cluster=_CLUSTERS[args.cluster], seed=args.seed)
    cls = DeepCAT if args.tuner == "deepcat" else CDBTune
    tuner = cls.from_env(env, seed=args.seed)
    print(
        f"offline-training {args.tuner} on {args.workload}-{args.dataset} "
        f"({args.iterations} iterations)..."
    )
    ctx = _telemetry_context(
        args, kind="offline-train", total_steps=args.iterations
    )
    with _sigterm_as_interrupt(), _profiled(ctx, args):
        try:
            log = tuner.train_offline(env, args.iterations, telemetry=ctx)
        except KeyboardInterrupt:
            save_tuner(tuner, args.model)
            print(f"\ninterrupted: saved partially-trained {args.model}")
            _finish_interrupted(ctx, "offline-train")
            _finalize_heartbeat(args, "interrupted")
            return _INTERRUPTED_RC
    save_tuner(tuner, args.model)
    print(
        f"saved {args.model}; best configuration seen offline "
        f"{log.best_duration_s:.1f}s (default {env.default_duration:.1f}s)"
    )
    _finish_telemetry(ctx)
    _finalize_heartbeat(args, "completed")
    return 0


def _print_session(session) -> None:
    for step in session.steps:
        status = "ok" if step.success else "FAILED"
        extras = []
        if step.attempts > 1:
            extras.append(f"{step.attempts} attempts")
        if step.aborted:
            extras.append("watchdog-abort")
        if step.fallback:
            extras.append("fallback")
        if step.faults:
            extras.append("faults: " + ",".join(step.faults))
        suffix = f" [{'; '.join(extras)}]" if extras else ""
        print(
            f"step {step.step + 1}: {step.duration_s:8.1f}s "
            f"(reward {step.reward:+.2f}, {status}){suffix}"
        )
    if any(s.success for s in session.steps):
        print(
            f"best {session.best_duration_s:.1f}s "
            f"({session.speedup_over_default:.2f}x over default), "
            f"total tuning cost {session.total_tuning_seconds:.1f}s"
        )
    else:
        print(
            "no successful step in session; "
            f"total tuning cost {session.total_tuning_seconds:.1f}s"
        )


def _checkpoint_is_population(path) -> bool:
    """Sniff whether a checkpoint file holds a population snapshot."""
    import pickle

    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    return "population_checkpoint_version" in payload


def _tune_population(args) -> int:
    from repro.core.persistence import (
        PopulationCheckpointManager,
        load_population_checkpoint,
    )
    from repro.core.population import PopulationTuner, population_seed_plan
    from repro.core.resilience import ResiliencePolicy

    if args.resume is not None:
        ck = load_population_checkpoint(args.resume)
        tuners, envs, sessions = ck.tuners, ck.envs, ck.sessions
        start_steps, resiliences = ck.next_steps, ck.resiliences
        ckpt_path = args.checkpoint if args.checkpoint else args.resume
        if min(start_steps) >= args.steps:
            print(f"nothing to do: {args.resume} already has "
                  f"{min(start_steps)} step(s) in every session")
            for i, session in enumerate(sessions):
                print(f"--- session {i + 1}/{len(sessions)} ---")
                _print_session(session)
            return 0
        print(
            f"resuming population of {len(tuners)} from {args.resume} "
            f"at step {min(start_steps) + 1}/{args.steps}"
        )
    else:
        if args.population < 1:
            print("tune: --population must be >= 1", file=sys.stderr)
            return 2
        seeds = population_seed_plan(args.seed, args.population)
        tuners = [load_tuner(args.model, seed=s) for s in seeds]
        envs = [
            make_env(args.workload, args.dataset,
                     cluster=_CLUSTERS[args.cluster], seed=1000 + s,
                     fault_profile=args.fault_profile)
            for s in seeds
        ]
        resiliences = [
            ResiliencePolicy.default(seed=s)
            if args.fault_profile != "none" and not args.no_resilience
            else None
            for s in seeds
        ]
        sessions = [None] * len(seeds)
        start_steps = [0] * len(seeds)
        ckpt_path = args.checkpoint
    for tuner in tuners:
        _apply_twinq_flags(args, tuner)
    checkpoint = (
        PopulationCheckpointManager(
            ckpt_path, tuners, envs, resiliences=resiliences,
            every=args.checkpoint_every,
        )
        if ckpt_path
        else None
    )
    shards = getattr(args, "shards", 1)
    if shards < 1:
        print("tune: --shards must be >= 1", file=sys.stderr)
        return 2
    if shards > 1 and getattr(args, "ledger", None):
        print(
            "tune: note: --ledger records only parent-side costs under "
            "--shards (worker telemetry is process-local)",
            file=sys.stderr,
        )
    ctx = _telemetry_context(args, kind="online-tune", total_steps=args.steps)
    with _sigterm_as_interrupt(), _profiled(ctx, args):
        try:
            if shards > 1:
                from repro.parallel.sharding import ShardCrash, ShardedPopulation

                population = ShardedPopulation(
                    tuners, envs, shards=shards, telemetry=ctx,
                    resiliences=resiliences, sessions=sessions,
                    start_steps=start_steps,
                    blas_threads=getattr(args, "blas_threads", 1),
                )
                try:
                    results = population.tune(
                        steps=args.steps, time_budget_s=args.time_budget,
                        checkpoint=checkpoint,
                    )
                except ShardCrash as exc:
                    print(f"tune: shard failure: {exc}", file=sys.stderr)
                    if checkpoint is not None and checkpoint.saves:
                        print(
                            f"tune: resume from {checkpoint.path} with "
                            f"--resume {checkpoint.path}",
                            file=sys.stderr,
                        )
                    _finish_interrupted(ctx, "online-tune")
                    _finalize_heartbeat(args, "crashed")
                    return 1
            else:
                population = PopulationTuner.from_deepcat(
                    tuners, envs, telemetry=ctx, resiliences=resiliences,
                    sessions=sessions, start_steps=start_steps,
                )
                results = population.tune(
                    steps=args.steps, time_budget_s=args.time_budget,
                    checkpoint=checkpoint,
                )
        except KeyboardInterrupt:
            print("\ninterrupted", end="")
            if checkpoint is not None:
                print(f": population checkpointed to {checkpoint.path}; "
                      f"resume with --resume {checkpoint.path}", end="")
            print()
            _finish_interrupted(ctx, "online-tune")
            _finalize_heartbeat(args, "interrupted")
            return _INTERRUPTED_RC
    for i, session in enumerate(results):
        print(f"--- session {i + 1}/{len(results)} ---")
        _print_session(session)
    _finish_telemetry(ctx)
    _finalize_heartbeat(args, "completed")
    return 0


def _cmd_tune(args) -> int:
    from repro.core.persistence import CheckpointManager, load_checkpoint
    from repro.core.resilience import ResiliencePolicy

    if args.resume is None and args.model is None:
        print("tune: either --model or --resume is required",
              file=sys.stderr)
        return 2
    if args.resume is not None and _checkpoint_is_population(args.resume):
        return _tune_population(args)
    if args.resume is None and args.population is not None:
        return _tune_population(args)
    if args.resume is not None:
        ckpt = load_checkpoint(args.resume)
        tuner, env = ckpt.tuner, ckpt.env
        session, start_step = ckpt.session, ckpt.next_step
        resilience = ckpt.resilience
        # keep snapshotting into the same file unless redirected
        ckpt_path = args.checkpoint if args.checkpoint else args.resume
        if start_step >= args.steps:
            print(f"nothing to do: {args.resume} already has "
                  f"{start_step} step(s)")
            _print_session(session)
            return 0
        print(
            f"resuming {session.workload}-{session.dataset} from "
            f"{args.resume} at step {start_step + 1}/{args.steps}"
        )
    else:
        tuner = load_tuner(args.model, seed=args.seed)
        env = make_env(args.workload, args.dataset,
                       cluster=_CLUSTERS[args.cluster], seed=1000 + args.seed,
                       fault_profile=args.fault_profile)
        session, start_step = None, 0
        # Resilience rides along with chaos: a fault-free tune keeps the
        # historical single-attempt behaviour unless faults are injected.
        resilience = (
            ResiliencePolicy.default(seed=args.seed)
            if args.fault_profile != "none" and not args.no_resilience
            else None
        )
        ckpt_path = args.checkpoint
    _apply_twinq_flags(args, tuner)
    checkpoint = (
        CheckpointManager(
            ckpt_path, tuner, env, resilience=resilience,
            every=args.checkpoint_every,
        )
        if ckpt_path
        else None
    )
    ctx = _telemetry_context(args, kind="online-tune", total_steps=args.steps)
    with _sigterm_as_interrupt(), _profiled(ctx, args):
        try:
            session = tuner.tune_online(
                env, steps=args.steps, time_budget_s=args.time_budget,
                telemetry=ctx, resilience=resilience, session=session,
                start_step=start_step, checkpoint=checkpoint,
            )
        except KeyboardInterrupt:
            print("\ninterrupted", end="")
            if checkpoint is not None:
                print(f": session checkpointed to {checkpoint.path}; "
                      f"resume with --resume {checkpoint.path}", end="")
            print()
            _finish_interrupted(ctx, "online-tune")
            _finalize_heartbeat(args, "interrupted")
            return _INTERRUPTED_RC
    _print_session(session)
    _finish_telemetry(ctx)
    _finalize_heartbeat(args, "completed")
    return 0


def _cmd_evaluate(args) -> int:
    env = make_env(args.workload, args.dataset,
                   cluster=_CLUSTERS[args.cluster], seed=args.seed)
    config = env.space.defaults()
    for item in args.set:
        if "=" not in item:
            print(f"bad --set {item!r}, expected KEY=VALUE", file=sys.stderr)
            return 2
        key, raw = item.split("=", 1)
        if key not in env.space:
            print(f"unknown parameter {key!r}", file=sys.stderr)
            return 2
        config[key] = _coerce(env.space[key], raw)
    outcome = env.step(env.space.encode(config))
    result = outcome.result
    status = "OK" if result.success else f"FAILED: {result.failure_reason}"
    print(
        f"{args.workload}-{args.dataset} on {args.cluster}: "
        f"{result.duration_s:.1f}s [{status}]"
    )
    from repro.sim.timeline import render_timeline

    print(render_timeline(result))
    return 0


def _report_telemetry_context(args):
    """Like :func:`_telemetry_context` but for the report command.

    ``bench-report`` has no workload/dataset/seed flags, so the manifest
    records only the run kind and scale.
    """
    from repro.telemetry import NULL_CONTEXT, RunContext
    from repro.utils.logging import JsonlLogger

    if not (
        args.trace or args.metrics_out or args.manifest or args.events
        or getattr(args, "ledger", None)
    ):
        return NULL_CONTEXT
    ledger = None
    if getattr(args, "ledger", None):
        from repro.telemetry import CostLedger

        ledger = CostLedger(args.ledger)
    ctx = RunContext.recording(
        trace=args.trace,
        metrics=args.metrics_out,
        manifest=args.manifest,
        logger=JsonlLogger(args.events) if args.events else None,
        seed=0,
        kind="bench-report",
        ledger=ledger,
    )
    ctx.manifest.extra["scale"] = args.scale
    ctx.manifest.extra["jobs"] = args.jobs
    return ctx


def _cmd_bench_report(args) -> int:
    from repro.experiments.engine import (
        EngineTaskError,
        render_failure_report,
    )
    from repro.experiments.report import (
        build_report,
        engine_from_args,
        write_failure_report,
    )

    ctx = _report_telemetry_context(args)
    engine = engine_from_args(args, telemetry=ctx)
    with _sigterm_as_interrupt():
        try:
            report = build_report(args.scale, engine=engine)
        except KeyboardInterrupt:
            print("\ninterrupted: report not written "
                  "(completed sessions stay in the result cache)")
            _finish_interrupted(ctx, "bench-report")
            return _INTERRUPTED_RC
        except EngineTaskError as exc:
            # The grid ran to completion first; everything that
            # succeeded is cached, so a re-run is incremental.
            print(render_failure_report(exc.report), file=sys.stderr)
            print("report: tasks failed permanently; report not written "
                  "(rerun with --lenient to accept partial results)",
                  file=sys.stderr)
            write_failure_report(engine, args.failure_report)
            _finish_telemetry(ctx)
            return 1
    with open(args.output, "w") as fh:
        fh.write(report)
    print(f"wrote {args.output} at scale {args.scale!r}")
    print(f"engine: {engine.stats.summary()}")
    write_failure_report(engine, args.failure_report)
    _finish_telemetry(ctx)
    return 0


def _cmd_corpus(args) -> int:
    import numpy as np

    from repro.data import generate_corpus, save_corpus

    env = make_env(args.workload, args.dataset,
                   cluster=_CLUSTERS[args.cluster], seed=args.seed)
    corpus = generate_corpus(
        env,
        f"{args.workload}-{args.dataset}",
        args.samples,
        np.random.default_rng(args.seed),
        sampler=args.sampler,
    )
    save_corpus(corpus, args.output)
    print(
        f"wrote {args.output}: {len(corpus)} samples, "
        f"{corpus.failure_rate * 100:.1f}% failed, "
        f"best {corpus.best_duration_s:.1f}s"
    )
    return 0


def _classify_artifact(path: str) -> str:
    """Sniff what kind of telemetry artifact a file is.

    Recognizes JSONL span traces, JSONL event logs, run manifests, JSON
    metrics dumps, and Prometheus text; anything unparseable is treated
    as Prometheus text (whose grammar is "anything line-oriented").
    """
    import json as _json

    text = open(path, encoding="utf-8").read()
    if not text.strip():
        return "empty"
    first_line = text.lstrip().split("\n", 1)[0]
    try:
        record = _json.loads(first_line)
    except _json.JSONDecodeError:
        try:
            record = _json.loads(text)
        except _json.JSONDecodeError:
            return "prometheus"
    if isinstance(record, dict):
        if "duration_s" in record and "id" in record:
            return "trace"
        if "kind" in record and "ts" in record:
            return "events"
        if "run_id" in record:
            return "manifest"
        return "metrics-json"
    return "prometheus"


def _read_events_lenient(path: str) -> tuple[list[dict], bool]:
    """Read a JSONL events file, tolerating a truncated final line.

    A crashed run can leave the event being written at the instant of
    death half-flushed; that partial *final* line is dropped (reported
    via the returned flag).  A malformed line anywhere *else* means the
    file is corrupt, which is worth failing loudly over.
    """
    import json as _json

    records: list[dict] = []
    lines = [
        ln for ln in open(path, encoding="utf-8").read().splitlines()
        if ln.strip()
    ]
    truncated = False
    for i, line in enumerate(lines):
        try:
            records.append(_json.loads(line))
        except _json.JSONDecodeError:
            if i == len(lines) - 1:
                truncated = True
                break
            raise ValueError(
                f"{path}: line {i + 1} is not valid JSON (corrupt "
                "events file)"
            ) from None
    return records, truncated


def _cmd_telemetry(args) -> int:
    if args.action == "watch":
        return _cmd_telemetry_watch(args)
    if args.action == "top":
        return _cmd_telemetry_top(args)
    if args.action == "stitch":
        return _cmd_telemetry_stitch(args)
    if len(args.path) > 1:
        print("telemetry: summary/dump take exactly one path",
              file=sys.stderr)
        return 2
    args.path = args.path[0]
    if not os.path.isfile(args.path):
        print(f"{args.path}: no such file", file=sys.stderr)
        return 1
    try:
        return _render_artifact(args)
    except (ValueError, KeyError, OSError) as exc:
        # Truncated traces, half-written JSON, unreadable files: one
        # clear line on stderr, exit 1, no traceback.
        print(f"{args.path}: cannot read artifact: {exc}", file=sys.stderr)
        return 1


def _render_artifact(args) -> int:
    import json as _json

    from repro.telemetry import RunManifest, load_trace, render_span_tree

    kind = _classify_artifact(args.path)
    if kind == "empty":
        print(
            f"{args.path}: empty file (no telemetry was recorded, or "
            "the run died before its first write)",
            file=sys.stderr,
        )
        return 1

    if kind == "trace":
        roots = load_trace(args.path)
        if args.action == "dump":
            print(_json.dumps(roots, indent=2))
            return 0
        n_spans = sum(1 for r in roots for _ in _iter_tree(r))
        print(f"trace: {len(roots)} root span(s), {n_spans} total")
        print(render_span_tree(roots, min_duration_s=args.min_ms / 1e3))
        return 0

    if kind == "events":
        records, truncated = _read_events_lenient(args.path)
        if truncated:
            print(
                f"{args.path}: final line is truncated (crashed run?); "
                "ignoring it",
                file=sys.stderr,
            )
        if not records:
            print(f"{args.path}: no complete events", file=sys.stderr)
            return 1
        if args.action == "dump":
            print(_json.dumps(records, indent=2))
            return 0
        counts: dict[str, int] = {}
        for rec in records:
            k = rec.get("kind", "?")
            counts[k] = counts.get(k, 0) + 1
        span_s = records[-1].get("ts", 0.0) - records[0].get("ts", 0.0)
        print(
            f"events: {len(records)} record(s) over {span_s:.1f}s"
        )
        for k in sorted(counts):
            print(f"  {k:<20} x{counts[k]}")
        return 0

    if kind == "manifest":
        manifest = RunManifest.load(args.path)
        if args.action == "dump":
            print(manifest.to_json())
            return 0
        d = manifest.to_dict()
        print(f"run {d['run_id']} ({d['kind']})")
        for key in ("workload", "dataset", "seed", "git_sha", "python"):
            print(f"  {key:<12} {d[key]}")
        print(f"  {'elapsed_s':<12} {d['elapsed_s']:.2f}")
        if d["wall_clock"]:
            print("  wall-clock breakdown:")
            for name, entry in sorted(d["wall_clock"].items()):
                print(
                    f"    {name:<28} {entry['total_s']:9.3f}s "
                    f"x{int(entry['count'])}"
                )
        for stage in d["stages"]:
            print(f"  stage: {stage}")
        return 0

    if kind == "metrics-json":
        data = _json.loads(open(args.path, encoding="utf-8").read())
        if args.action == "dump":
            print(_json.dumps(data, indent=2, sort_keys=True))
            return 0
        for name, entry in sorted(data.items()):
            for series in entry["series"]:
                labels = ",".join(
                    f"{k}={v}" for k, v in series.get("labels", {}).items()
                )
                value = series.get("value", series.get("sum"))
                print(f"{name}{{{labels}}} = {value}")
        return 0

    # Prometheus text: dump prints it verbatim, summary filters comments.
    text = open(args.path, encoding="utf-8").read()
    if args.action == "dump":
        print(text, end="")
    else:
        for line in text.splitlines():
            if line and not line.startswith("#"):
                print(line)
    return 0


def _watch_render(path: str, stale_after: float | None) -> tuple[str, str]:
    """(rendered line, status) for one heartbeat file.

    Staleness keys off the file's mtime (the writer touches it on every
    step), not the wall-clock stamp inside the document.
    """
    import time as _time

    from repro.telemetry import (
        heartbeat_status,
        pid_alive,
        read_heartbeat,
        render_heartbeat,
    )

    doc = read_heartbeat(path)
    age = max(0.0, _time.time() - os.path.getmtime(path))
    status = heartbeat_status(doc, age, stale_after,
                              alive=pid_alive(doc.get("pid")))
    line = render_heartbeat(doc)
    if status == "stalled":
        line += f"  STALLED (no heartbeat for {age:.0f}s)"
    elif status == "crashed":
        line += (
            f"  CRASHED (pid {doc.get('pid')} is gone, "
            "no terminal marker)"
        )
    return line, status


def _cmd_telemetry_watch(args) -> int:
    import time as _time

    path = args.path[0]

    def render_once() -> tuple[int | None, str]:
        try:
            line, status = _watch_render(path, args.stale_after)
        except ValueError as exc:
            print(f"watch: {exc}", file=sys.stderr)
            return 1, "error"
        print(line, flush=True)
        if status in ("stalled", "crashed") and args.fail_on_stall:
            return 3, status
        return None, status

    rc, _status = render_once()
    if rc is not None:
        return rc
    if not args.follow:
        return 0
    try:
        while True:
            _time.sleep(max(args.interval, 0.1))
            rc, _status = render_once()
            if rc is not None:
                return rc
    except KeyboardInterrupt:
        return 0


def _collect_heartbeats(paths: list[str]) -> list[tuple[str, str]]:
    """Expand files/directories into (display name, heartbeat path).

    Directories are scanned (recursively) for ``*.json`` files that
    parse as heartbeat documents; unreadable candidates are skipped.
    """
    from pathlib import Path as _Path

    from repro.telemetry import read_heartbeat

    found: list[tuple[str, str]] = []
    for raw in paths:
        p = _Path(raw)
        if p.is_dir():
            for candidate in sorted(p.rglob("*.json")):
                if "manifest" in candidate.name:
                    continue
                try:
                    read_heartbeat(candidate)
                except ValueError:
                    continue
                rel = candidate.relative_to(p)
                name = str(rel.parent) if rel.parent != _Path(".") else (
                    candidate.stem
                )
                found.append((name, str(candidate)))
        else:
            found.append((p.stem, str(p)))
    return found


def _render_top(args) -> tuple[str, int]:
    """(dashboard text, count of stalled + crashed sessions)."""
    import time as _time

    from repro.telemetry import heartbeat_status, pid_alive, read_heartbeat

    entries = _collect_heartbeats(args.path)
    header = (
        f"{'SESSION':<18} {'STATE':<8} {'PHASE':<14} {'STEP':<9} "
        f"{'BEST':>8} {'RTY':>4} {'ABT':>4} {'FBK':>4} {'ALRT':>5} "
        f"{'AGE':>6}  LAST ALERT"
    )
    lines = [header]
    stalled = 0
    crashed = 0
    for name, path in entries:
        try:
            doc = read_heartbeat(path)
        except ValueError:
            lines.append(f"{name:<18} {'?':<8} (unreadable heartbeat)")
            continue
        age = max(0.0, _time.time() - os.path.getmtime(path))
        status = heartbeat_status(doc, age, args.stale_after,
                                  alive=pid_alive(doc.get("pid")))
        if status == "stalled":
            stalled += 1
        elif status == "crashed":
            crashed += 1
        total = doc.get("total_steps")
        step = f"{doc.get('step', '?')}/{total}" if total else (
            str(doc.get("step", "?"))
        )
        best = doc.get("best_duration_s")
        resilience = doc.get("resilience") or {}
        alerts = doc.get("alerts") or {}
        active = alerts.get("active") or []
        last_alert = ""
        if active:
            last = active[-1]
            last_alert = f"{last.get('severity', '?')}:{last.get('name', '?')}"
        lines.append(
            f"{name:<18.18} {status.upper():<8} "
            f"{doc.get('phase', '?'):<14} {step:<9} "
            f"{(f'{best:.1f}s' if best is not None else '-'):>8} "
            f"{resilience.get('retries', 0):>4} "
            f"{resilience.get('watchdog_aborts', 0):>4} "
            f"{resilience.get('fallbacks', 0):>4} "
            f"{alerts.get('total', 0):>5} "
            f"{age:>5.0f}s  {last_alert}"
        )
    if not entries:
        lines.append("(no heartbeat files found)")
    summary = (
        f"{len(entries)} session(s), {stalled} stalled, {crashed} crashed"
    )
    return "\n".join(lines) + f"\n{summary}", stalled + crashed


def _cmd_telemetry_top(args) -> int:
    import time as _time

    text, stalled = _render_top(args)
    print(text, flush=True)
    if args.once:
        return 3 if (stalled and args.fail_on_stall) else 0
    if stalled and args.fail_on_stall:
        return 3
    try:
        while True:
            _time.sleep(max(args.interval, 0.1))
            text, stalled = _render_top(args)
            # Clear and repaint so the table stays in place like top(1).
            print("\x1b[2J\x1b[H" + text, flush=True)
            if stalled and args.fail_on_stall:
                return 3
    except KeyboardInterrupt:
        return 0


def _cmd_doctor(args) -> int:
    import json as _json

    from repro.telemetry.doctor import diagnose_run, render_diagnosis

    if not os.path.exists(args.path):
        print(f"doctor: {args.path}: no such file or directory",
              file=sys.stderr)
        return 1
    report = diagnose_run(args.path)
    if args.as_json:
        print(_json.dumps(report, indent=2, default=str))
    else:
        print(render_diagnosis(report, top=args.top), end="")
    if args.fail_on_findings and not report["healthy"]:
        return 4
    return 0


def _cmd_bench(args) -> int:
    import json as _json

    from repro.bench import (
        DEFAULT_THRESHOLD,
        compare_docs,
        iter_benchmarks,
        load_doc,
        render_comparison,
        run_benchmarks,
    )

    if args.bench_action == "list":
        for b in iter_benchmarks():
            print(f"{b.kind:<6} {b.name:<24} x{b.items:<5} {b.description}")
        return 0

    if args.bench_action == "run":
        if args.repetitions < 1:
            print("bench run: --repetitions must be >= 1", file=sys.stderr)
            return 2
        if args.shards < 1:
            print("bench run: --shards must be >= 1", file=sys.stderr)
            return 2
        if args.shards > 1:
            from repro.bench import benches

            benches.set_population_shards(args.shards)
        doc = run_benchmarks(
            names=args.only or None,
            kind=args.kind,
            repetitions=args.repetitions,
            warmup=args.warmup,
            track_alloc=not args.no_alloc,
            progress=lambda b: print(f"bench: {b.name} ...", flush=True),
            extra_config={"shards": args.shards},
        )
        if args.out:
            out = args.out
        else:
            stamp = doc["created_at"].replace(":", "").replace("-", "")
            stamp = stamp.split(".")[0].replace("T", "-")
            out = f"BENCH_{stamp}.json"
        with open(out, "w", encoding="utf-8") as fh:
            _json.dump(doc, fh, indent=2)
            fh.write("\n")
        for r in doc["results"]:
            thr = r["throughput_per_s"]
            print(
                f"{r['name']:<24} median {r['median_s'] * 1e3:9.3f}ms "
                f"(p10 {r['p10_s'] * 1e3:8.3f} / p90 "
                f"{r['p90_s'] * 1e3:8.3f})  {thr:10.1f} items/s"
            )
        print(f"wrote {out} ({len(doc['results'])} benchmark(s))")
        return 0

    # compare
    try:
        candidate = load_doc(args.candidate)
        baseline = load_doc(args.baseline)
    except ValueError as exc:
        print(f"bench compare: {exc}", file=sys.stderr)
        return 2
    if args.check_schema:
        print(
            f"bench compare: schemas OK "
            f"({len(candidate['results'])} candidate / "
            f"{len(baseline['results'])} baseline result(s))"
        )
        return 0
    threshold = (
        args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    )
    if threshold <= 0:
        print("bench compare: --threshold must be positive", file=sys.stderr)
        return 2
    cmp = compare_docs(candidate, baseline, threshold=threshold)
    print(render_comparison(cmp))
    return 0 if cmp.ok else 1


def _iter_tree(rec):
    yield rec
    for child in rec.get("children", []):
        yield from _iter_tree(child)


def _cmd_telemetry_stitch(args) -> int:
    from repro.telemetry import stitch_traces, write_chrome

    inputs = args.path[0] if len(args.path) == 1 else args.path
    result = stitch_traces(inputs)
    if not result.files:
        print("stitch: no trace files found", file=sys.stderr)
        return 1
    if result.spans == 0:
        print(
            "stitch: trace files contained no spans "
            f"({len(result.files)} file(s) scanned)",
            file=sys.stderr,
        )
        return 1
    if args.out:
        out = args.out
    elif len(args.path) == 1 and os.path.isdir(args.path[0]):
        out = os.path.join(args.path[0], "stitched.chrome.json")
    else:
        out = "stitched.chrome.json"
    write_chrome(result, out)
    print(
        f"stitch: {result.spans} span(s) from {len(result.files)} "
        f"file(s), trace {result.trace_id or '(none)'}"
    )
    if result.unresolved_parents:
        print(
            f"stitch: {result.unresolved_parents} root(s) reference a "
            "parent span not present in the inputs"
        )
    chain = result.critical_path_names()
    if chain:
        total = sum(
            float(r.get("duration_s", 0.0)) for r in result.critical_path
        )
        print(f"critical path ({total:.3f}s): " + " > ".join(chain))
    print(f"stitch: wrote {out}")
    return 0


def _resolve_ledger(path: str):
    """A LedgerView for a ledger file or a run/bus directory."""
    from repro.telemetry import load_ledger, merge_ledgers

    p = Path(path)
    if p.is_dir():
        candidates = sorted((p / "ledgers").glob("*.jsonl")) or sorted(
            p.glob("*.ledger.jsonl")
        )
        if not candidates:
            raise FileNotFoundError(
                f"{path}: no ledger files (looked for ledgers/*.jsonl "
                "and *.ledger.jsonl)"
            )
        return merge_ledgers(candidates)
    return load_ledger(p)


def _ledger_entry_line(e: dict) -> str:
    where = f"step {e['step']}" if "step" in e else str(e.get("phase", "?"))
    if "member" in e:
        where += f" m{e['member']}"
    extras = [
        f"{key}={e[key]}"
        for key in ("tuner", "attempt", "cache", "source")
        if key in e and e[key] not in (None, "run")
    ]
    suffix = f"  ({', '.join(extras)})" if extras else ""
    return (
        f"{float(e['amount_s']):12.3f}s  {e['account']:<15} "
        f"{where:<14}{suffix}"
    )


def _knob_attribution(charges: list[dict], top: int) -> list[str]:
    """Rank knobs by cost spread across the values actually evaluated.

    For every knob seen in charge ``config`` metadata, group the charged
    seconds by the knob's value and report mean cost per value; knobs are
    ranked by the spread (max mean - min mean), which is a first-order
    'which knob choice cost me the most' signal.
    """
    by_knob: dict[str, dict[str, list[float]]] = {}
    for e in charges:
        config = e.get("config")
        if not isinstance(config, dict):
            continue
        amount = float(e["amount_s"])
        for knob, value in config.items():
            by_knob.setdefault(str(knob), {}).setdefault(
                str(value), []
            ).append(amount)
    ranked = []
    for knob, groups in by_knob.items():
        if len(groups) < 2:
            continue
        means = {v: sum(a) / len(a) for v, a in groups.items()}
        lo, hi = min(means, key=means.get), max(means, key=means.get)
        ranked.append((means[hi] - means[lo], knob, lo, hi, means, groups))
    ranked.sort(key=lambda r: (-r[0], r[1]))
    lines = []
    for spread, knob, lo, hi, means, groups in ranked[:top]:
        n = sum(len(a) for a in groups.values())
        lines.append(
            f"  {knob:<28} spread {spread:9.3f}s  "
            f"cheapest {lo}={means[lo]:.3f}s  "
            f"dearest {hi}={means[hi]:.3f}s  ({n} eval(s))"
        )
    return lines


def _explain_one(led, args) -> int:
    src = led.path if led.path is not None else led.source
    charges = led.charges()
    if not charges and not led.counterfactuals():
        print(f"{src}: ledger has no entries", file=sys.stderr)
        return 1
    total = led.total_charged()
    print(f"ledger: {src}")
    print(f"  {len(charges)} charge(s) totalling {total:.3f}s")
    print("\ncharges by account:")
    totals = led.totals()
    for account in sorted(totals, key=lambda a: -totals[a]["seconds"]):
        t = totals[account]
        share = 100.0 * t["seconds"] / total if total else 0.0
        print(
            f"  {account:<15} {t['seconds']:12.3f}s  x{t['count']:<5} "
            f"{share:5.1f}%"
        )
    online = led.total_tuning_seconds()
    if online:
        print(f"\nonline tuning cost (exact session TCT): {online!r}s")
    cf = led.counterfactual_totals()
    if cf:
        print("\ncounterfactual savings (estimated cost avoided):")
        for account in sorted(cf, key=lambda a: -cf[a]["seconds"]):
            t = cf[account]
            print(
                f"  {account:<15} {t['seconds']:12.3f}s  x{t['count']}"
            )
    saved = led.saved_by_screening
    if total + saved > 0:
        ratio = saved / (total + saved)
        print(
            f"\nsaved_by_screening: {saved:.3f}s "
            f"({100.0 * ratio:.1f}% of would-have-been cost)"
        )
    if args.top > 0 and charges:
        expensive = sorted(
            charges, key=lambda e: -float(e["amount_s"])
        )[: args.top]
        print(f"\ntop {len(expensive)} most expensive step(s):")
        for e in expensive:
            print("  " + _ledger_entry_line(e))
    if args.knobs > 0:
        lines = _knob_attribution(charges, args.knobs)
        if lines:
            print("\nper-knob cost attribution (evaluated configs):")
            print("\n".join(lines))
    return 0


def _explain_compare(a, b, args) -> int:
    name_a = str(a.path if a.path is not None else a.source)
    name_b = str(b.path if b.path is not None else b.source)
    ta, tb = a.totals(), b.totals()
    print(f"ledger diff: A={name_a}  B={name_b}")
    print(
        f"\n{'account':<15} {'A':>12} {'B':>12} {'delta (B-A)':>14}"
    )
    for account in sorted(set(ta) | set(tb)):
        sa = ta.get(account, {}).get("seconds", 0.0)
        sb = tb.get(account, {}).get("seconds", 0.0)
        print(
            f"{account:<15} {sa:11.3f}s {sb:11.3f}s {sb - sa:+13.3f}s"
        )
    sa, sb = a.total_charged(), b.total_charged()
    print(f"{'total':<15} {sa:11.3f}s {sb:11.3f}s {sb - sa:+13.3f}s")
    va, vb = a.saved_by_screening, b.saved_by_screening
    print(
        f"\nsaved_by_screening: A {va:.3f}s, B {vb:.3f}s "
        f"(delta {vb - va:+.3f}s)"
    )
    ca, cb = a.cache_savings, b.cache_savings
    if ca or cb:
        print(
            f"cache_saving:       A {ca:.3f}s, B {cb:.3f}s "
            f"(delta {cb - ca:+.3f}s)"
        )
    return 0


def _cmd_explain(args) -> int:
    if args.compare and len(args.path) != 2:
        print("explain: --compare takes exactly two paths", file=sys.stderr)
        return 2
    try:
        views = [_resolve_ledger(p) for p in args.path]
    except (OSError, ValueError) as exc:
        print(f"explain: {exc}", file=sys.stderr)
        return 1
    if args.compare:
        return _explain_compare(views[0], views[1], args)
    if len(views) == 1:
        return _explain_one(views[0], args)
    from repro.telemetry import LedgerView

    merged = LedgerView(
        [e for v in views for e in v.entries], source="merged"
    )
    return _explain_one(merged, args)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "train": _cmd_train,
        "tune": _cmd_tune,
        "evaluate": _cmd_evaluate,
        "bench-report": _cmd_bench_report,
        "report": _cmd_bench_report,
        "corpus": _cmd_corpus,
        "telemetry": _cmd_telemetry,
        "explain": _cmd_explain,
        "doctor": _cmd_doctor,
        "bench": _cmd_bench,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
