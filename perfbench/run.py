"""DeepCAT benchmark: three user workflows, timed end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload online-requests --seed 1 \\
        --seconds 10 --trace 0

Workloads (one closed-loop client each):

* ``online-requests`` — tuning requests (fork the trained model, tune 5
  steps on a fresh environment, full telemetry artifact set, every 4th
  under ``flaky`` faults), cycling through the 12 workload×input pairs;
* ``fleet-population`` — a 64-member ``PopulationTuner`` of one D1 pair
  per op, cycling through the 4 pairs;
* ``report-quick`` — one cold pass of the quick comparison grid on a
  fresh engine at ``repro report``'s default ``--jobs 1``; the
  ``jobs = nproc`` pool pass is checked every run and timed in the
  traced run.

Every run prints the host (nproc, BLAS threads, Python, numpy, git
SHA), the end-to-end metrics, ``op_p95_ms`` (only with at least ten
samples beyond it), ``rec_p50_ms`` and ``failed_op_ratio``.  With
``--trace 1`` the untraced measurement is followed by the same ops with
each layer's entry points wrapped in timing spans; the run prints the
per-layer split (self time per layer, the unattributed rest) and the
tracing overhead, then removes the wrappers.  The program runs with its
own defaults: no BLAS/OMP thread variables are set.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics (``--trace 0``) or the
per-layer ones (``--trace 1``); the exit code is non-zero if any op
failed or any output check did not match.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: in-checkout scratch space for request artifacts and engine spools
SCRATCH = os.path.join(ROOT, ".perfbench-tmp")
#: timed set-ups per run; ``setup_s`` is their median
SETUPS = 3

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}


@dataclass
class OpRecord:
    k: int
    wall_s: float
    error: str | None = None
    digests: list | None = None
    rec_s: list | None = None
    extra: dict | None = None
    plain_s: float | None = None
    sessions: list | None = None


def _record(wl, k: int, wall: float, sessions, extra) -> OpRecord:
    from measure import session_digest

    return OpRecord(
        k, wall, digests=[session_digest(s) for s in sessions],
        rec_s=[st.recommendation_s for s in wl.rec_sessions(sessions)
               for st in s.steps],
        extra=extra, sessions=sessions,
    )


def timed_loop(wl, seconds: float, tracer=None) -> list[OpRecord]:
    """Run ops until the cycle boundary nearest ``seconds`` of op time
    (at least one full cycle), so every run sees whole input cycles."""
    records: list[OpRecord] = []
    spent = 0.0
    k = 0
    while True:
        wl.before_op(k)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                sessions, extra = wl.op(k)
            else:
                with tracer.op(k):
                    sessions, extra = wl.op(k)
            error = None
        except Exception as exc:  # an op that raises is a failed op
            sessions, extra = None, None
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - t0
        extra = wl.after_op(k, extra)
        records.append(
            OpRecord(k, wall, error) if error else
            _record(wl, k, wall, sessions, extra)
        )
        spent += wall
        k += 1
        if k % wl.cycle == 0:
            per_cycle = spent / (k // wl.cycle)
            if spent + per_cycle / 2 >= seconds:
                return records


def end_to_end(wl, records, setup_s: float) -> dict:
    from measure import median, peak_rss_mb

    ok = [r for r in records if r.error is None]
    wall = sum(r.wall_s for r in records)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(ok) / wall,
        "op_p50_ms": median([r.wall_s for r in ok]) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }


def rec_p50_ms(records) -> float:
    """Median per-step ``recommendation_s`` of the untraced ops, in ms:
    the paper's recommendation cost.  A layer metric, not an end-to-end
    one: report-quick's pass holds only 20 DeepCAT steps, too few for a
    median that repeats within any bound."""
    from measure import median

    return median([x for r in records if r.error is None
                   for x in r.rec_s]) * 1e3


def _session_counts(records) -> dict:
    steps = [st for r in records if r.digests is not None
             for s in r.sessions for st in s.steps]
    twinq = [st for st in steps if st.twinq_iterations is not None]
    n_ops = max(1, len(records))
    return {
        "twinq.candidates_per_rec": (
            sum(st.twinq_iterations for st in twinq) / len(twinq)
            if twinq else 0.0),
        "twinq.accept_ratio": (
            sum(bool(st.twinq_accepted) for st in twinq) / len(twinq)
            if twinq else 0.0),
        "resilience.attempts_per_step": (
            sum(st.attempts for st in steps) / len(steps) if steps else 0.0),
        "resilience.aborts": sum(st.aborted for st in steps) / n_ops,
        "resilience.fallbacks": sum(st.fallback for st in steps) / n_ops,
    }


#: per-layer metrics from span totals: metric -> (layer, field)
SPAN_METRICS = {
    "offline.train.calls": ("offline.train", "calls"),
    "offline.train.s": ("offline.train", "s"),
    "baselines.ottertune.s": ("baselines.ottertune", "s"),
    "agents.update.calls": ("agents.update", "calls"),
    "agents.update.s": ("agents.update", "s"),
    "agents.query.calls": ("agents.query", "calls"),
    "agents.query.s": ("agents.query", "s"),
    "replay.rdper.sample.s": ("replay.rdper.sample", "s"),
    "replay.per.sample.s": ("replay.per.sample", "s"),
    "replay.per.update.s": ("replay.per.update", "s"),
    "replay.push.calls": ("replay.push", "calls"),
    "replay.push.s": ("replay.push", "s"),
    "envs.step.calls": ("envs.step", "calls"),
    "envs.step.s": ("envs.step", "s"),
    "envs.make.s": ("envs.make", "s"),
    "twinq.calls": ("twinq", "calls"),
    "twinq.s": ("twinq", "s"),
    "fork.calls": ("fork", "calls"),
    "fork.s": ("fork", "s"),
    "online.tune.s": ("online.tune", "s"),
    "population.tune.s": ("population.tune", "s"),
    "telemetry.open.s": ("telemetry.open", "s"),
    "telemetry.save.s": ("telemetry.save", "s"),
}


def per_layer_units() -> dict:
    units = {m: ("calls/op" if field == "calls" else "s/op")
             for m, (_, field) in SPAN_METRICS.items()}
    units.update({
        "rec_p50_ms": "ms",
        "engine.scaling_eff": "ratio",
        "engine.compute_s": "s/op",
        "engine.overhead_s": "s/op",
        "engine.task_failures": "count/op",
        "engine.task_retries": "count/op",
        "engine.pool_rebuilds": "count/op",
        "twinq.candidates_per_rec": "count",
        "twinq.accept_ratio": "ratio",
        "resilience.attempts_per_step": "count",
        "resilience.aborts": "count/op",
        "resilience.fallbacks": "count/op",
        "telemetry.overhead_ms": "ms",
        "telemetry.bytes_per_op": "B/op",
        "unattributed.s": "s/op",
        "unattributed.pct": "%",
        "trace.overhead_pct": "%",
    })
    return units


def traced_run(wl, seconds: float, untraced: float) -> tuple[dict, list]:
    """Wrap the layers, rerun the same ops, unwrap; returns the
    per-layer metrics and the traced records."""
    from measure import median
    from tracing import Tracer
    from workloads import install_layers

    tracer = Tracer()
    plain_span, wl.span = wl.span, tracer.span
    pooled = None
    if wl.name == "report-quick":
        # worker processes are out of the wrappers' reach: the pooled
        # pass runs untraced, for the engine metrics
        t0 = time.perf_counter()
        sessions, stats = wl.grid(wl.pool_jobs)
        pooled = _record(wl, 0, time.perf_counter() - t0, sessions,
                         {"stats": stats})
    install_layers(tracer)
    try:
        if wl.name == "report-quick":
            with tracer.op(0):
                sessions, _ = wl.grid(1)
            records = [_record(wl, 0, tracer.op_walls[0], sessions,
                               {"pooled": pooled})]
        else:
            records = timed_loop(wl, seconds, tracer)
    finally:
        tracer.unpatch()
        wl.span = plain_span
    n_ops = len(records)
    totals = tracer.layer_totals()
    out = {m: totals.get(layer, {}).get(field, 0.0) / n_ops
           for m, (layer, field) in SPAN_METRICS.items()}
    op_wall = sum(tracer.op_walls.values())
    unattributed = op_wall - tracer.top_level_seconds()
    out["unattributed.s"] = unattributed / n_ops
    out["unattributed.pct"] = 100.0 * unattributed / op_wall
    traced_p50 = median([r.wall_s for r in records if r.error is None])
    out["trace.overhead_pct"] = 100.0 * (traced_p50 / untraced - 1.0)
    print(f"{'layer':<22}{'calls/op':>10}{'incl s/op':>11}"
          f"{'self s/op':>11}{'self %':>8}")
    for layer, row in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{layer:<22}{row['calls'] / n_ops:>10.1f}"
              f"{row['s'] / n_ops:>11.4f}{row['self_s'] / n_ops:>11.4f}"
              f"{100 * row['self_s'] / op_wall:>7.1f}%")
    print(f"{'(unattributed)':<22}{'':>10}{'':>11}"
          f"{unattributed / n_ops:>11.4f}"
          f"{100 * unattributed / op_wall:>7.1f}%")
    return out, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(SCRATCH, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    # engine spools and any other temp files stay inside the checkout
    tempfile.tempdir = scratch
    os.environ["TMPDIR"] = scratch
    try:
        return _run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass


def _run(args, scratch: str) -> int:
    import measure
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    facts = measure.host_facts(ROOT)
    print("host: " + json.dumps(facts, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds} trace {args.trace}")

    wl = workloads.make(args.workload, args.seed, scratch)
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + measure.median(setups)
    errors = []
    if len(set(wl.setup_digests)) > 1:
        errors.append("repeated set-ups trained different models")

    try:
        for k in range(wl.warm_up_ops):
            wl.before_op(k)
            try:
                wl.op(k)
            except Exception as exc:  # the timed run of op k fails too
                errors.append(f"warm-up op {k} raised: {exc}")
            finally:
                wl.after_op(k, None)
        records = timed_loop(wl, args.seconds)
        e2e = end_to_end(wl, records, setup_s)
        layer = {}
        traced = []
        if args.trace:
            layer, traced = traced_run(wl, args.seconds,
                                       e2e["op_p50_ms"] / 1e3)
        errors += _check(wl, records, traced, layer)
    finally:
        workloads.wait_for_children()

    ok_ops = [r for r in records if r.error is None]
    p95 = measure.tail_percentile([r.wall_s * 1e3 for r in ok_ops])
    failed = min(len(records) - len(ok_ops) + len(errors), len(records))
    attempted = len(records)
    print(f"setup: import {import_s:.3f} s + median of "
          f"{[round(s, 3) for s in setups]} s")
    print(f"{'metric':<18}{'value':>14}  unit")
    for name, value in e2e.items():
        print(f"{name:<18}{value:>14.4f}  {E2E_UNITS[name]}")
    if p95 is None:
        print(f"{'op_p95_ms':<18}{'-':>14}  ms (fewer than "
              f"{measure.TAIL_SAMPLES} samples beyond p95 in "
              f"{len(ok_ops)} ops)")
    else:
        print(f"{'op_p95_ms':<18}{p95:>14.4f}  ms")
    print(f"{'rec_p50_ms':<18}{rec_p50_ms(records):>14.4f}  ms")
    print(f"{'failed_op_ratio':<18}{failed / attempted:>14.4f}"
          f"  ratio ({failed} failed of {attempted} ops)")
    for err in errors:
        print(f"MISMATCH: {err}")
    if args.trace:
        units = per_layer_units()
        metrics = {m: {"value": float(layer.get(m, 0.0)), "unit": u}
                   for m, u in units.items()}
        for m, u in units.items():
            print(f"{m:<30}{metrics[m]['value']:>14.6f}  {u}")
    else:
        metrics = {m: {"value": float(v), "unit": E2E_UNITS[m]}
                   for m, v in e2e.items()}
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _check(wl, records, traced, layer) -> list[str]:
    """Cross-checks outside the timed region (one message per
    mismatch); fills the per-layer metrics the checks measure."""
    pooled = (traced[0].extra or {}).get("pooled") if traced else None
    # a traced report-quick run pools the whole grid (compared below),
    # which subsumes the workload's own pooled spot check
    errors = wl.check(records) if pooled is None else []
    if traced:
        by_k = {r.k: r for r in records}
        for t in traced:
            ref = by_k.get(t.k)
            if ref is not None and ref.digests is not None \
                    and t.digests != ref.digests:
                errors.append(f"op {t.k}: traced run changed the science")
        if pooled is not None and pooled.digests != records[0].digests:
            errors.append(f"jobs={wl.pool_jobs} grid differs from the "
                          "inline grid")
        _layer_counts(wl, records, traced, layer)
    return errors


def _layer_counts(wl, records, traced, layer) -> None:
    from measure import median

    layer.update(_session_counts(traced))
    layer["rec_p50_ms"] = rec_p50_ms(records)
    if wl.name == "online-requests":
        replayed = [r for r in records if r.plain_s is not None]
        if replayed:
            layer["telemetry.overhead_ms"] = 1e3 * (
                median([r.wall_s for r in replayed])
                - median([r.plain_s for r in replayed]))
        layer["telemetry.bytes_per_op"] = median(
            [r.extra["bytes"] for r in records if r.extra])
    if wl.name == "report-quick":
        pooled = traced[0].extra["pooled"]
        stats = pooled.extra["stats"]
        layer["engine.compute_s"] = stats.compute_seconds
        layer["engine.overhead_s"] = stats.overhead_seconds
        layer["engine.task_failures"] = stats.task_failures
        layer["engine.task_retries"] = stats.task_retries
        layer["engine.pool_rebuilds"] = stats.pool_rebuilds
        layer["engine.scaling_eff"] = median(
            [r.wall_s for r in records]) / (wl.pool_jobs * pooled.wall_s)

if __name__ == "__main__":
    sys.exit(main())
