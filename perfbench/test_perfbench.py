"""Tests of the benchmark's own machinery (not of the program).

Run from the checkout root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import measure  # noqa: E402
import run  # noqa: E402
from repro.core.result import OnlineSession, TuningStepRecord  # noqa: E402


def _session(n_steps: int = 3) -> OnlineSession:
    s = OnlineSession("DeepCAT", "WC", "D1", default_duration_s=120.0)
    for i in range(n_steps):
        s.add(TuningStepRecord(
            step=i, duration_s=100.0 - i, recommendation_s=0.001 * (i + 1),
            reward=0.1 * i, success=True, config={"spark.x": i, "y": "a"},
            action=np.full(4, 0.25 * i), twinq_iterations=i,
            twinq_accepted=True,
        ))
    return s


# ------------------------------------------------------------- percentiles


def test_p95_omitted_below_ten_tail_samples():
    # 199 samples leave 9.95 beyond p95: not a percentile yet
    assert measure.tail_percentile(list(range(199))) is None
    assert measure.tail_percentile(list(range(200))) == pytest.approx(
        np.percentile(np.arange(200), 95))


def test_percentile_matches_numpy():
    data = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    for q in (0, 50, 95, 100):
        assert measure.percentile(data, q) == pytest.approx(
            np.percentile(data, q))


# ------------------------------------------------------------------ digest


def test_digest_ignores_recommendation_time():
    a, b = _session(), _session()
    b.steps[1] = dataclasses.replace(b.steps[1], recommendation_s=7.5)
    assert measure.session_digest(a) == measure.session_digest(b)


def test_digest_catches_one_ulp_duration_change():
    a, b = _session(), _session()
    d = b.steps[2].duration_s
    b.steps[2] = dataclasses.replace(
        b.steps[2], duration_s=math.nextafter(d, math.inf))
    assert measure.session_digest(a) != measure.session_digest(b)


def test_digest_covers_actions_and_resilience_fields():
    base = measure.session_digest(_session())
    for change in ({"action": np.full(4, 0.3)}, {"attempts": 2},
                   {"aborted": True}, {"fallback": True},
                   {"twinq_iterations": 9}):
        s = _session()
        s.steps[1] = dataclasses.replace(s.steps[1], **change)
        assert measure.session_digest(s) != base, change


# --------------------------------------------------------------- op loop


class _FakeWorkload:
    name = "fake"
    cycle = 2

    def before_op(self, k):
        pass

    def op(self, k):
        if k == 1:
            raise RuntimeError("boom")
        return [_session()], {}

    def after_op(self, k, extra):
        return extra

    def rec_sessions(self, sessions):
        return sessions


def test_raising_op_counts_as_failed_and_run_continues():
    records = run.timed_loop(_FakeWorkload(), seconds=0.0)
    # the loop stops on a cycle boundary, after the failing op
    assert [r.k for r in records] == [0, 1]
    assert records[0].error is None and records[0].digests
    assert records[1].error == "RuntimeError: boom"
    e2e = run.end_to_end(_FakeWorkload(), records, setup_s=1.0)
    assert e2e["ops_per_s"] == pytest.approx(1 / sum(r.wall_s
                                                     for r in records))


# ---------------------------------------------------------------- tracing


def _bound_targets(workloads):
    """Every (owner, attribute) a traced run may patch, with its value."""
    out = {}
    for module, cls, attr, _ in workloads.METHOD_LAYERS:
        owner = getattr(importlib.import_module(module), cls)
        out[(owner, attr)] = owner.__dict__.get(attr)
    for module, fn, _ in workloads.FUNCTION_LAYERS:
        original = getattr(importlib.import_module(module), fn)
        for name, mod in list(sys.modules.items()):
            if mod is None or not name.startswith("repro"):
                continue
            for key, value in vars(mod).items():
                if value is original:
                    out[(mod, key)] = value
    return out


def test_traced_run_unpatches_every_wrapped_class():
    import workloads
    from tracing import Tracer

    from repro.factory import make_env

    # load every module the traced calls import lazily, so the binding
    # scan sees the same modules before and after
    make_env("WC", "D1", seed=3).step(np.full(32, 0.5))
    before = _bound_targets(workloads)
    tracer = Tracer()
    workloads.install_layers(tracer)
    try:
        with tracer.op(0):
            env = sys.modules["repro.factory"].make_env("WC", "D1", seed=3)
            env.step(np.full(env.action_dim, 0.5))
    finally:
        tracer.unpatch()
    totals = tracer.layer_totals()
    assert totals["envs.make"]["calls"] == 1
    assert totals["envs.step"]["calls"] == 1
    after = _bound_targets(workloads)
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key
    assert sys.modules["repro.factory"].make_env is make_env


def test_self_time_excludes_children_and_same_name_nesting():
    from tracing import Tracer

    tracer = Tracer()
    with tracer.op(0):
        with tracer.span("outer"):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
    totals = tracer.layer_totals()
    assert totals["outer"]["calls"] == 1
    assert totals["inner"]["calls"] == 1
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["s"] - totals["inner"]["s"])
    assert tracer.top_level_seconds() == pytest.approx(totals["outer"]["s"])


# ----------------------------------------------------------------- refusal


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "online-requests",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_benchmark_json_declares_what_run_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.E2E_UNITS
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layers == run.per_layer_units()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
