"""Multi-core execution plane primitives: shard planning, shared-memory
arenas, and BLAS pinning.

These are the process-free contracts — everything here runs in one
process.  The cross-process behaviour (worker stepping, bit-identity,
crash handling) lives in ``test_sharded_population.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.parallel import (
    blas_env,
    effective_blas_threads,
    limit_blas_threads,
    shard_plan,
)
from repro.parallel.pinning import _BLAS_ENV_VARS, _openblas_function
from repro.parallel.shm import ShmArena, active_segments, plan_blocks


class TestShardPlan:
    def test_even_split(self):
        assert shard_plan(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_goes_to_earlier_shards(self):
        assert shard_plan(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_single_shard_is_everything(self):
        assert shard_plan(5, 1) == [(0, 5)]

    def test_shards_clamped_to_members(self):
        plan = shard_plan(3, 8)
        assert plan == [(0, 1), (1, 2), (2, 3)]

    def test_covers_range_contiguously(self):
        for n in (1, 2, 7, 64):
            for shards in (1, 2, 3, 5, n, n + 3):
                plan = shard_plan(n, shards)
                assert plan[0][0] == 0
                assert plan[-1][1] == n
                for (_, hi), (lo, _) in zip(plan, plan[1:]):
                    assert hi == lo
                assert all(hi > lo for lo, hi in plan)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            shard_plan(0, 2)
        with pytest.raises(ValueError):
            shard_plan(4, 0)


class TestArenaPlan:
    def test_blocks_are_aligned_and_disjoint(self):
        plan = plan_blocks([("a", (3, 5)), ("b", (2,)), ("c", (1, 1, 7))])
        end = 0
        for blk in plan.blocks:
            assert blk.offset % 64 == 0
            assert blk.offset >= end
            end = blk.offset + blk.nbytes
        assert plan.size >= end

    def test_nbytes_is_float64(self):
        plan = plan_blocks([("a", (4, 8))])
        assert plan.block("a").nbytes == 4 * 8 * 8

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            plan_blocks([("a", (2,)), ("a", (3,))])

    def test_unknown_block_raises(self):
        plan = plan_blocks([("a", (2,))])
        with pytest.raises(KeyError):
            plan.block("nope")


class TestShmArena:
    def test_write_through_between_mappings(self):
        plan = plan_blocks([("x", (4, 3)), ("y", (2,))])
        with ShmArena.create(plan) as arena:
            other = ShmArena.attach(arena.name, plan)
            try:
                arena.view("x")[:] = 1.5
                np.testing.assert_array_equal(
                    other.view("x"), np.full((4, 3), 1.5)
                )
                other.view("y")[:] = [7.0, 8.0]
                np.testing.assert_array_equal(arena.view("y"), [7.0, 8.0])
            finally:
                other.close()
        assert active_segments() == []

    def test_only_owner_may_unlink(self):
        plan = plan_blocks([("x", (2,))])
        with ShmArena.create(plan) as arena:
            other = ShmArena.attach(arena.name, plan)
            with pytest.raises(RuntimeError, match="owner"):
                other.unlink()
            other.close()

    def test_segment_visible_while_alive_gone_after(self):
        plan = plan_blocks([("x", (2,))])
        arena = ShmArena.create(plan)
        assert arena.name in active_segments()
        arena.unlink()
        assert arena.name not in active_segments()

    def test_view_after_close_raises(self):
        plan = plan_blocks([("x", (2,))])
        arena = ShmArena.create(plan)
        arena.unlink()
        with pytest.raises(RuntimeError, match="closed"):
            arena.view("x")

    def test_sequential_allocator_serves_plan_order(self):
        plan = plan_blocks([("a", (2, 3)), ("b", (4,))])
        with ShmArena.create(plan) as arena:
            alloc = arena.sequential_allocator()
            a = alloc((2, 3), dtype=np.float64)
            b = alloc((4,), dtype=np.float64)
            a[:] = 2.0
            np.testing.assert_array_equal(arena.view("a"), np.full((2, 3), 2.0))
            b[:] = 3.0
            np.testing.assert_array_equal(arena.view("b"), np.full(4, 3.0))

    def test_sequential_allocator_rejects_plan_mismatch(self):
        plan = plan_blocks([("a", (2, 3))])
        with ShmArena.create(plan) as arena:
            alloc = arena.sequential_allocator()
            with pytest.raises(ValueError, match="mismatch"):
                alloc((9, 9), dtype=np.float64)


class TestPinning:
    def test_blas_env_covers_all_knobs(self):
        env = blas_env(3)
        assert set(env) == set(_BLAS_ENV_VARS)
        assert all(v == "3" for v in env.values())

    def test_limit_reports_mechanism(self, monkeypatch):
        for var in _BLAS_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        before = effective_blas_threads()
        getter = _openblas_function("get")
        try:
            how = limit_blas_threads(1)
            assert all(os.environ[v] == "1" for v in _BLAS_ENV_VARS)
            if getter is None:
                assert how in ("threadpoolctl", "env")
                return
            # numpy's own OpenBLAS is reachable: it is pinned directly
            # and the probe reads the budget back from the library.
            assert how == "openblas"
            assert getter() == 1 and effective_blas_threads() == 1
            assert limit_blas_threads(2) == "openblas"
            assert getter() == 2 and effective_blas_threads() == 2
        finally:
            limit_blas_threads(before)

    def test_effective_threads_positive(self):
        threads = effective_blas_threads()
        assert isinstance(threads, int)
        assert threads >= 1

    def test_non_positive_budget_clamps_to_one(self):
        assert blas_env(0)["OMP_NUM_THREADS"] == "1"
        assert limit_blas_threads(0) in ("threadpoolctl", "openblas", "env")


# Reads numpy's OpenBLAS thread count without importing repro, so a child
# of a process that imported it shows what the exported variables alone
# give a freshly started worker.
_PROBE = """
import ctypes, glob, os, numpy
libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                    "numpy.libs", "*openblas*")
names = [p + "get_num_threads" + s for p in ("openblas_", "scipy_openblas_")
         for s in ("", "64_")]
handles = [ctypes.CDLL(path) for path in glob.glob(libs)]
fns = [getattr(lib, n, None) for lib in handles + [ctypes.CDLL(None)]
       for n in names]
print(next((fn() for fn in fns if fn is not None), -1))
"""

_IMPORT_AND_PROBE = """
import subprocess, sys
import repro
from repro.parallel.pinning import _openblas_function
getter = _openblas_function("get")
child = subprocess.run([sys.executable, "-c", sys.argv[1]],
                       capture_output=True, text=True, check=True)
print(getter() if getter else -1, child.stdout.strip())
"""


def _threads_after_import(**preset: str) -> tuple[int, int]:
    """(threads in a process that imported repro, in its child)."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_ENV_VARS}
    env.update(preset)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_AND_PROBE, _PROBE], env=env,
        capture_output=True, text=True, check=True,
    ).stdout.split()
    if int(out[0]) < 0:
        pytest.skip("numpy's BLAS is not a reachable OpenBLAS")
    return int(out[0]), int(out[1])


class TestDefaultPin:
    def test_import_pins_one_thread_and_workers_inherit(self):
        assert _threads_after_import() == (1, 1)

    def test_user_setting_wins(self):
        # OpenBLAS caps its env budget at the CPUs it may run on.
        expected = min(2, len(os.sched_getaffinity(0)))
        assert _threads_after_import(OPENBLAS_NUM_THREADS="2") == (
            expected, expected)
