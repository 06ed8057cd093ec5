"""BLAS thread pinning: the process-wide 1-thread default and its probe.

This repo's matrices are small (64-wide MLPs, batch 128), where a
multi-threaded BLAS spends more on waking threads than it saves, and
K worker processes x T BLAS threads oversubscribe the machine.  So
``import repro`` pins the loaded BLAS to one thread
(:func:`pin_default_blas_threads`) unless the user set one of
:data:`USER_OVERRIDE_VARS`.  Mechanisms, tried in order:

1. ctypes on the OpenBLAS numpy loaded — found under ``numpy.libs``
   (wheels; the ``scipy_openblas`` builds name their setter
   ``scipy_openblas_set_num_threads64_``) or in the global namespace;
2. ``threadpoolctl`` when installed — talks to every loaded pool;
3. environment variables — only effective for libraries loaded *after*
   they are set, e.g. in a freshly spawned worker; they are always
   exported so spawned and forked workers inherit the budget.

Correctness never depends on pinning, only throughput does, and
:func:`effective_blas_threads` asks the library what actually took
effect so benchmark records stay honest.
"""

from __future__ import annotations

import ctypes
import glob
import os

_BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: a user who set any of these chose a BLAS budget; the default keeps out
USER_OVERRIDE_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                      "MKL_NUM_THREADS")


def _openblas_function(verb: str):
    """The loaded OpenBLAS's ``set``/``get`` thread function, or None.

    Tries every spelling in the wild: plain and ``scipy_`` prefixed,
    each with and without the ILP64 ``64_`` suffix.
    """
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs", "*openblas*")
    handles = []
    for path in sorted(glob.glob(libs)):
        try:
            handles.append(ctypes.CDLL(path))
        except OSError:
            continue
    try:
        handles.append(ctypes.CDLL(None))
    except OSError:  # pragma: no cover - no dlopen(NULL) support
        pass
    symbols = [f"{prefix}openblas_{verb}_num_threads{suffix}"
               for prefix in ("", "scipy_") for suffix in ("", "64_")]
    for lib in handles:
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                # void set(int) / int get(void) in every spelling
                if verb == "set":
                    fn.argtypes, fn.restype = [ctypes.c_int], None
                else:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                return fn
    return None


def blas_env(threads: int) -> dict[str, str]:
    """Environment variables that cap BLAS pools at ``threads``."""
    value = str(max(1, int(threads)))
    return {var: value for var in _BLAS_ENV_VARS}


def limit_blas_threads(threads: int) -> str:
    """Pin loaded BLAS pools to ``threads``; returns the mechanism used.

    The environment variables are exported first, so a BLAS that loads
    later (including numpy's own, if not yet imported) starts pinned.
    """
    threads = max(1, int(threads))
    os.environ.update(blas_env(threads))
    setter = _openblas_function("set")
    if setter is not None:
        setter(threads)
        return "openblas"
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(limits=threads)
        return "threadpoolctl"
    except ImportError:
        pass
    except Exception:  # pragma: no cover - exotic pool states
        pass
    return "env"


def pin_default_blas_threads() -> str | None:
    """The import-time default: one BLAS thread, unless the user chose.

    Returns the mechanism used, or ``None`` when one of
    :data:`USER_OVERRIDE_VARS` is set (the user's value then stands).
    """
    if any(os.environ.get(var) for var in USER_OVERRIDE_VARS):
        return None
    return limit_blas_threads(1)


def effective_blas_threads() -> int:
    """The BLAS thread count actually in effect.

    Asks the loaded library first; environment variables are read only
    when no library answers.
    """
    getter = _openblas_function("get")
    if getter is not None:
        n = int(getter())
        if n > 0:
            return n
    try:
        import threadpoolctl

        infos = threadpoolctl.threadpool_info()
        blas = [i for i in infos if i.get("user_api") == "blas"]
        if blas:
            return max(int(i.get("num_threads", 1)) for i in blas)
    except ImportError:
        pass
    except Exception:  # pragma: no cover
        pass
    for var in _BLAS_ENV_VARS:
        raw = os.environ.get(var)
        if raw:
            try:
                return max(1, int(raw))
            except ValueError:
                continue
    return os.cpu_count() or 1


def shard_plan(n: int, shards: int) -> list[tuple[int, int]]:
    """Split ``n`` members into contiguous near-equal ``[lo, hi)`` shards.

    Earlier shards get the remainder, so sizes differ by at most one and
    concatenating the ranges in order reproduces ``range(n)`` — the
    property that keeps sharded fold order identical to the single
    process path.
    """
    if n <= 0:
        raise ValueError(f"population size must be positive, got {n}")
    if shards <= 0:
        raise ValueError(f"shard count must be positive, got {shards}")
    shards = min(shards, n)
    base, extra = divmod(n, shards)
    plan: list[tuple[int, int]] = []
    lo = 0
    for s in range(shards):
        hi = lo + base + (1 if s < extra else 0)
        plan.append((lo, hi))
        lo = hi
    return plan
