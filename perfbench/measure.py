"""Statistics, digests and host facts shared by the benchmark workloads.

Nothing here imports the program under test except through the
sessions it hands back, so the helpers are unit-testable on their own
(see ``test_perfbench.py``).
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import math
import os
import platform
import resource
import statistics
import struct

#: samples a percentile needs beyond it before it is reported
TAIL_SAMPLES = 10


def median(values):
    return float(statistics.median(values)) if values else float("nan")


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default rule)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(values, q: float = 95.0) -> float | None:
    """The ``q``-th percentile, or ``None`` when fewer than
    :data:`TAIL_SAMPLES` samples lie beyond it (too few to be a
    percentile rather than the maximum of a handful)."""
    if len(values) * (100.0 - q) / 100.0 < TAIL_SAMPLES:
        return None
    return percentile(values, q)


# ------------------------------------------------------------------ digest


def _feed(h, value) -> None:
    """Hash ``value`` exactly: floats by their bit pattern, containers in
    a fixed order, numpy arrays by dtype, shape and bytes."""
    if value is None or isinstance(value, (bool, str)):
        h.update(repr(value).encode())
    elif isinstance(value, int):
        h.update(b"i" + str(value).encode())
    elif isinstance(value, float):
        h.update(b"f" + struct.pack("<d", value))
    elif isinstance(value, dict):
        h.update(b"{")
        for key in sorted(value):
            _feed(h, key)
            _feed(h, value[key])
        h.update(b"}")
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            _feed(h, item)
        h.update(b"]")
    elif hasattr(value, "tobytes") and hasattr(value, "dtype"):
        if value.ndim == 0:
            _feed(h, value.item())
        else:
            h.update(f"a{value.dtype.str}{value.shape}".encode())
            h.update(value.tobytes())
    else:
        raise TypeError(f"cannot digest {type(value).__name__}")


def session_digest(session) -> str:
    """SHA-256 over a session's science fields.

    Covers configs, action vectors, durations, rewards, Twin-Q
    iterations/acceptance, resilience attempts/aborts/fallbacks and the
    evaluation cost.  Measured wall-clock (``recommendation_s`` and the
    total tuning cost built from it) is left out: it differs on every
    run of the same science.
    """
    h = hashlib.sha256()
    _feed(h, [session.tuner, session.workload, session.dataset,
              float(session.default_duration_s)])
    for s in session.steps:
        _feed(h, [
            s.step, float(s.duration_s), float(s.reward), s.success,
            s.config, s.action, s.twinq_iterations, s.twinq_accepted,
            s.original_q, s.final_q, s.attempts, s.aborted, s.fallback,
            list(s.faults),
        ])
    _feed(h, float(session.evaluation_seconds))
    return h.hexdigest()


def value_digest(value) -> str:
    """SHA-256 of any value :func:`session_digest` knows how to hash."""
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


# -------------------------------------------------------------------- host


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked of the library
    itself; ``None`` when no OpenBLAS getter is found."""
    import numpy

    pattern = os.path.join(
        os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs",
        "*openblas*",
    )
    getters = ("openblas_get_num_threads", "openblas_get_num_threads64_",
               "scipy_openblas_get_num_threads64_",
               "scipy_openblas_get_num_threads")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in getters:
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def git_sha(root: str) -> str:
    """HEAD of the checkout at ``root``, read from ``.git`` directly;
    ``"unknown"`` when the checkout is not a git repository."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def host_facts(root: str) -> dict:
    import numpy

    return {
        "nproc": nproc(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(root),
    }
