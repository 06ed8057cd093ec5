"""Multi-core execution plane: shared memory, BLAS pinning, sharding.

Three building blocks, each usable alone:

* :mod:`repro.parallel.shm` — named shared-memory segments planned as
  64-byte-aligned float64 blocks, with owner/attacher lifecycle rules
  that keep ``/dev/shm`` clean across crashes and signals;
* :mod:`repro.parallel.pinning` — BLAS thread limiting (ctypes on
  numpy's OpenBLAS, ``threadpoolctl`` when available, environment
  variables) and the 1-thread default ``import repro`` applies, so K
  worker processes x 1 BLAS thread never oversubscribe the machine;
* :mod:`repro.parallel.sharding` — :class:`ShardedPopulation`, the
  process-sharded population stepper: K long-lived workers each drive a
  contiguous shard of members over shared-memory parameter blocks and
  replay pools, synchronized by a per-round barrier, bit-identical to
  the single-process lockstep.
"""

from repro.parallel.pinning import (
    blas_env,
    effective_blas_threads,
    limit_blas_threads,
    shard_plan,
)

# ``import repro`` imports this package for its BLAS pin, so the shared-
# memory and sharding modules (and multiprocessing) are not re-exported
# here: import them from ``repro.parallel.shm`` and
# ``repro.parallel.sharding``.
__all__ = [
    "blas_env",
    "effective_blas_threads",
    "limit_blas_threads",
    "shard_plan",
]
