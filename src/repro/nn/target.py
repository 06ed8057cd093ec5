"""Target-network synchronization helpers."""

from __future__ import annotations

import numpy as np

from repro.nn.network import Sequential
from repro.telemetry.profiling import phase as _profile_phase

__all__ = ["soft_update", "hard_update"]

# Pooled scratch per arena size: Polyak averaging runs every agent
# update on every target network, so the τθ product writes into a
# reusable buffer instead of a fresh allocation (bit-identical — scalar
# multiplication is commutative at the element level).
_scratch: dict[int, np.ndarray] = {}


def soft_update(target: Sequential, source: Sequential, tau: float) -> None:
    """Polyak averaging: ``θ' ← τ θ + (1 − τ) θ'`` (in place).

    One elementwise pass per operation over each network's flat arena.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    if target.arena.shapes != source.arena.shapes:
        raise ValueError("target/source architectures differ")
    with _profile_phase("nn.polyak"):
        t_flat, s_flat = target.flat, source.flat
        buf = _scratch.get(s_flat.size)
        if buf is None:
            buf = _scratch[s_flat.size] = np.empty_like(s_flat)
        t_flat *= 1.0 - tau
        np.multiply(s_flat, tau, out=buf)
        t_flat += buf


def hard_update(target: Sequential, source: Sequential) -> None:
    """Copy source parameters into the target network."""
    target.copy_from(source)
