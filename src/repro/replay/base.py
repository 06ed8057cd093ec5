"""Transition records and the batched storage backing every buffer."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Transition", "ReplayBatch", "RingStorage"]


@dataclass(frozen=True)
class Transition:
    """One (s, a, r, s') interaction.

    Configuration tuning has no terminal states (episodes are bounded by
    step budgets, not by the MDP), so there is no ``done`` flag; the
    bootstrap always continues.
    """

    state: np.ndarray
    action: np.ndarray
    reward: float
    next_state: np.ndarray


@dataclass(frozen=True)
class ReplayBatch:
    """A sampled minibatch in structure-of-arrays layout.

    Vectorized over the batch dimension so agents do a single forward /
    backward pass per update (see the hpc guides: no per-sample loops).
    """

    states: np.ndarray  # (m, state_dim)
    actions: np.ndarray  # (m, action_dim)
    rewards: np.ndarray  # (m, 1)
    next_states: np.ndarray  # (m, state_dim)
    #: indices into the owning buffer (for PER priority updates)
    indices: np.ndarray | None = None
    #: importance-sampling weights (PER); None for unweighted buffers
    weights: np.ndarray | None = None

    def __len__(self) -> int:
        return self.states.shape[0]


class RingStorage:
    """Fixed-capacity structure-of-arrays transition store.

    The arrays grow geometrically as rows are pushed, up to
    ``capacity``; from then on each push overwrites the oldest entry.
    Insertion is amortised O(1), gathers are vectorized, and slot
    indices are the same as in a ring allocated whole up front.  Deep
    copies and pickles carry only the occupied rows, so a copy costs
    what the ring holds rather than what it could hold.  Pickles whose
    arrays span the full capacity load unchanged.
    """

    #: the per-transition arrays, one row per slot
    ARRAYS = ("_states", "_actions", "_rewards", "_next_states")
    #: rows allocated by the first push
    _MIN_ROWS = 64

    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if state_dim <= 0 or action_dim <= 0:
            raise ValueError("state/action dims must be positive")
        self.capacity = capacity
        self.state_dim = state_dim
        self.action_dim = action_dim
        self._states = np.empty((0, state_dim))
        self._actions = np.empty((0, action_dim))
        self._rewards = np.empty((0, 1))
        self._next_states = np.empty((0, state_dim))
        self._next = 0
        self._size = 0

    def _grow(self) -> None:
        """Reallocate every array at double its rows (capped at
        ``capacity``), keeping the occupied rows."""
        rows = min(self.capacity, max(2 * len(self._states), self._MIN_ROWS))
        n = self._size
        for name in self.ARRAYS:
            old = getattr(self, name)
            new = np.empty((rows, old.shape[1]))
            new[:n] = old[:n]
            setattr(self, name, new)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name in self.ARRAYS:
            state[name] = state[name][: self._size]
        return state

    def __len__(self) -> int:
        return self._size

    def push(self, t: Transition) -> int:
        """Insert ``t``; return the slot index it landed in."""
        if t.state.shape != (self.state_dim,):
            raise ValueError(
                f"state shape {t.state.shape} != ({self.state_dim},)"
            )
        if t.action.shape != (self.action_dim,):
            raise ValueError(
                f"action shape {t.action.shape} != ({self.action_dim},)"
            )
        idx = self._next
        if idx == len(self._states):
            self._grow()
        self._states[idx] = t.state
        self._actions[idx] = t.action
        self._rewards[idx, 0] = t.reward
        self._next_states[idx] = t.next_state
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)
        return idx

    def _check_indices(self, idx: np.ndarray) -> None:
        # Single vectorized validity pass (one mask, no min/max re-scans).
        if idx.size and np.any((idx < 0) | (idx >= self._size)):
            raise IndexError("replay index out of range")

    def gather(self, indices: np.ndarray) -> ReplayBatch:
        """Vectorized fetch of the given slots."""
        idx = np.asarray(indices, dtype=np.intp)
        self._check_indices(idx)
        return ReplayBatch(
            states=self._states[idx],
            actions=self._actions[idx],
            rewards=self._rewards[idx],
            next_states=self._next_states[idx],
            indices=idx,
        )

    def gather_into(self, indices: np.ndarray, batch: ReplayBatch, offset: int) -> None:
        """Fetch the given slots into ``batch`` rows starting at ``offset``.

        Allocation-free variant of :meth:`gather` for callers that own a
        preallocated :class:`ReplayBatch` (see RDPER's batched sample).
        """
        idx = np.asarray(indices, dtype=np.intp)
        self._check_indices(idx)
        self.gather_into_trusted(idx, batch, offset)

    def gather_into_trusted(
        self, idx: np.ndarray, batch: ReplayBatch, offset: int
    ) -> None:
        """:meth:`gather_into` minus the occupancy check, for callers
        whose indices are in-range by construction (RDPER draws them as
        ``rng.integers(0, len(pool))``).  The ``ndarray.take`` method
        skips numpy's dispatch wrapper and still hard-errors on indices
        past the allocated rows (``mode='raise'``)."""
        end = offset + idx.size
        self._states.take(idx, axis=0, out=batch.states[offset:end])
        self._actions.take(idx, axis=0, out=batch.actions[offset:end])
        self._rewards.take(idx, axis=0, out=batch.rewards[offset:end])
        self._next_states.take(idx, axis=0, out=batch.next_states[offset:end])

    def reward_at(self, index: int) -> float:
        if not 0 <= index < self._size:
            raise IndexError("index out of range")
        return float(self._rewards[index, 0])
