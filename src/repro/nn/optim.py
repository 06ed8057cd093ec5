"""Optimizers operating in place on :class:`~repro.nn.network.Parameter`s."""

from __future__ import annotations

from math import prod
from typing import Sequence

import numpy as np

from repro.nn.network import ParameterArena, _concat
from repro.telemetry.profiling import phase as _profile_phase

__all__ = ["SGD", "Adam"]


class SGD:
    """Plain (optionally momentum) stochastic gradient descent."""

    def __init__(
        self,
        params: Sequence,
        lr: float = 1e-2,
        momentum: float = 0.0,
    ):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0,1), got {momentum}")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if self.momentum:
                v *= self.momentum
                v += p.grad
                p.data -= self.lr * v
            else:
                p.data -= self.lr * p.grad

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class Adam:
    """Adam (Kingma & Ba 2015) with bias correction, fused over an arena.

    The optimizer steps one :class:`~repro.nn.network.ParameterArena`:
    the moments are two flat vectors aligned with the arena's ``flat``,
    and each of the update's elementwise operations is one pass over
    the whole network, in the per-tensor form's order, so the result is
    bit-identical to stepping tensor by tensor.  ``params`` that are
    exactly one network's parameters, in order, step that network's
    arena; any other list of arena-less parameters is packed into an
    arena of its own.

    State tensors are updated in place through one scratch pair, so a
    step allocates nothing beyond the bias-corrected scalars.  Pickles
    and deep copies carry the moments and step count, not the scratch.
    Optimizers of same-shaped networks may share that scratch
    (:meth:`share_workspaces`) as long as their steps never interleave.
    """

    def __init__(
        self,
        params: Sequence,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        max_grad_norm: float | None = None,
    ):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError(f"betas must be in [0,1), got {betas}")
        self.params = list(params)
        self.lr = lr
        self.b1, self.b2 = b1, b2
        self.eps = eps
        self.max_grad_norm = max_grad_norm
        self._arena = _arena_of(self.params)
        self._m = np.zeros_like(self._arena.flat)
        self._v = np.zeros_like(self._arena.flat)
        self._t = 0
        self._scratch: tuple[np.ndarray, np.ndarray] | None = None
        self._sq_views: list[np.ndarray] = []

    @property
    def arena(self) -> ParameterArena:
        if self._arena is None:  # unpickled from per-tensor state
            self._arena = _arena_of(self.params)
        return self._arena

    def _workspaces(self) -> tuple[np.ndarray, np.ndarray]:
        if self._scratch is None:
            arena = self.arena
            a = np.empty_like(arena.flat)
            self._scratch = (a, np.empty_like(arena.flat))
            self._sq_views = [
                a[off:off + prod(shape)].reshape(shape)
                for shape, off in zip(arena.shapes, arena.offsets)
            ]
        return self._scratch

    def share_workspaces(self, lead: "Adam") -> None:
        """Step through ``lead``'s scratch pair from now on instead of
        this optimizer's own."""
        if lead.arena.shapes != self.arena.shapes:
            raise ValueError("cannot share scratch across arena shapes")
        self._scratch = lead._workspaces()
        self._sq_views = lead._sq_views

    def _clip_grads(self) -> None:
        if self.max_grad_norm is None:
            return
        grad = self.arena.flat_grad
        a, _ = self._workspaces()
        np.multiply(grad, grad, out=a)
        # One reduction per tensor, summed in tensor order: the pairwise
        # summation blocks of a single reduction over the whole arena
        # would differ.  np.add.reduce is np.sum's kernel minus the
        # dispatch wrapper (bit-identical).
        sq_sum = 0.0
        for sq in self._sq_views:
            sq_sum += float(np.add.reduce(sq, axis=None))
        total = float(np.sqrt(sq_sum))
        if total > self.max_grad_norm and total > 0.0:
            grad *= self.max_grad_norm / total

    def step(self) -> None:
        with _profile_phase("nn.optim"):
            self._clip_grads()
            self._t += 1
            bc1 = 1.0 - self.b1**self._t
            bc2 = 1.0 - self.b2**self._t
            arena = self.arena
            grad, m, v = arena.flat_grad, self._m, self._v
            a, b = self._workspaces()
            m *= self.b1
            np.multiply(grad, 1.0 - self.b1, out=a)
            m += a
            v *= self.b2
            np.multiply(grad, grad, out=a)
            a *= 1.0 - self.b2
            v += a
            np.divide(m, bc1, out=a)
            a *= self.lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            arena.flat -= a

    def zero_grad(self) -> None:
        self.arena.flat_grad.fill(0.0)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_scratch"], state["_sq_views"] = None, []
        return state

    def __setstate__(self, state: dict) -> None:
        if isinstance(state["_m"], list):  # per-tensor moments
            state = {
                **state,
                "_m": _concat(state["_m"]),
                "_v": _concat(state["_v"]),
                "_arena": None,
                "_scratch": None,
                "_sq_views": [],
            }
        self.__dict__.update(state)


def _arena_of(params: list) -> ParameterArena:
    """The arena ``params`` form: their network's, or a new one."""
    arena = params[0].arena if params else None
    if arena is None:
        return ParameterArena(params)
    if not arena.owns(params):
        raise ValueError(
            "parameters of a network must be optimized together, "
            "all of them and in order"
        )
    return arena
