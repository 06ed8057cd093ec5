"""Stacked forward passes over N same-architecture networks.

:class:`StackedSequential` adopts each of N
:class:`~repro.nn.network.Sequential` instances whole: network ``i``'s
flat parameter arena becomes row ``i`` of one ``(N, P)`` storage, and
every Parameter's ``data`` is rebound as a view into that row
(:meth:`~repro.nn.network.ParameterArena.adopt`).  Per Linear layer the
stacked weights are the ``(N, in, out)`` strided view of the layer's
columns, so a single 3-D ``np.matmul`` runs all N networks' forwards at
once.

Two facts make this safe and bit-identical:

* every in-repo parameter mutation is **in-place** — `Adam`'s and
  Polyak's fused passes over ``flat``, ``load_state_dict``/
  ``copy_from``'s slice assignments — and only arena binding rebinds
  ``data``, so scalar per-session updates write straight through the
  views into the stacked storage with no refresh step;
* numpy evaluates a stacked ``(N, R, in) @ (N, in, out)`` matmul
  slice-by-slice with the same kernel as the 2-D case (each weight
  slice stays C-contiguous; only the outer stride is ``P``), and the
  elementwise activations (`maximum`, `tanh`, the shared
  :func:`~repro.nn.layers.sigmoid`) are value-wise functions — so row
  ``i`` of the stacked forward is bit-identical to network ``i``'s own
  ``forward(x_i, cache=False)``.

Outputs use pooled per-row-count workspaces, mirroring the scalar
layers' allocation policy; the same ownership rule applies (a returned
array is valid until the next forward with the same row count).

Pickling a network copies its row out of the storage, so adoption does
not survive checkpoint round-trips — re-adopt after a restore (building
a fresh :class:`StackedSequential` is exactly that and is idempotent).
"""

from __future__ import annotations

from math import prod
from typing import Sequence

import numpy as np

from repro.nn.layers import Linear, ReLU, Sigmoid, Tanh, sigmoid
from repro.nn.network import Sequential

__all__ = ["StackedSequential"]


def _workspace3(
    pool: dict[int, np.ndarray], n: int, rows: int, cols: int, dtype=np.float64
) -> np.ndarray:
    """Fetch (or create) the pooled ``(n, rows, cols)`` buffer."""
    buf = pool.get(rows)
    if buf is None:
        buf = pool[rows] = np.empty((n, rows, cols), dtype=dtype)
    return buf


def _columns(storage: np.ndarray, off: int, shape: tuple[int, ...]) -> np.ndarray:
    """The ``(N, *shape)`` view of ``storage[:, off:off + size]``."""
    cols = storage[:, off:off + prod(shape)]
    cols.shape = (storage.shape[0], *shape)  # raises rather than copy
    return cols


class _StackedLinear:
    """N affine layers as ``(N, in, out)`` weight and ``(N, 1, out)``
    bias views into the population's parameter storage."""

    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w = w
        self.b = b
        self._fwd: dict[int, np.ndarray] = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = _workspace3(self._fwd, x.shape[0], x.shape[1], self.w.shape[2])
        np.matmul(x, self.w, out=out)
        out += self.b
        return out


class _StackedReLU:
    def __init__(self):
        self._fwd: dict[int, np.ndarray] = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = _workspace3(self._fwd, x.shape[0], x.shape[1], x.shape[2])
        np.maximum(x, 0.0, out=out)
        return out


class _StackedTanh:
    def __init__(self):
        self._fwd: dict[int, np.ndarray] = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = _workspace3(self._fwd, x.shape[0], x.shape[1], x.shape[2])
        np.tanh(x, out=out)
        return out


class _StackedSigmoid:
    def __init__(self):
        self._fwd: dict[int, np.ndarray] = {}
        self._den: dict[int, np.ndarray] = {}
        self._nonneg: dict[int, np.ndarray] = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, rows, cols = x.shape
        return sigmoid(
            x,
            _workspace3(self._fwd, n, rows, cols),
            _workspace3(self._den, n, rows, cols),
            _workspace3(self._nonneg, n, rows, cols, dtype=bool),
        )


_STACKED_ACTIVATIONS = {
    ReLU: _StackedReLU,
    Tanh: _StackedTanh,
    Sigmoid: _StackedSigmoid,
}


class StackedSequential:
    """Lockstep inference over N same-architecture Sequentials.

    ``forward`` takes ``(N, rows, in_dim)`` and returns
    ``(N, rows, out_dim)``, where slice ``i`` equals
    ``nets[i].forward(x[i], cache=False)`` bit-for-bit.

    ``storage`` is the ``(N, P)`` parameter block whose row ``i`` is
    ``nets[i].flat``; ``allocator`` (an ``np.empty``-compatible
    callable, called once) lets a caller place it, e.g. in shared
    memory.
    """

    def __init__(self, nets: Sequence[Sequential], allocator=None):
        nets = list(nets)
        if not nets:
            raise ValueError("need at least one network")
        if len({id(net) for net in nets}) != len(nets):
            raise ValueError("stacked networks must be distinct objects")
        lead = nets[0]
        for net in nets:
            if len(net.layers) != len(lead.layers) or any(
                type(a) is not type(b)
                for a, b in zip(net.layers, lead.layers)
            ):
                raise ValueError("networks must share an architecture")
            if net.arena.shapes != lead.arena.shapes:
                raise ValueError(
                    f"parameter shape mismatch: {net.arena.shapes} "
                    f"!= {lead.arena.shapes}"
                )
        self.n = len(nets)
        want = (self.n, lead.flat.size)
        alloc = np.empty if allocator is None else allocator
        self.storage = alloc(want, dtype=np.float64)
        if self.storage.shape != want or self.storage.dtype != np.float64:
            raise ValueError(
                f"allocator returned {self.storage.shape} "
                f"{self.storage.dtype}, wanted {want} float64"
            )
        for i, net in enumerate(nets):
            net.arena.adopt(self.storage[i], net.parameters())
        offsets = lead.arena.offsets
        self._ops = []
        for layer in lead.layers:
            kind = type(layer)
            if kind is Linear:
                w, b = layer.weight, layer.bias
                self._ops.append(_StackedLinear(
                    _columns(self.storage, offsets[w.index], w.data.shape),
                    _columns(self.storage, offsets[b.index],
                             (1, *b.data.shape)),
                ))
            elif kind in _STACKED_ACTIVATIONS:
                self._ops.append(_STACKED_ACTIVATIONS[kind]())
            else:
                raise TypeError(f"cannot stack layer type {kind.__name__}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64)
        if out.ndim != 3 or out.shape[0] != self.n:
            raise ValueError(
                f"expected shape ({self.n}, rows, in_dim), got {out.shape}"
            )
        for op in self._ops:
            out = op.forward(out)
        return out

    def members_finite(self) -> np.ndarray:
        """Boolean mask over members: ``True`` where every parameter of
        member ``i``'s net is finite.  Pure observation (no RNG, no
        writes), used to quarantine diverged members before their NaNs
        can reach the shared lockstep tensors."""
        return np.isfinite(self.storage).all(axis=1)
