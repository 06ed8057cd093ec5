"""Layers with explicit forward/backward passes.

Every layer implements:

* ``forward(x, cache=True)`` — compute output; stash what backward needs.
* ``backward(grad_out, input_grad=True, param_grads=True)`` — given
  dLoss/dOutput, accumulate parameter gradients and return dLoss/dInput;
  a :class:`Linear` skips whichever of the two the caller turned off.
* ``parameters()`` — trainable :class:`~repro.nn.network.Parameter` list.

Shapes are always ``(batch, features)``; all math is vectorized over the
batch dimension (no Python loops per sample).

Hot-loop allocation policy: each layer owns reusable output/gradient
workspaces keyed by batch size, written through ``out=`` ufunc/matmul
arguments, so steady-state training allocates nothing per step.  The
results are bit-identical to the allocating expressions (same kernels,
different destination).  Ownership rule: an array returned by
``forward``/``backward`` is valid until the *next* ``forward``/
``backward`` of the same layer with the same batch size — consume or
copy it before then (every in-repo caller does).

Every underscore attribute of a layer is such a cache or workspace.
Pickles and deep copies leave them out and a copy starts with empty
pools, so a fork or checkpoint carries the parameters only.

Same-shaped layers may share their workspaces
(:meth:`Layer.share_workspaces`).  "The same layer" in the ownership
rule then means every layer in the sharing group: an array one of them
returned is overwritten by the next forward/backward of *any* of them.
That is safe only while each layer's forward → backward → optimizer
step runs to completion before another layer of the group starts one,
which is how :class:`~repro.core.population.PopulationTuner` runs its
members' fine-tune updates.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import he_uniform, uniform_init, xavier_uniform

__all__ = [
    "Layer", "Linear", "ReLU", "Tanh", "Sigmoid", "make_activation", "sigmoid",
]


def _workspace(
    pool: dict[int, np.ndarray],
    n_rows: int,
    n_cols: int,
    dtype=np.float64,
) -> np.ndarray:
    """Fetch (or create) the pooled ``(n_rows, n_cols)`` buffer."""
    buf = pool.get(n_rows)
    if buf is None:
        buf = pool[n_rows] = np.empty((n_rows, n_cols), dtype=dtype)
    return buf


class Layer:
    """Base class; stateless layers only override forward/backward."""

    #: names of the layer's workspace pools (``dict``s keyed by rows)
    _POOLS: tuple[str, ...] = ()

    def _reset_scratch(self) -> None:
        """(Re)create the layer's caches and workspaces, all empty."""

    def share_workspaces(self, lead: "Layer") -> None:
        """Use ``lead``'s workspace pools from now on instead of this
        layer's own (see the module docstring for when that is safe)."""
        if type(lead) is not type(self):
            raise TypeError(
                f"cannot share {type(lead).__name__} workspaces with a "
                f"{type(self).__name__}"
            )
        for name in self._POOLS:
            setattr(self, name, getattr(lead, name))

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(
        self,
        grad_out: np.ndarray,
        input_grad: bool = True,
        param_grads: bool = True,
    ) -> np.ndarray | None:
        raise NotImplementedError

    def parameters(self) -> list:
        return []

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items()
                if not k.startswith("_")}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(
            (k, v) for k, v in state.items() if not k.startswith("_")
        )
        self._reset_scratch()


class Linear(Layer):
    """Affine layer ``y = x @ W + b``."""

    _POOLS = ("_fwd", "_fwd_nc", "_bwd")

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        init: str = "he",
        final_init_limit: float | None = None,
        name: str = "",
    ):
        from repro.nn.network import Parameter  # local import avoids cycle

        if in_dim <= 0 or out_dim <= 0:
            raise ValueError(f"invalid layer dims ({in_dim}, {out_dim})")
        if final_init_limit is not None:
            w = uniform_init(rng, in_dim, out_dim, final_init_limit)
        elif init == "he":
            w = he_uniform(rng, in_dim, out_dim)
        elif init == "xavier":
            w = xavier_uniform(rng, in_dim, out_dim)
        else:
            raise ValueError(f"unknown init {init!r}")
        self.weight = Parameter(w, name=f"{name}.weight")
        self.bias = Parameter(np.zeros(out_dim), name=f"{name}.bias")
        self._reset_scratch()

    def _reset_scratch(self) -> None:
        self._x: np.ndarray | None = None
        self._fwd: dict[int, np.ndarray] = {}
        self._fwd_nc: dict[int, np.ndarray] = {}
        self._bwd: dict[int, np.ndarray] = {}
        self._grad_w: np.ndarray | None = None
        self._grad_b: np.ndarray | None = None

    def share_workspaces(self, lead: "Layer") -> None:
        super().share_workspaces(lead)
        if lead._grad_w is None:
            lead._grad_w = np.empty_like(lead.weight.data)
            lead._grad_b = np.empty_like(lead.bias.data)
        self._grad_w, self._grad_b = lead._grad_w, lead._grad_b

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        if cache:
            self._x = x
        # Uncached (inference) forwards use a separate pool so they never
        # clobber activations a pending backward still needs.
        pool = self._fwd if cache else self._fwd_nc
        out = _workspace(pool, x.shape[0], self.weight.data.shape[1])
        if out is x:  # a Linear fed its own output; don't alias matmul
            out = np.empty_like(out)
        np.matmul(x, self.weight.data, out=out)
        out += self.bias.data
        return out

    def backward(
        self,
        grad_out: np.ndarray,
        input_grad: bool = True,
        param_grads: bool = True,
    ) -> np.ndarray | None:
        if self._x is None:
            raise RuntimeError("backward called before a cached forward")
        if param_grads:
            if self._grad_w is None:
                self._grad_w = np.empty_like(self.weight.data)
                self._grad_b = np.empty_like(self.bias.data)
            np.matmul(self._x.T, grad_out, out=self._grad_w)
            self.weight.grad += self._grad_w
            # np.add.reduce is np.sum's kernel without the dispatch
            # wrapper — same pairwise summation, so bit-identical,
            # measurably cheaper at this call frequency.
            np.add.reduce(grad_out, axis=0, out=self._grad_b)
            self.bias.grad += self._grad_b
        if not input_grad:
            return None
        grad_in = _workspace(
            self._bwd, grad_out.shape[0], self.weight.data.shape[0]
        )
        np.matmul(grad_out, self.weight.data.T, out=grad_in)
        return grad_in

    def parameters(self) -> list:
        return [self.weight, self.bias]


class ReLU(Layer):
    _POOLS = ("_fwd", "_fwd_nc", "_masks", "_bwd")

    def __init__(self):
        self._reset_scratch()

    def _reset_scratch(self) -> None:
        self._mask: np.ndarray | None = None
        self._fwd: dict[int, np.ndarray] = {}
        self._fwd_nc: dict[int, np.ndarray] = {}
        self._masks: dict[int, np.ndarray] = {}
        self._bwd: dict[int, np.ndarray] = {}

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        out = _workspace(self._fwd if cache else self._fwd_nc,
                         x.shape[0], x.shape[1])
        np.maximum(x, 0.0, out=out)
        if cache:
            mask = _workspace(self._masks, x.shape[0], x.shape[1], dtype=bool)
            np.greater(x, 0.0, out=mask)
            self._mask = mask
        return out

    def backward(self, grad_out, input_grad=True, param_grads=True):
        if self._mask is None:
            raise RuntimeError("backward called before a cached forward")
        grad_in = _workspace(
            self._bwd, grad_out.shape[0], grad_out.shape[1]
        )
        np.multiply(grad_out, self._mask, out=grad_in)
        return grad_in


class Tanh(Layer):
    _POOLS = ("_fwd", "_fwd_nc", "_bwd")

    def __init__(self):
        self._reset_scratch()

    def _reset_scratch(self) -> None:
        self._out: np.ndarray | None = None
        self._fwd: dict[int, np.ndarray] = {}
        self._fwd_nc: dict[int, np.ndarray] = {}
        self._bwd: dict[int, np.ndarray] = {}

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        out = _workspace(self._fwd if cache else self._fwd_nc,
                         x.shape[0], x.shape[1])
        np.tanh(x, out=out)
        if cache:
            self._out = out
        return out

    def backward(self, grad_out, input_grad=True, param_grads=True):
        if self._out is None:
            raise RuntimeError("backward called before a cached forward")
        grad_in = _workspace(
            self._bwd, grad_out.shape[0], grad_out.shape[1]
        )
        # grad_out * (1 - out^2), evaluated in the scalar path's op order
        np.multiply(self._out, self._out, out=grad_in)
        np.subtract(1.0, grad_in, out=grad_in)
        np.multiply(grad_out, grad_in, out=grad_in)
        return grad_in


def sigmoid(
    x: np.ndarray, out: np.ndarray, den: np.ndarray, nonneg: np.ndarray
) -> np.ndarray:
    """Logistic function into ``out``, using ``den``/``nonneg`` as scratch.

    With ``z = exp(-|x|)`` this is ``1 / (1 + z)`` where ``x >= 0`` and
    ``z / (1 + z)`` elsewhere — the two numerically stable branches,
    sharing one ``exp`` that never overflows.  Each branch computes
    exactly what the gather-per-sign form did, so the output is
    bit-identical to it for every non-NaN input.
    """
    np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.add(1.0, out, out=den)
    np.greater_equal(x, 0.0, out=nonneg)
    np.copyto(out, 1.0, where=nonneg)
    np.divide(out, den, out=out)
    return out


class Sigmoid(Layer):
    _POOLS = ("_fwd", "_fwd_nc", "_den", "_nonneg", "_bwd")

    def __init__(self):
        self._reset_scratch()

    def _reset_scratch(self) -> None:
        self._out: np.ndarray | None = None
        self._fwd: dict[int, np.ndarray] = {}
        self._fwd_nc: dict[int, np.ndarray] = {}
        self._den: dict[int, np.ndarray] = {}
        self._nonneg: dict[int, np.ndarray] = {}
        self._bwd: dict[int, np.ndarray] = {}

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        rows, cols = x.shape
        out = sigmoid(
            x,
            _workspace(self._fwd if cache else self._fwd_nc, rows, cols),
            _workspace(self._den, rows, cols),
            _workspace(self._nonneg, rows, cols, dtype=bool),
        )
        if cache:
            self._out = out
        return out

    def backward(self, grad_out, input_grad=True, param_grads=True):
        if self._out is None:
            raise RuntimeError("backward called before a cached forward")
        grad_in = _workspace(
            self._bwd, grad_out.shape[0], grad_out.shape[1]
        )
        scratch = _workspace(
            self._den, grad_out.shape[0], grad_out.shape[1]
        )
        # (grad_out * out) * (1 - out), the scalar path's op order
        np.multiply(grad_out, self._out, out=grad_in)
        np.subtract(1.0, self._out, out=scratch)
        np.multiply(grad_in, scratch, out=grad_in)
        return grad_in


_ACTIVATIONS = {"relu": ReLU, "tanh": Tanh, "sigmoid": Sigmoid}


def make_activation(name: str) -> Layer:
    """Instantiate an activation layer by name."""
    try:
        return _ACTIVATIONS[name]()
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; choose from {sorted(_ACTIVATIONS)}"
        ) from None
