"""Parameters, their flat arenas, and the sequential network.

Every :class:`Sequential` keeps all of its parameters in one
:class:`ParameterArena`: a contiguous ``flat`` data vector and a
``flat_grad`` gradient vector, with each :class:`Parameter`'s ``data``
and ``grad`` a C-contiguous reshaped view into them.  Layers keep
reading and accumulating through the views, while the optimizer, Polyak
averaging and ``zero_grad`` each make one elementwise pass over the
whole network instead of a loop over its tensors.  Because every one of
those passes is elementwise, the flat form computes exactly the values
the per-tensor form did.

Pickles and deep copies of an arena carry ``flat`` only: gradients are
write-before-read in every update (each backward is preceded by a
``zero_grad``), so they restart at zero, and each parameter rebuilds its
views on load.
"""

from __future__ import annotations

from math import prod
from typing import Sequence

import numpy as np

from repro.nn.layers import Layer, Linear, make_activation
from repro.telemetry.profiling import phase as _profile_phase

__all__ = ["Parameter", "ParameterArena", "Sequential", "MLP"]


class Parameter:
    """A trainable tensor with an accumulated gradient.

    ``data`` and ``grad`` are plain numpy arrays; optimizers update
    ``data`` in place (views, not copies — see the hpc guides) and layers
    accumulate into ``grad`` during :meth:`Sequential.backward`.  Once a
    parameter joins a :class:`ParameterArena` as its ``index``-th
    tensor, both are views into the arena's storage.
    """

    __slots__ = ("data", "grad", "name", "arena", "index")

    def __init__(self, data: np.ndarray, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name
        self.arena: ParameterArena | None = None
        self.index = 0

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __getstate__(self) -> dict:
        if self.arena is not None:
            # The arena carries the values; the views are rebuilt on load.
            return {"name": self.name, "arena": self.arena,
                    "index": self.index}
        return {"name": self.name, "data": self.data, "grad": self.grad}

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple):  # slots-only pickles predate arenas
            state = state[1]
        self.name = state["name"]
        if "arena" in state:
            state["arena"].bind(self, state["index"])
        else:
            self.data, self.grad = state["data"], state["grad"]
            self.arena, self.index = None, 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.shape})"


class ParameterArena:
    """One contiguous data vector and one gradient vector behind an
    ordered list of parameters.

    Parameter ``i`` owns ``flat[offsets[i]:offsets[i] + size_i]``,
    reshaped to its own shape; its gradient owns the same slice of
    ``flat_grad``.  The arena holds no reference back to its parameters
    (each parameter points at its arena), so a dropped network is freed
    by reference counting, not left for the cycle collector.
    """

    __slots__ = ("shapes", "offsets", "flat", "flat_grad")

    def __init__(self, params: Sequence[Parameter]):
        params = list(params)
        for p in params:
            if p.arena is not None:
                raise ValueError(
                    f"parameter {p.name!r} already belongs to an arena; "
                    "moving it would detach it from its network"
                )
        self.shapes = [p.data.shape for p in params]
        self.offsets = _offsets(self.shapes)
        self.flat = _concat([p.data for p in params])
        self.flat_grad = _concat([p.grad for p in params])
        for i, p in enumerate(params):
            self.bind(p, i)

    def bind(self, p: Parameter, index: int) -> None:
        """Point ``p``'s data and grad at tensor ``index``'s slices."""
        off, shape = self.offsets[index], self.shapes[index]
        end = off + prod(shape)
        p.data = self.flat[off:end].reshape(shape)
        p.grad = self.flat_grad[off:end].reshape(shape)
        p.arena, p.index = self, index

    def owns(self, params: Sequence[Parameter]) -> bool:
        """Whether ``params`` are exactly this arena's tensors, in order."""
        return len(params) == len(self.shapes) and all(
            p.arena is self and p.index == i for i, p in enumerate(params)
        )

    def adopt(self, storage: np.ndarray, params: Sequence[Parameter]) -> None:
        """Copy the data into ``storage`` (1-D, ``flat.size`` long,
        contiguous), make it ``flat`` and rebind ``params``' views."""
        if storage.shape != self.flat.shape or not storage.flags.c_contiguous:
            raise ValueError(
                f"adopting storage {storage.shape} for an arena of "
                f"{self.flat.shape}"
            )
        if not self.owns(params):
            raise ValueError("params are not this arena's tensors")
        storage[...] = self.flat
        self.flat = storage
        for i, p in enumerate(params):
            self.bind(p, i)

    def __getstate__(self) -> dict:
        return {"shapes": self.shapes, "flat": self.flat}

    def __setstate__(self, state: dict) -> None:
        self.shapes = state["shapes"]
        self.offsets = _offsets(self.shapes)
        self.flat = state["flat"]
        self.flat_grad = np.zeros_like(self.flat)


def _offsets(shapes: Sequence[tuple[int, ...]]) -> list[int]:
    offsets, off = [], 0
    for shape in shapes:
        offsets.append(off)
        off += prod(shape)
    return offsets


def _concat(tensors: Sequence[np.ndarray]) -> np.ndarray:
    return np.concatenate([t.ravel() for t in tensors] or [np.empty(0)])


class Sequential:
    """A stack of layers with forward/backward passes.

    Supports three gradient flows needed by actor-critic methods:

    * parameter gradients (for optimizer steps),
    * gradients w.r.t. the network *input* (returned by :meth:`backward`),
      which implement the deterministic policy gradient's dQ/da term,
    * pure inference via :meth:`forward` with ``cache=False``.

    All parameters live in one :class:`ParameterArena`, exposed as
    :attr:`flat` and :attr:`flat_grad`.
    """

    def __init__(self, layers: Sequence[Layer]):
        if not layers:
            raise ValueError("Sequential requires at least one layer")
        self.layers = list(layers)
        self.arena = ParameterArena(self.parameters())

    @property
    def flat(self) -> np.ndarray:
        """Every parameter's data, contiguous, in :meth:`parameters` order."""
        return self.arena.flat

    @property
    def flat_grad(self) -> np.ndarray:
        """Every parameter's gradient, aligned with :attr:`flat`."""
        return self.arena.flat_grad

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        """Run the network; ``cache=True`` stores activations for backward."""
        # The nn layer carries no RunContext (pure math), so its phases
        # resolve through the process-wide active profiler — a shared
        # no-op unless ``repro.telemetry.profiling.activate`` ran.
        with _profile_phase("nn.forward"):
            out = np.asarray(x, dtype=np.float64)
            if out.ndim == 1:
                out = out[None, :]
            for layer in self.layers:
                out = layer.forward(out, cache=cache)
            return out

    __call__ = forward

    def backward(
        self,
        grad_out: np.ndarray,
        input_grad: bool = True,
        param_grads: bool = True,
    ) -> np.ndarray | None:
        """Backpropagate ``grad_out`` (dLoss/dOutput); return dLoss/dInput.

        Parameter gradients are *accumulated*; call :meth:`zero_grad`
        before each optimizer step.  ``input_grad=False`` skips the
        first layer's input gradient (and returns ``None``);
        ``param_grads=False`` backpropagates to the input without
        touching any parameter gradient.
        """
        with _profile_phase("nn.backward"):
            grad = np.asarray(grad_out, dtype=np.float64)
            if grad.ndim == 1:
                grad = grad[None, :]
            first = self.layers[0]
            for layer in reversed(self.layers):
                grad = layer.backward(
                    grad,
                    input_grad=input_grad or layer is not first,
                    param_grads=param_grads,
                )
            return grad

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.parameters()]

    def zero_grad(self) -> None:
        self.arena.flat_grad.fill(0.0)

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter keyed by ``<index>.<name>``."""
        return {
            f"{i}.{p.name or 'param'}": p.data.copy()
            for i, p in enumerate(self.parameters())
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError(
                f"state has {len(state)} tensors, network has {len(params)}"
            )
        for (key, value), p in zip(state.items(), params):
            if value.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {key}: {value.shape} vs {p.data.shape}"
                )
            p.data[...] = value

    def share_workspaces(self, lead: "Sequential") -> None:
        """Run on ``lead``'s layer workspaces from now on; see
        :mod:`repro.nn.layers` for the ownership rule this implies."""
        if (self.arena.shapes != lead.arena.shapes
                or len(self.layers) != len(lead.layers)):
            raise ValueError("architectures differ")
        for layer, lead_layer in zip(self.layers, lead.layers):
            layer.share_workspaces(lead_layer)

    def copy_from(self, other: "Sequential") -> None:
        """Hard-copy parameters from a same-architecture network."""
        if self.arena.shapes != other.arena.shapes:
            raise ValueError("architectures differ")
        self.arena.flat[...] = other.arena.flat

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if "arena" not in state:  # pickled before networks had arenas
            self.arena = ParameterArena(self.parameters())


class MLP(Sequential):
    """Fully-connected network builder.

    Parameters
    ----------
    in_dim, out_dim:
        Input/output widths.
    hidden:
        Hidden layer widths, e.g. ``(64, 64)``.
    activation:
        Hidden activation name: ``"relu"`` or ``"tanh"``.
    out_activation:
        Optional output activation (``"tanh"``, ``"sigmoid"``, or ``None``
        for a linear head — critics use linear, actors use sigmoid to land
        in the normalized [0,1] configuration cube).
    rng:
        Generator for weight init.
    final_init_limit:
        If set, the last Linear layer uses small-uniform init (DDPG §7).
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        hidden: Sequence[int] = (64, 64),
        activation: str = "relu",
        out_activation: str | None = None,
        rng: np.random.Generator | None = None,
        final_init_limit: float | None = 3e-3,
    ):
        rng = rng if rng is not None else np.random.default_rng()
        dims = [in_dim, *hidden, out_dim]
        layers: list[Layer] = []
        for i in range(len(dims) - 1):
            is_last = i == len(dims) - 2
            layers.append(
                Linear(
                    dims[i],
                    dims[i + 1],
                    rng=rng,
                    init="he" if activation == "relu" else "xavier",
                    final_init_limit=final_init_limit if is_last else None,
                    name=f"fc{i}",
                )
            )
            if not is_last:
                layers.append(make_activation(activation))
            elif out_activation is not None:
                layers.append(make_activation(out_activation))
        super().__init__(layers)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.hidden = tuple(hidden)
