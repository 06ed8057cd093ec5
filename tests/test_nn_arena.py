"""Flat parameter arenas: fused steps, lean copies, stacked adoption.

The fused optimizer, Polyak and ``zero_grad`` passes must equal the
per-tensor loops they replaced byte for byte; those loops live on here
as the reference.  Copies and pickles carry parameters and optimizer
moments only and rebuild every view on load — including pickles written
before networks had arenas (``tests/golden/td3_parent_format.pkl``).
"""

import copy
import hashlib
import json
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.agents.base import AgentHyperParams
from repro.agents.ddpg import DDPGAgent
from repro.agents.td3 import TD3Agent
from repro.nn.layers import Linear, Sigmoid, sigmoid
from repro.nn.network import MLP, Parameter, Sequential
from repro.nn.optim import Adam
from repro.nn.population import StackedSequential
from repro.nn.target import hard_update, soft_update
from repro.replay.base import ReplayBatch

GOLDEN = Path(__file__).parent / "golden"

arch = st.tuples(
    st.integers(1, 5),  # in_dim
    st.integers(1, 3),  # out_dim
    st.lists(st.integers(2, 9), min_size=1, max_size=3),  # hidden
    st.integers(0, 2**31 - 1),  # seed
)


def _mlp(a, seed_offset=0):
    in_dim, out_dim, hidden, seed = a
    return MLP(in_dim, out_dim, hidden=tuple(hidden),
               rng=np.random.default_rng(seed + seed_offset))


# ----------------------------------------------------------- references


class ReferenceAdam:
    """The per-tensor Adam loop, as it ran before arenas."""

    def __init__(self, shapes, lr, max_grad_norm, b1=0.9, b2=0.999,
                 eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, b1, b2, eps
        self.max_grad_norm = max_grad_norm
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.t = 0

    def step(self, data, grads):
        if self.max_grad_norm is not None:
            sq_sum = 0.0
            for g in grads:
                sq_sum += float(np.add.reduce(g * g, axis=None))
            total = float(np.sqrt(sq_sum))
            if total > self.max_grad_norm and total > 0.0:
                scale = self.max_grad_norm / total
                for g in grads:
                    g *= scale
        self.t += 1
        bc1 = 1.0 - self.b1**self.t
        bc2 = 1.0 - self.b2**self.t
        for p, g, m, v in zip(data, grads, self.m, self.v):
            a, b = np.empty_like(p), np.empty_like(p)
            m *= self.b1
            np.multiply(g, 1.0 - self.b1, out=a)
            m += a
            v *= self.b2
            np.multiply(g, g, out=a)
            a *= 1.0 - self.b2
            v += a
            np.divide(m, bc1, out=a)
            a *= self.lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p -= a


def reference_soft_update(target, source, tau):
    for tp, sp in zip(target, source):
        tp *= 1.0 - tau
        tp += np.multiply(sp, tau)


def reference_sigmoid(x):
    """The gather-per-sign form the shared ``sigmoid`` replaced."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _bytes(arrays):
    return [a.tobytes() for a in arrays]


def _set_grads(net, rng, scale):
    grads = []
    for p in net.parameters():
        g = rng.normal(size=p.data.shape) * scale
        p.grad[...] = g
        grads.append(g.copy())
    return grads


# ------------------------------------------------------ fused == reference


class TestFusedEqualsReference:
    @given(arch, st.booleans(), st.floats(0.01, 20.0), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_adam(self, a, clip, scale, steps):
        net = _mlp(a)
        opt = Adam(net.parameters(), lr=1e-2,
                   max_grad_norm=5.0 if clip else None)
        data = [p.data.copy() for p in net.parameters()]
        ref = ReferenceAdam([d.shape for d in data], 1e-2,
                            5.0 if clip else None)
        rng = np.random.default_rng(a[3])
        for _ in range(steps):
            grads = _set_grads(net, rng, scale)
            opt.step()
            ref.step(data, grads)
            assert _bytes(p.data for p in net.parameters()) == _bytes(data)
            assert _bytes(p.grad for p in net.parameters()) == _bytes(grads)
        assert opt._m.tobytes() == b"".join(_bytes(ref.m))
        assert opt._v.tobytes() == b"".join(_bytes(ref.v))

    @given(arch, st.floats(1e-3, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_polyak_and_hard_update(self, a, tau):
        target, source = _mlp(a), _mlp(a, seed_offset=1)
        ref = [p.data.copy() for p in target.parameters()]
        soft_update(target, source, tau)
        reference_soft_update(ref, [p.data for p in source.parameters()],
                              tau)
        assert _bytes(p.data for p in target.parameters()) == _bytes(ref)
        hard_update(target, source)
        assert target.flat.tobytes() == source.flat.tobytes()

    @given(arch)
    @settings(max_examples=15, deadline=None)
    def test_zero_grad(self, a):
        net = _mlp(a)
        _set_grads(net, np.random.default_rng(0), 1.0)
        net.zero_grad()
        assert all(not p.grad.any() for p in net.parameters())
        assert not net.flat_grad.any()

    @pytest.mark.parametrize("clip", [False, True])
    def test_stacked_members_with_different_step_counts(self, clip):
        a = (4, 2, [6, 5], 7)
        nets = [_mlp(a, seed_offset=i) for i in range(3)]
        opts = [Adam(n.parameters(), lr=1e-2,
                     max_grad_norm=1.0 if clip else None) for n in nets]
        stacked = StackedSequential(nets)
        refs = [ReferenceAdam([p.data.shape for p in n.parameters()], 1e-2,
                              1.0 if clip else None) for n in nets]
        data = [[p.data.copy() for p in n.parameters()] for n in nets]
        rng = np.random.default_rng(3)
        for i, (net, opt, ref) in enumerate(zip(nets, opts, refs)):
            for _ in range(i + 1):
                grads = _set_grads(net, rng, 3.0)
                opt.step()
                ref.step(data[i], grads)
        assert [o._t for o in opts] == [1, 2, 3]
        x = rng.normal(size=(3, 5, 4))
        out = stacked.forward(x)
        for i, net in enumerate(nets):
            assert _bytes(p.data for p in net.parameters()) == _bytes(data[i])
            assert (out[i].tobytes()
                    == net.forward(x[i], cache=False).tobytes())


# ---------------------------------------------------------------- layers


class TestSigmoid:
    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -1.0,
               36.0, -36.0, 709.0, -709.0, 710.0, -710.0, 745.5, -745.5,
               1e308, -1e308, np.inf, -np.inf]

    def _run(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return Sigmoid().forward(x, cache=False)

    def test_special_values_bit_identical(self):
        x = np.array(self.SPECIAL)
        assert self._run(x).tobytes() == reference_sigmoid(x[None]).tobytes()

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_any_finite_or_infinite_input(self, values):
        x = np.array(values)[None]
        assert self._run(x).tobytes() == reference_sigmoid(x).tobytes()

    def test_nan_in_nan_out(self):
        out = self._run([np.nan, -np.nan, 0.5])
        assert np.isnan(out[0, :2]).all()
        assert out[0, 2] == reference_sigmoid(np.array([0.5]))[0]

    def test_helper_fills_out(self):
        x = np.linspace(-5, 5, 12).reshape(3, 4)
        out = np.empty_like(x)
        got = sigmoid(x, out, np.empty_like(x), np.empty(x.shape, bool))
        assert got is out
        assert out.tobytes() == reference_sigmoid(x).tobytes()


class TestBackwardFlags:
    def _net(self):
        return MLP(4, 3, hidden=(6, 5), out_activation="sigmoid",
                   rng=np.random.default_rng(2))

    def test_flags_skip_work_without_changing_bytes(self):
        net = self._net()
        x = np.random.default_rng(0).normal(size=(7, 4))
        g = np.random.default_rng(1).normal(size=(7, 3))
        net.forward(x)
        full_in = net.backward(g).copy()
        full_grads = net.flat_grad.copy()

        net.zero_grad()
        net.forward(x)
        assert net.backward(g, input_grad=False) is None
        assert net.flat_grad.tobytes() == full_grads.tobytes()

        net.zero_grad()
        net.forward(x)
        only_in = net.backward(g, param_grads=False)
        assert only_in.tobytes() == full_in.tobytes()
        assert not net.flat_grad.any()


# -------------------------------------------------------------- ownership


class TestArenaOwnership:
    def test_views_alias_flat_and_are_contiguous(self):
        net = _mlp((3, 2, [4, 4], 0))
        off = 0
        for p in net.parameters():
            assert p.arena is net.arena
            assert p.data.flags.c_contiguous
            assert np.shares_memory(p.data, net.flat)
            assert np.shares_memory(p.grad, net.flat_grad)
            np.testing.assert_array_equal(
                p.data.ravel(), net.flat[off:off + p.data.size]
            )
            off += p.data.size
        assert off == net.flat.size

    def test_adam_steps_the_network_arena(self):
        net = _mlp((3, 2, [4], 0))
        assert Adam(net.parameters()).arena is net.arena

    def test_adam_packs_loose_parameters(self):
        p, q = Parameter(np.ones(3)), Parameter(np.zeros((2, 2)))
        opt = Adam([p, q])
        assert p.arena is q.arena is opt.arena
        assert np.shares_memory(q.data, opt.arena.flat)

    def test_adam_never_detaches_a_network(self):
        net = _mlp((3, 2, [4], 0))
        params = net.parameters()
        for bad in (params[:2], params[::-1], [*params, Parameter([1.0])]):
            with pytest.raises(ValueError):
                Adam(bad)
        assert all(p.arena is net.arena for p in params)

    def test_layers_of_one_network_cannot_join_another(self):
        lin = Linear(2, 2, np.random.default_rng(0))
        Sequential([lin])
        with pytest.raises(ValueError):
            Sequential([lin])

    def test_stacked_rows_alias_member_arenas(self):
        a = (3, 2, [4, 4], 1)
        nets = [_mlp(a, seed_offset=i) for i in range(3)]
        before = [n.flat.copy() for n in nets]
        stacked = StackedSequential(nets)
        for i, net in enumerate(nets):
            assert net.flat.ctypes.data == stacked.storage[i].ctypes.data
            np.testing.assert_array_equal(net.flat, before[i])
            for p in net.parameters():
                assert np.shares_memory(p.data, stacked.storage[i])
        # Writes through a member's parameter show up in the stack.
        nets[1].parameters()[0].data[0, 0] = 42.0
        assert stacked._ops[0].w[1, 0, 0] == 42.0
        # Re-adoption is idempotent and keeps the values.
        again = StackedSequential(nets)
        np.testing.assert_array_equal(again.storage, stacked.storage)


# ------------------------------------------------------------ lean copies


def _batches(seed, n, m=8, sd=3, ad=2):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield ReplayBatch(
            states=rng.random((m, sd)), actions=rng.random((m, ad)),
            rewards=rng.random((m, 1)), next_states=rng.random((m, sd)),
            weights=rng.random((m, 1)) + 0.5,
        )


_TD3_NETS = ("actor", "critic1", "critic2", "actor_target",
             "critic1_target", "critic2_target")
_TD3_OPTS = ("actor_opt", "critic1_opt", "critic2_opt")


def _digest(agent):
    h = hashlib.sha256()
    for name in _TD3_NETS:
        for p in getattr(agent, name).parameters():
            h.update(p.data.tobytes())
    for name in _TD3_OPTS:
        opt = getattr(agent, name)
        h.update(opt._m.tobytes())
        h.update(opt._v.tobytes())
        h.update(str(opt._t).encode())
    return h.hexdigest()


def _small_td3(seed=11):
    hp = AgentHyperParams(hidden=(8, 8), batch_size=8)
    agent = TD3Agent(3, 2, np.random.default_rng(seed), hp)
    for b in _batches(1, 5):
        agent.update(b)
    return agent


def _assert_bound(agent, nets, opts):
    for name in nets:
        net = getattr(agent, name)
        for p in net.parameters():
            assert p.arena is net.arena
            assert np.shares_memory(p.data, net.flat)
            assert np.shares_memory(p.grad, net.flat_grad)
        for layer in net.layers:
            assert not any(
                v for k, v in vars(layer).items() if k.startswith("_")
            ), f"{name} carried layer scratch"
    for name in opts:
        opt = getattr(agent, name)
        assert opt.arena is getattr(agent, name[:-4]).arena
        assert opt._scratch is None


class TestLeanCopies:
    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_round_trip_rebinds_and_isolates(self, how):
        agent = _small_td3()
        clone = (copy.deepcopy(agent) if how == "deepcopy"
                 else pickle.loads(pickle.dumps(agent)))
        _assert_bound(clone, _TD3_NETS, _TD3_OPTS)
        assert _digest(clone) == _digest(agent)
        before = _digest(agent)
        for b in _batches(2, 3):
            clone.update(b)
        assert _digest(agent) == before
        assert _digest(clone) != before
        # ...and the clone steps exactly as the original would have.
        for b in _batches(2, 3):
            agent.update(b)
        assert _digest(agent) == _digest(clone)

    def test_ddpg_round_trip(self):
        agent = DDPGAgent(3, 2, np.random.default_rng(0),
                          AgentHyperParams(hidden=(8,), batch_size=8))
        for b in _batches(1, 3):
            agent.update(b)
        clone = pickle.loads(pickle.dumps(agent))
        _assert_bound(clone, ("actor", "critic", "actor_target",
                              "critic_target"), ("actor_opt", "critic_opt"))
        for b in _batches(2, 2):
            agent.update(b)
            clone.update(b)
        assert agent.actor.flat.tobytes() == clone.actor.flat.tobytes()
        assert agent.critic_opt._v.tobytes() == clone.critic_opt._v.tobytes()

    def test_pickle_carries_state_only(self):
        agent = _small_td3()
        state_bytes = sum(
            getattr(agent, n).flat.nbytes for n in _TD3_NETS
        ) + sum(
            getattr(agent, o)._m.nbytes * 2 for o in _TD3_OPTS
        )
        # Parameters and moments, plus a small fixed overhead for the
        # object graph and RNG states — no gradients, no workspaces.
        assert len(pickle.dumps(agent)) < state_bytes + 16_000

    def test_loose_parameter_round_trip(self):
        p = Parameter(np.arange(4.0))
        clone = pickle.loads(pickle.dumps(p))
        assert clone.arena is None
        np.testing.assert_array_equal(clone.data, p.data)
        opt = Adam([p])
        clone = copy.deepcopy(opt)
        assert np.shares_memory(clone.params[0].data, clone.arena.flat)
        assert not np.shares_memory(clone.arena.flat, opt.arena.flat)


class TestParentFormatPickle:
    """``td3_parent_format.pkl`` was written by the per-tensor release:
    no ``flat``, list-valued Adam moments with per-shape scratch, and
    every layer workspace.  Its companion JSON holds the state digest at
    save time and after five further updates in that release."""

    def test_loads_and_resumes_identically(self):
        expected = json.loads(
            (GOLDEN / "td3_parent_format.json").read_text()
        )
        agent = pickle.loads((GOLDEN / "td3_parent_format.pkl").read_bytes())
        _assert_bound(agent, _TD3_NETS, ())
        assert _digest(agent) == expected["at_save"]
        for b in _batches(2, 5):
            agent.update(b)
        assert _digest(agent) == expected["after_resume"]
        for name in _TD3_OPTS:
            opt = getattr(agent, name)
            assert opt.arena is getattr(agent, name[:-4]).arena
        act = agent.act(np.array([0.1, 0.5, 0.9]), explore=True)
        assert [float(v) for v in act] == expected["act"]

    def test_new_agent_matches_parent_trajectory(self):
        agent = _small_td3()
        assert _digest(agent) == json.loads(
            (GOLDEN / "td3_parent_format.json").read_text()
        )["at_save"]


def test_optimizer_and_polyak_report_profiler_phases():
    from repro.telemetry.profiling import Profiler, activate, deactivate

    agent = TD3Agent(3, 2, np.random.default_rng(0),
                     AgentHyperParams(hidden=(8,), batch_size=8,
                                      policy_delay=1))
    prof = Profiler()
    activate(prof)
    try:
        agent.update(next(_batches(0, 1)))
    finally:
        deactivate()
    stats = prof.stats()
    assert stats["nn.optim"]["calls"] == 3  # two critics and the actor
    assert stats["nn.polyak"]["calls"] == 3  # three target networks
