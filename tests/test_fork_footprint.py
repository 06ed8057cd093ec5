"""A fork's memory and copy cost follow the state it holds.

* Replay rings allocate as they fill, and deep copies and pickles carry
  only the occupied rows, so forking a trained model copies its ~700
  transitions, not its 20,000-slot capacity.
* Population members run on one set of layer and optimizer workspaces,
  so a population's workspace memory is one member's, not N members'.

Footprints are measured as ``tracemalloc`` allocation counts, not
timings, so the bounds hold on any host.

``tests/golden/deepcat_parent_format.pkl`` is a small DeepCAT (hidden
``(16, 16)``, batch 16, ``buffer_capacity=96``, trained 60 iterations
on TS-D1 with seed 3) pickled by the release whose rings were allocated
at full capacity.  Its ``.json`` companion holds the 5-step online
session that release ran from that state on TS-D1 with environment
seed 10003.
"""

from __future__ import annotations

import copy
import json
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core.deepcat import DeepCAT
from repro.core.population import PopulationTuner, population_seed_plan
from repro.experiments.common import get_scale, online_env
from repro.factory import make_env

GOLDEN = Path(__file__).parent / "golden"
MiB = 2**20


@pytest.fixture(scope="module")
def quick_model():
    """A DeepCAT trained at the quick offline budget (700 transitions
    in 20,000 slots of replay)."""
    env = make_env("TS", "D1", seed=0)
    model = DeepCAT.from_env(env, seed=0)
    model.train_offline(env, get_scale("quick").offline_iterations)
    return model


def _traced(fn):
    """``(result, bytes still allocated by fn)``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestFork:
    def test_fork_allocates_what_it_holds(self, quick_model):
        assert len(quick_model.buffer) < quick_model.buffer.capacity // 20
        fork, allocated = _traced(lambda: copy.deepcopy(quick_model))
        assert len(fork.buffer) == len(quick_model.buffer)
        assert allocated < 2 * MiB

    def test_pickled_model_is_small(self, quick_model):
        assert len(pickle.dumps(quick_model)) <= 1.5e6


def _workspace_bytes(n_members: int, model) -> int:
    """Bytes held by layer and optimizer workspaces after one lockstep
    round of an ``n_members`` population forked from ``model``."""
    seeds = population_seed_plan(5, n_members)
    pop = PopulationTuner.from_deepcat(
        [copy.deepcopy(model) for _ in seeds],
        [online_env("TS", "D1", s) for s in seeds],
    )
    pop.begin(1)
    tracemalloc.start()
    try:
        assert pop.run_round(0) == "stepped"
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    snapshot = snapshot.filter_traces([
        tracemalloc.Filter(True, "*/repro/nn/layers.py"),
        tracemalloc.Filter(True, "*/repro/nn/optim.py"),
    ])
    return sum(stat.size for stat in snapshot.statistics("filename"))


def test_population_shares_one_members_workspaces(quick_model):
    one = _workspace_bytes(1, quick_model)
    many = _workspace_bytes(16, quick_model)
    assert one > MiB  # batch-128 activations, gradients, Adam scratch
    assert many < 1.25 * one


def test_members_share_lead_workspaces(quick_model):
    seeds = population_seed_plan(1, 3)
    pop = PopulationTuner.from_deepcat(
        [copy.deepcopy(quick_model) for _ in seeds],
        [online_env("TS", "D1", s) for s in seeds],
    )
    lead, *rest = [m.tuner.agent for m in pop.members]
    for agent in rest:
        for a, b in zip(agent.critic1.layers, lead.critic1.layers):
            assert a._fwd is b._fwd and a._bwd is b._bwd
        assert agent.actor_opt._scratch is lead.actor_opt._scratch
    # a fork of a member starts on workspaces of its own
    clone = copy.deepcopy(rest[0])
    assert clone.critic1.layers[0]._fwd is not lead.critic1.layers[0]._fwd
    assert clone.actor_opt._scratch is None


class TestParentFormatDeepCAT:
    def test_loads_and_resumes_identically(self):
        expected = json.loads(
            (GOLDEN / "deepcat_parent_format.json").read_text()
        )
        model = pickle.loads(
            (GOLDEN / "deepcat_parent_format.pkl").read_bytes()
        )
        pools = {"high": model.buffer._high, "low": model.buffer._low}

        def shapes():
            return {k: [len(r), r.capacity, len(r._states)]
                    for k, r in pools.items()}

        assert shapes() == expected["pools_at_save"]
        for size, capacity, rows in expected["pools_at_save"].values():
            assert rows == capacity > size  # preallocated, partly filled
        session = model.tune_online(
            make_env("TS", "D1", seed=10_003), steps=5
        )
        assert len(session.steps) == len(expected["steps"])
        for rec, want in zip(session.steps, expected["steps"]):
            assert float(rec.duration_s) == want["duration_s"]
            assert float(rec.reward) == want["reward"]
            assert [float(v) for v in rec.action] == want["action"]
            assert bool(rec.success) == want["success"]
            assert rec.twinq_iterations == want["twinq_iterations"]
        assert float(session.evaluation_seconds) == \
            expected["evaluation_seconds"]
        assert shapes() == expected["pools_after_session"]
        # re-pickling trims the rings to what they hold
        clone = pickle.loads(pickle.dumps(model))
        assert len(clone.buffer._low._states) == len(model.buffer._low)
        np.testing.assert_array_equal(
            clone.buffer._low._states,
            model.buffer._low._states[: len(model.buffer._low)],
        )
