"""Tests for the TD-error prioritized replay buffer."""

import numpy as np
import pytest

from repro.replay.base import Transition
from repro.replay.per import PrioritizedReplayBuffer


def make_transition(i):
    return Transition(
        state=np.full(3, float(i)),
        action=np.full(2, float(i)),
        reward=float(i),
        next_state=np.full(3, float(i + 1)),
    )


def make_buffer(**kw):
    return PrioritizedReplayBuffer(64, 3, 2, np.random.default_rng(0), **kw)


class TestPrioritizedReplayBuffer:
    def test_new_transitions_get_max_priority(self):
        buf = make_buffer()
        buf.push(make_transition(0))
        buf.update_priorities(np.array([0]), np.array([9.0]))
        buf.push(make_transition(1))
        # the second push must inherit the current max so it gets sampled
        assert buf._tree[1] == buf._tree.max_priority()

    def test_sample_shapes_and_weights(self):
        buf = make_buffer()
        for i in range(20):
            buf.push(make_transition(i))
        batch = buf.sample(8)
        assert batch.states.shape == (8, 3)
        assert batch.weights.shape == (8, 1)
        assert batch.indices.shape == (8,)
        assert np.all(batch.weights > 0) and np.all(batch.weights <= 1.0)

    def test_high_priority_sampled_more(self):
        buf = make_buffer(alpha=1.0)
        for i in range(10):
            buf.push(make_transition(i))
        # give transition 3 overwhelming priority
        prios = np.full(10, 0.01)
        prios[3] = 100.0
        buf.update_priorities(np.arange(10), prios)
        counts = np.zeros(10)
        for _ in range(300):
            for idx in buf.sample(4).indices:
                counts[idx] += 1
        assert counts[3] > counts.sum() * 0.5

    def test_beta_anneals(self):
        buf = make_buffer(beta_is=0.4, beta_is_increment=0.1)
        for i in range(5):
            buf.push(make_transition(i))
        for _ in range(10):
            buf.sample(2)
        assert buf.beta_is == 1.0

    def test_update_priorities_validates(self):
        buf = make_buffer()
        buf.push(make_transition(0))
        with pytest.raises(ValueError):
            buf.update_priorities(np.array([0, 1]), np.array([1.0]))

    def test_sample_empty_raises(self):
        with pytest.raises(ValueError):
            make_buffer().sample(1)

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            make_buffer(alpha=1.5)
        with pytest.raises(ValueError):
            make_buffer(beta_is=-0.1)
        with pytest.raises(ValueError):
            make_buffer(epsilon=0.0)

    def test_epsilon_keeps_zero_error_sampleable(self):
        buf = make_buffer()
        for i in range(4):
            buf.push(make_transition(i))
        buf.update_priorities(np.arange(4), np.zeros(4))
        assert buf._tree.total > 0.0
        batch = buf.sample(2)
        assert len(batch) == 2


def _pow_disagreements(alpha, eps, n=4000):
    """TD errors where numpy's vectorized ``**`` and scalar pow differ."""
    td = np.random.default_rng(7).uniform(0.0, 5.0, n)
    base = td + eps
    vector = base ** alpha
    scalar = np.array([x ** alpha for x in base.tolist()])
    return td[vector != scalar]


class TestUpdatePrioritiesExactness:
    def test_matches_scalar_pow_loop_bytes(self):
        eps, alpha = 1e-3, 0.6
        rng = np.random.default_rng(3)
        hard = _pow_disagreements(alpha, eps)[:40]
        td = np.concatenate([hard, rng.normal(0.0, 2.0, 88 - hard.size),
                             [0.0, -0.0, 1e-12]])
        idx = rng.integers(0, 50, td.size)
        batched = PrioritizedReplayBuffer(
            50, 3, 2, np.random.default_rng(0), alpha=alpha, epsilon=eps)
        scalar = PrioritizedReplayBuffer(
            50, 3, 2, np.random.default_rng(0), alpha=alpha, epsilon=eps)
        for i in range(50):
            batched.push(make_transition(i))
            scalar.push(make_transition(i))
        batched.update_priorities(idx, td)
        for i, e in zip(idx.tolist(), np.abs(td).tolist()):
            scalar._tree.update(i, (e + eps) ** alpha)
        assert batched._tree._tree.tobytes() == scalar._tree._tree.tobytes()
        # and the two buffers go on sampling the same batches
        a, b = batched.sample(16), scalar.sample(16)
        assert a.indices.tolist() == b.indices.tolist()
        assert a.weights.tobytes() == b.weights.tobytes()
