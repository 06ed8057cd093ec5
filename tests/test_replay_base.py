"""Tests for transition storage and the uniform replay buffer."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.replay.base import ReplayBatch, RingStorage, Transition
from repro.replay.uniform import UniformReplayBuffer


def make_transition(i, state_dim=3, action_dim=2):
    return Transition(
        state=np.full(state_dim, float(i)),
        action=np.full(action_dim, float(i)),
        reward=float(i),
        next_state=np.full(state_dim, float(i + 1)),
    )


class TestRingStorage:
    def test_push_and_gather(self):
        s = RingStorage(10, 3, 2)
        for i in range(4):
            s.push(make_transition(i))
        assert len(s) == 4
        batch = s.gather(np.array([0, 3]))
        np.testing.assert_array_equal(batch.rewards.ravel(), [0.0, 3.0])
        np.testing.assert_array_equal(batch.states[1], [3.0, 3.0, 3.0])

    def test_wraparound_overwrites_oldest(self):
        s = RingStorage(3, 3, 2)
        for i in range(5):
            s.push(make_transition(i))
        assert len(s) == 3
        rewards = sorted(s.reward_at(i) for i in range(3))
        assert rewards == [2.0, 3.0, 4.0]

    def test_push_returns_slot(self):
        s = RingStorage(2, 3, 2)
        assert s.push(make_transition(0)) == 0
        assert s.push(make_transition(1)) == 1
        assert s.push(make_transition(2)) == 0  # wrapped

    def test_shape_validation(self):
        s = RingStorage(4, 3, 2)
        with pytest.raises(ValueError):
            s.push(make_transition(0, state_dim=5))
        with pytest.raises(ValueError):
            s.push(make_transition(0, action_dim=9))

    def test_gather_out_of_range(self):
        s = RingStorage(4, 3, 2)
        s.push(make_transition(0))
        with pytest.raises(IndexError):
            s.gather(np.array([3]))

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RingStorage(0, 3, 2)


def _preallocated(capacity, state_dim, action_dim):
    """The reference ring: every array allocated whole up front, so it
    never grows."""
    ring = RingStorage(capacity, state_dim, action_dim)
    for name, cols in zip(RingStorage.ARRAYS,
                          (state_dim, action_dim, 1, state_dim)):
        setattr(ring, name, np.zeros((capacity, cols)))
    return ring


def _assert_same_ring(grown, ref):
    assert (grown._next, grown._size) == (ref._next, ref._size)
    n = len(ref)
    for name in RingStorage.ARRAYS:
        assert getattr(grown, name)[:n].tobytes() == \
            getattr(ref, name)[:n].tobytes()


def _random_transition(rng, state_dim, action_dim):
    return Transition(
        state=rng.standard_normal(state_dim),
        action=rng.random(action_dim),
        reward=float(rng.standard_normal()),
        next_state=rng.standard_normal(state_dim),
    )


class TestGrowingRing:
    """A ring that allocates as it fills behaves exactly like one
    allocated at full capacity, and copies only what it holds."""

    @settings(max_examples=40, deadline=None)
    @given(
        capacity=st.sampled_from([1, 2, 255, 256, 257, 1000]),
        state_dim=st.integers(1, 3),
        action_dim=st.integers(1, 3),
        ops=st.lists(
            st.tuples(st.integers(0, 700), st.integers(1, 64)),
            min_size=1, max_size=6,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_matches_preallocated_reference(
        self, capacity, state_dim, action_dim, ops, seed
    ):
        rng = np.random.default_rng(seed)
        grown = RingStorage(capacity, state_dim, action_dim)
        ref = _preallocated(capacity, state_dim, action_dim)
        for pushes, draws in ops:
            for _ in range(pushes):
                t = _random_transition(rng, state_dim, action_dim)
                assert grown.push(t) == ref.push(t)
            _assert_same_ring(grown, ref)
            if not len(ref):
                continue
            idx = rng.integers(0, len(ref), size=draws)
            a, b = grown.gather(idx), ref.gather(idx)
            for field in ("states", "actions", "rewards", "next_states"):
                assert getattr(a, field).tobytes() == \
                    getattr(b, field).tobytes()
            i = int(idx[0])
            assert grown.reward_at(i) == ref.reward_at(i)

        row_bytes = 8 * (2 * state_dim + action_dim + 1)
        blob = pickle.dumps(grown)
        assert len(blob) <= 1024 + len(grown) * row_bytes
        for clone in (copy.deepcopy(grown), pickle.loads(blob)):
            _assert_same_ring(clone, ref)
            assert all(len(getattr(clone, name)) == len(clone)
                       for name in RingStorage.ARRAYS)
            # the copy keeps growing and wrapping in step with the reference
            ref_copy = copy.deepcopy(ref)
            for _ in range(capacity + 3):
                t = _random_transition(rng, state_dim, action_dim)
                assert clone.push(t) == ref_copy.push(t)
            _assert_same_ring(clone, ref_copy)

    def test_arrays_grow_with_occupancy(self):
        ring = RingStorage(20_000, 3, 2)
        assert ring._states.shape == (0, 3)
        for i in range(100):
            ring.push(make_transition(i))
        assert 100 <= len(ring._states) <= 200
        small = len(pickle.dumps(ring))
        for i in range(100, 1000):
            ring.push(make_transition(i))
        assert len(pickle.dumps(ring)) > 5 * small
        assert len(pickle.dumps(ring)) < 1000 * 8 * 9 + 1024

    def test_full_capacity_pickle_loads(self):
        ref = _preallocated(8, 3, 2)
        for i in range(5):
            ref.push(make_transition(i))
        # what unpickling a ring from before rings grew does
        ring = RingStorage.__new__(RingStorage)
        ring.__dict__.update(ref.__dict__)
        for i in range(5, 12):
            assert ring.push(make_transition(i)) == i % 8
        assert sorted(ring.reward_at(i) for i in range(8)) == \
            [float(i) for i in range(4, 12)]


class TestUniformReplayBuffer:
    def make(self, capacity=50, rng_seed=0):
        return UniformReplayBuffer(
            capacity, 3, 2, np.random.default_rng(rng_seed)
        )

    def test_sample_shapes(self):
        buf = self.make()
        for i in range(10):
            buf.push(make_transition(i))
        batch = buf.sample(6)
        assert isinstance(batch, ReplayBatch)
        assert batch.states.shape == (6, 3)
        assert batch.actions.shape == (6, 2)
        assert batch.rewards.shape == (6, 1)
        assert batch.next_states.shape == (6, 3)
        assert len(batch) == 6

    def test_sample_empty_raises(self):
        with pytest.raises(ValueError):
            self.make().sample(1)

    def test_sample_nonpositive_raises(self):
        buf = self.make()
        buf.push(make_transition(0))
        with pytest.raises(ValueError):
            buf.sample(0)

    def test_can_sample(self):
        buf = self.make()
        assert not buf.can_sample(1)
        buf.push(make_transition(0))
        assert buf.can_sample(1)
        assert not buf.can_sample(2)

    def test_samples_cover_buffer(self):
        buf = self.make()
        for i in range(20):
            buf.push(make_transition(i))
        seen = set()
        for _ in range(50):
            seen.update(buf.sample(8).rewards.ravel().tolist())
        assert len(seen) >= 15  # uniform sampling touches most entries

    def test_capacity_property(self):
        assert self.make(capacity=7).capacity == 7
