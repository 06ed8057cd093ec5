"""Tests for the PER sum-tree, including hypothesis invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.replay.sumtree import SumTree


class TestSumTree:
    def test_total_tracks_updates(self):
        t = SumTree(8)
        t.update(0, 1.0)
        t.update(3, 2.0)
        assert t.total == pytest.approx(3.0)
        t.update(0, 0.5)
        assert t.total == pytest.approx(2.5)

    def test_getitem(self):
        t = SumTree(4)
        t.update(2, 7.0)
        assert t[2] == 7.0
        assert t[0] == 0.0

    def test_find_prefix_boundaries(self):
        t = SumTree(4)
        t.update(0, 1.0)
        t.update(1, 2.0)
        t.update(2, 3.0)
        assert t.find_prefix(0.5) == 0
        assert t.find_prefix(1.5) == 1
        assert t.find_prefix(3.5) == 2
        assert t.find_prefix(6.0) == 2

    def test_find_prefix_skips_zero_leaves(self):
        t = SumTree(8)
        t.update(5, 4.0)
        for v in [0.0, 1.0, 3.9]:
            assert t.find_prefix(v) == 5

    def test_max_min_priority(self):
        t = SumTree(4)
        t.update(0, 1.0)
        t.update(1, 5.0)
        assert t.max_priority() == 5.0
        assert t.min_priority(2) == 1.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            SumTree(0)
        t = SumTree(4)
        with pytest.raises(IndexError):
            t.update(4, 1.0)
        with pytest.raises(ValueError):
            t.update(0, -1.0)
        with pytest.raises(ValueError):
            t.find_prefix(99.0)
        with pytest.raises(IndexError):
            _ = t[9]

    @given(
        st.lists(
            st.tuples(st.integers(0, 31), st.floats(0.0, 100.0)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_total_invariant(self, updates):
        t = SumTree(32)
        leaves = np.zeros(32)
        for idx, prio in updates:
            t.update(idx, prio)
            leaves[idx] = prio
        assert t.total == pytest.approx(leaves.sum(), rel=1e-9, abs=1e-9)

    @given(
        st.lists(st.floats(0.01, 10.0), min_size=2, max_size=16),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_find_prefix_consistent(self, prios, frac):
        t = SumTree(16)
        for i, p in enumerate(prios):
            t.update(i, p)
        value = frac * t.total
        leaf = t.find_prefix(value)
        cumsum = np.cumsum(prios)
        expected = int(np.searchsorted(cumsum, value))
        expected = min(expected, len(prios) - 1)
        assert leaf == expected

    def test_proportional_sampling_statistics(self):
        t = SumTree(4)
        t.update(0, 1.0)
        t.update(1, 3.0)
        rng = np.random.default_rng(0)
        hits = np.zeros(4)
        for _ in range(4000):
            hits[t.find_prefix(rng.uniform(0, t.total))] += 1
        assert hits[1] / hits[0] == pytest.approx(3.0, rel=0.15)


# ------------------------------------------------- batched ≡ scalar


def reference_find_prefix(tree: SumTree, value: float) -> int:
    """The scalar descent the batched one must reproduce exactly."""
    if not 0.0 <= value <= tree.total + 1e-9:
        raise ValueError(f"value {value} outside [0, {tree.total}]")
    nodes = tree._tree
    node = 0
    while node < tree.capacity - 1:
        left = 2 * node + 1
        left_sum = nodes[left]
        right_sum = nodes[2 * node + 2]
        if right_sum <= 0.0 or (left_sum > 0.0 and value <= left_sum):
            node = left
        else:
            value -= left_sum
            node = 2 * node + 2
    return node - (tree.capacity - 1)


def reference_update_batch(tree: SumTree, indices, priorities) -> None:
    for i, p in zip(indices, priorities):
        tree.update(int(i), float(p))


# capacities around powers of two (leaves at one depth) and between
# them (leaves at two depths), plus the replay buffers' 20,000
CAPACITIES = st.sampled_from([1, 2, 3, 5, 7, 8, 9, 16, 17, 31, 33, 100,
                              20_000])
PRIORITY = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1e3, allow_nan=False),
    st.floats(1e-300, 1e-3),
)


@st.composite
def tree_and_batch(draw):
    """A populated tree plus a batch of updates that repeats leaves."""
    cap = draw(CAPACITIES)
    leaf = st.integers(0, cap - 1)
    fill = draw(st.lists(st.tuples(leaf, PRIORITY), max_size=40))
    # draw the batch's leaves from a small pool so repeats are common
    pool = draw(st.lists(leaf, min_size=1, max_size=6))
    batch = draw(st.lists(st.tuples(st.sampled_from(pool), PRIORITY),
                          max_size=80))
    return cap, fill, batch


def _twins(cap, fill):
    a, b = SumTree(cap), SumTree(cap)
    for i, p in fill:
        a.update(i, p)
        b.update(i, p)
    return a, b


class TestBatchedEqualsScalar:
    @given(tree_and_batch())
    @settings(max_examples=200, deadline=None)
    def test_update_batch_bytes(self, case):
        cap, fill, batch = case
        scalar, batched = _twins(cap, fill)
        idx = [i for i, _ in batch]
        prio = [p for _, p in batch]
        reference_update_batch(scalar, idx, prio)
        batched.update_batch(np.array(idx, dtype=np.intp), prio)
        assert batched._tree.tobytes() == scalar._tree.tobytes()

    @given(tree_and_batch(), st.lists(st.floats(0.0, 1.0), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_find_prefix_batch(self, case, fracs):
        cap, fill, _ = case
        tree, _ = _twins(cap, fill)
        total = tree.total
        # float drift can leave an emptied tree's total a hair below 0,
        # where only the lower targets stay in range
        targets = [v for v in [0.0, total, total + 1e-9]
                   + [f * total for f in fracs]
                   if 0.0 <= v <= total + 1e-9]
        expected = [reference_find_prefix(tree, v) for v in targets]
        got = tree.find_prefix_batch(np.array(targets))
        assert got.dtype == np.intp
        assert got.tolist() == expected
        assert [tree.find_prefix(v) for v in targets] == expected

    def test_large_batch_on_full_buffer_tree(self):
        rng = np.random.default_rng(0)
        scalar, batched = SumTree(20_000), SumTree(20_000)
        prios = rng.uniform(0.0, 2.0, 20_000)
        batched.update_batch(np.arange(20_000), prios)
        reference_update_batch(scalar, range(20_000), prios)
        for _ in range(20):
            idx = rng.integers(0, 20_000, 128)
            prio = rng.uniform(0.0, 2.0, 128)
            reference_update_batch(scalar, idx, prio)
            batched.update_batch(idx, prio)
            assert batched._tree.tobytes() == scalar._tree.tobytes()
            targets = rng.uniform(0.0, batched.total, 128)
            assert batched.find_prefix_batch(targets).tolist() == [
                reference_find_prefix(scalar, v) for v in targets
            ]

    def test_last_write_wins_on_repeats(self):
        t = SumTree(5)
        t.update_batch([3] * 20 + [1], [float(k) for k in range(20)] + [2.0])
        assert t[3] == 19.0 and t[1] == 2.0
        assert t.total == 21.0


class TestBatchErrors:
    @pytest.mark.parametrize("n", [1, 19])
    def test_bad_leaf_raises_and_writes_nothing(self, n):
        t = SumTree(7)
        t.update(2, 1.5)
        before = t._tree.tobytes()
        for bad in (-1, 7):
            idx = [0] * (n - 1) + [bad]
            with pytest.raises(IndexError):
                t.update_batch(idx, [1.0] * n)
        assert t._tree.tobytes() == before

    @pytest.mark.parametrize("n", [1, 19])
    def test_negative_priority_raises_and_writes_nothing(self, n):
        t = SumTree(7)
        before = t._tree.tobytes()
        with pytest.raises(ValueError):
            t.update_batch([1] * n, [1.0] * (n - 1) + [-0.5])
        assert t._tree.tobytes() == before

    def test_first_bad_pair_decides_the_error(self):
        t = SumTree(4)
        with pytest.raises(ValueError):
            t.update_batch([0, 9], [-1.0, 1.0])
        with pytest.raises(IndexError):
            t.update_batch([9, 0], [1.0, -1.0])

    def test_misaligned_batch(self):
        with pytest.raises(ValueError, match="align"):
            SumTree(4).update_batch([0, 1], [1.0])

    def test_find_prefix_batch_rejects_out_of_range(self):
        t = SumTree(6)
        t.update_batch(range(6), [1.0] * 6)
        t.find_prefix_batch([0.0, t.total + 1e-9])
        for bad in (-1e-12, t.total + 2e-9, float("nan")):
            with pytest.raises(ValueError, match="outside"):
                t.find_prefix_batch([1.0, bad])

    def test_find_prefix_on_empty_tree(self):
        t = SumTree(5)
        assert t.find_prefix_batch([0.0, 1e-9]).tolist() == [
            reference_find_prefix(t, 0.0), reference_find_prefix(t, 1e-9)
        ]
