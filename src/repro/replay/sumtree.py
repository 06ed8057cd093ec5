"""A sum-tree for O(log n) proportional sampling (PER's data structure)."""

from __future__ import annotations

import numpy as np

__all__ = ["SumTree"]


class SumTree:
    """Complete binary tree whose leaves hold priorities.

    Internal nodes store the sum of their children, so prefix-sum lookup
    (sampling proportional to priority) and point updates are O(log n).
    Implemented over a flat numpy array (standard heap indexing).
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._tree = np.zeros(2 * capacity - 1)

    @property
    def total(self) -> float:
        """Sum of all priorities."""
        return float(self._tree[0])

    def __getitem__(self, index: int) -> float:
        if not 0 <= index < self.capacity:
            raise IndexError("leaf index out of range")
        return float(self._tree[index + self.capacity - 1])

    def update(self, index: int, priority: float) -> None:
        """Set leaf ``index`` to ``priority`` and repair ancestors."""
        if not 0 <= index < self.capacity:
            raise IndexError("leaf index out of range")
        if priority < 0:
            raise ValueError(f"priority cannot be negative, got {priority}")
        node = index + self.capacity - 1
        delta = priority - self._tree[node]
        self._tree[node] = priority
        while node > 0:
            node = (node - 1) // 2
            self._tree[node] += delta

    def update_batch(self, indices, priorities) -> None:
        """Apply ``update(i, p)`` for each pair, in order, in one pass.

        Bit-identical to the sequential loop, repeated leaves included:
        each delta is taken against the previous write to its leaf and
        the last write wins.  Every ancestor receives its deltas in
        batch order through one ordered ``np.add.at`` per tree depth
        (leaves of a capacity that is not a power of two sit at two
        depths, so climbing every leaf the same number of steps would
        mix depths in one call and reorder the float additions).  All
        pairs are validated before anything is written.  Single-leaf
        writes (``push``) should call :meth:`update`, which is cheaper.
        """
        idx = np.asarray(indices, dtype=np.intp).ravel()
        prio = np.asarray(priorities, dtype=np.float64).ravel()
        if idx.shape != prio.shape:
            raise ValueError("indices and priorities must align")
        bad = np.flatnonzero((idx < 0) | (idx >= self.capacity) | (prio < 0))
        if bad.size:
            self.update(int(idx[bad[0]]), float(prio[bad[0]]))  # raises
        if idx.size == 0:
            return
        tree = self._tree
        node = idx + (self.capacity - 1)
        order = np.argsort(node, kind="stable")
        by_leaf = node[order]
        repeat = by_leaf[1:] == by_leaf[:-1]
        before = tree[by_leaf]
        ordered = prio[order]
        before[1:][repeat] = ordered[:-1][repeat]
        delta = np.empty_like(prio)
        delta[order] = ordered - before
        last = np.append(~repeat, True)
        tree[by_leaf[last]] = ordered[last]
        if self.capacity == 1:
            return
        # Leaves sit at depth D (from ``first_deep`` on) and, unless the
        # capacity is a power of two, at D-1.  Lift the deep ones one
        # level so every node is at D-1, then climb together.
        first_deep = (1 << ((2 * self.capacity - 1).bit_length() - 1)) - 1
        deep = node >= first_deep
        if deep.any():
            parents = (node[deep] - 1) >> 1
            np.add.at(tree, parents, delta[deep])
            node[deep] = parents
        while node[0] > 0:
            node -= 1
            node >>= 1
            np.add.at(tree, node, delta)

    def find_prefix(self, value: float) -> int:
        """Return the leaf where the running prefix-sum reaches ``value``.

        ``value`` must lie in [0, total]; used for proportional sampling.
        """
        return int(self.find_prefix_batch(np.array([value]))[0])

    def find_prefix_batch(self, values) -> np.ndarray:
        """:meth:`find_prefix` for every target, descending all together.

        One tree level per iteration; the per-target arithmetic is the
        scalar descent's, so each result equals :meth:`find_prefix` of
        that value.  Leaves sit at depths D-1 and D, so only the last
        level has targets that already reached a leaf and must stop.
        """
        values = np.array(values, dtype=np.float64).ravel()
        bound = self.total + 1e-9
        bad = np.flatnonzero(~((values >= 0.0) & (values <= bound)))
        if bad.size:
            raise ValueError(
                f"value {values[bad[0]]} outside [0, {self.total}]"
            )
        tree = self._tree
        first_leaf = self.capacity - 1
        nodes = np.zeros(values.size, dtype=np.intp)
        depth = (2 * self.capacity - 1).bit_length() - 1
        live = slice(None)
        for level in range(depth):
            if level == depth - 1:
                live = np.flatnonzero(nodes < first_leaf)
            left = 2 * nodes[live] + 1
            left_sum = tree[left]
            value = values[live]
            # Descend right when the left subtree has no mass (so zero-
            # priority leaves are never returned) or the prefix target
            # lies beyond it.
            go_left = (tree[left + 1] <= 0.0) | (
                (left_sum > 0.0) & (value <= left_sum)
            )
            values[live] = np.where(go_left, value, value - left_sum)
            nodes[live] = left + ~go_left
        return nodes - first_leaf

    @property
    def leaves(self) -> np.ndarray:
        """Read-only view of the leaf priorities, indexable by leaf."""
        view = self._tree[self.capacity - 1 :]
        view.flags.writeable = False
        return view

    def max_priority(self) -> float:
        """Largest leaf priority (0 for an empty tree)."""
        return float(self.leaves.max())

    def min_priority(self, size: int) -> float:
        """Smallest priority among the first ``size`` occupied leaves."""
        if size <= 0:
            raise ValueError("size must be positive")
        return float(self.leaves[:size].min())
