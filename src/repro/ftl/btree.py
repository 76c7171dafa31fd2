"""B+tree forward map: logical block address -> physical page number.

The Fusion-io VSL keeps its forward map in "a variant of a B+tree,
running in host memory" (paper §5.2.2).  This module implements that
map with the two properties the paper's Table 3 measures:

- :meth:`BPlusTree.node_count` / :meth:`BPlusTree.memory_bytes` expose
  the in-memory footprint of a tree;
- :meth:`BPlusTree.bulk_load` builds a densely packed tree from sorted
  items — this is why a freshly *activated* snapshot's tree is more
  compact than the fragmented active tree with identical contents.

Keys and values are non-negative integers.  Deletion removes the key
from its leaf without rebalancing (an FTL map only deletes on trim, so
sustained delete-heavy rebalancing is not this structure's workload).
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, List, Optional, Tuple

_DEFAULT_ORDER = 64

# Rough per-node host-memory cost used for Table 3 style reporting:
# object header + keys/children arrays at 8 bytes per slot.
_NODE_FIXED_BYTES = 96
_BYTES_PER_SLOT = 16


class _Node:
    __slots__ = ("keys", "children", "values", "next_leaf", "is_leaf")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.keys: List[int] = []
        self.children: List["_Node"] = []   # internal nodes only
        self.values: List[int] = []         # leaves only
        self.next_leaf: Optional["_Node"] = None


# The C implementations from the bisect module; keeping the old names
# so the callers below read the same.
_bisect_right = bisect.bisect_right
_bisect_left = bisect.bisect_left


class BPlusTree:
    """An order-``order`` B+tree with linked leaves."""

    def __init__(self, order: int = _DEFAULT_ORDER) -> None:
        if order < 4:
            raise ValueError(f"order must be >= 4, got {order}")
        self.order = order
        self._root: _Node = _Node(is_leaf=True)
        self._size = 0
        self._node_count = 1

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def get(self, key: int) -> Optional[int]:
        """Value for ``key``, or None."""
        node = self._descend(key)
        idx = _bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            return node.values[idx]
        return None

    def items(self) -> Iterator[Tuple[int, int]]:
        """All (key, value) pairs in ascending key order."""
        node: Optional[_Node] = self._leftmost_leaf()
        while node is not None:
            yield from zip(node.keys, node.values)
            node = node.next_leaf

    def range_items(self, start: int, end: int) -> Iterator[Tuple[int, int]]:
        """(key, value) pairs with start <= key < end, ascending."""
        node = self._descend(start)
        idx = _bisect_left(node.keys, start)
        while node is not None:
            while idx < len(node.keys):
                key = node.keys[idx]
                if key >= end:
                    return
                yield key, node.values[idx]
                idx += 1
            node = node.next_leaf
            idx = 0

    def depth(self) -> int:
        depth = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
            depth += 1
        return depth

    def node_count(self) -> int:
        return self._node_count

    def memory_bytes(self) -> int:
        """Estimated host-memory footprint of the tree structure.

        Nodes are charged at full capacity (kernel implementations
        allocate fixed-size node arrays), so a sparsely-filled tree —
        e.g. the active tree after random inserts — costs measurably
        more than a bulk-loaded tree with identical contents.
        """
        per_node = _NODE_FIXED_BYTES + 2 * self.order * _BYTES_PER_SLOT
        return self._node_count * per_node

    def fill_factor(self) -> float:
        """Mean leaf occupancy relative to capacity (order - 1 keys)."""
        leaves = 0
        used = 0
        node: Optional[_Node] = self._leftmost_leaf()
        while node is not None:
            leaves += 1
            used += len(node.keys)
            node = node.next_leaf
        if leaves == 0:
            return 0.0
        return used / (leaves * (self.order - 1))

    # -- mutation ------------------------------------------------------------
    def insert(self, key: int, value: int) -> Optional[int]:
        """Insert or overwrite; returns the previous value, or None."""
        if key < 0:
            raise ValueError(f"keys must be non-negative, got {key}")
        split = self._insert(self._root, key, value)
        if isinstance(split, tuple):
            sep, right = split
            new_root = _Node(is_leaf=False)
            new_root.keys = [sep]
            new_root.children = [self._root, right]
            self._root = new_root
            self._node_count += 1
            return None
        return split

    def delete(self, key: int) -> Optional[int]:
        """Remove ``key``; returns its value, or None if absent.

        Leaves that become empty stay linked in place (lookups and
        iteration remain correct; a later insert refills them).  An FTL
        map deletes only on trim, so we trade rebalancing complexity
        for a small, bounded memory overhead.
        """
        node = self._descend(key)
        idx = _bisect_left(node.keys, key)
        if idx >= len(node.keys) or node.keys[idx] != key:
            return None
        value = node.values.pop(idx)
        node.keys.pop(idx)
        self._size -= 1
        return value

    @classmethod
    def bulk_load(cls, items: Iterable[Tuple[int, int]],
                  order: int = _DEFAULT_ORDER,
                  fill_factor: float = 1.0) -> "BPlusTree":
        """Build a packed tree from (key, value) pairs sorted by key.

        ``fill_factor`` sets leaf/internal occupancy (1.0 = fully
        packed), mirroring how snapshot activation rebuilds a forward
        map "as compact as the tree can be" (paper §6.2.2).
        """
        if not 0.1 <= fill_factor <= 1.0:
            raise ValueError(f"fill_factor out of range: {fill_factor}")
        tree = cls(order=order)
        per_leaf = max(1, int((order - 1) * fill_factor))
        leaves: List[_Node] = []
        current = _Node(is_leaf=True)
        last_key: Optional[int] = None
        size = 0
        for key, value in items:
            if last_key is not None and key <= last_key:
                raise ValueError("bulk_load requires strictly ascending keys")
            last_key = key
            if len(current.keys) >= per_leaf:
                leaves.append(current)
                nxt = _Node(is_leaf=True)
                current.next_leaf = nxt
                current = nxt
            current.keys.append(key)
            current.values.append(value)
            size += 1
        leaves.append(current)

        level: List[_Node] = leaves
        per_internal = max(2, int(order * fill_factor))
        while len(level) > 1:
            parents: List[_Node] = []
            i = 0
            while i < len(level):
                group = level[i:i + per_internal]
                if len(group) == 1 and parents:
                    # Avoid a 1-child parent: fold into previous group.
                    parents[-1].children.append(group[0])
                    parents[-1].keys.append(_subtree_min_key(group[0]))
                    break
                parent = _Node(is_leaf=False)
                parent.children = group
                parent.keys = [_subtree_min_key(child) for child in group[1:]]
                parents.append(parent)
                i += per_internal
            level = parents
        tree._root = level[0]
        tree._size = size
        tree._node_count = sum(1 for _ in tree._walk_nodes())
        return tree

    # -- internals -------------------------------------------------------
    def _descend(self, key: int) -> _Node:
        node = self._root
        while not node.is_leaf:
            node = node.children[_bisect_right(node.keys, key)]
        return node

    def _leftmost_leaf(self) -> _Node:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        return node

    def _walk_nodes(self) -> Iterator[_Node]:
        stack = [self._root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(node.children)

    def _insert(self, node: _Node, key: int, value: int):
        """Recursive insert; returns old value, None, or a (sep, node) split."""
        if node.is_leaf:
            idx = _bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                old = node.values[idx]
                node.values[idx] = value
                return old
            node.keys.insert(idx, key)
            node.values.insert(idx, value)
            self._size += 1
            if len(node.keys) >= self.order:
                return self._split_leaf(node)
            return None

        idx = _bisect_right(node.keys, key)
        result = self._insert(node.children[idx], key, value)
        if isinstance(result, tuple):
            sep, right = result
            node.keys.insert(idx, sep)
            node.children.insert(idx + 1, right)
            if len(node.children) > self.order:
                return self._split_internal(node)
            return None
        return result

    def _split_leaf(self, node: _Node) -> Tuple[int, _Node]:
        mid = len(node.keys) // 2
        right = _Node(is_leaf=True)
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        del node.keys[mid:]
        del node.values[mid:]
        right.next_leaf = node.next_leaf
        node.next_leaf = right
        self._node_count += 1
        return right.keys[0], right

    def _split_internal(self, node: _Node) -> Tuple[int, _Node]:
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Node(is_leaf=False)
        right.keys = node.keys[mid + 1:]
        right.children = node.children[mid + 1:]
        del node.keys[mid:]
        del node.children[mid + 1:]
        self._node_count += 1
        return sep, right

def _subtree_min_key(node: _Node) -> int:
    while not node.is_leaf:
        node = node.children[0]
    return node.keys[0]
