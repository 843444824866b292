"""A page-based B+-tree over integer keys.

The one-dimensional access method that key-range locking was designed
for.  Uses the same page manager / I/O accounting as the R-tree so the
§2 comparison counts page accesses on equal terms.  Duplicate keys are
allowed (two objects can share a Z-value); entries are ``(key, oid,
payload)`` with ``(key, oid)`` unique.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Hashable, Iterator, List, Optional, Tuple

from repro.storage.page import INVALID_PAGE, PageId
from repro.storage.pager import PageManager


class BTreeError(Exception):
    """Malformed B+-tree operation."""


@dataclass(frozen=True)
class BTreeConfig:
    """Structural parameters: ``max_keys`` per node (fanout)."""

    max_keys: int = 32

    def __post_init__(self) -> None:
        if self.max_keys < 4:
            raise ValueError("max_keys must be at least 4")


class _Node:
    __slots__ = ("page_id", "is_leaf", "keys", "children", "entries", "next_leaf")

    def __init__(self, page_id: PageId, is_leaf: bool) -> None:
        self.page_id = page_id
        self.is_leaf = is_leaf
        #: leaf: sorted (key, oid) pairs; internal: separator keys
        self.keys: List = []
        #: internal only: child page ids (len == len(keys) + 1)
        self.children: List[PageId] = []
        #: leaf only: payloads aligned with keys
        self.entries: List[Any] = []
        #: leaf only: right-sibling page id
        self.next_leaf: PageId = INVALID_PAGE


class BPlusTree:
    """See module docstring."""

    def __init__(self, config: Optional[BTreeConfig] = None, pager: Optional[PageManager] = None) -> None:
        self.config = config if config is not None else BTreeConfig()
        self.pager = pager if pager is not None else PageManager()
        root_page = self.pager.allocate()
        root_page.payload = _Node(root_page.page_id, is_leaf=True)
        self.root_id: PageId = root_page.page_id
        self._size = 0

    # -- node access -------------------------------------------------------

    def _node(self, page_id: PageId, count_io: bool = True) -> _Node:
        if count_io:
            return self.pager.read(page_id).payload
        return self.pager.peek(page_id).payload

    @property
    def size(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        height = 1
        node = self._node(self.root_id, count_io=False)
        while not node.is_leaf:
            node = self._node(node.children[0], count_io=False)
            height += 1
        return height

    # -- search ------------------------------------------------------------

    def _descend_to_leaf(self, key: Tuple) -> List[_Node]:
        node = self._node(self.root_id)
        path = [node]
        while not node.is_leaf:
            idx = bisect.bisect_right(node.keys, key)
            node = self._node(node.children[idx])
            path.append(node)
        return path

    def get(self, key: int, oid: Hashable) -> Optional[Any]:
        leaf = self._descend_to_leaf((key, oid))[-1]
        idx = bisect.bisect_left(leaf.keys, (key, oid))
        if idx < len(leaf.keys) and leaf.keys[idx] == (key, oid):
            return leaf.entries[idx]
        return None

    def range_scan(self, lo: int, hi: int) -> List[Tuple[int, Hashable, Any]]:
        """All entries with ``lo <= key <= hi``, in key order."""
        out: List[Tuple[int, Hashable, Any]] = []
        for key, oid, payload in self.iter_from(lo):
            if key > hi:
                break
            out.append((key, oid, payload))
        return out

    def iter_from(self, lo: int) -> Iterator[Tuple[int, Hashable, Any]]:
        """Iterate entries with key >= lo, following leaf links."""
        leaf = self._descend_to_leaf((lo, _MINUS_INF))[-1]
        idx = bisect.bisect_left(leaf.keys, (lo, _MINUS_INF))
        while True:
            while idx < len(leaf.keys):
                key, oid = leaf.keys[idx]
                yield key, oid, leaf.entries[idx]
                idx += 1
            if leaf.next_leaf == INVALID_PAGE:
                return
            leaf = self._node(leaf.next_leaf)
            idx = 0

    def next_key_after(self, key: int) -> Optional[Tuple[int, Hashable]]:
        """The smallest (key', oid) with key' > key -- the next-key lock
        target for an insertion of ``key``."""
        for found_key, oid, _payload in self.iter_from(key + 1):
            return found_key, oid
        return None

    def first_at_or_after(self, key: int) -> Optional[Tuple[int, Hashable]]:
        for found_key, oid, _payload in self.iter_from(key):
            return found_key, oid
        return None

    # -- insertion -----------------------------------------------------------

    def insert(self, key: int, oid: Hashable, payload: Any = None) -> None:
        path = self._descend_to_leaf((key, oid))
        leaf = path[-1]
        idx = bisect.bisect_left(leaf.keys, (key, oid))
        if idx < len(leaf.keys) and leaf.keys[idx] == (key, oid):
            raise BTreeError(f"duplicate entry ({key}, {oid!r})")
        leaf.keys.insert(idx, (key, oid))
        leaf.entries.insert(idx, payload)
        self.pager.write(leaf.page_id)
        self._size += 1
        self._split_upward(path)

    def _split_upward(self, path: List[_Node]) -> None:
        for depth in range(len(path) - 1, -1, -1):
            node = path[depth]
            if len(node.keys) <= self.config.max_keys:
                return
            mid = len(node.keys) // 2
            right_page = self.pager.allocate()
            right = _Node(right_page.page_id, node.is_leaf)
            right_page.payload = right
            if node.is_leaf:
                right.keys = node.keys[mid:]
                right.entries = node.entries[mid:]
                node.keys = node.keys[:mid]
                node.entries = node.entries[:mid]
                right.next_leaf = node.next_leaf
                node.next_leaf = right.page_id
                separator = right.keys[0]
            else:
                separator = node.keys[mid]
                right.keys = node.keys[mid + 1 :]
                right.children = node.children[mid + 1 :]
                node.keys = node.keys[:mid]
                node.children = node.children[: mid + 1]
            self.pager.write(node.page_id)
            self.pager.write(right.page_id)
            if depth == 0:
                root_page = self.pager.allocate()
                new_root = _Node(root_page.page_id, is_leaf=False)
                new_root.keys = [separator]
                new_root.children = [node.page_id, right.page_id]
                root_page.payload = new_root
                self.root_id = new_root.page_id
                self.pager.write(new_root.page_id)
                return
            parent = path[depth - 1]
            pidx = parent.children.index(node.page_id)
            parent.keys.insert(pidx, separator)
            parent.children.insert(pidx + 1, right.page_id)
            self.pager.write(parent.page_id)

    # -- deletion (lazy: no rebalancing, like many real systems) ------------

    def delete(self, key: int, oid: Hashable) -> bool:
        """Remove one entry.  Underfull leaves are tolerated (lazy
        deletion); empty leaves stay linked until the tree is rebuilt --
        adequate for the §2 experiments, which are insert/scan heavy."""
        leaf = self._descend_to_leaf((key, oid))[-1]
        idx = bisect.bisect_left(leaf.keys, (key, oid))
        if idx >= len(leaf.keys) or leaf.keys[idx] != (key, oid):
            return False
        leaf.keys.pop(idx)
        leaf.entries.pop(idx)
        self.pager.write(leaf.page_id)
        self._size -= 1
        return True

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        """Key ordering, child counts and leaf-chain coverage."""
        collected: List[Tuple[int, Hashable]] = []

        def walk(page_id: PageId, lo, hi) -> None:
            node = self._node(page_id, count_io=False)
            if node.is_leaf:
                assert node.keys == sorted(node.keys), "unsorted leaf"
                for key in node.keys:
                    assert (lo is None or key >= lo) and (hi is None or key < hi)
                collected.extend(node.keys)
                return
            assert len(node.children) == len(node.keys) + 1
            bounds = [lo] + list(node.keys) + [hi]
            for i, child in enumerate(node.children):
                walk(child, bounds[i], bounds[i + 1])

        walk(self.root_id, None, None)
        assert collected == sorted(collected), "global key order broken"
        assert len(collected) == self._size
        # leaf chain covers the same entries
        chained = list(self.iter_from(-(1 << 62)))
        assert len(chained) == self._size

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return f"BPlusTree(size={self._size}, height={self.height}, max_keys={self.config.max_keys})"


class _MinusInf:
    """Sorts before every object id."""

    def __lt__(self, other: object) -> bool:
        return True

    def __gt__(self, other: object) -> bool:
        return False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _MinusInf)


_MINUS_INF = _MinusInf()
