"""Lock resource names.

The paper stresses that its granules map onto *purely physical* lock
names: leaf granules are locked by the page id of the leaf node, external
granules by the page id of the non-leaf node they belong to, and objects
by their object id.  A namespaced pair keeps those three spaces (plus the
whole-tree resource used by the Postgres-style baseline) disjoint.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from typing import Hashable


class Namespace(enum.Enum):
    """Disjoint name spaces for the lockable resources."""

    #: a leaf granule, keyed by leaf page id
    LEAF = "leaf"
    #: an external granule, keyed by the non-leaf node's page id
    EXT = "ext"
    #: a data object, keyed by object id
    OBJECT = "obj"
    #: an entire index (tree-level locking baseline), keyed by tree id
    TREE = "tree"

    def __repr__(self) -> str:
        return self.value


#: namespace -> (hash salt, name): the salt is the CRC of the name; both
#: are computed once, since ``Namespace.value`` is a Python-level property
_NS_INFO = {}


@dataclass(frozen=True, eq=False)
class ResourceId:
    """A purely physical lock name: ``(namespace, key)``.

    Hashing is on the hot path (every lock-table dict and resource set
    is keyed by it), so the hash is computed once in ``__post_init__``
    and memoised.  It is also *process-independent* (CRC of the
    canonical repr, not Python's per-process-randomised string/enum
    hashing), so the layout of those dicts and sets -- and any order
    read off them -- does not change between interpreter invocations,
    keeping replays and trace artifacts byte-stable.

    ``sort_key``, ``(namespace.value, repr(key))``, is the canonical
    total order over resources (lock-set requests, queue processing);
    it is memoised beside the hash, so a sort reads an attribute.
    """

    namespace: Namespace
    key: Hashable

    def __post_init__(self) -> None:
        key = self.key
        salt, name = _NS_INFO[self.namespace]
        text = repr(key)
        if type(key) is int:
            # page ids / small ints: a Weyl-style mix is ~4x cheaper than
            # CRC over the repr and just as stable across processes
            h = (salt ^ (key * 0x9E3779B1)) & 0x7FFFFFFF
        else:
            h = zlib.crc32(text.encode(), salt)
        object.__setattr__(self, "_hash", h)
        object.__setattr__(self, "sort_key", (name, text))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ResourceId):
            return self.namespace is other.namespace and self.key == other.key
        return NotImplemented

    @classmethod
    def leaf(cls, page_id: int) -> "ResourceId":
        """The leaf granule stored on ``page_id``."""
        return cls(Namespace.LEAF, page_id)

    @classmethod
    def ext(cls, page_id: int) -> "ResourceId":
        """The external granule of the non-leaf node on ``page_id``."""
        return cls(Namespace.EXT, page_id)

    @classmethod
    def obj(cls, oid: Hashable) -> "ResourceId":
        """The data object ``oid``."""
        return cls(Namespace.OBJECT, oid)

    @classmethod
    def tree(cls, tree_id: Hashable = 0) -> "ResourceId":
        """A whole index (used by the tree-level-locking baseline)."""
        return cls(Namespace.TREE, tree_id)

    def __repr__(self) -> str:
        return f"{self.namespace.value}:{self.key}"


_NS_INFO.update({ns: (zlib.crc32(ns.value.encode()), ns.value) for ns in Namespace})
