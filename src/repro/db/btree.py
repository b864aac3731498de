"""A B+-tree index over simulated memory.

The paper models trees as regions ("more complex structures like trees
are modeled by regions with R.n representing the number of nodes and
R.w the size of a single node", Section 3.1), and a batch of index
lookups as random accesses into that region — each probe touches a
root-to-leaf path of ``height`` nodes, i.e. ``r_acc(height * lookups,
tree)``.  The node size is a tuning knob: cache-line-sized nodes are the
cache-conscious design of Rao/Ross [RR99, RR00] cited in the paper's
introduction.

The tree stores (key, payload) pairs, keys need not be unique.  Nodes
live back-to-back in one allocation, so the tree is one contiguous
region whose geometry the cost model can describe.
"""

from __future__ import annotations

import bisect

from ..core.patterns import Conc, Pattern, RAcc, STrav
from ..core.regions import DataRegion
from .column import Column
from .context import Database

__all__ = ["SimBTree", "index_nested_loop_join", "btree_lookup_pattern"]


class _Node:
    __slots__ = ("keys", "children", "payloads", "index")

    def __init__(self, index: int, leaf: bool) -> None:
        self.index = index
        self.keys: list[int] = []
        self.children: list[_Node] | None = None if leaf else []
        self.payloads: list[list] | None = [] if leaf else None

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class SimBTree:
    """A bulk-loaded B+-tree with fixed-size nodes in simulated memory.

    Parameters
    ----------
    db:
        Execution context.
    node_bytes:
        Size of one node (``R.w`` of the tree region).  16 bytes per
        (key, pointer/payload) slot; ``node_bytes=128`` matches an L2
        line on the Origin2000 (the cache-conscious choice).
    """

    SLOT_BYTES = 16

    def __init__(self, db: Database, keys_payloads: list[tuple[int, object]],
                 node_bytes: int = 128, name: str = "T") -> None:
        if not keys_payloads:
            raise ValueError("cannot build an index over nothing")
        if node_bytes < 2 * self.SLOT_BYTES:
            raise ValueError("a node must hold at least two slots")
        self.db = db
        self.name = name
        self.node_bytes = node_bytes
        self.fanout = node_bytes // self.SLOT_BYTES

        pairs = sorted(keys_payloads, key=lambda kp: kp[0])
        self._nodes: list[_Node] = []
        self.root = self._bulk_load(pairs)
        self.height = self._height(self.root)
        self.address = db.allocator.allocate(
            len(self._nodes) * node_bytes, alignment=node_bytes
        )

    # ------------------------------------------------------------------
    def _new_node(self, leaf: bool) -> _Node:
        node = _Node(index=len(self._nodes), leaf=leaf)
        self._nodes.append(node)
        return node

    def _bulk_load(self, pairs) -> _Node:
        # Leaves: fanout-sized runs of (key -> payload list).
        leaves: list[_Node] = []
        i = 0
        while i < len(pairs):
            leaf = self._new_node(leaf=True)
            while i < len(pairs) and len(leaf.keys) < self.fanout:
                key = pairs[i][0]
                bucket: list = []
                while i < len(pairs) and pairs[i][0] == key:
                    bucket.append(pairs[i][1])
                    i += 1
                leaf.keys.append(key)
                leaf.payloads.append(bucket)
            leaves.append(leaf)
        # Inner levels: separator = first key of each child.
        level = leaves
        while len(level) > 1:
            parents: list[_Node] = []
            j = 0
            while j < len(level):
                parent = self._new_node(leaf=False)
                group = level[j:j + self.fanout]
                parent.children = group
                parent.keys = [child.keys[0] for child in group]
                parents.append(parent)
                j += self.fanout
            level = parents
        return level[0]

    def _height(self, node: _Node) -> int:
        height = 1
        while not node.is_leaf:
            node = node.children[0]
            height += 1
        return height

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def size(self) -> int:
        return self.num_nodes * self.node_bytes

    def region(self) -> DataRegion:
        """The tree as a data region: ``R.n`` nodes of ``R.w`` bytes."""
        return DataRegion(name=self.name, n=self.num_nodes, w=self.node_bytes)

    def _touch(self, node: _Node) -> None:
        self.db.mem.access(self.address + node.index * self.node_bytes,
                           self.node_bytes)

    def lookup(self, key: int) -> list:
        """All payloads under ``key`` (walks one root-to-leaf path)."""
        node = self.root
        self._touch(node)
        while not node.is_leaf:
            slot = bisect.bisect_right(node.keys, key) - 1
            node = node.children[max(0, slot)]
            self._touch(node)
        slot = bisect.bisect_left(node.keys, key)
        if slot < len(node.keys) and node.keys[slot] == key:
            return list(node.payloads[slot])
        return []

    @classmethod
    def build(cls, db: Database, col: Column, node_bytes: int = 128,
              name: str | None = None) -> "SimBTree":
        """Index a column (payload = row index); the build reads the
        column sequentially (the sort is charged to the caller, as for
        merge join)."""
        mem = db.mem
        pairs = []
        for i in range(col.n):
            mem.access(col.item_address(i), col.width)
            pairs.append((col.values[i], i))
        return cls(db, pairs, node_bytes=node_bytes,
                   name=name or f"T({col.name})")


def index_nested_loop_join(db: Database, outer: Column, tree: SimBTree,
                           output_name: str = "W",
                           output_capacity: int | None = None) -> Column:
    """Join by probing the index once per outer item."""
    from .join import OUTPUT_WIDTH

    mem = db.mem
    capacity = max(1, output_capacity or outer.n)
    out = db.allocate_column(output_name, n=capacity, width=OUTPUT_WIDTH,
                             fill=(0, 0))
    count = 0
    for i in range(outer.n):
        key = outer.read(mem, i)
        for payload in tree.lookup(key):
            if count >= len(out.values):
                raise RuntimeError("join output capacity exceeded")
            out.write(mem, count, (i, payload))
            count += 1
    out.values = out.values[:count]
    return out


def btree_lookup_pattern(U: DataRegion, tree: DataRegion, height: int,
                         W: DataRegion, fanout: int | None = None) -> Pattern:
    """Index-nested-loop join pattern.

    Every probe walks one root-to-leaf path: one random hit *per tree
    level*.  Each level is modelled as its own sub-region of the tree
    (root: 1 node, then fanout-growing levels, leaves taking the rest)::

        inl_join(U,T,W) = s_trav+(U) ⊙ r_acc(U.n, T.lvl0) ⊙ ...
                          ⊙ r_acc(U.n, T.lvl{h-1}) ⊙ s_trav+(W)

    This captures the access skew that makes B-trees cache-friendly:
    the upper levels are tiny, quickly resident, and absorb most of the
    hits — only the leaf level pays random misses.  (A single uniform
    ``r_acc`` over the whole tree region misses this and over-predicts
    by 2-3x.)
    """
    if height < 1:
        raise ValueError("height must be positive")
    if fanout is None:
        fanout = max(2, round(tree.n ** (1.0 / height)))
    sizes: list[int] = []
    count = 1
    for _ in range(height - 1):
        sizes.append(min(count, tree.n))
        count *= fanout
    upper = sum(sizes)
    sizes.append(max(1, tree.n - upper))
    parts: list[Pattern] = [STrav(U)]
    for lvl, size in enumerate(sizes):
        level_region = tree.subregion(f"{tree.name}.lvl{lvl}", n=size)
        parts.append(RAcc(level_region, r=U.n))
    parts.append(STrav(W))
    return Conc.of(*parts)
