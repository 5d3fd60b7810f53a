"""Placement-aware ordered containers over the collective allocator."""
from .btree import BTree, BTreeVariant, btree_block_bytes
from .placement import OCCUPANCY_LIMIT
from .skiplist import SkipList, SkipListVariant, tower_block_bytes

__all__ = [
    "OCCUPANCY_LIMIT",
    "BTree",
    "BTreeVariant",
    "SkipList",
    "SkipListVariant",
    "btree_block_bytes",
    "tower_block_bytes",
]
