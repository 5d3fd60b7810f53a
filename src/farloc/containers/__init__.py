"""Placement-aware ordered containers over the collective allocator."""
from .btree import BTree, BTreeVariant
from .placement import OCCUPANCY_LIMIT
from .skiplist import SkipList, SkipListVariant

__all__ = [
    "OCCUPANCY_LIMIT",
    "BTree",
    "BTreeVariant",
    "SkipList",
    "SkipListVariant",
]
