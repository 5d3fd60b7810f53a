"""Locality analysis of a container's structural links.

A structural link is an inter-object reference that queries actually chase:
a B-tree parent-to-child edge or a skip-list forward edge (any level).
Priority-list bookkeeping links and parent back-links are excluded; the
former are not on the query path, the latter would double-count each edge.

:func:`link_composition`, the census, classifies each link inline from the
pages of its two ends; the tests check it against a one-link definition of
the three classes.
"""
from __future__ import annotations

from dataclasses import dataclass

from .farmem import UsageError


@dataclass(frozen=True)
class LinkComposition:
    purely_local_ratio: float
    in_page_ratio: float
    cross_page_ratio: float


def link_composition(container) -> LinkComposition:
    """Class ratios over every structural link of the container; the three
    ratios sum to one.  A link with an end the space does not hold raises
    :class:`UsageError`, as :meth:`Space.page_of` does."""
    page_of = container.space.page_of
    purely_local = in_page = total = 0
    for a, b in container.structural_links():
        total += 1
        # page_of gives None for a purely-local end, so equal pages are
        # either both purely local or one swapping page
        pa = page_of(a)
        if pa == page_of(b):
            if pa is None:
                purely_local += 1
            else:
                in_page += 1
    if total == 0:
        raise UsageError("link composition is undefined for a container without links")
    return LinkComposition(
        purely_local / total,
        in_page / total,
        (total - purely_local - in_page) / total,
    )
