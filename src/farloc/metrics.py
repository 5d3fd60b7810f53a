"""Locality analysis of a container's structural links.

A structural link is an inter-object reference that queries actually chase:
a B-tree parent-to-child edge or a skip-list forward edge (any level).
Priority-list bookkeeping links and parent back-links are excluded; the
former are not on the query path, the latter would double-count each edge.

:func:`link_composition`, the census, classifies each link inline from the
pages of its two ends.  :func:`classify_link` and :class:`LinkClass` stay as
the one-link definition that the tests check the census against.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .farmem import Handle, Space, UsageError


class LinkClass(Enum):
    PURELY_LOCAL = "purely_local"
    IN_PAGE = "in_page"
    CROSS_PAGE = "cross_page"


@dataclass(frozen=True)
class LinkComposition:
    purely_local_ratio: float
    in_page_ratio: float
    cross_page_ratio: float


def classify_link(space: Space, a: Handle, b: Handle) -> LinkClass:
    """Purely-local when both ends are in the purely-local region, in-page
    when both sit on one swapping page, cross-page otherwise.  The census
    applies this rule inline; this one-link form is what it is checked
    against."""
    pa = space.page_of(a)
    pb = space.page_of(b)
    if pa is None and pb is None:
        return LinkClass.PURELY_LOCAL
    if pa is not None and pa == pb:
        return LinkClass.IN_PAGE
    return LinkClass.CROSS_PAGE


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
