"""Enumeration of restricted displacement patterns on finite windows.

A pattern assigns to every site s of a window F a displacement x_s drawn from
a finite set A, and the induced map s -> s + x_s must be injective.
Enumeration is depth first in lexicographic site and displacement order, so
output order is deterministic. pattern_sign gives the sign of the
permutation of F that a pattern induces through the order isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .groupring import CapacityError, Point, Window, add

DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class Pattern:
    """Displacements attached to the sorted sites of a window."""

    sites: tuple[Point, ...]
    displacements: tuple[Point, ...]

    def image(self) -> tuple[Point, ...]:
        return tuple(add(s, x) for s, x in zip(self.sites, self.displacements))

    def image_set(self) -> frozenset[Point]:
        return frozenset(self.image())

    def weight(self, f) -> float | int:
        w = 1
        for x in self.displacements:
            w = w * f.coef(x)
        return w


def _enumerate(A: Window, F: Window, image_in: frozenset[Point] | None,
               budget: int) -> Iterator[Pattern]:
    sites = F.points
    disp = A.points
    used: set[Point] = set()
    chosen: list[Point] = []
    nodes = 0

    def go(k: int) -> Iterator[Pattern]:
        nonlocal nodes
        if k == len(sites):
            yield Pattern(sites, tuple(chosen))
            return
        s = sites[k]
        for a in disp:
            t = add(s, a)
            if t in used:
                continue
            if image_in is not None and t not in image_in:
                continue
            nodes += 1
            if nodes > budget:
                raise CapacityError(f"pattern enumeration exceeded {budget} nodes")
            used.add(t)
            chosen.append(a)
            yield from go(k + 1)
            used.discard(t)
            chosen.pop()

    yield from go(0)


def enumerate_injective(A: Window, F: Window, budget: int = DEFAULT_BUDGET) -> Iterator[Pattern]:
    """All patterns x: F -> A with s + x_s pairwise distinct."""
    return _enumerate(A, F, None, budget)


def enumerate_with_image(A: Window, F: Window, target: Window,
                         budget: int = DEFAULT_BUDGET) -> Iterator[Pattern]:
    """Injective patterns whose image is exactly the given target set."""
    if len(target) != len(F):
        raise ValueError("target must have the same cardinality as the window")
    return _enumerate(A, F, target.point_set, budget)


def pattern_sign(pattern: Pattern) -> int:
    """Sign of the permutation of F induced by the pattern and the order
    isomorphism from its image back to F.

    Both F and the image are read in lexicographic order, so the induced
    permutation sends the k-th site to the site whose index is the rank of
    the k-th image point.
    """
    image = pattern.image()
    rank = {t: i for i, t in enumerate(sorted(image))}
    perm = [rank[t] for t in image]
    n = len(perm)
    seen = [False] * n
    sign = 1
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
