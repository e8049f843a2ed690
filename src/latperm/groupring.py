"""Finitely supported weight functions on Z^d and finite windows of lattice points.

Points are integer tuples, windows are finite sorted point sets, and weight
functions are stored as {point: coefficient} maps with no explicit zeros.
Convolution uses the group structure of Z^d, so left and right translations
coincide up to the obvious sign conventions.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

Point = tuple[int, ...]


class CapacityError(RuntimeError):
    """Raised when an enumeration or kernel exceeds its node budget or a
    size cap; the message names which."""


def _as_point(p: Sequence[int]) -> Point:
    return tuple(int(c) for c in p)


def _json_get(obj, key: str, what: str):
    """obj[key] from a JSON object, or a ValueError naming the field."""
    if not isinstance(obj, Mapping) or key not in obj:
        raise ValueError(f"{what} has no {key!r} field")
    return obj[key]


def _json_list(value, what: str, ints: bool = False) -> list:
    """A JSON list, of integers if ints, or a ValueError naming the field."""
    if not isinstance(value, list) or ints and any(type(v) is not int for v in value):
        raise ValueError(f"{what} must be a list" + " of integers" * ints)
    return value


def add(p: Point, q: Point) -> Point:
    return tuple(map(operator.add, p, q))


def sub(p: Point, q: Point) -> Point:
    return tuple(map(operator.sub, p, q))


def neg(p: Point) -> Point:
    return tuple(map(operator.neg, p))


def _exponent(c) -> int:
    """The k with 2^k <= |c| < 2^(k+1) for c rounded to a float, taken from
    int.bit_length or math.frexp, never from float() of a big int."""
    if isinstance(c, float):
        return math.frexp(c)[1] - 1
    k = abs(c).bit_length() - 1
    return k + 1 if k > 0 and abs(c) / (1 << k) == 2.0 else k


@dataclass(frozen=True)
class Window:
    """Finite set of lattice points, kept in lexicographic order."""

    points: tuple[Point, ...]

    def __post_init__(self):
        pts = tuple(sorted(_as_point(p) for p in self.points))
        if len(set(pts)) != len(pts):
            raise ValueError("window points must be distinct")
        if pts and len({len(p) for p in pts}) != 1:
            raise ValueError("window points must share one dimension")
        object.__setattr__(self, "points", pts)

    @staticmethod
    def of(points: Iterable[Sequence[int]]) -> "Window":
        return Window(tuple(tuple(p) for p in points))

    @staticmethod
    def box(origin: Sequence[int], lengths: Sequence[int]) -> "Window":
        origin = _as_point(origin)
        lengths = _as_point(lengths)
        if len(origin) != len(lengths):
            raise ValueError("origin and lengths must have equal dimension")
        if any(n <= 0 for n in lengths):
            raise ValueError("box lengths must be positive")
        ranges = [range(o, o + n) for o, n in zip(origin, lengths)]
        return Window(tuple(itertools.product(*ranges)))

    @cached_property
    def point_set(self) -> frozenset[Point]:
        return frozenset(self.points)

    @property
    def dim(self) -> int:
        if not self.points:
            raise ValueError("empty window has no dimension")
        return len(self.points[0])

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p) -> bool:
        return tuple(p) in self.point_set

    def translate(self, s: Sequence[int]) -> "Window":
        s = _as_point(s)
        return Window(tuple(add(p, s) for p in self.points))

    def to_json(self) -> dict:
        return {"points": [list(p) for p in self.points]}

    @staticmethod
    def from_json(obj: Mapping) -> "Window":
        if isinstance(obj, Mapping) and "box" in obj:
            box = obj["box"]
            return Window.box(_json_list(_json_get(box, "origin", "box"), "box origin", True),
                              _json_list(_json_get(box, "lengths", "box"), "box lengths", True))
        if isinstance(obj, Mapping) and "points" in obj:
            return Window.of(_json_list(p, "window point", True)
                             for p in _json_list(obj["points"], "window points"))
        raise ValueError("window JSON needs a 'box' or 'points' key")


def sums(F: Iterable[Point], A: Sequence[Point]) -> tuple[list[Point], Counter]:
    """The sums t + a, |A| per t of F in order, and how often each is hit:
    t - A lies inside F exactly when t is hit |A| times, once per a."""
    out = [add(t, a) for t in F for a in A]
    return out, Counter(out)


def dilate(F: Window, A: Window) -> Window:
    """All sums t + a with t in F and a in A."""
    return Window(tuple(sums(F, A.points)[1]))


def interior(F: Window, A: Window) -> Window:
    """Points t whose whole backward shadow t - A lies inside F."""
    return Window(tuple(t for t, n in sums(F, A.points)[1].items() if n == len(A)))


@dataclass(frozen=True, init=False, repr=False, slots=True)
class GroupRingElement:
    """Finitely supported function Z^d -> R, stored without zero terms
    (unit_scale keeps the ones that underflow in its g)."""

    dim: int
    terms: dict[Point, float | int]

    def __init__(self, dim: int, terms: Mapping[Sequence[int], float | int]):
        clean: dict[Point, float | int] = {}
        for p, c in terms.items():
            p = _as_point(p)
            if len(p) != dim:
                raise ValueError(f"term {p} does not have dimension {dim}")
            if c != 0:
                clean[p] = clean.get(p, 0) + c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", {p: c for p, c in clean.items() if c != 0})

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*u^{p}" for p, c in sorted(self.terms.items()))
        return f"GroupRingElement(dim={self.dim}, {body or '0'})"

    @staticmethod
    def indicator(A: Window) -> "GroupRingElement":
        return GroupRingElement(A.dim, {p: 1 for p in A})

    def support(self) -> Window:
        return Window(tuple(self.terms))

    def coef(self, p: Sequence[int]) -> float | int:
        return self.terms.get(_as_point(p), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def adjoint(self) -> "GroupRingElement":
        return GroupRingElement(self.dim, {neg(p): c for p, c in self.terms.items()})

    def convolve(self, other: "GroupRingElement") -> "GroupRingElement":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out: dict[Point, float | int] = {}
        for p, c in self.terms.items():
            for q, e in other.terms.items():
                r = add(p, q)
                out[r] = out.get(r, 0) + c * e
        return GroupRingElement(self.dim, out)

    def pointwise(self, other: "GroupRingElement") -> "GroupRingElement":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        small, big = sorted((self.terms, other.terms), key=len)
        return GroupRingElement(
            self.dim, {p: c * big[p] for p, c in small.items() if p in big}
        )

    def translate(self, s: Sequence[int]) -> "GroupRingElement":
        """Shift the support by s; on Z^d left and right shifts agree."""
        s = _as_point(s)
        return GroupRingElement(self.dim, {add(p, s): c for p, c in self.terms.items()})

    def abs(self) -> "GroupRingElement":
        return GroupRingElement(self.dim, {p: abs(c) for p, c in self.terms.items()})

    def scale(self, c: float | int) -> "GroupRingElement":
        return GroupRingElement(self.dim, {p: c * v for p, v in self.terms.items()})

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out.get(p, 0) + c
        return GroupRingElement(self.dim, out)

    def norm1(self) -> float | int:
        """sum |c|, exact (an int) for integer coefficients."""
        return sum(abs(c) for c in self.terms.values())

    def unit_scale(self) -> tuple["GroupRingElement", int]:
        """(g, k) with self = 2^k g and 1 <= max |g| < 2, g in floats.

        k, the largest binary exponent of a coefficient, is exact from
        int.bit_length or math.frexp: no sum, no float() of a big int. An
        integer past 2^53 that rounds up to the next power of two takes that
        power's exponent. Each term of g is rounded once, and one that
        underflows stays in g's support as 0.0, as window interiors, torus
        separation and the transfer span read it. The zero element is its
        own g, with k = 0."""
        k = max(map(_exponent, self.terms.values()), default=0)
        g = object.__new__(GroupRingElement)  # __init__ would drop the 0.0 terms
        object.__setattr__(g, "dim", self.dim)
        object.__setattr__(g, "terms", {p: c / (1 << k) if isinstance(c, int)
                                        else math.ldexp(c, -k) for p, c in self.terms.items()})
        return g, k

    def min_positive(self) -> float:
        """Smallest strictly positive coefficient (the normalizer kappa)."""
        pos = [c for c in self.terms.values() if c > 0]
        if not pos:
            raise ValueError("element has no positive coefficient")
        return float(min(pos))

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.terms.values())

    def is_integer(self) -> bool:
        return all(isinstance(c, int) or float(c).is_integer() for c in self.terms.values())

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "terms": [
                {"exp": list(p), "coef": c} for p, c in sorted(self.terms.items())
            ],
        }

    @staticmethod
    def from_json(obj: Mapping) -> "GroupRingElement":
        """The element of a JSON object; a missing or malformed field raises
        ValueError naming it."""
        dim = _json_get(obj, "dim", "element")
        if type(dim) is not int or dim < 1:
            raise ValueError("element dim must be a positive integer")
        terms: dict[Point, float | int] = {}
        for t in _json_list(_json_get(obj, "terms", "element"), "element terms"):
            p = _as_point(_json_list(_json_get(t, "exp", "term"), "term exp", True))
            c = _json_get(t, "coef", "term")
            if type(c) not in (int, float) or not -math.inf < c < math.inf:
                raise ValueError("term coef must be a finite number")
            if isinstance(c, float) and c.is_integer():
                c = int(c)
            terms[p] = terms.get(p, 0) + c
        return GroupRingElement(dim, terms)


@dataclass(frozen=True)
class TorusQuotient:
    """Finite quotient Z^d / (n_1 Z x ... x n_d Z)."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        moduli = tuple(int(n) for n in self.moduli)
        if not moduli or any(n < 1 for n in moduli):
            raise ValueError("moduli must be positive integers")
        object.__setattr__(self, "moduli", moduli)

    @property
    def dim(self) -> int:
        return len(self.moduli)

    @property
    def size(self) -> int:
        return math.prod(self.moduli)

    def reduce(self, p: Sequence[int]) -> Point:
        return tuple(c % n for c, n in zip(p, self.moduli))

    def points(self) -> list[Point]:
        return list(itertools.product(*(range(n) for n in self.moduli)))


def project(f: GroupRingElement, quotient: TorusQuotient) -> dict[Point, float | int]:
    """Sum coefficients of f over the fibers of the quotient map."""
    if quotient.dim != f.dim:
        raise ValueError("dimension mismatch")
    out: dict[Point, float | int] = {}
    for p, c in f.terms.items():
        q = quotient.reduce(p)
        out[q] = out.get(q, 0) + c
    return {p: c for p, c in out.items() if c != 0}


def separated_on_quotient(A: Window, quotient: TorusQuotient) -> tuple[bool, tuple[Point, Point] | None]:
    """Check that distinct displacements in A stay distinct modulo the quotient.

    Returns (ok, offending_pair). The condition is that the difference set
    A - A meets the kernel lattice only at the origin.
    """
    pts = list(A)
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            if all((a - b) % n == 0 for a, b, n in zip(p, q, quotient.moduli)):
                return False, (p, q)
    return True, None
