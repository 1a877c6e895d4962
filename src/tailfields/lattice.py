"""Lattice geometry shared by every other module.

Points of Z^k are plain tuples of ints.  Windows are inclusive
hyperrectangles ``[lo, hi]``; the two block shapes used throughout are
``sym_block(n) = [-n+1, n-1]^k`` and ``pos_block(r) = [0, r-1]^k``.
Field values over a window live in a dense row-major array.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

Point = tuple[int, ...]


def as_point(t: Sequence[int]) -> Point:
    return tuple(int(x) for x in t)


@dataclass(frozen=True)
class Window:
    """Inclusive hyperrectangle ``[lo, hi]`` on Z^k."""

    lo: Point
    hi: Point

    def __post_init__(self):
        lo, hi = as_point(self.lo), as_point(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or not lo:
            raise ValueError("lo and hi must share a positive dimension")
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError("need lo <= hi componentwise")
        if self.cardinality >= 1 << 63:
            raise ValueError("window too large for a 64-bit point count")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(b - a + 1 for a, b in zip(self.lo, self.hi))

    @property
    def cardinality(self) -> int:
        n = 1
        for a, b in zip(self.lo, self.hi):
            n *= b - a + 1
        return n

    def contains(self, t: Sequence[int]) -> bool:
        return len(t) == self.dim and all(
            a <= x <= b for x, a, b in zip(t, self.lo, self.hi)
        )

    def index(self, t: Sequence[int]) -> tuple[int, ...]:
        """Array index of a lattice point (row-major layout)."""
        if not self.contains(t):
            raise ValueError(f"point {tuple(t)} outside window [{self.lo}, {self.hi}]")
        return tuple(int(x) - a for x, a in zip(t, self.lo))

    def points(self) -> Iterator[Point]:
        ranges = [range(a, b + 1) for a, b in zip(self.lo, self.hi)]
        return (tuple(p) for p in itertools.product(*ranges))

    def point_array(self) -> np.ndarray:
        """All points as an ``(cardinality, dim)`` int array, row-major order."""
        grids = np.meshgrid(
            *[np.arange(a, b + 1) for a, b in zip(self.lo, self.hi)], indexing="ij"
        )
        return np.stack([g.ravel() for g in grids], axis=1)

    def dilate(self, radius: int) -> "Window":
        return Window(
            tuple(a - radius for a in self.lo), tuple(b + radius for b in self.hi)
        )


def sym_block(n: Sequence[int]) -> Window:
    """The centered block ``[-n+1 : n-1]`` (n >= 1 componentwise)."""
    n = as_point(n)
    if any(x < 1 for x in n):
        raise ValueError("need n >= 1 componentwise")
    return Window(tuple(-(x - 1) for x in n), tuple(x - 1 for x in n))


def pos_block(r: Sequence[int]) -> Window:
    """The one-sided block ``[0 : r-1]`` (r >= 1 componentwise)."""
    r = as_point(r)
    if any(x < 1 for x in r):
        raise ValueError("need r >= 1 componentwise")
    return Window((0,) * len(r), tuple(x - 1 for x in r))


def centered_box(radius: int, dim: int) -> Window:
    """The box ``[-radius, radius]^dim``."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return Window((-radius,) * dim, (radius,) * dim)


@dataclass(frozen=True)
class InvariantOrder:
    """Translation-invariant total order on Z^k (lexicographic family).

    Axes are compared in the sequence given by ``perm``; ``signs`` flips
    the direction of individual axes.  Any such order satisfies
    s < t  =>  s+i < t+i for every shift i.
    """

    dim: int
    perm: tuple[int, ...] = ()
    signs: tuple[int, ...] = ()

    def __post_init__(self):
        perm = self.perm or tuple(range(self.dim))
        signs = self.signs or (1,) * self.dim
        if sorted(perm) != list(range(self.dim)):
            raise ValueError("perm must be a permutation of the axes")
        if len(signs) != self.dim or any(s not in (-1, 1) for s in signs):
            raise ValueError("signs must be +-1 per axis")
        object.__setattr__(self, "perm", tuple(perm))
        object.__setattr__(self, "signs", tuple(signs))

    def compare(self, s: Sequence[int], t: Sequence[int]) -> int:
        if len(s) != self.dim or len(t) != self.dim:
            raise ValueError("dimension mismatch with order")
        for axis in self.perm:
            a = self.signs[axis] * s[axis]
            b = self.signs[axis] * t[axis]
            if a != b:
                return -1 if a < b else 1
        return 0

    def before_origin_mask(self, pts: np.ndarray) -> np.ndarray:
        """Boolean mask of rows of ``pts`` strictly preceding the origin."""
        pts = np.asarray(pts)
        res = np.zeros(len(pts), dtype=bool)
        undecided = np.ones(len(pts), dtype=bool)
        for axis in self.perm:
            v = self.signs[axis] * pts[:, axis]
            res |= undecided & (v < 0)
            undecided &= v == 0
        return res


def corner_point(i: Sequence[int], r: Sequence[int]) -> Point:
    """Vertex of ``[0:r-1]`` selected by a corner label in {0,1}^k."""
    i, r = as_point(i), as_point(r)
    if len(i) != len(r):
        raise ValueError("dimension mismatch")
    if any(b not in (0, 1) for b in i):
        raise ValueError("corner entries must be 0 or 1")
    if any(x < 1 for x in r):
        raise ValueError("need r >= 1 componentwise")
    return tuple(rl - 1 if bl == 1 else 0 for bl, rl in zip(i, r))
