"""Lattice geometry shared by every other module.

Points of Z^k are plain tuples of ints.  Windows are inclusive
hyperrectangles ``[lo, hi]``; the two block shapes used throughout are
``sym_block(n) = [-n+1, n-1]^k`` and ``pos_block(r) = [0, r-1]^k``.
Field values over a window live in a dense row-major array.  The index
regions, ``OrthantRegion`` (run index) and ``HalfSpaceRegion`` (classical
and block), serve the estimators and the exact indices alike.
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
        if pts.shape[1] != self.dim:
            raise ValueError("dimension mismatch with order")
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


@dataclass(frozen=True)
class OrthantRegion:
    """Truncated closed orthant pointing away from a corner, origin removed:
    {t : t_l (1 - 2 corner_l) >= 0 for all l, t != 0, |t|_inf <= bound}."""

    corner: tuple[int, ...]
    bound: int

    def points(self) -> list[Point]:
        """The region's points, in lexicographic order; the corner fixes the
        dimension."""
        corner = as_point(self.corner)
        if any(b not in (0, 1) for b in corner):
            raise ValueError("corner entries must be 0 or 1")
        if self.bound < 1:
            raise ValueError("bound must be >= 1")
        b = self.bound
        axes = [range(0, b + 1) if c == 0 else range(-b, 1) for c in corner]
        # a product of increasing ranges comes out in lexicographic order
        return [t for t in itertools.product(*axes) if any(t)]


@dataclass(frozen=True)
class HalfSpaceRegion:
    """Points strictly preceding the origin, truncated to a box.

    The region is the disjoint union of the ``dim`` boxes of ``boxes()``,
    one per position of the order's ``perm``, so a maximum over it of a
    function that factorises along the axes is a product of per-axis
    maxima.
    """

    order: InvariantOrder
    bound: int

    def boxes(self) -> list[Window]:
        """Box j (j = 0..dim-1) holds the points whose first nonzero axis, in
        ``perm`` order, is ``perm[j]``: the axes before it are 0, ``perm[j]``
        lies on its signed-negative side [1, bound] and the later axes range
        over [-bound, bound]."""
        b, order = self.bound, self.order
        out = []
        for j, axis in enumerate(order.perm):
            lo, hi = [0] * order.dim, [0] * order.dim
            lo[axis], hi[axis] = (-b, -1) if order.signs[axis] == 1 else (1, b)
            for later in order.perm[j + 1 :]:
                lo[later], hi[later] = -b, b
            out.append(Window(tuple(lo), tuple(hi)))
        return out

    def point_array(self) -> np.ndarray:
        """The points of [-bound, bound]^dim before the origin, dim that of the
        order, as an ``(n, dim)`` int array in row-major order."""
        pts = centered_box(self.bound, self.order.dim).point_array()
        return pts[self.order.before_origin_mask(pts)]

    def points(self) -> list[Point]:
        return [as_point(p) for p in self.point_array()]
