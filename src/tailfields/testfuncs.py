"""Fixed catalogs of test functions for Laplace functionals and identity checks.

Two kinds are used downstream:

* :class:`PointFunction` -- radial f applied atom by atom inside Laplace
  functionals; must vanish on a neighbourhood of the origin.
* field functions (:class:`ConstantOne`, :class:`FieldRamp`) -- bounded g
  evaluated on finitely many lags of a spectral field, used by the
  change-of-time verifier.

The catalogs are fixed so cross-method comparisons are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class PointFunction:
    """Radial function of the atom norm: 0 on [0, a], rises linearly on
    [a, b], constant ``height`` beyond b.  With a == b this is a step."""

    fid: str
    a: float
    b: float
    height: float

    def __post_init__(self):
        if self.a < 0 or self.b < self.a or self.height < 0:
            raise ValueError("need 0 <= a <= b and height >= 0")

    def __call__(self, norms) -> np.ndarray:
        x = np.asarray(norms, dtype=float)
        if self.height == 0.0:
            return np.zeros_like(x)
        if self.b == self.a:
            return self.height * (x > self.a)
        return self.height * np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)


ZERO = PointFunction("zero", a=1.0, b=1.0, height=0.0)

# two indicator levels and two smooth ramps
POINT_CATALOG: tuple[PointFunction, ...] = (
    PointFunction("step-1", a=1.0, b=1.0, height=1.0),
    PointFunction("step-2", a=2.0, b=2.0, height=0.5),
    PointFunction("ramp-1-2", a=1.0, b=2.0, height=1.0),
    PointFunction("ramp-05-1", a=0.5, b=1.0, height=2.0),
)


# -- field functions ----------------------------------------------------------
#
# A field function maps an ``(n, len(g.lags))`` array of field norms at its
# lags, one row per draw, to the ``(n,)`` array of its values.


@dataclass(frozen=True)
class ConstantOne:
    """g == 1; turns the change-of-time identity into the alpha-moment law."""

    gid: str = "one"
    lags: tuple[tuple[int, ...], ...] = ()

    def __call__(self, norms: np.ndarray) -> np.ndarray:
        return np.ones(len(norms))


@dataclass(frozen=True)
class FieldRamp:
    """Bounded g of the largest field norm m over its lags: 0 up to a,
    rising linearly to 1 at b.  With a == b this is the step 1(m > a)."""

    gid: str
    a: float
    b: float
    lags: tuple[tuple[int, ...], ...]

    def __call__(self, norms: np.ndarray) -> np.ndarray:
        m = norms.max(axis=1, initial=0.0)
        if self.b == self.a:
            return (m > self.a).astype(float)
        return np.clip((m - self.a) / (self.b - self.a), 0.0, 1.0)


FieldFunction = ConstantOne | FieldRamp


def field_catalog(lags: Sequence[tuple[int, ...]]) -> tuple[FieldFunction, ...]:
    """Standard field-function catalog anchored at the given lags."""
    lags = tuple(tuple(l) for l in lags)
    return (
        ConstantOne(),
        FieldRamp("ind-0.5", a=0.5, b=0.5, lags=lags),
        FieldRamp("ramp-0.2-1", a=0.2, b=1.0, lags=lags),
    )
