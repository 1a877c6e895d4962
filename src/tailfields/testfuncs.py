"""Fixed catalogs of test functions for Laplace functionals and identity checks.

Two kinds are used downstream:

* :class:`PointFunction` -- radial f applied atom by atom inside Laplace
  functionals; must vanish on a neighbourhood of the origin.
* field functions (:class:`ConstantOne`, :class:`FieldIndicator`,
  :class:`FieldRamp`) -- bounded g evaluated on finitely many lags of a
  spectral field, used by the change-of-time verifier.

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


def point_function(fid: str) -> PointFunction:
    for f in (ZERO,) + POINT_CATALOG:
        if f.fid == fid:
            return f
    raise KeyError(f"unknown point function {fid!r}")


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
class FieldIndicator:
    """g = 1(max over its lags of the field norm exceeds ``level``)."""

    gid: str
    level: float
    lags: tuple[tuple[int, ...], ...]

    def __call__(self, norms: np.ndarray) -> np.ndarray:
        return (norms > self.level).any(axis=1).astype(float)


@dataclass(frozen=True)
class FieldRamp:
    """Bounded continuous g: largest ramp value of the norm over its lags."""

    gid: str
    a: float
    b: float
    lags: tuple[tuple[int, ...], ...]

    def __call__(self, norms: np.ndarray) -> np.ndarray:
        x = np.clip((norms - self.a) / (self.b - self.a), 0.0, 1.0)
        return x.max(axis=1, initial=0.0)


FieldFunction = ConstantOne | FieldIndicator | FieldRamp


def field_catalog(lags: Sequence[tuple[int, ...]]) -> tuple[FieldFunction, ...]:
    """Standard field-function catalog anchored at the given lags."""
    lags = tuple(tuple(l) for l in lags)
    return (
        ConstantOne(),
        FieldIndicator("ind-0.5", level=0.5, lags=lags),
        FieldRamp("ramp-0.2-1", a=0.2, b=1.0, lags=lags),
    )
