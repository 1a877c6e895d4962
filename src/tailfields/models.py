"""Model specifications for every samplable field, plus config round-trips.

All concrete models have known marginal laws for the norm of a single
observation, which the level-setting and estimation code exploits.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Union

MMA_OFFSETS = ((-1, -1), (-1, 1), (1, 1), (1, -1))


@dataclass(frozen=True)
class AdditiveFBM:
    """Sum of independent fractional Brownian motions, one per axis.

    Variogram ``gamma(t) = sum_l |t_l|^(2 H_l)``; the field vanishes at
    the origin, so the variance equals the variogram.
    """

    hurst: tuple[float, ...]

    def __post_init__(self):
        h = tuple(float(x) for x in self.hurst)
        if not h or any(not 0 < x < 1 for x in h):
            raise ValueError("each Hurst parameter must lie in (0,1)")
        object.__setattr__(self, "hurst", h)

    @property
    def dim(self) -> int:
        return len(self.hurst)

    def gamma(self, t) -> float:
        return float(sum(abs(x) ** (2 * h) for x, h in zip(t, self.hurst)))

    def sigma2(self, t) -> float:
        return self.gamma(t)


@dataclass(frozen=True)
class CustomVariogram:
    """Arbitrary stationary-increment Gaussian structure.

    ``gamma(t)`` is the variogram and ``sigma2(t)`` the variance of W(t);
    gamma must vanish at the origin.  Not serializable.
    """

    dim: int
    gamma: Callable[[tuple[int, ...]], float]
    sigma2: Callable[[tuple[int, ...]], float]


VariogramSpec = Union[AdditiveFBM, CustomVariogram]


@dataclass(frozen=True)
class IIDFrechet:
    """Independent Frechet(alpha) noise, P(Z <= z) = exp(-z^-alpha)."""

    alpha: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


def _check_weights(weights):
    for o, w in weights.items():
        if not 0.0 <= float(w) <= 1.0:
            raise ValueError(f"stencil weight {w} at offset {o} outside [0,1]")


@dataclass(frozen=True)
class MaxMovingAverage:
    """Two-dimensional max-moving average with diagonal local interaction.

    X(t) = max(Z(t), max over the four diagonal offsets o of a[o] Z(t+o))
    driven by iid standard Frechet(1) noise Z.
    """

    a: tuple[float, float, float, float]  # weights at MMA_OFFSETS order

    def __post_init__(self):
        a = tuple(float(x) for x in self.a)
        if len(a) != 4:
            raise ValueError("need exactly four weights")
        object.__setattr__(self, "a", a)
        _check_weights(self.weights)

    @property
    def weights(self) -> dict[tuple[int, int], float]:
        return dict(zip(MMA_OFFSETS, self.a))

    @property
    def weight_sum(self) -> float:
        return float(sum(self.a))


@dataclass(frozen=True)
class GeneralMaxMovingAverage:
    """Max-moving average over an arbitrary finite stencil of offsets."""

    stencil: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        st = tuple(
            (tuple(int(x) for x in o), float(w)) for o, w in dict(self.stencil).items()
        )
        if not st:
            raise ValueError("stencil must be nonempty")
        dims = {len(o) for o, _ in st}
        if len(dims) != 1:
            raise ValueError("stencil offsets must share a dimension")
        if any(all(x == 0 for x in o) for o, _ in st):
            raise ValueError("offset 0 is implicit with weight 1")
        object.__setattr__(self, "stencil", st)
        _check_weights(self.weights)

    @property
    def dim(self) -> int:
        return len(self.stencil[0][0])

    @property
    def weights(self) -> dict[tuple[int, ...], float]:
        return dict(self.stencil)

    @property
    def weight_sum(self) -> float:
        return float(sum(w for _, w in self.stencil))


@dataclass(frozen=True)
class BrownResnick:
    """Max-stable field X(t) = max_i U_i exp(W_i(t) - sigma2(t)/2).

    U_i are the points of a Poisson process with intensity du/u^2 and the
    W_i are iid Gaussian fields described by ``variogram``.  Margins are
    standard Frechet(1).  Simulation is exact, by extremal functions (see
    ``gaussian.brown_resnick_batch``).
    """

    variogram: VariogramSpec


@dataclass(frozen=True)
class CounterexampleField:
    """Anti-diagonal parity field on Z^2 built from exchangeable Pareto pairs.

    Each level set {t1 + t2 = c} carries an independent pair (Z1, Z2);
    the coordinate used at t is chosen by the parity of t1.  Marginals
    are standard Pareto(alpha) but joint regular variation fails.
    """

    alpha: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


@dataclass(frozen=True)
class Mixture:
    """Whole-field mixture: each realization draws one component field."""

    components: tuple[tuple[float, "ModelSpec"], ...]

    def __post_init__(self):
        comps = tuple((float(w), m) for w, m in self.components)
        if not comps or any(w < 0 for w, _ in comps):
            raise ValueError("component weights must be nonnegative")
        if abs(sum(w for w, _ in comps) - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        object.__setattr__(self, "components", comps)


ModelSpec = Union[
    IIDFrechet,
    MaxMovingAverage,
    GeneralMaxMovingAverage,
    BrownResnick,
    CounterexampleField,
    Mixture,
]


def model_dim(spec: ModelSpec) -> int | None:
    """Lattice dimension fixed by the model, or None if free."""
    if isinstance(spec, MaxMovingAverage):
        return 2
    if isinstance(spec, GeneralMaxMovingAverage):
        return spec.dim
    if isinstance(spec, BrownResnick):
        return spec.variogram.dim
    if isinstance(spec, CounterexampleField):
        return 2
    if isinstance(spec, Mixture):
        dims = {model_dim(m) for _, m in spec.components} - {None}
        if len(dims) > 1:
            raise ValueError("mixture components disagree on dimension")
        return dims.pop() if dims else None
    return None


def tail_index(spec: ModelSpec) -> float:
    """Regular-variation index alpha of the marginal norm."""
    if isinstance(spec, IIDFrechet):
        return spec.alpha
    if isinstance(spec, (MaxMovingAverage, GeneralMaxMovingAverage, BrownResnick)):
        return 1.0
    if isinstance(spec, CounterexampleField):
        return spec.alpha
    if isinstance(spec, Mixture):
        alphas = {tail_index(m) for _, m in spec.components}
        if len(alphas) != 1:
            raise ValueError("mixture components disagree on tail index")
        return alphas.pop()
    raise TypeError(f"unknown model {spec!r}")


def marginal_exceed_prob(spec: ModelSpec, u: float) -> float:
    """Exact P(|X(0)| > u) for u > 0."""
    if u <= 0:
        return 1.0
    if isinstance(spec, IIDFrechet):
        return -math.expm1(-(u ** -spec.alpha))
    if isinstance(spec, (MaxMovingAverage, GeneralMaxMovingAverage)):
        return -math.expm1(-(1.0 + spec.weight_sum) / u)
    if isinstance(spec, BrownResnick):
        return -math.expm1(-1.0 / u)
    if isinstance(spec, CounterexampleField):
        return min(1.0, u ** -spec.alpha)
    if isinstance(spec, Mixture):
        return sum(w * marginal_exceed_prob(m, u) for w, m in spec.components)
    raise TypeError(f"unknown model {spec!r}")


def stencil_radius(spec: ModelSpec) -> int:
    """Sup-norm radius of dependence propagation per application of the stencil."""
    if isinstance(spec, MaxMovingAverage):
        return 1
    if isinstance(spec, GeneralMaxMovingAverage):
        return max(max(abs(x) for x in o) for o, _ in spec.stencil)
    if isinstance(spec, Mixture):
        return max(stencil_radius(m) for _, m in spec.components)
    return 0


# -- human-editable config round trip ---------------------------------------

def _offset_key(o) -> str:
    return ",".join(str(int(x)) for x in o)


def _parse_offset(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.split(","))


def model_to_config(spec: ModelSpec) -> dict:
    if isinstance(spec, IIDFrechet):
        return {"variant": "IIDFrechet", "alpha": spec.alpha}
    if isinstance(spec, MaxMovingAverage):
        return {
            "variant": "MaxMovingAverage",
            "a": {_offset_key(o): w for o, w in zip(MMA_OFFSETS, spec.a)},
        }
    if isinstance(spec, GeneralMaxMovingAverage):
        return {
            "variant": "GeneralMaxMovingAverage",
            "stencil": {_offset_key(o): w for o, w in spec.stencil},
        }
    if isinstance(spec, BrownResnick):
        if not isinstance(spec.variogram, AdditiveFBM):
            raise ValueError("only AdditiveFBM variograms are serializable")
        return {
            "variant": "BrownResnick",
            "variogram": {"variant": "AdditiveFBM", "hurst": list(spec.variogram.hurst)},
        }
    if isinstance(spec, CounterexampleField):
        return {"variant": "CounterexampleField", "alpha": spec.alpha}
    if isinstance(spec, Mixture):
        return {
            "variant": "Mixture",
            "components": [
                {"weight": w, "model": model_to_config(m)} for w, m in spec.components
            ],
        }
    raise TypeError(f"unknown model {spec!r}")


def model_from_config(cfg: dict) -> ModelSpec:
    variant = cfg["variant"]
    if variant == "IIDFrechet":
        return IIDFrechet(alpha=float(cfg.get("alpha", 1.0)))
    if variant == "MaxMovingAverage":
        a = {_parse_offset(k): float(v) for k, v in cfg["a"].items()}
        if set(a) != set(MMA_OFFSETS):
            raise ValueError(f"weights must be keyed by the offsets {MMA_OFFSETS}")
        return MaxMovingAverage(a=tuple(a[o] for o in MMA_OFFSETS))
    if variant == "GeneralMaxMovingAverage":
        return GeneralMaxMovingAverage(
            stencil=tuple((_parse_offset(k), float(v)) for k, v in cfg["stencil"].items())
        )
    if variant == "BrownResnick":
        vg = cfg["variogram"]
        if vg.get("variant") != "AdditiveFBM":
            raise ValueError("only AdditiveFBM variograms are serializable")
        # older configs may carry the key of a truncation tolerance that
        # exact sampling no longer has; it is ignored
        return BrownResnick(
            variogram=AdditiveFBM(hurst=tuple(float(h) for h in vg["hurst"]))
        )
    if variant == "CounterexampleField":
        return CounterexampleField(alpha=float(cfg.get("alpha", 1.0)))
    if variant == "Mixture":
        return Mixture(
            components=tuple(
                (float(c["weight"]), model_from_config(c["model"]))
                for c in cfg["components"]
            )
        )
    raise ValueError(f"unknown model variant {variant!r}")


def model_digest(spec: ModelSpec) -> str:
    """Short stable digest of a model's canonical config."""
    blob = json.dumps(model_to_config(spec), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def model_tag(spec: ModelSpec) -> str:
    return f"{type(spec).__name__}:{model_digest(spec)}"
