"""Model specifications for every samplable field, one class per model.

Each model subclasses :class:`Model` and owns its facts, its config round
trip and its samplers.  A new model must define

* ``alpha``: the regular-variation index of the marginal norm;
* ``exceed_prob(u)``: the exact P(|X(0)| > u) for u > 0, which the
  level-setting and estimation code exploits;
* ``fields(window, count, gen)``: a ``(count, *window.shape)`` batch of
  fields drawn from the NumPy generator ``gen``.

These members have defaults in :class:`Model`:

* ``dim`` (None: any lattice dimension) and ``radius`` (0: the sup-norm
  reach of the noise behind one site);
* ``block_maxima(window, count, gen)`` and ``roots(window, index, count,
  gen)``, which build the fields;
* ``exact_conditioning`` (False) and ``conditional_fields(window, point,
  u, count, gen)``, which raises ``TooFewEventsError``;
* ``limit_tail_batch(points, count, gen)``, exact draws of the limit tail
  field, which raises ``TypeError``;
* ``to_config()``, which raises ``TypeError``.  A class listed in
  ``MODEL_VARIANTS`` also defines the classmethod ``from_config(cfg)``.

The samplers are called through the ``simulate`` entry points, which check
their arguments first.  ``block_maxima`` and ``roots`` must equal the
built fields bit for bit and leave ``gen`` as ``fields`` leaves it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import simulate

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


class Model:
    """Base of the model specifications; the module docstring lists its members."""

    dim: int | None = None
    radius = 0
    exact_conditioning = False

    def block_maxima(self, window, count: int, gen) -> np.ndarray:
        x = simulate.field_batch(self, window, count, gen)
        return np.abs(x.reshape(count, -1)).max(axis=1)

    def roots(self, window, index, count: int, gen):
        x = simulate.field_batch(self, window, count, gen)
        return np.abs(x[(slice(None), *index)]), lambda idx: x[idx]

    def conditional_fields(self, window, point, u: float, count: int, gen):
        raise simulate.TooFewEventsError(
            f"exact conditional sampling not available for {type(self).__name__}; "
            "direct simulation would collect too few exceedances"
        )

    def limit_tail_batch(self, points, count: int, gen) -> np.ndarray:
        raise TypeError(f"no exact limit tail field for {type(self).__name__}")

    def to_config(self) -> dict:
        raise TypeError(f"unknown model {self!r}")


@dataclass(frozen=True)
class IIDFrechet(Model):
    """Independent Frechet(alpha) noise, P(Z <= z) = exp(-z^-alpha)."""

    alpha: float = 1.0
    exact_conditioning = True

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    def exceed_prob(self, u: float) -> float:
        return -math.expm1(-(u ** -self.alpha))

    def fields(self, window, count: int, gen) -> np.ndarray:
        return simulate.frechet_batch(self.alpha, window, count, gen)

    def block_maxima(self, window, count: int, gen) -> np.ndarray:
        # Z = f(U) is increasing in U: each field needs only its largest uniform
        u = gen.random((count, *window.shape))
        return simulate.frechet_of(u.reshape(count, -1).max(axis=1), self.alpha)

    def roots(self, window, index, count: int, gen):
        u = gen.random((count, *window.shape))
        roots = simulate.frechet_of(u[(slice(None), *index)], self.alpha)
        return roots, lambda idx: simulate.frechet_of(u[idx], self.alpha)

    def conditional_fields(self, window, point, u: float, count: int, gen):
        x = simulate.frechet_batch(self.alpha, window, count, gen)
        idx = window.index(point)
        c = u ** self.alpha  # reduce to Frechet(1) via Z^alpha
        x[(slice(None), *idx)] = simulate.frechet_above(gen, c, count) ** (1 / self.alpha)
        return x

    def to_config(self) -> dict:
        return {"variant": "IIDFrechet", "alpha": self.alpha}

    @classmethod
    def from_config(cls, cfg: dict) -> "IIDFrechet":
        return cls(alpha=float(cfg.get("alpha", 1.0)))


def _check_weights(weights):
    for o, w in weights.items():
        if not 0.0 <= float(w) <= 1.0:
            raise ValueError(f"stencil weight {w} at offset {o} outside [0,1]")


def _offset_key(o) -> str:
    return ",".join(str(int(x)) for x in o)


def _parse_offset(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.split(","))


class _StencilModel(Model):
    """Max-moving average X(t) = max(Z(t), max_o w_o Z(t + o)) driven by iid
    standard Frechet(1) noise Z; ``stencil`` holds the (o, w_o) pairs."""

    alpha = 1.0
    exact_conditioning = True

    @property
    def dim(self) -> int:
        return len(self.stencil[0][0])

    @property
    def radius(self) -> int:
        return max(max(abs(x) for x in o) for o, _ in self.stencil)

    @property
    def weights(self) -> dict[tuple[int, ...], float]:
        return dict(self.stencil)

    @property
    def weight_sum(self) -> float:
        return float(sum(w for _, w in self.stencil))

    def exceed_prob(self, u: float) -> float:
        return -math.expm1(-(1.0 + self.weight_sum) / u)

    def fields(self, window, count: int, gen) -> np.ndarray:
        return simulate.mma_batch(self, window, count, gen)

    def block_maxima(self, window, count: int, gen) -> np.ndarray:
        """max_s c_s Z(s) from the same uniforms that ``mma_batch`` draws.

        c_s, on the window dilated by the stencil radius, is the largest
        weight through which noise site s reaches the window: 1 on the
        window itself and 0 where no positive weight reaches.  Rounding is
        monotone, so max_o fl(w_o Z) = fl(max_o w_o Z), and Z = f(U) is
        increasing, so the window itself needs only its largest uniform and
        only the ring sites with c_s > 0 are transformed one by one.
        """
        radius = self.radius
        shape = window.shape
        c = np.zeros(window.dilate(radius).shape)
        for o, w in self.stencil:
            sl = tuple(slice(radius + off, radius + off + s) for off, s in zip(o, shape))
            np.maximum(c[sl], w, out=c[sl])
        core = tuple(slice(radius, radius + s) for s in shape)
        c[core] = 1.0
        u = gen.random((count, *c.shape))
        u_max = u[(slice(None), *core)].max(axis=tuple(range(1, u.ndim)))
        m = simulate.frechet_of(u_max, 1.0)
        ring = c > 0.0
        ring[core] = False
        idx = np.flatnonzero(ring)
        if idx.size:
            z = simulate.frechet_of(u.reshape(count, -1)[:, idx], 1.0)
            np.maximum(m, (c.ravel()[idx] * z).max(axis=1), out=m)
        return m

    def roots(self, window, index, count: int, gen):
        """max(Z(point), max_o w_o Z(point + o)), with the same noise values,
        products and ``np.maximum`` steps as ``stencil_max`` at that site;
        ``rows`` applies the Fréchet transform and the stencil to the chosen
        rows only."""
        radius = self.radius
        u = gen.random((count, *window.dilate(radius).shape))

        def noise(o):
            return simulate.frechet_of(
                u[(slice(None), *(radius + i + d for i, d in zip(index, o)))], 1.0
            )

        roots = noise((0,) * window.dim)
        for o, w in self.stencil:
            if w != 0.0:
                np.maximum(roots, w * noise(o), out=roots)
        return roots, lambda idx: simulate.stencil_max(
            self, simulate.frechet_of(u[idx], 1.0), radius, window.shape
        )

    def conditional_fields(self, window, point, u: float, count: int, gen):
        """Fields conditioned on X(point) > u, sampled exactly.

        X(point) exceeds iff one of the weighted noise sites behind it
        exceeds; the occurring subset of those independent events is drawn
        from its exact conditional law, then noise is filled in accordingly.
        """
        items = [((0,) * window.dim, 1.0)] + [(o, w) for o, w in self.stencil if w > 0.0]
        radius = max(max(abs(x) for x in o) for o, _ in items)
        big = window.dilate(radius)
        sites = [tuple(p + o_l for p, o_l in zip(point, o)) for o, _ in items]
        probs = np.array([-math.expm1(-w / u) for _, w in items])  # P(w Z > u)

        # conditional law of the event-indicator vector given at least one event
        n_ev = len(items)
        subsets = np.arange(1, 1 << n_ev)
        bits = (subsets[:, None] >> np.arange(n_ev)[None, :]) & 1
        logw = bits * np.log(probs)[None, :] + (1 - bits) * np.log1p(-probs)[None, :]
        w_subset = np.exp(logw.sum(axis=1))
        w_subset /= w_subset.sum()
        picks = gen.choice(len(subsets), size=count, p=w_subset)
        occur = bits[picks].astype(bool)  # (count, n_ev)

        z = simulate.frechet_of(gen.random((count, *big.shape)), 1.0)
        for j, ((_, w), s) in enumerate(zip(items, sites)):
            c = u / w
            idx = big.index(s)
            col_hi = simulate.frechet_above(gen, c, count)
            col_lo = simulate.frechet_below(gen, c, count)
            z[(slice(None), *idx)] = np.where(occur[:, j], col_hi, col_lo)

        return simulate.stencil_max(self, z, radius, window.shape)


@dataclass(frozen=True)
class MaxMovingAverage(_StencilModel):
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
    def stencil(self) -> tuple[tuple[tuple[int, int], float], ...]:
        return tuple(zip(MMA_OFFSETS, self.a))

    def to_config(self) -> dict:
        return {
            "variant": "MaxMovingAverage",
            "a": {_offset_key(o): w for o, w in self.stencil},
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "MaxMovingAverage":
        a = {_parse_offset(k): float(v) for k, v in cfg["a"].items()}
        if set(a) != set(MMA_OFFSETS):
            raise ValueError(f"weights must be keyed by the offsets {MMA_OFFSETS}")
        return cls(a=tuple(a[o] for o in MMA_OFFSETS))


@dataclass(frozen=True)
class GeneralMaxMovingAverage(_StencilModel):
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

    def to_config(self) -> dict:
        return {
            "variant": "GeneralMaxMovingAverage",
            "stencil": {_offset_key(o): w for o, w in self.stencil},
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "GeneralMaxMovingAverage":
        return cls(
            stencil=tuple((_parse_offset(k), float(v)) for k, v in cfg["stencil"].items())
        )


@dataclass(frozen=True)
class BrownResnick(Model):
    """Max-stable field X(t) = max_i U_i exp(W_i(t) - sigma2(t)/2).

    U_i are the points of a Poisson process with intensity du/u^2 and the
    W_i are iid Gaussian fields described by ``variogram``.  Margins are
    standard Frechet(1).  Simulation is exact, by extremal functions (see
    ``gaussian.brown_resnick_batch``), and so are the tail-field draws
    (``gaussian.br_tail_field_batch``).
    """

    variogram: VariogramSpec
    alpha = 1.0

    @property
    def dim(self) -> int:
        return self.variogram.dim

    def exceed_prob(self, u: float) -> float:
        return -math.expm1(-1.0 / u)

    def fields(self, window, count: int, gen) -> np.ndarray:
        from . import gaussian  # gaussian imports this module

        return gaussian.brown_resnick_batch(self.variogram, window, count, gen)

    def limit_tail_batch(self, points, count: int, gen) -> np.ndarray:
        from . import gaussian

        return gaussian.br_tail_field_batch(self.variogram, points, count, gen)

    def to_config(self) -> dict:
        if not isinstance(self.variogram, AdditiveFBM):
            raise ValueError("only AdditiveFBM variograms are serializable")
        return {
            "variant": "BrownResnick",
            "variogram": {"variant": "AdditiveFBM", "hurst": list(self.variogram.hurst)},
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "BrownResnick":
        vg = cfg["variogram"]
        if vg.get("variant") != "AdditiveFBM":
            raise ValueError("only AdditiveFBM variograms are serializable")
        # older configs may carry the key of a truncation tolerance that
        # exact sampling no longer has; it is ignored
        return cls(variogram=AdditiveFBM(hurst=tuple(float(h) for h in vg["hurst"])))


@dataclass(frozen=True)
class CounterexampleField(Model):
    """Anti-diagonal parity field on Z^2 built from exchangeable Pareto pairs.

    Each level set {t1 + t2 = c} carries an independent pair (Z1, Z2);
    the coordinate used at t is chosen by the parity of t1.  Marginals
    are standard Pareto(alpha) but joint regular variation fails.
    """

    alpha: float = 1.0
    dim = 2

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    def exceed_prob(self, u: float) -> float:
        return min(1.0, u ** -self.alpha)

    def fields(self, window, count: int, gen) -> np.ndarray:
        return simulate.counterexample_batch(self.alpha, window, count, gen)

    def to_config(self) -> dict:
        return {"variant": "CounterexampleField", "alpha": self.alpha}

    @classmethod
    def from_config(cls, cfg: dict) -> "CounterexampleField":
        return cls(alpha=float(cfg.get("alpha", 1.0)))


@dataclass(frozen=True)
class Mixture(Model):
    """Whole-field mixture: each realization draws one component field."""

    components: tuple[tuple[float, Model], ...]

    def __post_init__(self):
        comps = tuple((float(w), m) for w, m in self.components)
        if not comps or any(w < 0 for w, _ in comps):
            raise ValueError("component weights must be nonnegative")
        if abs(sum(w for w, _ in comps) - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int | None:
        dims = {m.dim for _, m in self.components} - {None}
        if len(dims) > 1:
            raise ValueError("mixture components disagree on dimension")
        return dims.pop() if dims else None

    @property
    def alpha(self) -> float:
        alphas = {m.alpha for _, m in self.components}
        if len(alphas) != 1:
            raise ValueError("mixture components disagree on tail index")
        return alphas.pop()

    @property
    def radius(self) -> int:
        return max(m.radius for _, m in self.components)

    @property
    def exact_conditioning(self) -> bool:
        return all(m.exact_conditioning for _, m in self.components)

    def exceed_prob(self, u: float) -> float:
        return sum(w * m.exceed_prob(u) for w, m in self.components)

    def _batch(self, count: int, gen, draw, shape, p=None) -> np.ndarray:
        """Pick a component per replicate with probabilities ``p`` (default:
        the mixture weights), then fill each component's rows with
        ``draw(component, n_rows)``."""
        if p is None:
            p = np.array([w for w, _ in self.components])
        picks = gen.choice(len(p), size=count, p=p)
        out = np.empty((count, *shape))
        # component draws consume the generator in component order
        for ci, (_, comp) in enumerate(self.components):
            idx = np.nonzero(picks == ci)[0]
            if len(idx):
                out[idx] = draw(comp, len(idx))
        return out

    def fields(self, window, count: int, gen) -> np.ndarray:
        return self._batch(
            count, gen, lambda comp, k: simulate.field_batch(comp, window, k, gen),
            window.shape,
        )

    def block_maxima(self, window, count: int, gen) -> np.ndarray:
        def draw(comp, k):
            return simulate.block_max_batch(comp, window, k, gen)

        return self._batch(count, gen, draw, ())

    def conditional_fields(self, window, point, u: float, count: int, gen):
        if not self.exact_conditioning:
            raise simulate.TooFewEventsError(
                "conditional sampling unsupported for a mixture component"
            )
        w_cond = np.array([w * m.exceed_prob(u) for w, m in self.components])
        w_cond /= w_cond.sum()

        def draw(comp, k):
            return simulate.conditional_field_batch(comp, window, point, u, k, gen)

        return self._batch(count, gen, draw, window.shape, w_cond)

    def to_config(self) -> dict:
        return {
            "variant": "Mixture",
            "components": [
                {"weight": w, "model": m.to_config()} for w, m in self.components
            ],
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "Mixture":
        return cls(
            components=tuple(
                (float(c["weight"]), model_from_config(c["model"]))
                for c in cfg["components"]
            )
        )


MODEL_VARIANTS = {
    cls.__name__: cls
    for cls in (
        IIDFrechet, MaxMovingAverage, GeneralMaxMovingAverage, BrownResnick,
        CounterexampleField, Mixture,
    )
}


def stencil_radius(spec: Model) -> int:
    """Sup-norm radius of dependence propagation per application of the stencil."""
    return spec.radius


def model_from_config(cfg: dict) -> Model:
    variant = cfg["variant"]
    if variant not in MODEL_VARIANTS:
        raise ValueError(f"unknown model variant {variant!r}")
    return MODEL_VARIANTS[variant].from_config(cfg)


def model_digest(spec: Model) -> str:
    """Short stable digest of a model's canonical config."""
    blob = json.dumps(spec.to_config(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def model_tag(spec: Model) -> str:
    return f"{type(spec).__name__}:{model_digest(spec)}"
