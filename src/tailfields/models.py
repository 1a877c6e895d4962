"""Model specifications for every samplable field, one class per model.

Each model subclasses :class:`Model` and owns its facts, its config round
trip and its samplers.  A new model must define

* ``alpha``: the regular-variation index of the marginal norm;
* ``exceed_prob(u)``: the exact P(|X(0)| > u) for a level u that
  ``check_level`` passes (positive and finite), which the level-setting
  and estimation code exploits;
* ``fields(window, count, gen)``: a ``(count, *window.shape)`` batch of
  fields drawn from the NumPy generator ``gen``.

These members have defaults in :class:`Model`:

* ``dim`` (None: any lattice dimension), ``lattice_dim`` (``dim``, or 2
  where the model fits any) and ``radius`` (0: the sup-norm reach of the
  noise behind one site);
* ``block_maxima(window, count, gen)`` and ``roots(window, index, count,
  gen)``, which build the fields;
* ``conditional_fields(window, point, u, count, gen)``, exact draws of the
  fields given |X(point)| > u, which raises ``CapabilityError``; every
  model but ``CounterexampleField`` (not jointly regularly varying)
  defines it;
* ``run_maxima(window, point, u, count, gen)``, the max of |X| over
  ``window`` minus ``point`` given |X(point)| > u, which builds the
  conditional fields; ``MaxLinear`` draws it from the law;
* ``clusters(window, r, u, gen)``, the atoms u^-1 X(t) of the r-blocks of
  one field that hold an atom above 1 (the clusters), which builds the
  field and tiles it (``cluster.cluster_process_extract`` and
  ``cluster.nonempty_blocks``).  ``MaxLinear`` draws the same uniform
  noise and builds only the blocks whose noise can reach above u: its
  weights are at most 1, so a cluster's block has a Frechet noise
  variable above u within the stencil radius.  A built block is the
  same element operations on the same noise, so the result, and the
  generator after it, are the default's to the bit;
* ``exact_indices()``, the exact classical and per-corner run indices
  keyed by "classical" and the corner (in ``corners(lattice_dim)``
  order): one formula over the spectral atoms of the private
  ``_spectral_atoms(dim)``, which raises ``CapabilityError``; ``MaxLinear``
  supplies its atoms, and a mixture its components' times their weights;
* ``to_config()``, a dict whose "variant" names its format, which raises
  ``TypeError``.  ``MODEL_VARIANTS`` maps each variant to its loader, and
  ``model_tag`` prefixes the digest with it.

The max-stable models share the private ``_MaxStable``: roots,
``exceed_prob`` and conditional fields from the one-site law, rows from
the model's ``_given_root``.  They are ``BrownResnick`` and the
max-linear ``MaxLinear(stencil, alpha)``, of which IID noise and the
max-moving averages are instances: ``IIDFrechet``, ``MaxMovingAverage``
and ``GeneralMaxMovingAverage`` are constructors that return one, and
their names are the variants of its config formats.  A ``MaxLinear``
computes its one-site scale and each window's exponent once and keeps
them on the instance: a model is built for one command, whose level
bisection and estimator chunks ask for the same values many times.
A ``Mixture`` draws every sample in one picker, ``_pick``: each
replicate's component, then the components' draws through their
``simulate`` entry points, in component order.  So only the
counterexample, alone or as a component, builds its fields for roots.

``CounterexampleField`` holds its whole law: the exchangeable ``pairs``
behind its fields and its rank-parity box law, ``exact_box_prob(rank)``
and the importance sampler ``scaled_box_prob(rank, n_draws, rng)``.

The samplers are called through the ``simulate`` entry points, which check
their arguments first.  Each draws only from ``gen``, so the same generator
state reproduces its output.  ``block_maxima`` must have the law of the
built fields' max |X| over the window; ``roots`` that of |X| at the site,
and the rows it builds that of the fields given those roots.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import gaussian, simulate
from .gaussian import AdditiveFBM, CustomVariogram, VariogramSpec  # re-exported
from .lattice import HalfSpaceRegion, InvariantOrder, OrthantRegion

MMA_OFFSETS = ((-1, -1), (-1, 1), (1, 1), (1, -1))
ALL_CORNERS = ((0, 0), (1, 1), (0, 1), (1, 0))


def corners(dim: int) -> tuple[tuple[int, ...], ...]:
    """The corners of {0,1}^dim in the key order of ``exact_indices``:
    ``ALL_CORNERS`` in 2-D, ``np.ndindex`` order in any other dimension."""
    return ALL_CORNERS if dim == 2 else tuple(np.ndindex((2,) * dim))


class CapabilityError(TypeError):
    """A model has no exact conditional sampler or no exact extremal indices."""


class Model:
    """Base of the model specifications; the module docstring lists its members."""

    dim: int | None = None
    radius = 0

    @property
    def lattice_dim(self) -> int:
        return self.dim or 2

    def block_maxima(self, window, count: int, gen) -> np.ndarray:
        x = simulate.field_batch(self, window, count, gen)
        return np.abs(x).max(axis=tuple(range(1, x.ndim)))

    def roots(self, window, index, count: int, gen):
        x = simulate.field_batch(self, window, count, gen)
        return np.abs(x[(slice(None), *index)]), lambda idx: x[idx]

    def clusters(self, window, r, u: float, gen) -> np.ndarray:
        from . import cluster  # cluster imports this module

        x = simulate.field_batch(self, window, 1, gen)
        return cluster.nonempty_blocks(cluster.cluster_process_extract(x[0], r, u))

    def conditional_fields(self, window, point, u: float, count: int, gen):
        raise CapabilityError(f"no exact conditional sampler for {type(self).__name__}")

    def run_maxima(self, window, point, u: float, count: int, gen) -> np.ndarray:
        x = simulate.conditional_field_batch(self, window, point, u, count, gen)
        flat = np.abs(x.reshape(count, window.cardinality))
        flat[:, np.ravel_multi_index(window.index(point), window.shape)] = 0.0
        return flat.max(axis=1)

    def exact_indices(self) -> dict:
        """P(sup over R of |Y| <= 1) = sum_k (m_k(0) - max over R of m_k)^+ /
        sum_k m_k(0) over the atoms of ``_spectral_atoms``, for R the
        half-space before the origin ("classical") and ``OrthantRegion(c, b)``
        for corner c, b = max(1, 2 radius), beyond which no atom reaches."""
        dim = self.lattice_dim
        atoms, zero, b = self._spectral_atoms(dim), (0,) * dim, max(1, 2 * self.radius)

        def value(region):
            pts = set(region.points())
            mass = (max(m[zero] - max((v for t, v in m.items() if t in pts), default=0), 0)
                    for m in atoms)
            return sum(mass) / sum(m[zero] for m in atoms)

        out = {"classical": value(HalfSpaceRegion(InvariantOrder(dim), b))}
        return out | {c: value(OrthantRegion(c, b)) for c in corners(dim)}

    def _spectral_atoms(self, dim: int) -> list[dict]:
        """The tail field is R Theta, R Pareto(alpha) and Theta atom k with
        probability P(K = k): one map per atom on Z^dim, from each lag t where
        it is positive to m_k(t) = c P(K = k) |Theta_k(t)|^alpha, c = lim
        u^alpha P(|X(0)| > u)."""
        raise CapabilityError(f"no exact extremal indices for {type(self).__name__}")

    def to_config(self) -> dict:
        raise TypeError(f"unknown model {self!r}")


def check_level(u: float) -> float:
    """``u``, if it is a positive and finite level; else a ``ValueError``."""
    if not 0 < u < math.inf:
        raise ValueError(f"level u={u} must be positive and finite")
    return u


def _without(window, point) -> np.ndarray:
    """Boolean mask of ``window`` that holds everywhere but at ``point``."""
    mask = np.ones(window.shape, dtype=bool)
    mask[window.index(point)] = False
    return mask


def _offset_key(o) -> str:
    return ",".join(str(int(x)) for x in o)


def _parse_offset(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.split(","))


def _alpha(cfg: dict) -> float:
    """The tail index of a config; formats without the key mean 1."""
    return float(cfg.get("alpha", 1.0))


class _MaxStable(Model):
    """X at one site is ``_site_scale`` times a Frechet(alpha) variable Z.
    Roots are drawn from that law, and rows by the subclass's
    ``_given_root(window, index, r, gen)``: fields on ``window`` given
    X = r at the array index ``index``, with r written back there."""

    alpha = 1.0
    _site_scale = 1.0

    def exceed_prob(self, u: float) -> float:
        return -math.expm1(-((self._site_scale / check_level(u)) ** self.alpha))

    def roots(self, window, index, count: int, gen):
        roots = self._site_scale * simulate.frechet_of(gen.random(count), self.alpha)
        return roots, lambda idx: self._given_root(window, index, roots[idx], gen)

    def _roots_above(self, u: float, count: int, gen) -> np.ndarray:
        """X(point) given X(point) > u: X(point) = s Z with s the one-site
        scale, so given the event it is s Z with Z above u / s."""
        scale = self._site_scale
        return scale * simulate.frechet_above(gen, np.full(count, u / scale), self.alpha)

    def conditional_fields(self, window, point, u: float, count: int, gen):
        """Fields given X(point) > u, sampled exactly: roots from
        ``_roots_above``, rows given them."""
        return self._given_root(window, window.index(point),
                                self._roots_above(u, count, gen), gen)


@dataclass(frozen=True)
class MaxLinear(_MaxStable):
    """Max-linear field X(t) = max(Z(t), max_o w_o Z(t + o)) driven by iid
    Frechet(alpha) noise Z, P(Z <= z) = exp(-z^-alpha); ``stencil`` holds
    the (o, w_o) pairs, offsets of one dimension, none of them 0, weights
    in [0, 1].  The empty stencil is iid noise.

    Every sampler but ``fields`` draws from the law, by max-stability:
    max_s c_s Z(s) has the law of (sum_s c_s^alpha)^(1/alpha) Z, and the
    term J attaining it is independent of its value, P(J = j) ∝ c_j^alpha.
    Block maxima take one variable, and ``run_maxima`` one per atom plus
    one for the rest of the block.

    ``_exponents`` holds the instance's memo of ``exponent``; it is left
    out of ``==``, the hash and the config.
    """

    stencil: tuple[tuple[tuple[int, ...], float], ...] = ()
    alpha: float = 1.0
    _exponents: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        st = tuple(
            (tuple(int(x) for x in o), float(w)) for o, w in dict(self.stencil).items()
        )
        if len({len(o) for o, _ in st}) > 1:
            raise ValueError("stencil offsets must share a dimension")
        if any(all(x == 0 for x in o) for o, _ in st):
            raise ValueError("offset 0 is implicit with weight 1")
        for o, w in st:
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"stencil weight {w} at offset {o} outside [0,1]")
        object.__setattr__(self, "stencil", st)

    @property
    def dim(self) -> int | None:
        return len(self.stencil[0][0]) if self.stencil else None

    @property
    def radius(self) -> int:
        return max((max(abs(x) for x in o) for o, _ in self.stencil), default=0)

    @property
    def weights(self) -> dict[tuple[int, ...], float]:
        return dict(self.stencil)

    def _atoms(self, dim: int) -> list[tuple[tuple[int, ...], float]]:
        """(offset, w) of the noise sites that reach the point: itself, w = 1,
        then the positive-weight stencil offsets."""
        return [((0,) * dim, 1.0)] + [(o, w) for o, w in self.stencil if w > 0.0]

    def _reach(self, window, mask=None) -> np.ndarray:
        """c_s on ``window`` dilated by the stencil radius: the largest weight
        through which noise site s reaches a site of ``window`` where the
        boolean ``mask`` (default: everywhere) holds, 1 at those sites, 0
        where no positive weight reaches."""
        radius, shape = self.radius, window.shape
        on = True if mask is None else mask  # True keeps w * on == w; c[core][True] is all of it
        c = np.zeros(window.dilate(radius).shape)
        for o, w in self.stencil:
            sl = tuple(slice(radius + off, radius + off + s) for off, s in zip(o, shape))
            np.maximum(c[sl], w * on, out=c[sl])
        c[tuple(slice(radius, radius + s) for s in shape)][on] = 1.0
        return c

    def exponent(self, window, mask=None) -> float:
        """V = sum_s c_s^alpha over ``_reach(window, mask)``, so that P(max of
        X over the sites of ``window`` where ``mask`` holds <= u) =
        exp(-V u^-alpha).  Without a mask the value is memoised on the
        instance, keyed by the window: a model lives for one command, whose
        classical chunks all ask for the same V; masked values are
        computed on every call."""
        if mask is None:
            if window not in self._exponents:
                self._exponents[window] = float((self._reach(window) ** self.alpha).sum())
            return self._exponents[window]
        return float((self._reach(window, mask) ** self.alpha).sum())

    def run_index(self, window, point, u: float) -> float:
        """The exact P(max of X over ``window`` minus ``point`` <= u given
        X(point) > u), from the exponents V of the window B, of B minus the
        point c and of c: [exp(-V_(B-c) u^-alpha) - exp(-V_B u^-alpha)] /
        (1 - exp(-V_c u^-alpha))."""
        ua = check_level(u) ** -self.alpha
        rest = _without(window, point)
        v_rest, v_all = self.exponent(window, rest), self.exponent(window)
        return (math.exp(-v_rest * ua) * -math.expm1((v_rest - v_all) * ua)
                / -math.expm1(-self.exponent(window, ~rest) * ua))

    @functools.cached_property
    def _site_scale(self) -> float:
        """(1 + sum of w^alpha over the stencil)^(1/alpha), computed once per
        instance: a model lives for one command, whose level bisection calls
        ``exceed_prob`` about 64 times per threshold."""
        rest = self._atoms(0)[1:]  # offsets unread; 1.0 is added last, as always
        return (1.0 + sum(w**self.alpha for _, w in rest)) ** (1 / self.alpha)

    def _spectral_atoms(self, dim: int) -> list[dict]:
        """Atom k of ``_atoms`` (weight w_k) is Theta_k(t) = w(k - t) / w_k, with
        P(K = k) = w_k^alpha / S, S the sum of the w_k^alpha and c = S, so
        m_k(t) = w(k - t)^alpha: w_o^alpha at t = k - o for each atom o.
        ``Fraction``s of the decimal weights at integer alpha."""
        a = self.alpha
        integer = float(a).is_integer()
        atoms = [(o, Fraction(str(w)) ** int(a) if integer else w**a)
                 for o, w in self._atoms(dim)]
        return [{tuple(x - y for x, y in zip(k, o)): p for o, p in atoms} for k, _ in atoms]

    def fields(self, window, count: int, gen) -> np.ndarray:
        return simulate.mma_batch(self, window, count, gen)

    def block_maxima(self, window, count: int, gen) -> np.ndarray:
        scale = self.exponent(window) ** (1 / self.alpha)
        return scale * simulate.frechet_of(gen.random(count), self.alpha)

    def clusters(self, window, r, u: float, gen) -> np.ndarray:
        """The default's blocks, to the bit, from the noise that ``fields``
        draws, building only the blocks whose noise region (the block
        dilated by the radius) holds a uniform U above exp(-(u/2)^-alpha).
        Every weight is at most 1, so X(t) > u needs Z(s) > u at a noise
        site s of the region, and Z = (-ln U)^(-1/alpha) increases in U: the
        factor 2 covers the rounding of Z, and the level moves one float
        down for the rounding of exp.  The built blocks take the field's
        own element operations on a copy of their noise regions."""
        from . import cluster  # cluster imports this module

        radius, r, shape = self.radius, np.array(r), np.array(window.shape)
        noise = gen.random((1, *window.dilate(radius).shape))[0]
        level = np.nextafter(math.exp(-((u / 2) ** -self.alpha)), 0.0)
        hot = np.transpose(np.unravel_index(np.flatnonzero(noise > level), noise.shape))
        # the noise at array index s reaches the window's array indices
        # s - 2 radius ... s, so its blocks lo ... hi along each axis
        lo = np.maximum(hot - 2 * radius, 0) // r
        hi = np.minimum(hot, shape - 1) // r
        built = np.zeros(shape // r, dtype=bool)
        for step in np.ndindex(*((hi - lo).max(axis=0, initial=0) + 1).tolist()):
            b = lo + step
            built[tuple(b[(b <= hi).all(axis=1)].T)] = True
        regions = sliding_window_view(noise, tuple(r + 2 * radius))[
            tuple(slice(None, None, k) for k in r)]
        z = simulate.frechet_of(regions[built], self.alpha)
        x = simulate.stencil_max(self, z, radius, tuple(r))
        return cluster.nonempty_blocks(x.reshape(len(x), r.prod()) / u)

    def _attaining(self, items, count: int, gen) -> np.ndarray:
        """The atom J attaining each root, P(J = j) ∝ w_j^alpha."""
        p = np.array([w for _, w in items]) ** self.alpha
        return gen.choice(len(items), size=count, p=p / p.sum())

    def _atom_noise(self, items, r: np.ndarray, attains: np.ndarray, gen) -> np.ndarray:
        """Z at each atom's site given the roots ``r``, one row per atom: r / w_J
        at the attaining atom J, Frechet below r / w_i at the others."""
        out = np.empty((len(items), len(r)))
        for j, (_, w) in enumerate(items):
            below = simulate.frechet_below(gen, r / w, self.alpha)
            out[j] = np.where(attains == j, r / w, below)
        return out

    def _given_root(self, window, index, r: np.ndarray, gen) -> np.ndarray:
        """X = max_j w_j Z(site j) over the ``_atoms``: the term J attaining r
        is drawn by ``_attaining``, the atoms' noise by ``_atom_noise``, and
        the rest of the dilated window is unconditioned."""
        items = self._atoms(window.dim)
        attains = self._attaining(items, len(r), gen)
        radius = self.radius
        z = simulate.frechet_of(gen.random((len(r), *window.dilate(radius).shape)), self.alpha)
        for (o, _), noise in zip(items, self._atom_noise(items, r, attains, gen)):
            z[(slice(None), *(radius + i + d for i, d in zip(index, o)))] = noise
        x = simulate.stencil_max(self, z, radius, window.shape)
        x[(slice(None), *index)] = r
        return x

    def run_maxima(self, window, point, u: float, count: int, gen) -> np.ndarray:
        """The max over the window minus the point is max_s c_s Z(s), c from
        ``_reach`` of the window minus the point.  The atoms' noise is drawn
        given the roots as in ``_given_root``; the other terms take one
        Frechet variable scaled by V_rest^(1/alpha), V_rest their sum of
        c_s^alpha."""
        items, radius = self._atoms(window.dim), self.radius
        index = window.index(point)
        c = self._reach(window, _without(window, point))
        sites = tuple(np.array([[radius + i + d for i, d in zip(index, o)]
                                for o, _ in items]).T)
        c_atoms = c[sites]
        c[sites] = 0.0
        v_rest = float((c**self.alpha).sum())
        r = self._roots_above(u, count, gen)
        noise = self._atom_noise(items, r, self._attaining(items, count, gen), gen)
        rest = v_rest ** (1 / self.alpha) * simulate.frechet_of(gen.random(count), self.alpha)
        return np.maximum(rest, (c_atoms[:, None] * noise).max(axis=0))

    def to_config(self) -> dict:
        """In the format of the constructor that names the stencil's shape:
        ``IIDFrechet`` for the empty one, ``MaxMovingAverage`` for offsets
        ``MMA_OFFSETS`` in that order, else ``GeneralMaxMovingAverage``.
        The stencil formats write an "alpha" key only at alpha != 1, so
        every alpha = 1 config and digest is as it was before they had one."""
        if not self.stencil:
            return {"variant": "IIDFrechet", "alpha": self.alpha}
        mma = tuple(o for o, _ in self.stencil) == MMA_OFFSETS
        variant, key = ("MaxMovingAverage", "a") if mma else ("GeneralMaxMovingAverage", "stencil")
        cfg = {"variant": variant, key: {_offset_key(o): w for o, w in self.stencil}}
        return cfg if self.alpha == 1 else cfg | {"alpha": self.alpha}


def IIDFrechet(alpha: float = 1.0) -> MaxLinear:
    """Independent Frechet(alpha) noise: the max-linear field with the empty
    stencil."""
    return MaxLinear(alpha=alpha)


def MaxMovingAverage(a, alpha: float = 1.0) -> MaxLinear:
    """Two-dimensional max-moving average with diagonal local interaction:
    X(t) = max(Z(t), max over the four diagonal offsets o of a[o] Z(t+o)),
    Z iid Frechet(alpha), with the weights ``a`` in ``MMA_OFFSETS``
    order."""
    a = tuple(float(x) for x in a)
    if len(a) != 4:
        raise ValueError("need exactly four weights")
    return MaxLinear(tuple(zip(MMA_OFFSETS, a)), alpha)


def GeneralMaxMovingAverage(stencil, alpha: float = 1.0) -> MaxLinear:
    """Max-moving average over an arbitrary finite, nonempty stencil of
    (offset, weight) pairs, driven by iid Frechet(alpha) noise."""
    stencil = dict(stencil)
    if not stencil:
        raise ValueError("stencil must be nonempty")
    return MaxLinear(tuple(stencil.items()), alpha)


@dataclass(frozen=True)
class BrownResnick(_MaxStable):
    """Max-stable field X(t) = max_i U_i exp(W_i(t) - sigma2(t)/2).

    U_i are the points of a Poisson process with intensity du/u^2 and the
    W_i are iid Gaussian fields described by ``variogram``.  Margins are
    standard Frechet(1).  Simulation is exact, by extremal functions (see
    ``gaussian.brown_resnick_batch``), unconditioned or given X at one site.
    """

    variogram: VariogramSpec

    @property
    def dim(self) -> int:
        return self.variogram.dim

    def fields(self, window, count: int, gen) -> np.ndarray:
        return gaussian.brown_resnick_batch(self.variogram, window, count, gen)

    def _given_root(self, window, index, r: np.ndarray, gen) -> np.ndarray:
        """The extremal-function walk starts at the point, with first
        arrival 1/r there (given Z(point) = r, the other functions form the
        Poisson process below r); 1/(1/r) can miss r by an ulp."""
        pts = window.point_array()
        k = int(np.ravel_multi_index(index, window.shape))
        order = np.r_[k, 0:k, k + 1 : len(pts)]  # the point first
        x = np.empty((len(r), len(pts)))
        x[:, order] = gaussian._extremal_walk(self.variogram, pts[order], 1.0 / r, gen)
        x[:, k] = r
        return x.reshape(len(r), *window.shape)

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


_MAX_RANK = 170  # largest m with m! representable as a float

_FACTORIALS = np.array([float(math.factorial(m)) for m in range(1, _MAX_RANK + 1)])


def factorial_rank(z: np.ndarray) -> np.ndarray:
    """Index m >= 1 with a_m <= z < a_(m+1) for the boundaries a_m = m!.

    Any float is below 171!, so the boundary table never overflows; block
    arithmetic elsewhere works on the z/a_m ratio scale.
    """
    return np.searchsorted(_FACTORIALS, z, side="right")


@dataclass(frozen=True)
class CounterexampleField(Model):
    """Anti-diagonal parity field on Z^2 built from exchangeable Pareto pairs.

    Each level set {t1 + t2 = c} carries an independent pair (Z1, Z2) of
    ``pairs``; the coordinate used at t is chosen by the parity of t1.
    Marginals are standard Pareto(alpha) but joint regular variation fails.
    """

    alpha: float = 1.0
    dim = 2

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")

    def exceed_prob(self, u: float) -> float:
        return min(1.0, check_level(u) ** -self.alpha)

    def _in_block(self, gen, m, shape) -> np.ndarray:
        """Pareto(alpha) conditioned to [a_m, a_(m+1)), returned as Z / a_m; the
        rank ``m`` is one number or an array of ``shape``."""
        v = gen.random(shape)
        ratio_tail = (m + 1.0) ** (-self.alpha)  # (a_(m+1)/a_m)^-alpha
        return (1.0 - v * (1.0 - ratio_tail)) ** (-1.0 / self.alpha)

    def pairs(self, count: int, gen) -> np.ndarray:
        """``count`` exchangeable pairs (Z1, Z2), a (count, 2) array.

        The latent variable Z is standard Pareto(alpha).  On odd factorial
        blocks [a_(2n-1), a_(2n)) the pair is the diagonal (Z, Z); on even
        blocks the coordinates are redrawn independently from the block's
        conditional Pareto law, Z1 first.
        """
        z = (1.0 - gen.random(count)) ** (-1.0 / self.alpha)
        m = factorial_rank(z)
        out = np.empty((count, 2))
        odd = (m % 2) == 1
        out[odd, 0] = out[odd, 1] = z[odd]
        even = m[~odd]
        a_m = _FACTORIALS[even - 1]
        out[~odd, 0] = self._in_block(gen, even, even.shape) * a_m
        out[~odd, 1] = self._in_block(gen, even, even.shape) * a_m
        return out

    def fields(self, window, count: int, gen) -> np.ndarray:
        """Z1 of each site's anti-diagonal pair at odd t1, Z2 at even t1."""
        t1 = np.arange(window.lo[0], window.hi[0] + 1)[:, None]
        diag = t1 + np.arange(window.lo[1], window.hi[1] + 1) - sum(window.lo)
        n_diag = int(diag[-1, -1]) + 1  # the last site is on the last one
        pairs = self.pairs(count * n_diag, gen).reshape(count, n_diag, 2)
        return np.where(t1 % 2 == 1, pairs[:, diag, 0], pairs[:, diag, 1])

    def scaled_box_prob(self, rank: int, n_draws: int, rng):
        """Importance-sampled a_m^alpha P(a_m^-1 (Z1,Z2) in (1,2]^2) at rank m,
        an ``MCEstimate`` on that scale: the latent Pareto variable is drawn
        inside the factorial block [a_m, a_(m+1)) in ratio space, so factorial
        scales never materialize, and reweighted by the exact block mass."""
        from .tailfield import MCEstimate  # tailfield imports this module

        if rank < 1:
            raise ValueError("rank must be >= 1")
        weight = 1.0 - (rank + 1.0) ** (-self.alpha)  # a_m^alpha * P(Z in block m)
        draws = self._in_block(rng.generator(), rank, (n_draws, 2))
        if rank % 2 == 1:
            hit = draws[:, 0] <= 2.0  # diagonal block: both coordinates equal Z
        else:
            hit = (draws <= 2.0).all(axis=1)
        est = MCEstimate.proportion(int(hit.sum()), n_draws)
        return MCEstimate(weight * est.value, weight * est.se, n_draws)

    def exact_box_prob(self, rank: int) -> float:
        """Exact a_m^alpha-rescaled box probability at rank m: the block tail
        mass 1 - 2^-alpha on odd (diagonal) blocks, its square over the
        block mass on even ones."""
        c = 1.0 - 2.0**-self.alpha
        if rank % 2 == 1:
            return c
        return c**2 / (1.0 - (rank + 1.0) ** (-self.alpha))

    def to_config(self) -> dict:
        return {"variant": "CounterexampleField", "alpha": self.alpha}

    @classmethod
    def from_config(cls, cfg: dict) -> "CounterexampleField":
        return cls(alpha=_alpha(cfg))


@dataclass(frozen=True)
class Mixture(Model):
    """Whole-field mixture: each realization draws one component field."""

    components: tuple[tuple[float, Model], ...]

    def __post_init__(self):
        comps = tuple((float(w), m) for w, m in self.components)
        if not comps or not all(0 <= w < math.inf for w, _ in comps):
            raise ValueError("component weights must be nonnegative and finite")
        if abs(sum(w for w, _ in comps) - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        if len({m.dim for _, m in comps} - {None}) > 1:
            raise ValueError("mixture components disagree on dimension")
        if len({m.alpha for _, m in comps}) != 1:
            raise ValueError("mixture components disagree on tail index")
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int | None:
        return next((m.dim for _, m in self.components if m.dim is not None), None)

    @property
    def alpha(self) -> float:
        return self.components[0][1].alpha

    @property
    def radius(self) -> int:
        return max(m.radius for _, m in self.components)

    def exceed_prob(self, u: float) -> float:
        return sum(w * m.exceed_prob(u) for w, m in self.components)

    def _spectral_atoms(self, dim: int) -> list[dict]:
        """The components' atoms on Z^dim (which a dimensionless IID component
        takes on) times their weights w_i: given an exceedance, the component
        is i with probability ∝ w_i c_i, and c_i is in its atoms."""
        return [{t: Fraction(str(w)) * v for t, v in m.items()}
                for w, comp in self.components for m in comp._spectral_atoms(dim)]

    def _pick(self, count: int, gen, entry, *args, p=None):
        """Each replicate's component, drawn with probabilities ``p`` (default:
        the mixture weights), then ``entry(component, *args, k, gen)`` for the
        k replicates of each component, in component order: the picks and
        the components' draws."""
        p = [w for w, _ in self.components] if p is None else p
        picks = gen.choice(len(self.components), size=count, p=p)
        return picks, [entry(m, *args, np.count_nonzero(picks == ci), gen)
                       for ci, (_, m) in enumerate(self.components)]

    def fields(self, window, count: int, gen) -> np.ndarray:
        return _scatter(*self._pick(count, gen, simulate.field_batch, window))

    def block_maxima(self, window, count: int, gen) -> np.ndarray:
        return _scatter(*self._pick(count, gen, simulate.block_max_batch, window))

    def roots(self, window, index, count: int, gen):
        """Each replicate's root from the component ``_pick`` gives it; kept rows
        come from each component's own row builder, in component order."""
        point = tuple(a + i for a, i in zip(window.lo, index))
        picks, parts = self._pick(count, gen, simulate.field_roots, window, point)

        def rows(kept):
            out = np.empty((len(kept), *window.shape))
            for ci, (_, build) in enumerate(parts):
                sel = picks[kept] == ci
                if sel.any():  # by position among the component's replicates
                    out[sel] = build(np.searchsorted(np.flatnonzero(picks == ci), kept[sel]))
            return out

        return _scatter(picks, [roots for roots, _ in parts]), rows

    def _given_exceedance(self, u: float) -> np.ndarray:
        """The law of the component given |X| > u at a site."""
        p = np.array([w * m.exceed_prob(u) for w, m in self.components])
        return p / p.sum()

    def conditional_fields(self, window, point, u: float, count: int, gen):
        return _scatter(*self._pick(count, gen, simulate.conditional_field_batch,
                                    window, point, u, p=self._given_exceedance(u)))

    def run_maxima(self, window, point, u: float, count: int, gen) -> np.ndarray:
        return _scatter(*self._pick(count, gen, simulate.run_max_batch,
                                    window, point, u, p=self._given_exceedance(u)))

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


def _scatter(picks, parts) -> np.ndarray:
    """One array whose rows where ``picks`` is j hold ``parts[j]``, in order."""
    out = np.empty((len(picks), *parts[0].shape[1:]))
    for j, part in enumerate(parts):
        out[picks == j] = part
    return out


def _mma_from_config(cfg: dict) -> MaxLinear:
    a = {_parse_offset(k): float(v) for k, v in cfg["a"].items()}
    if set(a) != set(MMA_OFFSETS):
        raise ValueError(f"weights must be keyed by the offsets {MMA_OFFSETS}")
    return MaxMovingAverage(a=tuple(a[o] for o in MMA_OFFSETS), alpha=_alpha(cfg))


# config variant -> loader of that format
MODEL_VARIANTS = {
    "IIDFrechet": lambda cfg: IIDFrechet(alpha=_alpha(cfg)),
    "MaxMovingAverage": _mma_from_config,
    "GeneralMaxMovingAverage": lambda cfg: GeneralMaxMovingAverage(
        stencil=tuple((_parse_offset(k), float(v)) for k, v in cfg["stencil"].items()),
        alpha=_alpha(cfg),
    ),
    "BrownResnick": BrownResnick.from_config,
    "CounterexampleField": CounterexampleField.from_config,
    "Mixture": Mixture.from_config,
}


def stencil_radius(spec: Model) -> int:
    """Sup-norm radius of dependence propagation per application of the stencil."""
    return spec.radius


def model_from_config(cfg: dict) -> Model:
    variant = cfg["variant"]
    if variant not in MODEL_VARIANTS:
        raise ValueError(f"unknown model variant {variant!r}")
    return MODEL_VARIANTS[variant](cfg)


def model_digest(spec: Model) -> str:
    """Short stable digest of a model's canonical config."""
    blob = json.dumps(spec.to_config(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def model_tag(spec: Model) -> str:
    return f"{spec.to_config()['variant']}:{model_digest(spec)}"
