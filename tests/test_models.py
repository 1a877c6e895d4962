import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailfields.extremal import level_u
from tailfields.lattice import centered_box

from tailfields.models import (
    AdditiveFBM,
    BrownResnick,
    CounterexampleField,
    CustomVariogram,
    GeneralMaxMovingAverage,
    IIDFrechet,
    MaxMovingAverage,
    MODEL_VARIANTS,
    Mixture,
    Model,
    model_digest,
    model_from_config,
)
from tailfields.rng import RngStream
from tailfields.simulate import (
    TooFewEventsError,
    block_max_batch,
    conditional_field_batch,
    field_batch,
    field_roots,
    frechet_batch,
)
from tailfields.tailfield import estimate_tail_field

MMA = MaxMovingAverage(a=(0.1, 0.7, 0.6, 0.1))


def test_validation_errors():
    with pytest.raises(ValueError):
        IIDFrechet(alpha=0.0)
    with pytest.raises(ValueError):
        MaxMovingAverage(a=(1.3, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        AdditiveFBM(hurst=(0.5, 1.0))
    with pytest.raises(ValueError):
        Mixture(components=((0.5, MMA), (0.4, MMA)))
    with pytest.raises(ValueError):
        GeneralMaxMovingAverage(stencil=(((0, 0), 0.5),))


def test_dims_and_indices():
    assert MMA.dim == 2
    assert IIDFrechet(2.0).dim is None
    assert BrownResnick(variogram=AdditiveFBM(hurst=(0.5, 0.5, 0.5))).dim == 3
    assert MMA.alpha == 1.0
    assert IIDFrechet(2.5).alpha == 2.5
    assert CounterexampleField(alpha=1.5).alpha == 1.5
    assert MMA.radius == 1
    assert GeneralMaxMovingAverage(stencil=(((2, 0, 1), 0.3),)).radius == 2
    assert MMA.stencil == (((-1, -1), 0.1), ((-1, 1), 0.7), ((1, 1), 0.6), ((1, -1), 0.1))


def test_marginals_closed_form():
    assert IIDFrechet(1.0).exceed_prob(1.0) == pytest.approx(1 - math.exp(-1))
    # weighted max over five independent Frechet sites
    assert MMA.exceed_prob(10.0) == pytest.approx(1 - math.exp(-0.25))
    assert BrownResnick(variogram=AdditiveFBM(hurst=(0.5,))).exceed_prob(2.0) == pytest.approx(1 - math.exp(-0.5))
    assert CounterexampleField(alpha=2.0).exceed_prob(4.0) == pytest.approx(1 / 16)
    mix = Mixture(components=((0.5, IIDFrechet(1.0)), (0.5, MMA)))
    assert mix.exceed_prob(5.0) == pytest.approx(
        0.5 * IIDFrechet(1.0).exceed_prob(5.0) + 0.5 * MMA.exceed_prob(5.0)
    )


ROUND_TRIP_CASES = [
    IIDFrechet(alpha=2.5),
    MMA,
    GeneralMaxMovingAverage(stencil=(((1, 0), 0.25), ((0, -2), 0.75))),
    BrownResnick(variogram=AdditiveFBM(hurst=(0.3, 0.8))),
    CounterexampleField(alpha=1.5),
    Mixture(components=((0.5, MMA), (0.5, MaxMovingAverage(a=(0.6, 0.2, 0.6, 0.1))))),
]


@pytest.mark.parametrize("spec", ROUND_TRIP_CASES, ids=lambda s: type(s).__name__)
def test_config_round_trip(spec):
    assert model_from_config(spec.to_config()) == spec


def test_round_trip_cases_cover_every_variant():
    assert {type(s).__name__ for s in ROUND_TRIP_CASES} == set(MODEL_VARIANTS)


@given(st.tuples(*[st.integers(0, 100)] * 4))
@settings(max_examples=50, deadline=None)
def test_mma_round_trip_hypothesis(raw):
    spec = MaxMovingAverage(a=tuple(x / 100 for x in raw))
    assert model_from_config(spec.to_config()) == spec


def test_brown_resnick_config_ignores_old_tolerance_key():
    cfg = BrownResnick(variogram=AdditiveFBM(hurst=(0.3, 0.8))).to_config()
    assert model_from_config({**cfg, "accuracy": 1e-3}) == model_from_config(cfg)


def test_digest_stable_and_distinct():
    assert model_digest(MMA) == model_digest(MaxMovingAverage(a=(0.1, 0.7, 0.6, 0.1)))
    assert model_digest(MMA) != model_digest(IIDFrechet(1.0))


def test_custom_variogram_not_serializable():
    spec = BrownResnick(
        variogram=CustomVariogram(dim=2, gamma=lambda t: 1.0, sigma2=lambda t: 1.0)
    )
    with pytest.raises(ValueError):
        spec.to_config()


class ScaledFrechet(Model):
    """Twice IID Frechet(1) noise, defining only the members a model must."""

    alpha = 1.0

    def exceed_prob(self, u):
        return -math.expm1(-2.0 / u)

    def fields(self, window, count, gen):
        return 2.0 * frechet_batch(1.0, window, count, gen)


def test_minimal_model_runs_through_the_package():
    spec = ScaledFrechet()
    window = centered_box(2, 2)

    def gen():
        return RngStream(3).generator()

    x = field_batch(spec, window, 50, gen())
    assert np.array_equal(x, 2.0 * frechet_batch(1.0, window, 50, gen()))
    assert np.array_equal(block_max_batch(spec, window, 50, gen()), x.reshape(50, -1).max(axis=1))
    roots, rows = field_roots(spec, window, (1, -1), 50, gen())
    assert np.array_equal(roots, x[:, 3, 1])
    assert np.array_equal(rows([4, 7]), x[[4, 7]])
    with pytest.raises(TooFewEventsError):
        conditional_field_batch(spec, window, (0, 0), 1.0, 5, gen())
    u = level_u(spec, (10, 10), 1.0)
    assert 100 * spec.exceed_prob(u) == pytest.approx(1.0)
    tails = estimate_tail_field(spec, window, 20_000, RngStream(4), q=0.99)
    assert tails.alpha == 1.0 and 150 <= len(tails) <= 250
    # the root norm of x^-1 X given X(0) > x is Pareto(1): half of it above 2
    assert np.mean(tails.root_norm > 2.0) == pytest.approx(0.5, abs=0.15)
