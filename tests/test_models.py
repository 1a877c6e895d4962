import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailfields.models import (
    AdditiveFBM,
    BrownResnick,
    CounterexampleField,
    CustomVariogram,
    GeneralMaxMovingAverage,
    IIDFrechet,
    MaxMovingAverage,
    Mixture,
    marginal_exceed_prob,
    model_digest,
    model_dim,
    model_from_config,
    model_to_config,
    stencil_radius,
    tail_index,
)

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
    assert model_dim(MMA) == 2
    assert model_dim(IIDFrechet(2.0)) is None
    assert model_dim(BrownResnick(variogram=AdditiveFBM(hurst=(0.5, 0.5, 0.5)))) == 3
    assert tail_index(MMA) == 1.0
    assert tail_index(IIDFrechet(2.5)) == 2.5
    assert tail_index(CounterexampleField(alpha=1.5)) == 1.5
    assert stencil_radius(MMA) == 1
    assert stencil_radius(GeneralMaxMovingAverage(stencil=(((2, 0, 1), 0.3),))) == 2


def test_marginals_closed_form():
    assert marginal_exceed_prob(IIDFrechet(1.0), 1.0) == pytest.approx(1 - math.exp(-1))
    # weighted max over five independent Frechet sites
    assert marginal_exceed_prob(MMA, 10.0) == pytest.approx(1 - math.exp(-0.25))
    assert marginal_exceed_prob(BrownResnick(variogram=AdditiveFBM(hurst=(0.5,))), 2.0) == pytest.approx(1 - math.exp(-0.5))
    assert marginal_exceed_prob(CounterexampleField(alpha=2.0), 4.0) == pytest.approx(1 / 16)
    mix = Mixture(components=((0.5, IIDFrechet(1.0)), (0.5, MMA)))
    assert marginal_exceed_prob(mix, 5.0) == pytest.approx(
        0.5 * marginal_exceed_prob(IIDFrechet(1.0), 5.0) + 0.5 * marginal_exceed_prob(MMA, 5.0)
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
    assert model_from_config(model_to_config(spec)) == spec


@given(st.tuples(*[st.integers(0, 100)] * 4))
@settings(max_examples=50, deadline=None)
def test_mma_round_trip_hypothesis(raw):
    spec = MaxMovingAverage(a=tuple(x / 100 for x in raw))
    assert model_from_config(model_to_config(spec)) == spec


def test_brown_resnick_config_ignores_old_tolerance_key():
    cfg = model_to_config(BrownResnick(variogram=AdditiveFBM(hurst=(0.3, 0.8))))
    assert model_from_config({**cfg, "accuracy": 1e-3}) == model_from_config(cfg)


def test_digest_stable_and_distinct():
    assert model_digest(MMA) == model_digest(MaxMovingAverage(a=(0.1, 0.7, 0.6, 0.1)))
    assert model_digest(MMA) != model_digest(IIDFrechet(1.0))


def test_custom_variogram_not_serializable():
    spec = BrownResnick(
        variogram=CustomVariogram(dim=2, gamma=lambda t: 1.0, sigma2=lambda t: 1.0)
    )
    with pytest.raises(ValueError):
        model_to_config(spec)
