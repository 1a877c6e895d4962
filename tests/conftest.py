import pytest

from tailfields.lattice import centered_box
from tailfields.models import IIDFrechet, MaxMovingAverage
from tailfields.rng import RngStream
from tailfields.tailfield import estimate_tail_field, spectral_from_tail

MMA_A = (0.1, 0.7, 0.6, 0.1)
MMA_A2 = (0.6, 0.2, 0.6, 0.1)


@pytest.fixture(scope="session")
def mma_spec():
    return MaxMovingAverage(a=MMA_A)


@pytest.fixture(scope="session")
def mma_tails(mma_spec):
    """Shared medium-size batch of MMA tail-field draws (q=0.99)."""
    return estimate_tail_field(
        mma_spec, centered_box(4, 2), 300_000, RngStream(4201), q=0.99
    )


@pytest.fixture(scope="session")
def mma_spectral(mma_tails):
    return spectral_from_tail(mma_tails)


@pytest.fixture(scope="session")
def iid_tails():
    return estimate_tail_field(
        IIDFrechet(1.0), centered_box(4, 2), 200_000, RngStream(4202), q=0.999
    )


@pytest.fixture(scope="session")
def iid_spectral(iid_tails):
    return spectral_from_tail(iid_tails)
