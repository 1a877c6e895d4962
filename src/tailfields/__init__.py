"""Heavy-tailed stationary random fields on Z^k: samplers, tail/spectral
field estimation, spatial extremal indices, and cluster statistics."""

__version__ = "0.1.0"

from .rng import RngStream
from .lattice import (
    Window,
    InvariantOrder,
    corner_point,
    orthant_region,
)
from .models import (
    IIDFrechet,
    MaxMovingAverage,
    GeneralMaxMovingAverage,
    BrownResnick,
    CounterexampleField,
    Mixture,
    AdditiveFBM,
    CustomVariogram,
    model_to_config,
    model_from_config,
    model_digest,
)

__all__ = [
    "RngStream",
    "Window",
    "InvariantOrder",
    "corner_point",
    "orthant_region",
    "IIDFrechet",
    "MaxMovingAverage",
    "GeneralMaxMovingAverage",
    "BrownResnick",
    "CounterexampleField",
    "Mixture",
    "AdditiveFBM",
    "CustomVariogram",
    "model_to_config",
    "model_from_config",
    "model_digest",
    "__version__",
]
