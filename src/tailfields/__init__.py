"""Heavy-tailed stationary random fields on Z^k: samplers, tail/spectral
field estimation, spatial extremal indices, and cluster statistics."""

__version__ = "0.1.0"

from .rng import RngStream
from .lattice import (
    Window,
    InvariantOrder,
    corner_point,
)
from .models import (
    MaxLinear,
    IIDFrechet,
    MaxMovingAverage,
    GeneralMaxMovingAverage,
    BrownResnick,
    CounterexampleField,
    Mixture,
    AdditiveFBM,
    CustomVariogram,
    model_from_config,
    model_digest,
)

__all__ = [
    "RngStream",
    "Window",
    "InvariantOrder",
    "corner_point",
    "MaxLinear",
    "IIDFrechet",
    "MaxMovingAverage",
    "GeneralMaxMovingAverage",
    "BrownResnick",
    "CounterexampleField",
    "Mixture",
    "AdditiveFBM",
    "CustomVariogram",
    "model_from_config",
    "model_digest",
    "__version__",
]
