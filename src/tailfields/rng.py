"""Counter-based random streams with deterministic substream derivation.

Every stochastic routine in the package takes an :class:`RngStream`.  A
stream is a pure value (seed, stream_id); the generator it yields is a
Philox counter-based generator keyed on that pair, so identical streams
produce identical output regardless of process, thread, or call order.

Convention for carving up the 64-bit ``stream_id`` space:

* ``substream(i)`` advances the id by ``i`` -- used for replicate or
  chunk counters within one task (i < 2**32).
* ``lane(n)`` jumps by ``n * 2**32`` -- used to give distinct tasks of
  one run non-overlapping counter ranges.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
LANE_STRIDE = 1 << 32


@dataclass(frozen=True)
class RngStream:
    """Immutable handle for a reproducible random substream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must fit in 64 unsigned bits")
        object.__setattr__(self, "stream_id", self.stream_id & _MASK64)

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, i: int) -> "RngStream":
        return RngStream(self.seed, (self.stream_id + i) & _MASK64)

    def lane(self, n: int) -> "RngStream":
        return RngStream(self.seed, (self.stream_id + n * LANE_STRIDE) & _MASK64)


def chunk_sizes(n_total: int, chunk: int) -> list[int]:
    """Split ``n_total`` work items into fixed-size chunks (last one ragged)."""
    if n_total < 0 or chunk <= 0:
        raise ValueError("need n_total >= 0 and chunk > 0")
    out = [chunk] * (n_total // chunk)
    if n_total % chunk:
        out.append(n_total % chunk)
    return out


def map_chunks(fn, n_total: int, chunk: int, rng: RngStream, threads: int = 1) -> list:
    """Run ``fn(start, count, stream)`` over fixed chunks of a replicate range.

    Chunk ``c`` covers replicates ``[c*chunk, c*chunk+count)`` and always
    receives ``rng.substream(c)``; results are returned in chunk order, so
    the merged output is independent of ``threads``.
    """
    sizes = chunk_sizes(n_total, chunk)
    tasks = []
    start = 0
    for c, count in enumerate(sizes):
        tasks.append((start, count, rng.substream(c)))
        start += count
    if threads <= 1 or len(tasks) <= 1:
        return [fn(s, c, st) for (s, c, st) in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda t: fn(*t), tasks))


@functools.cache
def _openblas_threads_api():
    """(get, set) of the OpenBLAS that NumPy links, or None if not found."""
    try:
        try:
            from numpy._core import _multiarray_umath as umath
        except ImportError:  # NumPy < 2
            from numpy.core import _multiarray_umath as umath
        lib = ctypes.CDLL(umath.__file__)
    except (ImportError, OSError):
        return None
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                return get, put
    return None


@contextlib.contextmanager
def single_threaded_blas():
    """Run NumPy's BLAS on the calling thread only inside the block.

    The package's matrix products are small (at most a few hundred
    columns), so a BLAS worker thread buys nothing: each product waits for
    a hand-off to another CPU, whose cost depends on how busy that CPU is,
    and it competes with ``map_chunks`` workers.  Results are unchanged,
    since OpenBLAS splits a product by rows and columns, never along the
    summed axis.  Does nothing when NumPy's BLAS is not OpenBLAS.
    """
    api = _openblas_threads_api()
    if api is None:
        yield
        return
    get, put = api
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
