import numpy as np
import pytest

from tailfields import rng as rng_mod
from tailfields.rng import (
    LANE_STRIDE,
    RngStream,
    chunk_sizes,
    map_chunks,
    single_threaded_blas,
)


def test_same_stream_same_output():
    a = RngStream(123, 9).generator().random(16)
    b = RngStream(123, 9).generator().random(16)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(123, 0).generator().random(16)
    b = RngStream(123, 1).generator().random(16)
    c = RngStream(124, 0).generator().random(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_substream_and_lane_arithmetic():
    s = RngStream(7, 5)
    assert s.substream(3).stream_id == 8
    assert s.lane(2).stream_id == 5 + 2 * LANE_STRIDE
    assert s.lane(1).substream(4) == RngStream(7, 5 + LANE_STRIDE + 4)


def test_seed_validation():
    with pytest.raises(ValueError):
        RngStream(-1)


def test_chunk_sizes():
    assert chunk_sizes(10, 4) == [4, 4, 2]
    assert chunk_sizes(8, 4) == [4, 4]
    assert chunk_sizes(0, 4) == []


def test_map_chunks_thread_invariance():
    def work(start, count, stream):
        return (start, stream.generator().random(count).sum())

    a = map_chunks(work, 1000, 64, RngStream(42), threads=1)
    b = map_chunks(work, 1000, 64, RngStream(42), threads=4)
    assert a == b
    # chunks cover the range in order
    assert [s for s, _ in a] == list(range(0, 1000, 64))


def test_single_threaded_blas_restores_thread_count():
    api = rng_mod._openblas_threads_api()
    if api is None:
        pytest.skip("NumPy's BLAS is not OpenBLAS")
    get, _ = api
    before = get()
    a = np.arange(64 * 100, dtype=float).reshape(64, 100) / 7.0
    with single_threaded_blas():
        assert get() == 1
        inside = a @ a.T
    assert get() == before
    np.testing.assert_array_equal(inside, a @ a.T)
