"""MaxPool2D's strided pairwise maxima are byte-equal to a reshape-max.

``MaxPool2D.forward`` reduces each window with ``np.maximum`` over strided
views instead of reshaping to ``(n, c, hh, s, ww, s)`` and calling
``max(axis=(3, 5))`` (which copies a non-contiguous input first).  Max is
not order-free on floats: ``maximum(-0.0, +0.0)`` keeps its first argument
and NaN propagates, and ReLU (``x * mask``) emits ``-0.0``, so signed-zero
ties are real traffic.  Every 2x2 window over {-0, +0, 1, -1, NaN} is
checked, on a C-contiguous input and on the NHWC-transposed view a fused
convolution hands the ReLU/pool pair.
"""

import itertools

import numpy as np
import pytest

from repro.nn.layers import MaxPool2D

VALUES = [-0.0, 0.0, 1.0, -1.0, np.nan]


def _reshape_max(x, s):
    """The reference: the reshape-max reduction the layer used before."""
    n, c, h, w = x.shape
    hh, ww = h // s, w // s
    return x[:, :, : hh * s, : ww * s].reshape(n, c, hh, s, ww, s).max(axis=(3, 5))


def _nhwc_view(x):
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _windows():
    """All 625 windows: as channels of one 2x2 map, and tiled into a grid."""
    wins = np.array(list(itertools.product(VALUES, repeat=4)))
    channels = wins.reshape(1, 625, 2, 2)
    grid = wins.reshape(25, 25, 2, 2).transpose(0, 2, 1, 3).reshape(50, 50)
    tiled = np.stack([grid, grid[::-1, ::-1]])[None]
    ragged = np.pad(tiled, ((0, 0), (0, 0), (0, 1), (0, 1)), constant_values=7.0)
    return {"channels": channels, "tiled": tiled, "ragged": ragged}


@pytest.mark.parametrize("name", ["channels", "tiled", "ragged"])
@pytest.mark.parametrize("layout", ["c-contiguous", "nhwc-view"])
def test_every_window_byte_equal(name, layout):
    x = _windows()[name]
    if layout == "nhwc-view":
        x = _nhwc_view(x)
        assert not x.flags.c_contiguous
    layer = MaxPool2D(2)
    out = layer.forward(x)
    ref = _reshape_max(x, 2)
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert out.tobytes() == ref.tobytes()
    # Backward reads the cached input and output.
    assert layer._x is x
    assert layer._out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("size", [1, 2, 3])
def test_random_signed_zero_batches(size):
    rng = np.random.default_rng(size)
    pool = np.array([-0.0, 0.0, 1.0, -1.0, np.nan, 2.5])
    for _ in range(40):
        shape = (rng.integers(1, 5), rng.integers(1, 5), rng.integers(size, 14), rng.integers(size, 14))
        x = pool[rng.integers(0, pool.size, size=shape)]
        for v in (x, _nhwc_view(x)):
            assert MaxPool2D(size).forward(v).tobytes() == _reshape_max(v, size).tobytes()


def test_backward_distributes_through_ties():
    x = np.array([[[[0.0, -0.0], [1.0, 1.0]]]])
    layer = MaxPool2D(2)
    layer.forward(_nhwc_view(x))
    grad = layer.backward(np.array([[[[4.0]]]]))
    assert np.array_equal(grad, np.array([[[[0.0, 0.0], [2.0, 2.0]]]]))
