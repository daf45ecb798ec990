"""Neural-network layers with explicit forward/backward passes."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..engine.exact import blas

__all__ = [
    "Param",
    "Layer",
    "Dense",
    "Conv2D",
    "ReLU",
    "MaxPool2D",
    "GlobalAvgPool",
    "Flatten",
    "BatchNorm2D",
    "ResidualBlock",
    "im2col",
    "col2im",
]


class Param:
    """A trainable tensor with its gradient."""

    __slots__ = ("data", "grad", "name")

    def __init__(self, data: np.ndarray, name: str = ""):
        self.data = data
        self.grad = np.zeros_like(data)
        self.name = name

    @property
    def size(self) -> int:
        return self.data.size


class Layer:
    """Base layer: stateless unless it owns :class:`Param` objects."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> List[Param]:
        return []

    def macs(self, input_shape: Tuple[int, ...]) -> int:
        """Multiply-accumulate count for one sample (Table I's MACs column)."""
        return 0

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return input_shape


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """(N, C, H, W) -> patch matrix (N*OH*OW, C*KH*KW) plus geometry."""
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    shape = (n, c, kh, kw, oh, ow)
    strides = (
        x.strides[0],
        x.strides[1],
        x.strides[2],
        x.strides[3],
        x.strides[2] * stride,
        x.strides[3] * stride,
    )
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    cols = patches.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols), oh, ow


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col` (scatter-add patches back)."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    x = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    cols6 = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    for i in range(kh):
        for j in range(kw):
            x[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += cols6[
                :, :, i, j
            ]
    if pad:
        return x[:, :, pad:-pad, pad:-pad]
    return x


class Dense(Layer):
    """Fully connected layer ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, rng=None, name: str = "dense"):
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / in_features)
        self.w = Param(rng.normal(0, scale, size=(in_features, out_features)), f"{name}.w")
        self.b = Param(np.zeros(out_features), f"{name}.b")
        self._x: Optional[np.ndarray] = None

    def forward(self, x, training=False):
        self._x = x
        return blas(x, self.w.data) + self.b.data

    def backward(self, grad):
        self.w.grad += self._x.T @ grad
        self.b.grad += grad.sum(axis=0)
        return grad @ self.w.data.T

    def params(self):
        return [self.w, self.b]

    def macs(self, input_shape):
        return self.w.data.shape[0] * self.w.data.shape[1]

    def output_shape(self, input_shape):
        return (self.w.data.shape[1],)


class Conv2D(Layer):
    """2-D convolution (N, C, H, W) -> (N, F, OH, OW)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int = 3,
        stride: int = 1,
        pad: int = 1,
        rng=None,
        name: str = "conv",
    ):
        rng = rng or np.random.default_rng(0)
        fan_in = in_channels * kernel * kernel
        scale = np.sqrt(2.0 / fan_in)
        self.w = Param(
            rng.normal(0, scale, size=(out_channels, in_channels, kernel, kernel)),
            f"{name}.w",
        )
        self.b = Param(np.zeros(out_channels), f"{name}.b")
        self.stride, self.pad, self.kernel = stride, pad, kernel
        self._cols: Optional[np.ndarray] = None
        self._x_shape = None
        self._out_hw = None

    def forward(self, x, training=False):
        f, c, kh, kw = self.w.data.shape
        cols, oh, ow = im2col(x, kh, kw, self.stride, self.pad)
        self._cols, self._x_shape, self._out_hw = cols, x.shape, (oh, ow)
        out = blas(cols, self.w.data.reshape(f, -1).T) + self.b.data
        return out.reshape(x.shape[0], oh, ow, f).transpose(0, 3, 1, 2)

    def backward(self, grad):
        f, c, kh, kw = self.w.data.shape
        n = self._x_shape[0]
        oh, ow = self._out_hw
        gmat = grad.transpose(0, 2, 3, 1).reshape(n * oh * ow, f)
        self.w.grad += (gmat.T @ self._cols).reshape(self.w.data.shape)
        self.b.grad += gmat.sum(axis=0)
        gcols = gmat @ self.w.data.reshape(f, -1)
        return col2im(gcols, self._x_shape, kh, kw, self.stride, self.pad)

    def params(self):
        return [self.w, self.b]

    def macs(self, input_shape):
        c, h, w = input_shape
        oh = (h + 2 * self.pad - self.kernel) // self.stride + 1
        ow = (w + 2 * self.pad - self.kernel) // self.stride + 1
        f = self.w.data.shape[0]
        return oh * ow * f * c * self.kernel * self.kernel

    def output_shape(self, input_shape):
        c, h, w = input_shape
        oh = (h + 2 * self.pad - self.kernel) // self.stride + 1
        ow = (w + 2 * self.pad - self.kernel) // self.stride + 1
        return (self.w.data.shape[0], oh, ow)


class ReLU(Layer):
    """Rectified linear unit."""
    def __init__(self):
        self._mask = None

    def forward(self, x, training=False):
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad):
        return grad * self._mask


class MaxPool2D(Layer):
    """Non-overlapping 2-D max pooling."""
    def __init__(self, size: int = 2):
        self.size = size
        self._x = None
        self._max = None

    def forward(self, x, training=False):
        # Pairwise maxima over strided window views, in the row-major
        # order ``max(axis=(3, 5))`` of the (n, c, hh, s, ww, s) reshape
        # reduces in — byte-equal to it, signed-zero ties and NaN included
        # — without that reshape's copy of a non-contiguous input.
        s = self.size
        hh, ww = x.shape[2] // s, x.shape[3] // s
        wins = [x[:, :, i : hh * s : s, j : ww * s : s] for i in range(s) for j in range(s)]
        out = np.array(wins[0], order="C") if s == 1 else np.maximum(wins[0], wins[1], order="C")
        for win in wins[2:]:
            np.maximum(out, win, out=out)
        self._x, self._out = x, out
        return out

    def backward(self, grad):
        n, c, h, w = self._x.shape
        s = self.size
        hh, ww = h // s, w // s
        view = self._x[:, :, : hh * s, : ww * s].reshape(n, c, hh, s, ww, s)
        mask = view == self._out[:, :, :, None, :, None]
        # Distribute (ties share the gradient like in most frameworks' eps-free impls).
        counts = mask.sum(axis=(3, 5), keepdims=True)
        g = mask * (grad[:, :, :, None, :, None] / np.maximum(counts, 1))
        out = np.zeros_like(self._x)
        out[:, :, : hh * s, : ww * s] = g.reshape(n, c, hh * s, ww * s)
        return out

    def output_shape(self, input_shape):
        c, h, w = input_shape
        return (c, h // self.size, w // self.size)


class GlobalAvgPool(Layer):
    """Global average pooling over the spatial dimensions."""
    def __init__(self):
        self._shape = None

    def forward(self, x, training=False):
        self._shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad):
        n, c, h, w = self._shape
        return np.broadcast_to(grad[:, :, None, None], self._shape) / (h * w)

    def output_shape(self, input_shape):
        return (input_shape[0],)


class Flatten(Layer):
    """Flatten (N, ...) to (N, features)."""
    def __init__(self):
        self._shape = None

    def forward(self, x, training=False):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._shape)

    def output_shape(self, input_shape):
        out = 1
        for d in input_shape:
            out *= d
        return (out,)


class BatchNorm2D(Layer):
    """Per-channel batch normalization with running statistics."""

    def __init__(self, channels: int, momentum: float = 0.9, eps: float = 1e-5, name: str = "bn"):
        self.gamma = Param(np.ones(channels), f"{name}.gamma")
        self.beta = Param(np.zeros(channels), f"{name}.beta")
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.momentum, self.eps = momentum, eps
        self._cache = None

    def forward(self, x, training=False):
        if training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mean, var = self.running_mean, self.running_var
        std = np.sqrt(var + self.eps)
        xhat = (x - mean[None, :, None, None]) / std[None, :, None, None]
        self._cache = (xhat, std, x.shape)
        return self.gamma.data[None, :, None, None] * xhat + self.beta.data[None, :, None, None]

    def backward(self, grad):
        xhat, std, shape = self._cache
        n_elem = shape[0] * shape[2] * shape[3]
        self.gamma.grad += (grad * xhat).sum(axis=(0, 2, 3))
        self.beta.grad += grad.sum(axis=(0, 2, 3))
        g = grad * self.gamma.data[None, :, None, None]
        # Standard batchnorm backward (training-mode statistics).
        dxhat = g
        dvar_term = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=False)
        dmean_term = dxhat.sum(axis=(0, 2, 3))
        dx = (
            dxhat
            - (dmean_term / n_elem)[None, :, None, None]
            - xhat * (dvar_term / n_elem)[None, :, None, None]
        ) / std[None, :, None, None]
        return dx

    def params(self):
        return [self.gamma, self.beta]

    def fold_into(self, conv: Conv2D) -> None:
        """Fold this BN into the preceding convolution (inference form)."""
        std = np.sqrt(self.running_var + self.eps)
        scale = self.gamma.data / std
        conv.w.data = conv.w.data * scale[:, None, None, None]
        conv.b.data = (conv.b.data - self.running_mean) * scale + self.beta.data
        # Neutralize self.
        self.gamma.data = np.ones_like(self.gamma.data)
        self.beta.data = np.zeros_like(self.beta.data)
        self.running_mean = np.zeros_like(self.running_mean)
        self.running_var = np.ones_like(self.running_var) - self.eps


class ResidualBlock(Layer):
    """conv-relu-conv + identity shortcut, then relu (ResNet basic block)."""

    def __init__(self, channels: int, rng=None, name: str = "res"):
        self.conv1 = Conv2D(channels, channels, 3, 1, 1, rng, f"{name}.conv1")
        self.relu1 = ReLU()
        self.conv2 = Conv2D(channels, channels, 3, 1, 1, rng, f"{name}.conv2")
        self.relu2 = ReLU()

    def forward(self, x, training=False):
        y = self.conv1.forward(x, training)
        y = self.relu1.forward(y, training)
        y = self.conv2.forward(y, training)
        return self.relu2.forward(y + x, training)

    def backward(self, grad):
        g = self.relu2.backward(grad)
        gy = self.conv2.backward(g)
        gy = self.relu1.backward(gy)
        gx = self.conv1.backward(gy)
        return gx + g  # shortcut path

    def params(self):
        return self.conv1.params() + self.conv2.params()

    def macs(self, input_shape):
        return self.conv1.macs(input_shape) + self.conv2.macs(input_shape)

    def output_shape(self, input_shape):
        return input_shape
