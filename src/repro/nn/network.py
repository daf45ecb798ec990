"""Sequential network container."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .layers import Layer, Param

__all__ = ["Sequential"]


class Sequential:
    """A stack of layers with forward/backward and bookkeeping."""

    def __init__(self, layers: Sequence[Layer], input_shape: Tuple[int, ...], name: str = "net"):
        self.layers: List[Layer] = list(layers)
        self.input_shape = tuple(input_shape)
        self.name = name

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def params(self) -> List[Param]:
        out: List[Param] = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def param_count(self) -> int:
        """Total trainable parameters (Table I's Params column)."""
        return sum(p.size for p in self.params())

    def macs(self) -> int:
        """Per-sample multiply-accumulates (Table I's MACs column)."""
        shape = self.input_shape
        total = 0
        for layer in self.layers:
            total += layer.macs(shape)
            shape = layer.output_shape(shape)
        return total

    def predict(self, x: np.ndarray, batch: int = 256) -> np.ndarray:
        outs = []
        for start in range(0, len(x), batch):
            outs.append(self.forward(x[start : start + batch], training=False))
        return np.concatenate(outs, axis=0)

    def __repr__(self):
        return (
            f"Sequential({self.name!r}, {len(self.layers)} layers, "
            f"{self.param_count():,} params, {self.macs():,} MACs)"
        )
