"""Trainable parameter storage with per-parameter optimizer moments."""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from .tensor import Tensor


class ParamStore:
    """Named trainable tensors. Names are unique; insertion order is the
    deterministic iteration order used by the optimizer and checkpoints."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}
        self.moments: dict[str, dict] = {}

    def add(self, name: str, array) -> Tensor:
        if name in self._tensors:
            raise ValidationError(f"parameter {name!r} already registered")
        t = Tensor(np.array(array, dtype=np.float64))
        self._tensors[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def zero_grad(self) -> None:
        for t in self._tensors.values():
            t.grad = None

    def gradients(self) -> dict[str, np.ndarray]:
        return {name: t.grad for name, t in self._tensors.items() if t.grad is not None}


def glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan_in = shape[0]
    fan_out = shape[1] if len(shape) > 1 else shape[0]
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=shape)
