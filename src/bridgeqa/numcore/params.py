"""Trainable parameter storage with per-parameter optimizer moments."""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from .tensor import Tensor


class ParamStore:
    """Named trainable tensors. Names are unique; insertion order is the
    deterministic iteration order used by the optimizer and checkpoints.

    A store is writable as built, and every training path uses it that way:
    it caches nothing, so what is derived from its parameters is derived
    anew on each use. make_read_only() (load_pipeline_state calls it on each
    model it loads) turns every tensor array's write flag off, and from then
    on add, checkpoint.restore and adam_step refuse the store. Because its
    parameters can no longer change, a read-only store keeps in cache what
    derived() builds from them, once per key: run_recurrent's fused weights
    of each recurrent cell.
    """

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}
        self.moments: dict[str, dict] = {}
        self.cache: dict | None = None  # a dict once the store is read-only

    @property
    def read_only(self) -> bool:
        return self.cache is not None

    def make_read_only(self) -> None:
        for t in self._tensors.values():
            t.data.setflags(write=False)
        if self.cache is None:
            self.cache = {}

    def check_writable(self, action: str) -> None:
        if self.read_only:
            raise ValidationError(f"{action}: the parameter store is read-only (a model loaded for answering)")

    def derived(self, key, build):
        """build(), a value that depends only on the parameters; a read-only
        store builds it once per key and then returns the cached value."""
        if self.cache is None:
            return build()
        value = self.cache.get(key)
        if value is None:
            value = self.cache[key] = build()
        return value

    def add(self, name: str, array) -> Tensor:
        self.check_writable("add")
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
