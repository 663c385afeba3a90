"""Adam optimizer over a ParamStore."""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from .params import ParamStore

# the moment decay rates and the denominator's guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def adam_step(store: ParamStore, grads: dict[str, np.ndarray], lr: float = 1e-3) -> None:
    """One bias-corrected Adam update (BETA1, BETA2, EPS), in place.
    Parameters without a gradient entry are left untouched; non-finite
    gradients are an error, and so is a read-only store, refused before any
    moment or step count changes."""
    store.check_writable("adam_step")
    for name, t in store.items():
        g = grads.get(name)
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise ValidationError(f"non-finite gradient for parameter {name!r}")
        if g.shape != t.data.shape:
            raise ValidationError(
                f"gradient shape {g.shape} does not match parameter {name!r} {t.data.shape}"
            )
        state = store.moments.get(name)
        if state is None:
            state = {"m": np.zeros_like(t.data), "v": np.zeros_like(t.data), "t": 0}
            store.moments[name] = state
        state["t"] += 1
        state["m"] = BETA1 * state["m"] + (1.0 - BETA1) * g
        state["v"] = BETA2 * state["v"] + (1.0 - BETA2) * (g * g)
        m_hat = state["m"] / (1.0 - BETA1 ** state["t"])
        v_hat = state["v"] / (1.0 - BETA2 ** state["t"])
        t.data -= lr * m_hat / (np.sqrt(v_hat) + EPS)
