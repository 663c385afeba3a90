"""Stepwise GRU and LSTM cells composed from tape ops: the plain reference
that the fused sequence runners in bridgeqa.numcore.cells are checked
against. One call is one time step over a (1, D) input row."""

from __future__ import annotations

from bridgeqa.errors import ShapeError
from bridgeqa.numcore import (
    ParamStore,
    Tensor,
    add,
    concat,
    matmul,
    mul,
    scale,
    shift,
    sigmoid,
    slice_cols,
    tanh,
)


def gru_cell(x: Tensor, h: Tensor, store: ParamStore, prefix: str) -> Tensor:
    hidden = h.data.shape[1]
    xh = concat([x, h], axis=1)
    zr = sigmoid(add(matmul(xh, store[f"{prefix}W_zr"]), store[f"{prefix}b_zr"]))
    z = slice_cols(zr, 0, hidden)
    r = slice_cols(zr, hidden, 2 * hidden)
    xrh = concat([x, mul(r, h)], axis=1)
    hbar = tanh(add(matmul(xrh, store[f"{prefix}W_h"]), store[f"{prefix}b_h"]))
    one_minus_z = shift(scale(z, -1.0), 1.0)
    return add(mul(z, h), mul(one_minus_z, hbar))


def lstm_cell(x: Tensor, h: Tensor, c: Tensor, store: ParamStore, prefix: str) -> tuple[Tensor, Tensor]:
    hidden = h.data.shape[1]
    xh = concat([x, h], axis=1)
    gates = add(matmul(xh, store[f"{prefix}W"]), store[f"{prefix}b"])
    i = sigmoid(slice_cols(gates, 0, hidden))
    f = sigmoid(slice_cols(gates, hidden, 2 * hidden))
    o = sigmoid(slice_cols(gates, 2 * hidden, 3 * hidden))
    g = tanh(slice_cols(gates, 3 * hidden, 4 * hidden))
    c_next = add(mul(f, c), mul(i, g))
    h_next = mul(o, tanh(c_next))
    return h_next, c_next


def recurrent_cell(kind: str, x: Tensor, state, store: ParamStore, prefix: str):
    """One step of the named cell. GRU state is h; LSTM state is (h, c)."""
    if kind == "gru":
        return gru_cell(x, state, store, prefix)
    if kind == "lstm":
        h, c = state
        return lstm_cell(x, h, c, store, prefix)
    raise ShapeError(f"recurrent_cell: unknown kind {kind!r}")
