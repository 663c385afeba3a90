"""Self-attention composed from tape ops, one passage at a time: the plain
reference that numcore.self_attend and span_model.self_attention are checked
against. Each passage is sliced from the packed rows and attends on its own:
bilinear scores, the diagonal masked with -inf, a row softmax, the weighted
sum, then the mixing layer and the residual."""

from __future__ import annotations

import numpy as np

from bridgeqa.numcore import (
    ParamStore,
    Tensor,
    add,
    concat,
    constant,
    matmul,
    mul,
    slice_rows,
    softmax_rows,
    transpose,
)

PREFIX = "span/selfattn/"


def attend_one(x: Tensor, store: ParamStore) -> Tensor:
    """P.x for one passage of two or more rows: S = (x.w2)^T + (x * w3).x^T,
    diagonal -inf, P the row softmax of S."""
    T = x.data.shape[0]
    column = transpose(matmul(x, store[f"{PREFIX}w2"]))
    product = matmul(mul(x, store[f"{PREFIX}w3"]), transpose(x))
    diag = np.zeros((T, T))
    np.fill_diagonal(diag, -np.inf)
    S = add(add(column, product), constant(diag))
    return matmul(softmax_rows(S), x)


def self_attention_one(x: Tensor, store: ParamStore) -> Tensor:
    """One passage's self-attention output; a length-1 passage is x itself."""
    if x.data.shape[0] == 1:
        return x
    attended = attend_one(x, store)
    mixed = concat([x, attended, mul(x, attended)], axis=1)
    return add(x, matmul(mixed, store[f"{PREFIX}W_mix"]))


def per_passage(one, x: Tensor, lengths) -> Tensor:
    """one(slice) for each packed passage of x, joined back in order."""
    parts, row = [], 0
    for n in lengths:
        parts.append(one(slice_rows(x, row, row + n)))
        row += n
    return concat(parts, axis=0)
