"""The span model's two attention layers composed from tape ops: the plain
references that the fused numcore ops are checked against.

biattention is span_model.biattention's layer composed op by op, packed
passages and all: numcore.biattend must give its bits, forward and
backward. Self-attention runs one passage at a time: each passage is sliced
from the packed rows and attends on its own (bilinear scores, the diagonal
masked with -inf, a row softmax, the weighted sum), then the mixing layer
and the residual, the reference of numcore.self_attend and
span_model.self_attention."""

from __future__ import annotations

import numpy as np

from bridgeqa.errors import ShapeError, ValidationError
from bridgeqa.numcore import (
    ParamStore,
    Tensor,
    add,
    concat,
    constant,
    gather_rows,
    matmul,
    mul,
    row_max,
    slice_rows,
    softmax_rows,
    transpose,
)
from bridgeqa.span_model import EncodedSeq

PREFIX = "span/selfattn/"


def biattention(context: EncodedSeq, question: EncodedSeq, store: ParamStore, *, lengths=None) -> EncodedSeq:
    """Question-aware context states: per position [h; u~; h*u~; h*h~].

    With lengths, context packs several passages back to back, each read
    against the same question. Context-to-question attention is row-wise, so
    it needs nothing more; question-to-context attention is one softmax per
    passage over its own rows, scored -inf outside its block.
    """
    if len(context) == 0 or len(question) == 0:
        raise ValidationError("biattention: empty context or question")
    if context.states.data.shape[1] != question.states.data.shape[1]:
        raise ShapeError(
            f"biattention: context width {context.states.data.shape} does not match "
            f"question width {question.states.data.shape}"
        )
    lengths = [len(context)] if lengths is None else list(lengths)
    if min(lengths) < 1 or sum(lengths) != len(context):
        raise ValidationError(f"biattention: lengths {lengths} do not pack {len(context)} context rows")
    # S_ij = w1.h_i + w2.u_j + w3.(h_i * u_j): a (Tc, 1) column plus a
    # (1, Tq) row, broadcast, plus the (Tc, Tq) product term
    h, u = context.states, question.states
    S = add(
        add(matmul(h, store["span/biattn/w1"]), transpose(matmul(u, store["span/biattn/w2"]))),
        matmul(mul(h, store["span/biattn/w3"]), transpose(u)),
    )
    # context-to-question: attend over question positions per context row
    c2q = matmul(softmax_rows(S), u)
    # question-to-context: per passage, one (1, W) row from a distribution
    # over its rows (their row maxima), copied to each of its positions
    segment = np.repeat(np.arange(len(lengths)), lengths)
    blocks = np.full((len(lengths), len(context)), -np.inf)
    blocks[segment, np.arange(len(context))] = 0.0
    beta = softmax_rows(add(transpose(row_max(S)), constant(blocks)))
    q2c = gather_rows(matmul(beta, h), segment)
    out = concat([h, c2q, mul(h, c2q), mul(h, q2c)], axis=1)
    return EncodedSeq(states=out)


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
