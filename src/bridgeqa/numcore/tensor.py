"""Dense float64 tensors with reverse-mode differentiation.

Every operation records a node on an implicit tape (the graph of Tensor
parents); backward() walks the tape once in reverse topological order and
accumulates gradients into .grad. Shapes are explicit everywhere; add and
mul broadcast by one rule only: equal shapes, a 2-d operand with a 1-d
operand of its column width (a bias or column scale), or two 2-d operands
whose every dimension is equal or 1 on one side (a (T, 1) column against a
(1, D) row). Backward sums the gradient over the broadcast axes. Masked
attention positions are represented with -inf logits, which exp() turns
into exact zeros.

self_attend is the one fused op: a span model's self-attention over packed
segments (scores, masked softmax and weighted sum) is one node whose
backward is written out, where the same layer composed from the ops above
records about 17 per segment. Every segment attends through one score
matrix, masked -inf outside each query's own segment. Given rows, it reads
only those: a bridge reasoner scores each anchor by its start-token row, so
only the anchor rows query, while keys and values still span every row of
their segment.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError


class Tensor:
    __slots__ = ("data", "grad", "parents", "bwd")

    def __init__(self, data, parents=(), bwd=None):
        if isinstance(data, np.ndarray) and data.dtype == np.float64:
            self.data = data
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.parents: tuple[Tensor, ...] = tuple(parents)
        self.bwd = bwd  # callable(grad_out) accumulating into parents, or None for leaves

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


def constant(data) -> Tensor:
    """A leaf tensor that participates in the graph but is nobody's parameter."""
    return Tensor(data)


def accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add a gradient contribution to a tensor (copy on first write)."""
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64, copy=True)
    else:
        t.grad += g


def backward(loss: Tensor) -> None:
    """Propagate d(loss)/d(node) to every reachable tensor.

    The loss must be a scalar (a single element). Visits each tape node
    exactly once, iteratively, so deep recurrent graphs are safe.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in visited:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node.bwd is not None and node.grad is not None:
            node.bwd(node.grad)


# ---------------------------------------------------------------------------
# core ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data, (a, b))

    def bwd(g):
        accumulate(a, g @ b.data.T)
        accumulate(b, a.data.T @ g)

    out.bwd = bwd
    return out


def _broadcastable(op: str, a: Tensor, b: Tensor) -> None:
    sa, sb = a.data.shape, b.data.shape
    if sa == sb:
        return
    if len(sa) == 2 and len(sb) == 2 and all(m == n or 1 in (m, n) for m, n in zip(sa, sb)):
        return
    if sorted((len(sa), len(sb))) == [1, 2] and sa[-1] == sb[-1]:
        return
    raise ShapeError(f"{op}: incompatible shapes {sa} and {sb}")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient of the broadcast output shape back to an operand's shape."""
    if g.shape == shape:
        return g
    if len(shape) == 1:
        return g.sum(axis=0)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add under the module's broadcast rule."""
    _broadcastable("add", a, b)
    out = Tensor(a.data + b.data, (a, b))

    def bwd(g):
        accumulate(a, _unbroadcast(g, a.data.shape))
        accumulate(b, _unbroadcast(g, b.data.shape))

    out.bwd = bwd
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise multiply under the module's broadcast rule."""
    _broadcastable("mul", a, b)
    out = Tensor(a.data * b.data, (a, b))

    def bwd(g):
        accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    out.bwd = bwd
    return out


def scale(x: Tensor, c: float) -> Tensor:
    out = Tensor(x.data * c, (x,))
    out.bwd = lambda g: accumulate(x, g * c)
    return out


def shift(x: Tensor, c: float) -> Tensor:
    out = Tensor(x.data + c, (x,))
    out.bwd = lambda g: accumulate(x, g)
    return out


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    """The parts joined along axis; a single part is returned as it is, with
    no tape node."""
    if not parts:
        raise ShapeError("concat: no inputs")
    if axis not in (0, 1):
        raise ShapeError(f"concat: axis must be 0 or 1, got {axis}")
    if len(parts) == 1:
        return parts[0]
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as exc:
        raise ShapeError(
            f"concat: incompatible shapes {[p.data.shape for p in parts]} on axis {axis}"
        ) from exc
    out = Tensor(data, tuple(parts))
    sizes = [p.data.shape[axis] for p in parts]

    def bwd(g):
        offset = 0
        for p, size in zip(parts, sizes):
            sl = (slice(offset, offset + size),) if axis == 0 else (slice(None), slice(offset, offset + size))
            accumulate(p, g[sl])
            offset += size

    out.bwd = bwd
    return out


def sigmoid_array(a: np.ndarray) -> np.ndarray:
    """Logistic function of an array, written through tanh so that no input
    overflows."""
    return 0.5 * (1.0 + np.tanh(0.5 * a))


def sigmoid(x: Tensor) -> Tensor:
    y = sigmoid_array(x.data)
    out = Tensor(y, (x,))
    out.bwd = lambda g: accumulate(x, g * y * (1.0 - y))
    return out


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = Tensor(y, (x,))
    out.bwd = lambda g: accumulate(x, g * (1.0 - y * y))
    return out


def relu(x: Tensor) -> Tensor:
    y = np.maximum(x.data, 0.0)
    out = Tensor(y, (x,))
    out.bwd = lambda g: accumulate(x, g * (x.data > 0.0))
    return out


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a 2-d tensor. -inf entries get exactly zero mass."""
    if x.data.ndim != 2:
        raise ShapeError(f"softmax_rows: expected 2-d input, got shape {x.data.shape}")
    m = np.max(x.data, axis=1, keepdims=True)
    if np.any(np.isneginf(m)):
        raise ShapeError("softmax_rows: a row is entirely -inf (fully masked)")
    e = np.exp(x.data - m)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y, (x,))

    def bwd(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        accumulate(x, (g - dot) * y)

    out.bwd = bwd
    return out


def self_attend(x: Tensor, w2: Tensor, w3: Tensor, lengths, rows=None) -> Tensor:
    """Bilinear self-attention within each packed segment, as one node.

    lengths pack x's rows into segments, as run_recurrent packs them. Query
    row i scores every row j with S_ij = x_j.w2 + (x_i * w3).x_j, masked to
    -inf outside i's own segment and at j = i; P is the row softmax of S and
    output row i is P_i.x. One (queries, rows) matrix holds the scores of
    every segment, so a single segment, the mask being its diagonal alone,
    runs the plain formula. A row term x_i.w1 of the trilinear form would
    add one constant to each row of S, which the row softmax ignores, so it
    is left out. A row of a length-1 segment has nothing to attend to: it
    does not query, and its output row is zero. Backward keeps P.

    rows, when given, are the packed row indices to read, in any order and
    repeats allowed: the output has one row per entry, the row rows[i] of
    the full output. Only those rows query: the query-side terms (x * w3
    and the masked own row) are formed, and differentiated, at rows alone,
    while keys and values still span every row of each segment.
    """
    D = x.data.shape[1] if x.data.ndim == 2 else -1
    if D < 1 or w2.data.shape != (D, 1) or w3.data.shape != (D,):
        raise ShapeError(f"self_attend: shapes x {x.data.shape}, w2 {w2.data.shape}, w3 {w3.data.shape}")
    lengths = np.array([int(n) for n in lengths], dtype=np.int64)
    X = x.data
    if lengths.size == 0 or lengths.min() < 1 or lengths.sum() != X.shape[0]:
        raise ShapeError(f"self_attend: lengths {lengths.tolist()} do not pack {X.shape[0]} rows")
    if rows is None:
        own, xq = None, X
    else:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1 or (rows.size and (rows.min() < 0 or rows.max() >= X.shape[0])):
            raise ShapeError(f"self_attend: rows {rows} do not index {X.shape[0]} rows")
        own, xq = rows, X[rows]
    # own holds each read row's packed index, None when the reads are every
    # row of one segment (their own rows are the diagonal); q picks the query
    # rows, those of segments of two or more rows, out of xq (a slice when
    # it is all of them); outside is True where a query does not look, at
    # the rows of other segments than its own and at its own row, and None
    # with one segment
    outside = None
    if lengths.size == 1:
        q = slice(None) if lengths[0] > 1 else np.zeros(0, dtype=np.int64)
    else:
        segment = np.repeat(np.arange(lengths.size), lengths)
        if own is None:
            own = np.arange(X.shape[0])
        live = lengths[segment[own]] > 1
        q = slice(None) if live.all() else np.flatnonzero(live)
        outside = segment[own[q]][:, None] != segment
        outside[np.arange(outside.shape[0]), own[q]] = True
    # the row terms at once: x.w2 over every row, x * w3 over the query rows
    xw2, xw3 = X @ w2.data, xq * w3.data
    # in place, one (queries, rows) array: the bits of the out-of-place formula
    P = xw3[q] @ X.T
    P += xw2.T
    if outside is not None:
        P[outside] = -np.inf
    elif own is None:
        np.fill_diagonal(P, -np.inf)
    else:
        P[np.arange(P.shape[0]), own[q]] = -np.inf
    P -= P.max(axis=1, keepdims=True)
    if outside is None:
        np.exp(P, out=P)
    else:
        # exp is slow on -inf, and most scores are masked: exponentiate the
        # live ones alone, the same bits, and write exp(-inf) = 0 elsewhere
        flat, scored = P.reshape(-1), np.flatnonzero(~outside)
        kept = np.exp(flat[scored])
        flat.fill(0.0)
        flat[scored] = kept
    P /= P.sum(axis=1, keepdims=True)
    every = isinstance(q, slice)
    if every:
        out_data = P @ X
    else:
        out_data = np.zeros_like(xq)
        out_data[q] = P @ X
    out = Tensor(out_data, (x, w2, w3))

    def bwd(g):
        # the score gradient dS reaches the keys and values through P.x and
        # the (x * w3).x^T product; its column sums (d2) reach x.w2 at every
        # row, and dS.x reaches x * w3 at the query rows. A masked score has
        # P = 0, so its dS is 0.
        gq = g[q]
        dP = gq @ X.T
        dS = (dP - (dP * P).sum(axis=1, keepdims=True)) * P
        d2 = np.zeros_like(xw2)
        d2[:, 0] = dS.sum(axis=0)
        if every:
            dSx = dS @ X
        else:
            dSx = np.zeros_like(xq)
            dSx[q] = dS @ X
        gx = P.T @ gq + dS.T @ xw3[q]
        gx += d2 @ w2.data.T
        if rows is None:
            gx += dSx * w3.data
        else:
            np.add.at(gx, rows, dSx * w3.data)
        accumulate(x, gx)
        accumulate(w2, X.T @ d2)
        accumulate(w3, (dSx * xq).sum(axis=0))

    out.bwd = bwd
    return out


def max_pool_over_time(x: Tensor, lengths=None) -> Tensor:
    """Elementwise maximum over the time axis: (T, D) -> (1, D).

    With lengths, x packs sequences back to back (the run_recurrent
    convention) and each is pooled on its own: (T, D) -> (len(lengths), D).
    """
    if x.data.ndim != 2 or x.data.shape[0] < 1:
        raise ShapeError(f"max_pool_over_time: expected non-empty (T, D) input, got {x.data.shape}")
    lengths = [x.data.shape[0]] if lengths is None else [int(n) for n in lengths]
    if min(lengths, default=0) < 1 or sum(lengths) != x.data.shape[0]:
        raise ShapeError(f"max_pool_over_time: lengths {lengths} do not pack {x.data.shape[0]} rows")
    starts = np.cumsum([0] + lengths[:-1])
    # (P, D) row index of each segment's maximum, per column
    idx = np.stack([s + np.argmax(x.data[s : s + n], axis=0) for s, n in zip(starts, lengths)])
    cols = np.arange(x.data.shape[1])
    out = Tensor(x.data[idx, cols], (x,))

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[idx, cols] = g
        accumulate(x, gx)

    out.bwd = bwd
    return out


def row_max(x: Tensor) -> Tensor:
    """Maximum over each row: (T, Q) -> (T, 1); gradient routes to the argmax."""
    if x.data.ndim != 2:
        raise ShapeError(f"row_max: expected 2-d input, got shape {x.data.shape}")
    idx = np.argmax(x.data, axis=1)
    out = Tensor(x.data[np.arange(x.data.shape[0]), idx][:, None], (x,))

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[np.arange(x.data.shape[0]), idx] = g[:, 0]
        accumulate(x, gx)

    out.bwd = bwd
    return out


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose: expected 2-d input, got shape {x.data.shape}")
    out = Tensor(x.data.T.copy(), (x,))
    out.bwd = lambda g: accumulate(x, g.T)
    return out


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        data = x.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {x.data.shape} as {shape}") from exc
    out = Tensor(data, (x,))
    out.bwd = lambda g: accumulate(x, g.reshape(x.data.shape))
    return out


def take_row(x: Tensor, i: int) -> Tensor:
    """Select row i of a 2-d tensor as a (1, D) tensor."""
    if x.data.ndim != 2 or not (0 <= i < x.data.shape[0]):
        raise ShapeError(f"take_row: row {i} invalid for shape {x.data.shape}")
    out = Tensor(x.data[i : i + 1].copy(), (x,))

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[i] = g[0]
        accumulate(x, gx)

    out.bwd = bwd
    return out


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows [start:stop] of a 2-d tensor, e.g. one sequence of a packed batch;
    all of its rows are x itself, with no tape node."""
    if x.data.ndim != 2 or not (0 <= start < stop <= x.data.shape[0]):
        raise ShapeError(f"slice_rows: [{start}:{stop}] invalid for shape {x.data.shape}")
    if stop - start == x.data.shape[0]:
        return x
    out = Tensor(x.data[start:stop], (x,))

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[start:stop] = g
        accumulate(x, gx)

    out.bwd = bwd
    return out


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2 or not (0 <= start < stop <= x.data.shape[1]):
        raise ShapeError(f"slice_cols: [{start}:{stop}] invalid for shape {x.data.shape}")
    out = Tensor(x.data[:, start:stop].copy(), (x,))

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[:, start:stop] = g
        accumulate(x, gx)

    out.bwd = bwd
    return out


def gather_rows(table: Tensor, indices: np.ndarray, row_mask: np.ndarray | None = None) -> Tensor:
    """Row lookup (embedding gather). row_mask, when given, restricts which
    table rows receive gradient (used for frozen tables with a trainable unk row)."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or table.data.ndim != 2:
        raise ShapeError(f"gather_rows: bad shapes table {table.data.shape}, indices {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ShapeError("gather_rows: index out of range")
    out = Tensor(table.data[idx], (table,))

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        if row_mask is not None:
            gt *= row_mask[:, None]
        accumulate(table, gt)

    out.bwd = bwd
    return out


def dropout(x: Tensor, rate: float, *, rng=None, mask: np.ndarray | None = None) -> Tensor:
    """Inverted dropout with a mask drawn from rng, or the given mask (held
    constant, as grad_check needs). Without either, or at rate 0, returns x
    itself: a forward without an rng is inference.
    """
    if rate == 0.0 or (rng is None and mask is None):
        return x
    if not (0.0 <= rate < 1.0):
        raise ShapeError(f"dropout: rate must be in [0, 1), got {rate}")
    if mask is None:
        mask = (rng.random(x.data.shape) >= rate).astype(np.float64)
    keep = 1.0 - rate
    out = Tensor(x.data * mask / keep, (x,))
    out.bwd = lambda g: accumulate(x, g * mask / keep)
    return out


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.asarray(x.data.sum()), (x,))
    out.bwd = lambda g: accumulate(x, np.full(x.data.shape, float(g)))
    return out


def cross_entropy_from_logits(logits: Tensor, gold) -> Tensor:
    """-ln of the total softmax probability of the gold index (or index set).

    The set form gives the marginal negative log-likelihood over several
    gold positions. -inf logits are legal (masked positions); the gold set
    must retain nonzero probability mass.
    """
    if logits.data.ndim != 1:
        raise ShapeError(f"cross_entropy_from_logits: expected 1-d logits, got {logits.data.shape}")
    if isinstance(gold, (int, np.integer)):
        gold_idx = [int(gold)]
    else:
        gold_idx = sorted({int(i) for i in gold})
    if not gold_idx:
        raise ValueError("cross_entropy_from_logits: empty gold set")
    n = logits.data.shape[0]
    if gold_idx[0] < 0 or gold_idx[-1] >= n:
        raise ValueError(f"cross_entropy_from_logits: gold index out of range 0..{n - 1}")
    d = logits.data
    m = d.max()
    if np.isneginf(m):
        raise ValueError("cross_entropy_from_logits: all logits are -inf")
    e = np.exp(d - m)
    total = e.sum()
    p = e / total
    p_gold = p[gold_idx].sum()
    if p_gold <= 0.0:
        raise ValueError("cross_entropy_from_logits: gold set has zero probability mass")
    out = Tensor(np.asarray(-np.log(p_gold)), (logits,))

    def bwd(g):
        q = np.zeros_like(d)
        q[gold_idx] = p[gold_idx] / p_gold
        accumulate(logits, float(g) * (p - q))

    out.bwd = bwd
    return out
