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

biattend and self_attend are the two fused ops, a span model's two
attention layers, each one node whose backward is written out where the
same layer composed from the ops above records about 20 nodes. biattend is
BiDAF's bidirectional attention of packed passages against one question,
with the composed layer's bits forward and backward (the composed layer is
kept as the tests' reference). self_attend is self-attention over packed
segments, its mixing layer and residual read through a readout: every
segment attends through one score matrix, masked -inf outside each query's
own segment. Given rows, it reads only those: a bridge reasoner scores each
anchor by its start-token row, so only the anchor rows query, while keys
and values still span every row of their segment.
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


def biattend(h: Tensor, u: Tensor, w1: Tensor, w2: Tensor, w3: Tensor, lengths) -> Tensor:
    """BiDAF's bidirectional attention of packed contexts against one
    question, as one node: per context row [h; c2q; h*c2q; h*q2c].

    lengths pack h's rows into passages, as run_recurrent packs them, each
    read against the question u. The similarity is trilinear,
    S_ij = h_i.w1 + u_j.w2 + (h_i * w3).u_j. Context-to-question attention
    is row-wise: c2q_i = softmax(S_i).u. Question-to-context attention is one
    softmax per passage over its rows' maxima max_j S_ij, scored -inf outside
    its block, whose weighted sum of the passage's rows is copied to each of
    them as q2c. The forward runs the numpy steps of the same layer composed
    from the ops above (add, matmul, mul, transpose, softmax_rows, row_max,
    gather_rows, concat), in their order, so it gives their bits. The
    backward is written out: each of those ops' backward in turn, each
    gradient summed in the order the composed graph's backward sums it, so
    it gives their bits too.
    """
    W = h.data.shape[1] if h.data.ndim == 2 else -1
    if (W < 1 or u.data.ndim != 2 or u.data.shape[0] < 1 or u.data.shape[1] != W
            or w1.data.shape != (W, 1) or w2.data.shape != (W, 1) or w3.data.shape != (W,)):
        raise ShapeError(f"biattend: shapes h {h.data.shape}, u {u.data.shape}, w1 {w1.data.shape}, "
                         f"w2 {w2.data.shape}, w3 {w3.data.shape}")
    lengths = np.array([int(n) for n in lengths], dtype=np.int64)
    H, U = h.data, u.data
    if lengths.size == 0 or lengths.min() < 1 or lengths.sum() != H.shape[0]:
        raise ShapeError(f"biattend: lengths {lengths.tolist()} do not pack {H.shape[0]} rows")
    # S: a (Tc, 1) column plus a (1, Tq) row, broadcast, plus the (Tc, Tq)
    # product term, u's transpose copied as transpose() copies it
    hw3, UT = H * w3.data, U.T.copy()
    S = (H @ w1.data + (U @ w2.data).T) + hw3 @ UT
    # each row's maximum, at its first argmax: the softmax's shift and the
    # question-to-context score
    cols = np.arange(H.shape[0])
    top = S.argmax(axis=1)
    m = S[cols, top][:, None]
    if np.any(np.isneginf(m)):
        # a row of S entirely -inf; no passage's q2c row can be masked otherwise
        raise ShapeError("biattend: a row is entirely -inf (fully masked)")
    A = np.exp(S - m)
    A = A / A.sum(axis=1, keepdims=True)
    c2q = A @ U
    segment = np.repeat(np.arange(lengths.size), lengths)
    blocks = np.full((lengths.size, H.shape[0]), -np.inf)
    blocks[segment, cols] = 0.0
    Z = m.T + blocks
    beta = np.exp(Z - Z.max(axis=1, keepdims=True))
    beta = beta / beta.sum(axis=1, keepdims=True)
    q2c = (beta @ H)[segment]
    out = Tensor(np.concatenate([H, c2q, H * c2q, H * q2c], axis=1), (h, u, w1, w2, w3))

    def bwd(g):
        # each composed op's backward, with its operands' layouts, and each
        # tensor's gradient summed in the order the composed graph's backward
        # adds it up: the same bits
        g_c2q, g_hc2q, g_hq2c = g[:, W : 2 * W], g[:, 2 * W : 3 * W], g[:, 3 * W :]
        # question-to-context: the gather's sum over each passage's rows, the
        # weighted sum, then the blocked softmax over the row maxima
        g_sum = np.zeros((lengths.size, W))
        np.add.at(g_sum, segment, g_hq2c * H)
        g_beta = g_sum @ H.T
        gZ = (g_beta - (g_beta * beta).sum(axis=1, keepdims=True)) * beta
        # context-to-question, and the row maxima at their argmax
        gc = g_c2q + g_hc2q * H
        gA = gc @ U.T
        gS = (gA - (gA * A).sum(axis=1, keepdims=True)) * A
        gS[cols, top] += gZ.sum(axis=0)
        # the three terms of S
        g_rows, g_cols = gS.sum(axis=1, keepdims=True), gS.sum(axis=0, keepdims=True).T
        g_hw3 = gS @ UT.T
        accumulate(h, g[:, :W] + g_hc2q * c2q + g_hq2c * q2c + beta.T @ g_sum + g_rows @ w1.data.T
                   + g_hw3 * w3.data)
        accumulate(u, A.T @ gc + g_cols @ w2.data.T + (hw3.T @ gS).T)
        accumulate(w1, H.T @ g_rows)
        accumulate(w2, U.T @ g_cols)
        accumulate(w3, (g_hw3 * H).sum(axis=0))

    out.bwd = bwd
    return out


def self_attend(x: Tensor, w2: Tensor, w3: Tensor, w_mix: Tensor, v: Tensor, lengths, rows=None) -> Tensor:
    """A span model's self-attention over packed segments, read through a
    readout, as one node.

    lengths pack x's rows into segments, as run_recurrent packs them. Query
    row i scores every row j with S_ij = x_j.w2 + (x_i * w3).x_j, masked to
    -inf outside i's own segment and at j = i; P is the row softmax of S and
    att_i = P_i.x. One (queries, rows) matrix holds the scores of every
    segment, so a single segment, the mask being its diagonal alone, runs
    the plain formula. A row term x_i.w1 of the trilinear form would add one
    constant to each row of S, which the row softmax ignores, so it is left
    out. A row of a length-1 segment has nothing to attend to: it does not
    query, and its att is zero.

    The output is x.v + ([x; att; x*att].(w_mix.v)) * keep, for a readout v
    of shape (D, k): the mixing layer w_mix (3D, D) and the residual read
    through v, where keep is 0 at the rows of length-1 segments (they get no
    mixing) and 1 elsewhere. With no segment of two rows, it is x.v alone,
    and w2, w3 and w_mix get no gradient. Past the attention, forward and
    backward run the numpy steps of the tail composed from matmul, concat,
    mul and add, in their order, each gradient summed as the composed
    graph's backward sums it, so both give their bits. Backward keeps P.

    rows, when given, are the packed row indices to read, in any order and
    repeats allowed: the output has one row per entry, the row rows[i] of
    the full output. Only those rows query, and the mixing layer and the
    residual run at rows alone: the query-side terms (x * w3 and the masked
    own row) are formed, and differentiated, at rows alone, while keys and
    values still span every row of each segment.
    """
    D = x.data.shape[1] if x.data.ndim == 2 else -1
    if (D < 1 or w2.data.shape != (D, 1) or w3.data.shape != (D,) or w_mix.data.shape != (3 * D, D)
            or v.data.ndim != 2 or v.data.shape[0] != D):
        raise ShapeError(f"self_attend: shapes x {x.data.shape}, w2 {w2.data.shape}, w3 {w3.data.shape}, "
                         f"w_mix {w_mix.data.shape}, v {v.data.shape}")
    lengths = np.array([int(n) for n in lengths], dtype=np.int64)
    X, V = x.data, v.data
    if lengths.size == 0 or lengths.min() < 1 or lengths.sum() != X.shape[0]:
        raise ShapeError(f"self_attend: lengths {lengths.tolist()} do not pack {X.shape[0]} rows")
    if rows is None:
        own, xq = None, X
    else:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1 or (rows.size and (rows.min() < 0 or rows.max() >= X.shape[0])):
            raise ShapeError(f"self_attend: rows {rows} do not index {X.shape[0]} rows")
        own, xq = rows, X[rows]

    def scatter(g_read):
        # the gradient of x from that of xq, the read rows
        if rows is None:
            return g_read
        gx = np.zeros_like(X)
        np.add.at(gx, rows, g_read)
        return gx

    if lengths.max() == 1:
        out = Tensor(xq @ V, (x, v))

        def bwd_residual(g):
            accumulate(x, scatter(g @ V.T))
            accumulate(v, xq.T @ g)

        out.bwd = bwd_residual
        return out
    # own holds each read row's packed index, None when the reads are every
    # row of one segment (their own rows are the diagonal); q picks the query
    # rows, those of segments of two or more rows, out of xq (a slice when
    # it is all of them); outside is True where a query does not look, at
    # the rows of other segments than its own and at its own row, and None
    # with one segment
    outside = None
    if lengths.size == 1:
        q = slice(None)
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
        att = P @ X
    else:
        att = np.zeros_like(xq)
        att[q] = P @ X
    # the mixing layer read through v, and the residual
    mixed = np.concatenate([xq, att, xq * att], axis=1)
    mix_v = w_mix.data @ V
    delta = mixed @ mix_v
    keep = None
    if lengths.min() == 1:
        keep = np.repeat(lengths > 1, lengths).astype(np.float64)[slice(None) if rows is None else rows, None]
        delta = delta * keep
    out = Tensor(xq @ V + delta, (x, w2, w3, w_mix, v))

    def bwd(g):
        # the tail's composed ops' backward, each tensor's gradient summed in
        # the order the composed graph's backward adds it up: the same bits
        gd = g if keep is None else g * keep
        g_mix_v = mixed.T @ gd
        g_mixed = gd @ mix_v.T
        gxq = g @ V.T + g_mixed[:, :D] + g_mixed[:, 2 * D :] * att
        g_att = g_mixed[:, D : 2 * D] + g_mixed[:, 2 * D :] * xq
        # the score gradient dS reaches the keys and values through P.x and
        # the (x * w3).x^T product; its column sums (d2) reach x.w2 at every
        # row, and dS.x reaches x * w3 at the query rows. A masked score has
        # P = 0, so its dS is 0.
        gq = g_att[q]
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
        accumulate(x, scatter(gxq) + gx)
        accumulate(w2, X.T @ d2)
        accumulate(w3, (dSx * xq).sum(axis=0))
        accumulate(w_mix, g_mix_v @ V.T)
        # two terms, as the two matmuls that read v add them: several groups
        # read one v, and its gradient sums their terms one by one
        accumulate(v, xq.T @ g)
        accumulate(v, w_mix.data.T @ g_mix_v)

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
