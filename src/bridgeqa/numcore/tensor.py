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

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

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
    if not parts:
        raise ShapeError("concat: no inputs")
    if axis not in (0, 1):
        raise ShapeError(f"concat: axis must be 0 or 1, got {axis}")
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


def max_pool_over_time(x: Tensor) -> Tensor:
    """Elementwise maximum over the time axis: (T, D) -> (1, D)."""
    if x.data.ndim != 2 or x.data.shape[0] < 1:
        raise ShapeError(f"max_pool_over_time: expected non-empty (T, D) input, got {x.data.shape}")
    idx = np.argmax(x.data, axis=0)
    out = Tensor(x.data[idx, np.arange(x.data.shape[1])][None, :], (x,))

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[idx, np.arange(x.data.shape[1])] = g[0]
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
    """Rows [start:stop] of a 2-d tensor, e.g. one sequence of a packed batch."""
    if x.data.ndim != 2 or not (0 <= start < stop <= x.data.shape[0]):
        raise ShapeError(f"slice_rows: [{start}:{stop}] invalid for shape {x.data.shape}")
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


def dropout(x: Tensor, rate: float, *, training: bool = False, rng=None, mask: np.ndarray | None = None) -> Tensor:
    """Inverted dropout. Identity when not training or rate is 0.

    Pass an explicit mask to hold it constant (required under grad_check).
    """
    if not training or rate == 0.0:
        return x
    if not (0.0 <= rate < 1.0):
        raise ShapeError(f"dropout: rate must be in [0, 1), got {rate}")
    if mask is None:
        if rng is None:
            raise ShapeError("dropout: training mode needs an rng or an explicit mask")
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
