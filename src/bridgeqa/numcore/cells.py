"""GRU and LSTM sequence runners over packed batches.

Gate convention (GRU): z = sigmoid(Wz [x; h] + bz), r = sigmoid(Wr [x; h] + br),
hbar = tanh(Wh [x; r*h] + bh), h' = z*h + (1 - z)*hbar. The z/r projections
share one fused weight matrix (columns [0:H] are z, [H:2H] are r).

LSTM is the standard 4-gate cell; the fused projection's column blocks are
input, forget, output, candidate in that order.

Every weight matrix stacks an input part (the first D rows) over a recurrent
part (the last H rows). The runner applies the input part to all steps of all
sequences in one matmul before the time loop (the input-projection hoist of
Appleyard et al. 2016), so each step only multiplies the (B, H) states by the
recurrent part. Backward stacks the per-step gate gradients and builds the
input, weight and bias gradients from one matmul each.

A bidirectional run takes the hoist to the direction axis: sequence b's
forward state and reversed state sit side by side in one (B, 2H) state (both
directions of a sequence have its length, so their padding lines up). Each
gate's input projections are laid out [gate_fwd | gate_bwd], and each
recurrent matrix is block-diagonal, (2H, 4H) for the GRU's z/r, (2H, 2H) for
its candidate and (2H, 8H) for the LSTM, so one time loop serves both
directions and the kernels run unchanged at width 2H. A real parameter's
gradient is its diagonal block of the kernel's recurrent weight gradient.

Sigmoid gates use the form of tensor.sigmoid_array, 0.5 * (1 + tanh(a / 2)).
The runner halves the sigmoid gates' weight columns before the loop, which is
exact in binary floating point, so the kernels apply tanh to them directly.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .params import ParamStore, glorot
from .tensor import Tensor, accumulate


def init_gru(store: ParamStore, prefix: str, input_dim: int, hidden: int, rng: np.random.Generator) -> None:
    store.add(f"{prefix}W_zr", glorot(rng, (input_dim + hidden, 2 * hidden)))
    store.add(f"{prefix}b_zr", np.zeros(2 * hidden))
    store.add(f"{prefix}W_h", glorot(rng, (input_dim + hidden, hidden)))
    store.add(f"{prefix}b_h", np.zeros(hidden))


def init_lstm(store: ParamStore, prefix: str, input_dim: int, hidden: int, rng: np.random.Generator) -> None:
    store.add(f"{prefix}W", glorot(rng, (input_dim + hidden, 4 * hidden)))
    store.add(f"{prefix}b", np.zeros(4 * hidden))


def _gru_forward(A, W_rec, H):
    """A: (T, B, 3H) hoisted input projections (z, r, candidate), the z/r
    columns halved like W_zr. Returns the states (T+1, B, H), with row 0 the
    zero initial state, and the cache."""
    T, B, _ = A.shape
    W_zr, W_h = W_rec
    A_zr = np.ascontiguousarray(A[:, :, : 2 * H])
    A_h = np.ascontiguousarray(A[:, :, 2 * H :])
    Hs = np.zeros((T + 1, B, H))
    ZR = np.empty((T, B, 2 * H))
    HB = np.empty((T, B, H))
    for s in range(T):
        h = Hs[s]
        a = np.dot(h, W_zr)
        a += A_zr[s]
        zr = np.tanh(a, out=ZR[s])
        zr += 1.0
        zr *= 0.5
        m = np.dot(zr[:, H:] * h, W_h)
        m += A_h[s]
        hb = np.tanh(m, out=HB[s])
        step = h - hb
        step *= zr[:, :H]
        np.add(hb, step, out=Hs[s + 1])
    return Hs, (ZR, HB)


def _gru_backward(Gs, Hs, cache, W_rec, H):
    """Gs: (T, B, H) output gradients. Returns the gradients of the gate
    pre-activations (T, B, 3H) and of the recurrent weight parts."""
    ZR, HB = cache
    W_zr, W_h = W_rec
    T, B, _ = Gs.shape
    Hprev = Hs[:-1]
    Z = np.ascontiguousarray(ZR[:, :, :H])
    R = np.ascontiguousarray(ZR[:, :, H:])
    P_z = (Hprev - HB) * Z * (1.0 - Z)
    P_h = (1.0 - Z) * (1.0 - HB * HB)
    P_r = Hprev * R * (1.0 - R)
    dZ, dR, dH = np.empty((T, B, H)), np.empty((T, B, H)), np.empty((T, B, H))
    Wz_T = np.ascontiguousarray(W_zr[:, :H].T)
    Wr_T = np.ascontiguousarray(W_zr[:, H:].T)
    Wh_T = np.ascontiguousarray(W_h.T)
    carry = np.zeros((B, H))
    for s in range(T - 1, -1, -1):
        g = Gs[s] + carry
        da_h = np.multiply(g, P_h[s], out=dH[s])
        drh = np.dot(da_h, Wh_T)
        da_z = np.multiply(g, P_z[s], out=dZ[s])
        da_r = np.multiply(drh, P_r[s], out=dR[s])
        carry = g * Z[s]
        drh *= R[s]
        carry += drh
        carry += np.dot(da_z, Wz_T)
        carry += np.dot(da_r, Wr_T)
    dA = np.concatenate([dZ, dR, dH], axis=2)
    dW_zr = Hprev.reshape(-1, H).T @ dA.reshape(-1, 3 * H)[:, : 2 * H]
    dW_h = (R * Hprev).reshape(-1, H).T @ dH.reshape(-1, H)
    return dA, (dW_zr, dW_h)


def _lstm_forward(A, W_rec, H):
    """A: (T, B, 4H) hoisted input projections, the i/f/o columns halved like
    W. Returns the states (T+1, B, H) and the cache."""
    T, B, _ = A.shape
    (W,) = W_rec
    Hs = np.zeros((T + 1, B, H))
    Cs = np.zeros((T + 1, B, H))
    IFO = np.empty((T, B, 3 * H))
    TA = np.empty((T, B, 4 * H))
    TC = np.empty((T, B, H))
    for s in range(T):
        a = np.dot(Hs[s], W)
        a += A[s]
        ta = np.tanh(a, out=TA[s])  # i/f/o halved, so one tanh serves all four gates
        ifo = np.add(ta[:, : 3 * H], 1.0, out=IFO[s])
        ifo *= 0.5
        c = np.multiply(ifo[:, H : 2 * H], Cs[s], out=Cs[s + 1])
        c += ifo[:, :H] * ta[:, 3 * H :]
        tc = np.tanh(c, out=TC[s])
        np.multiply(ifo[:, 2 * H :], tc, out=Hs[s + 1])
    return Hs, (Cs, IFO, np.ascontiguousarray(TA[:, :, 3 * H :]), TC)


def _lstm_backward(Gs, Hs, cache, W_rec, H):
    """Gs: (T, B, H) output gradients. Returns the gradients of the gate
    pre-activations (T, B, 4H) and of the recurrent weight part."""
    Cs, IFO, Gc, TC = cache
    (W,) = W_rec
    T, B, _ = Gs.shape
    I, F, O = IFO[:, :, :H], IFO[:, :, H : 2 * H], IFO[:, :, 2 * H :]
    dsig = IFO * (1.0 - IFO)
    # per-gate factor multiplying dc (the output gate's block multiplies dh)
    Q = np.empty((T, B, 4, H))
    Q[:, :, 0] = Gc * dsig[:, :, :H]
    Q[:, :, 1] = Cs[:-1] * dsig[:, :, H : 2 * H]
    Q[:, :, 2] = TC * dsig[:, :, 2 * H :]
    Q[:, :, 3] = I * (1.0 - Gc * Gc)
    P_c = O * (1.0 - TC * TC)
    F = np.ascontiguousarray(F)
    dA = np.empty((T, B, 4, H))
    W_T = np.ascontiguousarray(W.T)
    dh = np.zeros((B, H))
    dc = np.zeros((B, H))
    for s in range(T - 1, -1, -1):
        gh = Gs[s] + dh
        dc += gh * P_c[s]
        np.multiply(Q[s], dc[:, None, :], out=dA[s])
        np.multiply(gh, Q[s, :, 2], out=dA[s, :, 2])
        dc *= F[s]
        dh = np.dot(dA[s].reshape(B, 4 * H), W_T)
    flat = dA.reshape(-1, 4 * H)
    dW = Hs[:-1].reshape(-1, H).T @ flat
    return dA.reshape(T, B, 4 * H), (dW,)


# kind -> (weight/bias parameter suffixes, sigmoid gates leading the fused
# columns, forward kernel, backward kernel)
_KINDS = {
    "gru": ((("W_zr", "b_zr"), ("W_h", "b_h")), 2, _gru_forward, _gru_backward),
    "lstm": ((("W", "b"),), 3, _lstm_forward, _lstm_backward),
}


def _check_lengths(lengths, n_rows: int) -> np.ndarray:
    if lengths is None:
        return np.array([n_rows])
    lens = np.asarray(lengths)
    if lens.ndim != 1 or lens.size == 0 or not np.issubdtype(lens.dtype, np.integer):
        raise ShapeError(f"run_recurrent: lengths must be a non-empty 1-d integer sequence, got {lengths!r}")
    if lens.min() < 1:
        raise ShapeError(f"run_recurrent: every sequence needs at least one row, got lengths {lens.tolist()}")
    if int(lens.sum()) != n_rows:
        raise ShapeError(f"run_recurrent: lengths sum to {int(lens.sum())}, input has {n_rows} rows")
    return lens


def _batch_layout(lens: np.ndarray, reverse: bool) -> tuple[np.ndarray, np.ndarray, int]:
    """Place packed rows in a time-major, right-padded (Tmax, B) batch in
    processing order: step s of sequence b reads its row s, or row len-1-s
    when reversed. Returns (rows, slots, Tmax): slots are the flat (s, b)
    positions of real steps and rows the packed row each one reads."""
    starts = np.cumsum(lens) - lens
    T = int(lens.max())
    s = np.arange(T)[:, None]
    offset = lens - 1 - s if reverse else np.broadcast_to(s, (T, lens.size))
    slots = np.flatnonzero(s < lens)
    return (starts + offset).ravel()[slots], slots, T


def _padded_layout(lens: np.ndarray, reverses: list[bool]):
    """(to_batch, from_batch, Tmax) over the _batch_layout of each direction.
    to_batch takes per-row arrays (N, ..., D, H), direction k at [..., k, :],
    to the (Tmax * B, ..., D, H) batch, zero at the padding steps; from_batch
    takes a batch back to rows."""
    placed = [_batch_layout(lens, rev) for rev in reverses]
    _, slots, T = placed[0]

    def to_batch(rows_array):
        batch = np.zeros((T * lens.size, *rows_array.shape[1:]))
        for k, (rows, _, _) in enumerate(placed):
            batch[slots, ..., k, :] = rows_array[rows, ..., k, :]
        return batch

    def from_batch(batch):
        real = batch[slots]
        rows_array = np.empty(real.shape)
        for k, (rows, _, _) in enumerate(placed):
            rows_array[rows, ..., k, :] = real[..., k, :]
        return rows_array

    return to_batch, from_batch, T


def _single_layout(n_rows: int, reverses: list[bool]):
    """_padded_layout for one sequence (every answering call): no padding and
    no fancy index, step s of a direction reads row s, and a reversed
    direction reads its rows through [::-1]. The order is its own inverse,
    so to_batch and from_batch are one function."""

    def flip(array):
        if not any(reverses):
            return array
        out = np.empty(array.shape)
        for k, rev in enumerate(reverses):
            out[..., k, :] = array[::-1, ..., k, :] if rev else array[..., k, :]
        return out

    return flip, flip, n_rows


def _layout(lens: np.ndarray, reverses: list[bool]):
    """The single-sequence layout for one sequence, the padded one for more;
    both give bitwise equal runs."""
    return _single_layout(int(lens[0]), reverses) if lens.size == 1 else _padded_layout(lens, reverses)


def _pair(blocks: list[np.ndarray], n_gates: int, H: int) -> np.ndarray:
    """Interleave per-direction arrays of n_gates column blocks of width H
    gate by gate: D arrays (..., n_gates*H) -> (..., n_gates*D*H), block
    (gate g, direction k) at columns (g*D + k)*H."""
    lead = blocks[0].shape[:-1]
    return np.stack([b.reshape(*lead, n_gates, H) for b in blocks], axis=-2).reshape(*lead, -1)


def _unpair(x: np.ndarray, n_gates: int, D: int, H: int, k: int) -> np.ndarray:
    """Direction k's columns of a _pair layout, (..., n_gates*H)."""
    lead = x.shape[:-1]
    return x.reshape(*lead, n_gates, D, H)[..., k, :].reshape(*lead, n_gates * H)


def _block_diagonal(blocks: list[np.ndarray], n_gates: int, H: int) -> np.ndarray:
    """Per-direction recurrent parts (H, n_gates*H) -> one (D*H, n_gates*D*H)
    matrix: direction k's state rows feed only its own gate columns."""
    D = len(blocks)
    W = np.zeros((D, H, n_gates, D, H))
    for k, block in enumerate(blocks):
        W[k, :, :, k, :] = block.reshape(H, n_gates, H)
    return W.reshape(D * H, n_gates * D * H)


def _fused_weights(params, gates: list[int], n_sigmoid: int, d: int, H: int):
    """(W_x, bias, half, W_rec, W_rec_half) of the one cell of width D*H the
    kernels see, whose every gate holds all D directions side by side: the
    paired input projection and bias, the column scales that halve the
    sigmoid gates, the block-diagonal recurrent matrices and their halved
    copies. params[k][p] is direction k's (weight, bias) of weight group p.
    The arrays are built read-only, so a cached copy cannot be changed."""
    D = len(params)
    W_x = np.concatenate(
        [_pair([group[p][0].data[:d] for group in params], n, H) for p, n in enumerate(gates)], axis=1
    )
    bias = np.concatenate([_pair([group[p][1].data for group in params], n, H) for p, n in enumerate(gates)])
    W_rec = [_block_diagonal([group[p][0].data[d:] for group in params], n, H) for p, n in enumerate(gates)]
    # the sigmoid gates lead the fused columns; the kernels get them halved
    half = np.ones(W_x.shape[1])
    half[: n_sigmoid * D * H] = 0.5
    halves = np.split(half, np.cumsum([n * D * H for n in gates])[:-1])
    W_rec_half = [W * h for W, h in zip(W_rec, halves)]
    for array in (W_x, bias, half, *W_rec, *W_rec_half):
        array.setflags(write=False)
    return W_x, bias, half, W_rec, W_rec_half


def run_recurrent(
    kind: str,
    xs: Tensor,
    store: ParamStore,
    prefix: str,
    hidden: int,
    *,
    reverse: bool = False,
    lengths=None,
    bidirectional: bool = False,
) -> Tensor:
    """Run a cell over the rows of xs: (N, D) -> (N, hidden).

    xs packs one or more sequences row-wise; lengths gives their row counts
    in order, and None means xs is a single sequence. Each sequence starts
    from a zero state. Output row t always corresponds to input row t, also
    when reverse=True. The whole run is one tape node.

    With bidirectional=True, a forward cell under {prefix}fwd/ and a reversed
    cell under {prefix}bwd/ run side by side in the same time loop, and the
    output is (N, 2*hidden): each row's forward state, then its reversed one.

    The weights the kernels read are fused from the parameters (see
    _fused_weights). A read-only store, the store of a model loaded for
    answering, builds them on its first run of each cell and keeps them in
    its cache, keyed by kind, prefix, direction layout, input width and
    hidden size; a writable store, as every training path uses, never
    caches and builds them on each call. The arithmetic is the same either
    way, so both give bitwise equal outputs.
    """
    if kind not in _KINDS:
        raise ShapeError(f"run_recurrent: unknown kind {kind!r}")
    if bidirectional and reverse:
        raise ShapeError("run_recurrent: a bidirectional run already holds the reversed direction")
    X = xs.data
    if X.ndim != 2 or X.shape[0] < 1:
        raise ShapeError(f"run_recurrent: expected non-empty (T, D) input, got {X.shape}")
    N, d = X.shape
    H = hidden
    lens = _check_lengths(lengths, N)
    names, n_sigmoid, fwd_kernel, bwd_kernel = _KINDS[kind]
    directions = [(f"{prefix}fwd/", False), (f"{prefix}bwd/", True)] if bidirectional else [(prefix, reverse)]
    D = len(directions)
    # params[k][p]: direction k's (weight, bias) of weight group p
    params = [[(store[f"{pre}{w}"], store[f"{pre}{b}"]) for w, b in names] for pre, _ in directions]
    for W_t, _ in (pair for group in params for pair in group):
        if W_t.data.shape[0] != d + H:
            raise ShapeError(f"run_recurrent: {prefix} expects {W_t.data.shape[0]} = D + hidden, got D={d}, hidden={H}")
    gates = [W_t.data.shape[1] // H for W_t, _ in params[0]]
    W_x, bias, half, W_rec, W_rec_half = store.derived(
        (kind, prefix, bidirectional, d, H), lambda: _fused_weights(params, gates, n_sigmoid, d, H)
    )
    G = W_x.shape[1]

    # both directions of a sequence have its length, so they share the slots
    to_batch, from_batch, T = _layout(lens, [rev for _, rev in directions])
    B = lens.size
    n_all = sum(gates)
    P = ((X @ W_x + bias) * half).reshape(N, n_all, D, H)
    Hs, cache = fwd_kernel(to_batch(P).reshape(T, B, G), W_rec_half, D * H)
    out = from_batch(Hs[1:].reshape(T * B, D, H))
    node = Tensor(out.reshape(N, D * H), (xs, *[t for group in params for pair in group for t in pair]))

    def bwd(grad):
        Gs = to_batch(grad.reshape(N, D, H))
        dA, dW_rec = bwd_kernel(Gs.reshape(T, B, D * H), Hs, cache, W_rec, D * H)
        # padding steps carry exactly zero gate gradient
        dA_rows = from_batch(dA.reshape(T * B, n_all, D, H)).reshape(N, G)
        accumulate(xs, dA_rows @ W_x.T)
        dW_x = X.T @ dA_rows
        db = dA_rows.sum(axis=0)
        col = 0
        for p, (n, dW_r) in enumerate(zip(gates, dW_rec)):
            cols = slice(col, col + n * D * H)
            for k, group in enumerate(params):
                W_t, b_t = group[p]
                # a real parameter's gradient is its diagonal block
                dW_r_k = _unpair(dW_r[k * H : (k + 1) * H], n, D, H, k)
                accumulate(W_t, np.concatenate([_unpair(dW_x[:, cols], n, D, H, k), dW_r_k]))
                accumulate(b_t, _unpair(db[cols], n, D, H, k))
            col += n * D * H

    node.bwd = bwd
    return node


def run_bidirectional(kind: str, xs: Tensor, store: ParamStore, prefix: str, hidden: int, *, lengths=None) -> Tensor:
    """Forward and backward passes concatenated per position: (N, D) -> (N, 2*hidden).

    Parameters live under {prefix}fwd/ and {prefix}bwd/. lengths packs
    several sequences as in run_recurrent. Both directions run in one time
    loop: sequence b's forward and reversed states sit side by side in one
    (B, 2*hidden) state, each gate's input projections are laid out
    [gate_fwd | gate_bwd], and each recurrent weight is block-diagonal, so
    the cell kernels run unchanged at width 2*hidden.
    """
    return run_recurrent(kind, xs, store, prefix, hidden, lengths=lengths, bidirectional=True)


def init_bidirectional(kind: str, store: ParamStore, prefix: str, input_dim: int, hidden: int, rng: np.random.Generator) -> None:
    init = init_gru if kind == "gru" else init_lstm
    init(store, f"{prefix}fwd/", input_dim, hidden, rng)
    init(store, f"{prefix}bwd/", input_dim, hidden, rng)
