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

Sigmoid gates use the form of tensor.sigmoid_array, 0.5 * (1 + tanh(a / 2)).
The runner halves the sigmoid gates' weight columns before the loop, which is
exact in binary floating point, so the kernels apply tanh to them directly.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .params import ParamStore, glorot
from .tensor import Tensor, accumulate, concat


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


def run_recurrent(
    kind: str,
    xs: Tensor,
    store: ParamStore,
    prefix: str,
    hidden: int,
    *,
    reverse: bool = False,
    lengths=None,
) -> Tensor:
    """Run a cell over the rows of xs: (N, D) -> (N, hidden).

    xs packs one or more sequences row-wise; lengths gives their row counts
    in order, and None means xs is a single sequence. Each sequence starts
    from a zero state. Output row t always corresponds to input row t, also
    when reverse=True. The whole run is one tape node.
    """
    if kind not in _KINDS:
        raise ShapeError(f"run_recurrent: unknown kind {kind!r}")
    X = xs.data
    if X.ndim != 2 or X.shape[0] < 1:
        raise ShapeError(f"run_recurrent: expected non-empty (T, D) input, got {X.shape}")
    N, d = X.shape
    H = hidden
    lens = _check_lengths(lengths, N)
    names, n_sigmoid, fwd_kernel, bwd_kernel = _KINDS[kind]
    params = [(store[f"{prefix}{w}"], store[f"{prefix}{b}"]) for w, b in names]
    for W_t, _ in params:
        if W_t.data.shape[0] != d + H:
            raise ShapeError(f"run_recurrent: {prefix} expects {W_t.data.shape[0]} = D + hidden, got D={d}, hidden={H}")
    widths = [W_t.data.shape[1] for W_t, _ in params]
    W_x = np.concatenate([W_t.data[:d] for W_t, _ in params], axis=1)
    bias = np.concatenate([b_t.data for _, b_t in params])
    W_rec = [W_t.data[d:] for W_t, _ in params]
    G = W_x.shape[1]
    # the sigmoid gates lead the fused columns; the kernels get them halved
    half = np.ones(G)
    half[: n_sigmoid * H] = 0.5
    halves = np.split(half, np.cumsum(widths)[:-1])
    W_rec_half = [W * h for W, h in zip(W_rec, halves)]

    rows, slots, T = _batch_layout(lens, reverse)
    B = lens.size
    A = np.zeros((T * B, G))
    A[slots] = ((X @ W_x + bias) * half)[rows]
    Hs, cache = fwd_kernel(A.reshape(T, B, G), W_rec_half, H)
    out = np.empty((N, H))
    out[rows] = Hs[1:].reshape(-1, H)[slots]
    node = Tensor(out, (xs, *[t for pair in params for t in pair]))

    def bwd(grad):
        Gs = np.zeros((T * B, H))
        Gs[slots] = grad[rows]
        dA, dW_rec = bwd_kernel(Gs.reshape(T, B, H), Hs, cache, W_rec, H)
        # padding steps carry exactly zero gate gradient
        dA_rows = np.empty((N, G))
        dA_rows[rows] = dA.reshape(-1, G)[slots]
        accumulate(xs, dA_rows @ W_x.T)
        dW_x = X.T @ dA_rows
        db = dA_rows.sum(axis=0)
        col = 0
        for (W_t, b_t), width, dW_r in zip(params, widths, dW_rec):
            accumulate(W_t, np.concatenate([dW_x[:, col : col + width], dW_r]))
            accumulate(b_t, db[col : col + width])
            col += width

    node.bwd = bwd
    return node


def run_bidirectional(kind: str, xs: Tensor, store: ParamStore, prefix: str, hidden: int, *, lengths=None) -> Tensor:
    """Forward and backward passes concatenated per position: (N, D) -> (N, 2*hidden).

    Parameters live under {prefix}fwd/ and {prefix}bwd/. lengths packs
    several sequences as in run_recurrent.
    """
    fwd = run_recurrent(kind, xs, store, f"{prefix}fwd/", hidden, lengths=lengths)
    bwd = run_recurrent(kind, xs, store, f"{prefix}bwd/", hidden, reverse=True, lengths=lengths)
    return concat([fwd, bwd], axis=1)


def init_bidirectional(kind: str, store: ParamStore, prefix: str, input_dim: int, hidden: int, rng: np.random.Generator) -> None:
    init = init_gru if kind == "gru" else init_lstm
    init(store, f"{prefix}fwd/", input_dim, hidden, rng)
    init(store, f"{prefix}bwd/", input_dim, hidden, rng)
