"""Base span prediction model: shared bidirectional GRU encoder, bidirectional
attention, self-attention with a masked diagonal and residual, and start/end
span heads.

One parameter set encodes both the question and the passages (the encoder is
shared). The attention similarity is trilinear,
S_ij = w1.h_i + w2.u_j + w3.(h_i * u_j), and the per-position output of the
bidirectional attention is [h; u~; h*u~; h*h~]. Self-attention reuses the
same kernel context-to-context, masks the diagonal, drops the
question-to-context term, and adds a residual through a linear mixing layer.

attend() reads a question against one or several contexts (the reader's
one block context, or the reasoner's start passages) without padding: one
encoder pass over the question and every context, one biattention over all
context rows, whose question-to-context softmax is masked -inf outside each
context's block, and self-attention within each context, whose only masked
scores are its diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import TokenSeq
from .errors import ShapeError, ValidationError
from .numcore import (
    ParamStore,
    Tensor,
    add,
    concat,
    constant,
    cross_entropy_from_logits,
    dropout,
    gather_rows,
    glorot,
    matmul,
    mul,
    reshape,
    row_max,
    run_bidirectional,
    slice_rows,
    softmax_rows,
    transpose,
)

UNK_TOKEN = "<unk>"


@dataclass
class EmbeddingTable:
    """Token -> row lookup over a trainable or frozen vector table.

    When frozen, gradient still flows to the unk row (the one vector that is
    always trained).
    """

    vocab: dict[str, int]
    matrix: Tensor
    unk_index: int
    frozen: bool

    @cached_property
    def row_mask(self) -> np.ndarray | None:
        """The gradient mask of a frozen table, built on first use."""
        if not self.frozen:
            return None
        mask = np.zeros(self.matrix.data.shape[0])
        mask[self.unk_index] = 1.0
        return mask

    def indices(self, tokens) -> np.ndarray:
        unk = self.unk_index
        return np.array([self.vocab.get(t, unk) for t in tokens], dtype=np.int64)


def build_vocab(token_sources) -> dict[str, int]:
    """Sorted vocabulary over every token seen, with the unk token at row 0."""
    seen: set[str] = set()
    for source in token_sources:
        seen.update(source)
    vocab = {UNK_TOKEN: 0}
    for tok in sorted(seen):
        if tok not in vocab:
            vocab[tok] = len(vocab)
    return vocab


def create_embedding_table(
    store: ParamStore,
    vocab: dict[str, int],
    dim: int,
    rng: np.random.Generator,
    *,
    frozen: bool = False,
    init_matrix: np.ndarray | None = None,
    name: str = "embed/matrix",
) -> EmbeddingTable:
    if init_matrix is None:
        init_matrix = rng.normal(0.0, 0.1, size=(len(vocab), dim))
    if init_matrix.shape != (len(vocab), dim):
        raise ValidationError(
            f"embedding matrix shape {init_matrix.shape} does not match ({len(vocab)}, {dim})"
        )
    matrix = store.add(name, init_matrix)
    if UNK_TOKEN not in vocab:
        raise ValidationError(f"vocabulary must contain the {UNK_TOKEN!r} token")
    return EmbeddingTable(vocab=vocab, matrix=matrix, unk_index=vocab[UNK_TOKEN], frozen=frozen)


def load_embedding_text(path) -> tuple[list[str], np.ndarray]:
    """Read the standard text word-vector format: one token per line followed by
    d space-separated floats; d is taken from the first line."""
    tokens: list[str] = []
    vectors: list[np.ndarray] = []
    dim = None
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                raise ValidationError(f"embedding line {line_no}: too few fields")
            if dim is None:
                dim = len(parts) - 1
            elif len(parts) - 1 != dim:
                raise ValidationError(
                    f"embedding line {line_no}: expected {dim} values, got {len(parts) - 1}"
                )
            tokens.append(parts[0])
            try:
                vectors.append(np.array([float(v) for v in parts[1:]]))
            except ValueError as exc:
                raise ValidationError(f"embedding line {line_no}: non-numeric value") from exc
    if not tokens:
        raise ValidationError("embedding file is empty")
    return tokens, np.stack(vectors)


@dataclass
class EncodedSeq:
    states: Tensor  # (T, width)

    def __len__(self) -> int:
        return self.states.data.shape[0]


@dataclass
class SpanScores:
    start_logits: Tensor  # (T,)
    end_logits: Tensor  # (T,)


def init_span_params(store: ParamStore, embed_dim: int, hidden: int, rng: np.random.Generator) -> None:
    """Register every parameter of the span model under span/.

    The encoder is a single bidirectional GRU shared by question and passage;
    widths: encoder output 2h, biattention output 8h, self-attention output 8h.
    """
    from .numcore import init_bidirectional

    init_bidirectional("gru", store, "span/enc/", embed_dim, hidden, rng)
    enc = 2 * hidden
    store.add("span/biattn/w1", glorot(rng, (enc, 1)))
    store.add("span/biattn/w2", glorot(rng, (enc, 1)))
    store.add("span/biattn/w3", glorot(rng, (enc,)))
    wide = 4 * enc
    store.add("span/selfattn/w1", glorot(rng, (wide, 1)))
    store.add("span/selfattn/w2", glorot(rng, (wide, 1)))
    store.add("span/selfattn/w3", glorot(rng, (wide,)))
    store.add("span/selfattn/W_mix", glorot(rng, (3 * wide, wide)))
    store.add("span/selfattn/b_mix", np.zeros(wide))
    store.add("span/heads/start_w", glorot(rng, (wide, 1)))
    store.add("span/heads/start_b", np.zeros(1))
    store.add("span/heads/end_w", glorot(rng, (wide, 1)))
    store.add("span/heads/end_b", np.zeros(1))


def _token_list(tokens) -> list[str]:
    return tokens.tokens if isinstance(tokens, TokenSeq) else list(tokens)


def encode(
    tokens,
    table: EmbeddingTable,
    store: ParamStore,
    hidden: int,
    *,
    lengths=None,
    dropout_rate: float = 0.0,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> EncodedSeq:
    """Embed and run the shared bidirectional GRU: tokens -> (T, 2*hidden).

    With lengths, tokens holds several sequences back to back, and each is
    encoded from its own zero state, all in one pass; the output rows keep
    the tokens' order. Dropout is drawn over the packed rows, in the same rng
    order as encoding the sequences one after another.
    """
    token_list = _token_list(tokens)
    if len(token_list) == 0:
        raise ValidationError("encode: empty token sequence")
    idx = table.indices(token_list)
    emb = gather_rows(table.matrix, idx, table.row_mask)
    states = run_bidirectional("gru", emb, store, "span/enc/", hidden, lengths=lengths)
    states = dropout(states, dropout_rate, training=training, rng=rng)
    return EncodedSeq(states=states)


def _trilinear_scores(a: EncodedSeq, b: EncodedSeq, store: ParamStore, prefix: str) -> Tensor:
    """S_ij = w1.a_i + w2.b_j + w3.(a_i * b_j): a (Ta, 1) column plus a
    (1, Tb) row, broadcast, plus the (Ta, Tb) product term."""
    part1 = matmul(a.states, store[f"{prefix}w1"])
    part2 = transpose(matmul(b.states, store[f"{prefix}w2"]))
    part3 = matmul(mul(a.states, store[f"{prefix}w3"]), transpose(b.states))
    return add(add(part1, part2), part3)


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
    S = _trilinear_scores(context, question, store, "span/biattn/")
    # context-to-question: attend over question positions per context row
    c2q = matmul(softmax_rows(S), question.states)
    # question-to-context: per passage, one (1, W) row from a distribution
    # over its rows (their row maxima), copied to each of its positions
    segment = np.repeat(np.arange(len(lengths)), lengths)
    blocks = np.full((len(lengths), len(context)), -np.inf)
    blocks[segment, np.arange(len(context))] = 0.0
    beta = softmax_rows(add(transpose(row_max(S)), constant(blocks)))
    q2c = gather_rows(matmul(beta, context.states), segment)
    h = context.states
    out = concat([h, c2q, mul(h, c2q), mul(h, q2c)], axis=1)
    return EncodedSeq(states=out)


def self_attention(context: EncodedSeq, store: ParamStore) -> EncodedSeq:
    """Context-to-context attention with the diagonal masked, residual added.

    A length-1 context is returned unchanged (no off-diagonal mass exists).
    """
    T = len(context)
    if T == 0:
        raise ValidationError("self_attention: empty context")
    if T == 1:
        return context
    S = _trilinear_scores(context, context, store, "span/selfattn/")
    diag = np.zeros((T, T))
    np.fill_diagonal(diag, -np.inf)
    S = add(S, constant(diag))
    attended = matmul(softmax_rows(S), context.states)
    x = context.states
    mixed = concat([x, attended, mul(x, attended)], axis=1)
    out = add(x, add(matmul(mixed, store["span/selfattn/W_mix"]), store["span/selfattn/b_mix"]))
    return EncodedSeq(states=out)


def span_heads(context: EncodedSeq, store: ParamStore) -> SpanScores:
    """Two independent linear projections to per-position start and end logits."""
    if len(context) == 0:
        raise ValidationError("span_heads: empty context")
    T = len(context)
    start = reshape(add(matmul(context.states, store["span/heads/start_w"]), store["span/heads/start_b"]), (T,))
    end = reshape(add(matmul(context.states, store["span/heads/end_w"]), store["span/heads/end_b"]), (T,))
    return SpanScores(start_logits=start, end_logits=end)


def span_nll_loss(scores: SpanScores, gold_start: int, gold_end: int) -> Tensor:
    """Cross-entropy of the gold start plus the gold end, each globally
    normalized over the full context."""
    T = scores.start_logits.data.shape[0]
    if not (0 <= gold_start <= gold_end < T):
        raise ValidationError(f"gold span ({gold_start}, {gold_end}) invalid for length {T}")
    return add(
        cross_entropy_from_logits(scores.start_logits, gold_start),
        cross_entropy_from_logits(scores.end_logits, gold_end),
    )


@dataclass
class SpanModel:
    """Parameter bundle for one span predictor (the reader, or the local
    context channel of the bridge reasoner)."""

    store: ParamStore
    table: EmbeddingTable
    hidden: int
    dropout: float


def init_span_model(
    vocab: dict[str, int],
    embed_dim: int,
    hidden: int,
    dropout_rate: float,
    rng: np.random.Generator,
    *,
    store: ParamStore | None = None,
    frozen_embeddings: np.ndarray | None = None,
) -> SpanModel:
    store = store if store is not None else ParamStore()
    table = create_embedding_table(store, vocab, embed_dim, rng, frozen=frozen_embeddings is not None,
                                   init_matrix=frozen_embeddings)
    init_span_params(store, embed_dim, hidden, rng)
    return SpanModel(store=store, table=table, hidden=hidden, dropout=dropout_rate)


def attend(
    model: SpanModel,
    question_tokens,
    contexts,
    *,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> EncodedSeq:
    """Read a question against several contexts: the self-attention output of
    every context, back to back in context order, (sum of lengths, 8h).

    The question and the contexts are encoded in one pass, and biattention
    runs once over all context rows; self-attention stays within each
    context. Every context reads as it would alone.
    """
    token_lists = [_token_list(question_tokens)] + [_token_list(c) for c in contexts]
    if not contexts or any(len(toks) == 0 for toks in token_lists):
        raise ValidationError("attend: no context, or an empty question or context")
    lengths = [len(toks) for toks in token_lists]
    flat = [tok for toks in token_lists for tok in toks]
    states = encode(flat, model.table, model.store, model.hidden, lengths=lengths,
                    dropout_rate=model.dropout, training=training, rng=rng).states
    q_len = lengths[0]
    question = EncodedSeq(states=slice_rows(states, 0, q_len))
    context = EncodedSeq(states=slice_rows(states, q_len, states.data.shape[0]))
    attended = biattention(context, question, model.store, lengths=lengths[1:]).states
    finals, start = [], 0
    for n in lengths[1:]:
        rows = EncodedSeq(states=slice_rows(attended, start, start + n))
        finals.append(self_attention(rows, model.store).states)
        start += n
    return EncodedSeq(states=concat(finals, axis=0))


def run_span_model(
    model: SpanModel,
    question_tokens,
    context_tokens,
    *,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[EncodedSeq, SpanScores]:
    """Full forward pass over one context; returns the final per-token
    representations (the self-attention output) and the span scores."""
    final = attend(model, question_tokens, [context_tokens], training=training, rng=rng)
    return final, span_heads(final, model.store)
