"""Base span prediction model: shared bidirectional GRU encoder, bidirectional
attention, self-attention with a masked diagonal and residual, and start/end
span heads.

One parameter set encodes both the question and the passages (the encoder is
shared). The attention similarity is trilinear,
S_ij = w1.h_i + w2.u_j + w3.(h_i * u_j), and the per-position output of the
bidirectional attention is [h; u~; h*u~; h*h~]. Self-attention scores
context against context with S_ij = w2.h_j + w3.(h_i * h_j) (a row term
w1.h_i is constant under the row softmax), masks the diagonal, drops the
question-to-context term, and adds a residual through a linear mixing
layer. The mixing layer and the span heads have no bias: a constant logit
over positions changes neither the span NLL nor the argmax.

attend() reads one or several questions, each against one or several
contexts (a reader minibatch: one block context per question; the reasoner:
one question and its start passages), without padding: one encoder pass over
every question and context, one biattention per question over all of its
context rows, whose question-to-context softmax is masked -inf outside each
context's block, and one self-attention per question: one numcore
self_attend node scores, normalises and sums within each context's rows,
and one mixing layer runs over all of them. attend_encoded is that per-group
reading on its own, from encoder states however they were computed.

The bridge reasoner scores each anchor by its start-token row alone, about
one context row in ten, so it passes those rows to attend or
attend_encoded: self-attention then forms its queries, its residual and its
mixing layer at the anchor rows only, while keys and values still span
every row of each context. The reader reads every row.

The encoder states of a sequence do not depend on the question, so a model
loaded for answering keeps them in an EncodingMemo, keyed by the sequence's
tokens, and reads a question through attend_memoized: encode on the
question alone plus attend_encoded. The bridge reasoner keeps each start passage's (T, 2h)
states, and the reader each whole context's: a reader memo holds the
READER_MEMO_CONTEXTS contexts read most recently. The rng is the training
switch: a forward without one is inference, and one with it draws dropout
over attend's packed rows, whose states each step changes, and never reads
or fills a memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    self_attend,
    slice_rows,
    softmax_rows,
    transpose,
)

UNK_TOKEN = "<unk>"
# the width of a trained embedding table (a pre-trained vector file sets its own)
EMBED_DIM = 16
# the contexts an answering reader's memo keeps, least recently read evicted
# first: over the benchmark's answer stream at seeds 1-3 it hits on 0.78 of
# reads (0.79 unbounded) and 0.43 on open-domain (0.58 unbounded), while an
# unbounded memo raised peak RSS by 15-23%
READER_MEMO_CONTEXTS = 128


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
) -> EmbeddingTable:
    if init_matrix is None:
        init_matrix = rng.normal(0.0, 0.1, size=(len(vocab), dim))
    if init_matrix.shape != (len(vocab), dim):
        raise ValidationError(
            f"embedding matrix shape {init_matrix.shape} does not match ({len(vocab)}, {dim})"
        )
    matrix = store.add("embed/matrix", init_matrix)
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
    """Register every parameter of the span model under span/ but the span
    heads, which init_span_model adds (the bridge reasoner has none).

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
    glorot(rng, (wide, 1))  # the draw of the dropped span/selfattn/w1, so later tensors start as before
    store.add("span/selfattn/w2", glorot(rng, (wide, 1)))
    store.add("span/selfattn/w3", glorot(rng, (wide,)))
    store.add("span/selfattn/W_mix", glorot(rng, (3 * wide, wide)))


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
    rng: np.random.Generator | None = None,
) -> EncodedSeq:
    """Embed and run the shared bidirectional GRU: tokens -> (T, 2*hidden).

    With lengths, tokens holds several sequences back to back, and each is
    encoded from its own zero state, all in one pass; the output rows keep
    the tokens' order. With an rng, dropout is drawn over the packed rows, in
    the same rng order as encoding the sequences one after another.
    """
    token_list = _token_list(tokens)
    if len(token_list) == 0:
        raise ValidationError("encode: empty token sequence")
    idx = table.indices(token_list)
    emb = gather_rows(table.matrix, idx, table.row_mask)
    states = run_bidirectional("gru", emb, store, "span/enc/", hidden, lengths=lengths)
    states = dropout(states, dropout_rate, rng=rng)
    return EncodedSeq(states=states)


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


def self_attention(context: EncodedSeq, store: ParamStore, *, lengths=None, rows=None) -> EncodedSeq:
    """Context-to-context attention with the diagonal masked, residual added.

    With lengths, context packs several passages back to back and each
    attends within its own rows: one self_attend node over every row, then
    one mixing layer over every row. A length-1 passage is returned unchanged
    (no off-diagonal mass exists), so its rows get no mixing.

    With rows (packed row indices, any order, repeats allowed), the output is
    those rows only, one per entry: the anchor rows a bridge reasoner scores.
    Attention queries, the residual and the mixing layer run at rows alone;
    keys and values still span every row of each passage.
    """
    lengths = [len(context)] if lengths is None else list(lengths)
    if min(lengths, default=0) < 1 or sum(lengths) != len(context):
        raise ValidationError(f"self_attention: lengths {lengths} do not pack {len(context)} context rows")
    x = context.states
    if max(lengths) == 1:
        return context if rows is None else EncodedSeq(states=gather_rows(x, rows))
    attended = self_attend(x, store["span/selfattn/w2"], store["span/selfattn/w3"], lengths, rows)
    if rows is not None:
        x = gather_rows(x, rows)
    mixed = concat([x, attended, mul(x, attended)], axis=1)
    delta = matmul(mixed, store["span/selfattn/W_mix"])
    if min(lengths) == 1:
        # the rows of a length-1 passage keep x: their mixing is scaled by 0
        keep = np.repeat([float(n > 1) for n in lengths], lengths)
        delta = mul(delta, constant((keep if rows is None else keep[rows])[:, None]))
    return EncodedSeq(states=add(x, delta))


def span_heads(context: EncodedSeq, store: ParamStore) -> SpanScores:
    """Two independent linear projections to per-position start and end logits."""
    if len(context) == 0:
        raise ValidationError("span_heads: empty context")
    T = len(context)
    start = reshape(matmul(context.states, store["span/heads/start_w"]), (T,))
    end = reshape(matmul(context.states, store["span/heads/end_w"]), (T,))
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
class EncodingMemo:
    """The question-independent encodings an answering model has computed:
    in passages, the bi-GRU encoder states (T, 2h) of each sequence it reads
    as a context (a reasoner's start passage, a reader's whole context), and
    in abstracts, a reasoner's max-pooled abstract vector (1, 2h) of each
    target, both keyed by the tokens the encoder reads.

    Keys are token content, not titles or ids, so a caller that swaps the
    corpus under a loaded model gets the encodings of the new texts. A miss
    encodes that one sequence on its own, so every entry, and every score
    read from it, is the same whichever questions came before. With a limit,
    each of the two maps keeps at most that many entries and evicts the
    least recently read first; without one it keeps them all (a reasoner
    holds one entry per distinct passage and abstract). computed and reused
    count the misses and the hits over both maps.
    """

    limit: int | None = None
    passages: dict[tuple[str, ...], np.ndarray] = field(default_factory=dict)
    abstracts: dict[tuple[str, ...], np.ndarray] = field(default_factory=dict)
    computed: int = 0
    reused: int = 0

    def get(self, entries: dict, key: tuple[str, ...], compute) -> np.ndarray:
        """entries[key], stored from compute() on a miss."""
        value = entries.pop(key, None)
        if value is None:
            value = compute()
            self.computed += 1
            if self.limit is not None and len(entries) >= self.limit:
                del entries[next(iter(entries))]
        else:
            self.reused += 1
        # a dict keeps insertion order: the first key is the least recently read
        entries[key] = value
        return value


@dataclass
class SpanModel:
    """Parameter bundle for one span predictor (the reader, or the local
    context channel of the bridge reasoner).

    memo is None in a model built for training; a reader loaded for
    answering gets an EncodingMemo bounded at READER_MEMO_CONTEXTS, which
    run_span_model reads without an rng (see there)."""

    store: ParamStore
    table: EmbeddingTable
    hidden: int
    dropout: float
    memo: EncodingMemo | None = None


def init_span_model(
    vocab: dict[str, int],
    embed_dim: int,
    hidden: int,
    dropout_rate: float,
    rng: np.random.Generator,
    *,
    frozen_embeddings: np.ndarray | None = None,
) -> SpanModel:
    store = ParamStore()
    table = create_embedding_table(store, vocab, embed_dim, rng, frozen=frozen_embeddings is not None,
                                   init_matrix=frozen_embeddings)
    init_span_params(store, embed_dim, hidden, rng)
    store.add("span/heads/start_w", glorot(rng, (8 * hidden, 1)))
    store.add("span/heads/end_w", glorot(rng, (8 * hidden, 1)))
    return SpanModel(store=store, table=table, hidden=hidden, dropout=dropout_rate)


def attend(
    model: SpanModel,
    groups,
    *,
    rng: np.random.Generator | None = None,
    rows=None,
) -> list[EncodedSeq]:
    """Read questions against their contexts. groups is a list of
    (question, contexts) pairs; returns, per group, the self-attention output
    of its contexts back to back in context order, (sum of lengths, 8h).
    rows, when given, holds one entry per group: None, or the row indices
    into that group's contexts back to back whose outputs alone it returns
    (see self_attention).

    Every question and context of every group is encoded in one pass, in the
    order [q1, q1's contexts, q2, q2's contexts, ...], so dropout, drawn
    from rng when given, falls as if the groups were encoded one after
    another. Biattention and self-attention then run once per group over all
    of its context rows, each context attending within its own rows. Every
    context reads as it would alone.
    """
    token_lists, sizes = [], []
    for question_tokens, contexts in groups:
        group = [_token_list(question_tokens)] + [_token_list(c) for c in contexts]
        if not contexts or any(len(toks) == 0 for toks in group):
            raise ValidationError("attend: no context, or an empty question or context")
        token_lists += group
        sizes.append([len(toks) for toks in group])
    if not sizes:
        raise ValidationError("attend: no (question, contexts) group")
    lengths = [n for group in sizes for n in group]
    flat = [tok for toks in token_lists for tok in toks]
    states = encode(flat, model.table, model.store, model.hidden, lengths=lengths,
                    dropout_rate=model.dropout, rng=rng).states
    finals, start = [], 0
    for (q_len, *context_lengths), group_rows in zip(sizes, rows or [None] * len(sizes)):
        stop = start + q_len + sum(context_lengths)
        question = EncodedSeq(states=slice_rows(states, start, start + q_len))
        context = EncodedSeq(states=slice_rows(states, start + q_len, stop))
        finals.append(attend_encoded(model, question, context, context_lengths, group_rows))
        start = stop
    return finals


def attend_encoded(
    model: SpanModel, question: EncodedSeq, context: EncodedSeq, lengths, rows=None
) -> EncodedSeq:
    """One group's reading from its encoder states: biattention of the
    question over the contexts packed back to back in context (their lengths
    given), then self-attention, each context within its own rows, read at
    rows when given (see self_attention). attend runs it on the rows of its
    one encoder pass, attend_memoized on states encoded one sequence at a
    time."""
    attended = biattention(context, question, model.store, lengths=lengths)
    return self_attention(attended, model.store, lengths=lengths, rows=rows)


def attend_memoized(model: SpanModel, memo: EncodingMemo, question_tokens, contexts, rows=None) -> EncodedSeq:
    """attend's inference reading of one group, each context's encoder
    states taken from memo.passages (a miss encodes that context on its
    own) and the question encoded on its own."""
    keys = [tuple(_token_list(c)) for c in contexts]
    states = [
        memo.get(memo.passages, key, lambda key=key: encode(key, model.table, model.store, model.hidden).states.data)
        for key in keys
    ]
    context = EncodedSeq(states=constant(np.concatenate(states)))
    question = encode(question_tokens, model.table, model.store, model.hidden)
    return attend_encoded(model, question, context, [len(key) for key in keys], rows)


def run_span_model(
    model: SpanModel,
    question_tokens,
    context_tokens,
    *,
    rng: np.random.Generator | None = None,
) -> tuple[EncodedSeq, SpanScores]:
    """Full forward pass over one context; returns the final per-token
    representations (the self-attention output) and the span scores.

    Without an rng, a model with a memo (a reader loaded for answering)
    reads through attend_memoized; with one, the memo is neither read nor
    filled."""
    if rng is None and model.memo is not None:
        final = attend_memoized(model, model.memo, question_tokens, [context_tokens])
    else:
        (final,) = attend(model, [(question_tokens, [context_tokens])], rng=rng)
    return final, span_heads(final, model.store)
