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

Self-attention's output is only ever read through linear heads: the
reader's two span heads (head_readout), and the reasoner's fusion weights
over its context channel. So self_attention takes those heads as a readout
V, (8h, k), and returns x.V + (mixed.(W_mix.V)) * keep: the mixing layer is
read through its heads, an (24h, k) matmul with k <= 2 in place of an
(24h, 8h) one, in forward and backward. A readout is always given; the
identity gives the full states.

attend() is the one reading path, in training and in answering, of the
reader and of the bridge reasoner alike. It reads one or several questions,
each against one or several contexts (a reader minibatch: one block context
per question; the reasoner: one question and its start passages), without
padding: one encoder pass over every question and context, then per
question two numcore nodes, each with its backward written out. One
biattend node reads the question against all of its context rows, its
question-to-context softmax masked -inf outside each context's block. One
self_attend node scores all of its contexts in one matrix, masked -inf
outside each context's rows, normalises and sums, and runs one mixing
layer and the residual, read through the readout, over all of them.

The bridge reasoner scores each anchor by its start-token row alone, about
one context row in ten, so it passes those rows to attend: self-attention
then forms its queries, its residual and its mixing layer at the anchor rows
only, while keys and values still span every row of each context. The
reader reads every row.

The encoder states of a sequence do not depend on the question, so a model
loaded for answering keeps them in an EncodingMemo on the SpanModel that
encodes them, keyed by the sequence's tokens; attend then encodes only the
questions in its pass and takes each context's states from the memo. The
bridge reasoner keeps each start passage's (T, 2h) states, and the reader
each whole context's: a reader memo holds the READER_MEMO_CONTEXTS contexts
read most recently. The rng is the training switch: a forward without one
is inference, and one with it draws dropout over attend's packed rows,
whose states each step changes, and never reads or fills a memo.
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
    biattend,
    concat,
    constant,
    cross_entropy_from_logits,
    dropout,
    gather_rows,
    glorot,
    reshape,
    run_bidirectional,
    self_attend,
    slice_cols,
    slice_rows,
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
            if not np.isfinite(vectors[-1]).all():
                raise ValidationError(f"embedding line {line_no}: non-finite value")
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
    """Question-aware context states: per position [h; u~; h*u~; h*h~], one
    numcore biattend node.

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
    if min(lengths, default=0) < 1 or sum(lengths) != len(context):
        raise ValidationError(f"biattention: lengths {lengths} do not pack {len(context)} context rows")
    w = [store[f"span/biattn/{name}"] for name in ("w1", "w2", "w3")]
    return EncodedSeq(states=biattend(context.states, question.states, *w, lengths))


def self_attention(context: EncodedSeq, store: ParamStore, *, readout: Tensor, lengths=None, rows=None) -> EncodedSeq:
    """Context-to-context attention with the diagonal masked, residual added,
    read through a readout matrix, as one numcore self_attend node.

    Its output states are x.V + (mixed.(W_mix.V)) * keep for a readout V of
    shape (8h, k), where x is the context's rows, mixed = [x; att; x*att]
    with att their attention over the context, and keep is 0 at the rows of
    length-1 passages (no off-diagonal mass exists, so they get no mixing)
    and 1 elsewhere. Its readers read the output only through linear heads,
    so each passes its heads as V, and the mixing layer is read through
    them: an (24h, k) matmul, k <= 2, in place of an (24h, 8h) one. The
    identity readout gives the full states.

    With lengths, context packs several passages back to back and each
    attends within its own rows: one masked score matrix, and one mixing
    layer, over every row. A context of length-1 passages only reads x.V.

    With rows (packed row indices, any order, repeats allowed), the output is
    those rows only, one per entry: the anchor rows a bridge reasoner scores.
    Attention queries, the residual and the mixing layer run at rows alone;
    keys and values still span every row of each passage.
    """
    lengths = [len(context)] if lengths is None else list(lengths)
    if min(lengths, default=0) < 1 or sum(lengths) != len(context):
        raise ValidationError(f"self_attention: lengths {lengths} do not pack {len(context)} context rows")
    w = [store[f"span/selfattn/{name}"] for name in ("w2", "w3", "W_mix")]
    return EncodedSeq(states=self_attend(context.states, *w, readout, lengths, rows))


def head_readout(store: ParamStore) -> Tensor:
    """(8h, 2): the start and end heads side by side, the readout through
    which a reader reads self-attention (see self_attention)."""
    return concat([store["span/heads/start_w"], store["span/heads/end_w"]], axis=1)


def span_heads(logits: Tensor) -> SpanScores:
    """Per-position start and end logits: the two columns of self-attention
    read through head_readout. The heads are two independent linear
    projections of self-attention's states; self-attention reads its mixing
    layer through them, so those states are never formed (see
    self_attention)."""
    if logits.data.ndim != 2 or logits.data.shape[0] == 0 or logits.data.shape[1] != 2:
        raise ValidationError(f"span_heads: expected (T, 2) logits, got shape {logits.data.shape}")
    T = logits.data.shape[0]
    start = reshape(slice_cols(logits, 0, 1), (T,))
    end = reshape(slice_cols(logits, 1, 2), (T,))
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

    Its entries stay valid because a loaded model is read-only: its
    ParamStore refuses every write, and it also caches the fused weights of
    each recurrent cell, so a miss encodes without rebuilding them. A
    training store is writable and caches neither.
    """

    limit: int | None = None
    passages: dict[tuple[str, ...], np.ndarray] = field(default_factory=dict)
    abstracts: dict[tuple[str, ...], np.ndarray] = field(default_factory=dict)
    computed: int = 0
    reused: int = 0

    def rows(self, entries: dict, token_lists, encode) -> Tensor:
        """The encodings of token_lists stacked in order, a constant: each
        read from entries, keyed by its tokens, and on a miss stored from
        encode(tokens), which encodes that one sequence on its own."""
        stacked = []
        for key in map(tuple, token_lists):
            value = entries.pop(key, None)
            if value is None:
                value = encode(key).data
                self.computed += 1
                if self.limit is not None and len(entries) >= self.limit:
                    del entries[next(iter(entries))]
            else:
                self.reused += 1
            # a dict keeps insertion order: the first key is the least recently read
            entries[key] = value
            stacked.append(value)
        return constant(np.concatenate(stacked))


@dataclass
class SpanModel:
    """Parameter bundle for one span predictor (the reader, or the local
    context channel of the bridge reasoner), read through attend.

    memo is None in a model built for training, whose store is writable and
    caches nothing. A model loaded for answering (load_pipeline_state) gets
    an EncodingMemo, which attend reads without an rng, and a read-only
    store, whose cache holds the encoder bi-GRU's fused weights
    (numcore.run_recurrent): a reader's memo is bounded at
    READER_MEMO_CONTEXTS, the bridge reasoner's is unbounded and also holds
    its abstract vectors (see bridge.BridgeModel)."""

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
    readout: Tensor,
    rng: np.random.Generator | None = None,
    rows=None,
) -> list[EncodedSeq]:
    """Read questions against their contexts. groups is a list of
    (question, contexts) pairs; returns, per group, the self-attention output
    of its contexts back to back in context order, read through readout:
    (sum of lengths, k) for a readout of k columns. rows, when given, holds
    one entry per group: None, or the row indices into that group's contexts
    back to back whose outputs alone it returns (see self_attention).

    Every question and context of every group is encoded in one pass, in the
    order [q1, q1's contexts, q2, q2's contexts, ...], so dropout, drawn
    from rng when given, falls as if the groups were encoded one after
    another. Without an rng, a model with a memo (one loaded for answering)
    encodes only the questions in that pass and takes each context's encoder
    states from memo.passages, a miss encoded on its own. Biattention and
    self-attention then run once per group over all of its context rows,
    each context attending within its own rows. Every context reads as it
    would alone.
    """
    read = []
    for question_tokens, contexts in groups:
        group = [_token_list(question_tokens)] + [_token_list(c) for c in contexts]
        if not contexts or any(len(toks) == 0 for toks in group):
            raise ValidationError("attend: no context, or an empty question or context")
        read.append(group)
    if not read:
        raise ValidationError("attend: no (question, contexts) group")
    if rows is None:
        rows = [None] * len(read)
    elif len(rows) != len(read):
        raise ValidationError(f"attend: {len(rows)} entries of rows for {len(read)} groups")
    memo = model.memo if rng is None else None
    packed = [toks for group in read for toks in (group if memo is None else group[:1])]
    states = encode([tok for toks in packed for tok in toks], model.table, model.store, model.hidden,
                    lengths=[len(toks) for toks in packed], dropout_rate=model.dropout, rng=rng).states
    finals, start = [], 0
    for (question, *contexts), group_rows in zip(read, rows):
        lengths = [len(toks) for toks in contexts]
        question_states = EncodedSeq(states=slice_rows(states, start, start + len(question)))
        start += len(question)
        if memo is None:
            context = slice_rows(states, start, start + sum(lengths))
            start += sum(lengths)
        else:
            context = memo.rows(memo.passages, contexts,
                                lambda toks: encode(toks, model.table, model.store, model.hidden).states)
        attended = biattention(EncodedSeq(states=context), question_states, model.store, lengths=lengths)
        finals.append(self_attention(attended, model.store, lengths=lengths, rows=group_rows, readout=readout))
    return finals


def run_span_model(
    model: SpanModel,
    question_tokens,
    context_tokens,
    *,
    rng: np.random.Generator | None = None,
) -> tuple[EncodedSeq, SpanScores]:
    """Full forward pass over one context; returns the self-attention output
    read through the span heads, (T, 2) (see head_readout), and the span
    scores, its two columns (see attend for the rng and the memo)."""
    (final,) = attend(model, [(question_tokens, [context_tokens])], rng=rng, readout=head_readout(model.store))
    return final, span_heads(final.states)
