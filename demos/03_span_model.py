"""The span prediction model, layer by layer: shared bidirectional GRU
encoding, bidirectional attention, diagonal-masked self-attention, span
heads, and span decoding over a block context with yes/no sentinels.

The reader reads self-attention only through its two span heads, so it
passes them as self-attention's readout: the mixing layer is folded into the
heads, and the full per-token states are never formed.
"""

import numpy as np

from bridgeqa.corpus import Passage, tokenize
from bridgeqa.numcore import constant
from bridgeqa.reader import build_reader_context, decode_answer
from bridgeqa.span_model import (
    biattention,
    build_vocab,
    encode,
    head_readout,
    init_span_model,
    run_span_model,
    self_attention,
    span_heads,
)


def main():
    question = "who stars in kiss and tell"
    passage = Passage(
        id="p1",
        title="Kiss and Tell (1945 film)",
        text="Kiss and Tell stars Shirley Temple as Corliss Archer.",
        tokens=tokenize("Kiss and Tell stars Shirley Temple as Corliss Archer."),
    )
    vocab = build_vocab([tokenize(question).tokens, passage.tokens.tokens,
                         tokenize(passage.title).tokens, ("yes", "no")])
    model = init_span_model(vocab, embed_dim=8, hidden=4, dropout_rate=0.0,
                            rng=np.random.default_rng(1))

    q = encode(tokenize(question), model.table, model.store, model.hidden)
    c = encode(passage.tokens, model.table, model.store, model.hidden)
    print(f"encoded question: {q.states.data.shape}, passage: {c.states.data.shape}")

    attended = biattention(c, q, model.store)
    print(f"after bidirectional attention: {attended.states.data.shape}  "
          "(= [h; q-aware; h*q-aware; h*summary])")
    final = self_attention(attended, model.store, readout=constant(np.eye(8 * model.hidden)))
    print(f"after self-attention (+residual), read through the identity: {final.states.data.shape}")
    read = self_attention(attended, model.store, readout=head_readout(model.store))
    print(f"self-attention read through the two span heads: {read.states.data.shape}")
    scores = span_heads(read.states)
    print(f"span logits per token: start {scores.start_logits.data.shape}, "
          f"end {scores.end_logits.data.shape}")
    heads = final.states.data @ head_readout(model.store).data
    print(f"equal to the heads over the full states: {np.allclose(read.states.data, heads, rtol=0, atol=1e-12)}")

    # the reader wraps passages into one block context with sentinels
    context = build_reader_context([passage])
    _, ctx_scores = run_span_model(model, tokenize(question), context.tokens)
    print(f"\nblock context ({len(context)} tokens): {context.tokens[:8]} ...")
    print("untrained decode (arbitrary):", repr(decode_answer(ctx_scores, context)))

    # force the span onto 'shirley temple' to show character-exact decoding
    start = np.full(len(context), -5.0)
    end = np.full(len(context), -5.0)
    i = context.tokens.index("shirley", 4)  # the occurrence inside the text block
    start[i], end[i + 1] = 5.0, 5.0
    print("forced span decodes to original text:", repr(decode_answer((start, end), context)))


if __name__ == "__main__":
    main()
