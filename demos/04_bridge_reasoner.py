"""Training the bridge reasoner on a slice of the tiny wiki and watching the
answer passage climb the ranking, where lexical retrieval scored it zero.

This is a deliberately short run on 8 questions so the script finishes in
about a minute; expect partial convergence. The acceptance suite trains the
full fixture to Hits@1 >= 0.95. The evidence ablations then train a
reasoner with one channel each, from the same initial draws: one without
the context channel holds no span model, one without the content channel
no abstract encoder.
"""

import tempfile

import numpy as np

from bridgeqa.ablation import PipelineState, linked_passages, start_passages_for
from bridgeqa.bridge import (
    TitleTokenLinker,
    derive_bridge_labels,
    evaluate_hits,
    init_bridge_model,
    predict_ranked_titles,
    prepare_question_inputs,
    train_bridge_reasoner,
)
from bridgeqa.config import EVIDENCE, PipelineConfig
from bridgeqa.corpus import load_corpus, load_questions
from bridgeqa.retrieval import build_index
from bridgeqa.span_model import build_vocab
from bridgeqa.tinywiki import write_fixture


def main():
    workdir = tempfile.mkdtemp(prefix="bridgeqa_demo_")
    paths = write_fixture(workdir, seed=7)
    corpus = load_corpus(paths["corpus"])
    train = load_questions(paths["train_questions"])
    # the default config's start set: the top 10 retrieved passages plus up
    # to 2 linked pages not among them
    state = PipelineState(corpus, build_index(corpus), PipelineConfig(), linker=TitleTokenLinker(corpus))

    bridge_questions = [q for q in train if q.qtype == "bridge"][:8]
    labels, skipped = derive_bridge_labels(bridge_questions, corpus, seed=13)
    print(f"distant supervision labeled {len(labels)} questions, skipped {len(skipped)}")

    start_sets = {q.id: start_passages_for(state, q, linked_passages(state, q)) for q in bridge_questions}

    vocab = build_vocab(
        [p.tokens.tokens for p in corpus.passages]
        + [p.title_tokens.tokens for p in corpus.passages]
        + [q.question_tokens.tokens for q in train]
    )
    def new_model(evidence=EVIDENCE):
        return init_bridge_model(vocab, embed_dim=16, gru_hidden=12, lstm_hidden=12,
                                 dropout_rate=0.0, rng=np.random.default_rng(13),
                                 abstract_max_tokens=16, evidence=evidence)

    def train(model):
        return train_bridge_reasoner(
            model, inputs, corpus,
            PipelineConfig(lr=5e-3, bridge_epochs=45, seed=13, bridge_early_stop_hits1=1.0),
        )

    model = new_model()
    inputs = prepare_question_inputs(bridge_questions, labels, start_sets, corpus)

    q0 = inputs[0]
    print(f"\nquestion: {q0.record.question}")
    print(f"gold answer passage: {q0.label.gold_title}")
    before = predict_ranked_titles(model, q0.record, q0.start_passages, corpus, k=3)
    print("untrained top-3:", [t for t, _ in before])

    stats = train(model)
    print(f"\ntrained for {stats['epochs_run']} epochs; per-epoch Hits@1:")
    print("  " + " ".join(f"{h['train_hits1']:.2f}" for h in stats["history"]))

    after = predict_ranked_titles(model, q0.record, q0.start_passages, corpus, k=3)
    print("trained top-3:", [(t, round(s, 2)) for t, s in after])
    print("clean train Hits@1:", evaluate_hits(model, inputs, corpus))

    # evidence ablations: a reasoner trained with the one channel left
    print("\nevidence ablations, each trained on its own:")
    for name, evidence in (("no local context evidence", ("content",)),
                           ("no passage content evidence", ("context",))):
        ablated = new_model(evidence)
        ablated_stats = train(ablated)
        ranked = predict_ranked_titles(ablated, q0.record, q0.start_passages, corpus, k=1)
        print(f"{name:>28}: {len(ablated.store)} tensors, {ablated_stats['epochs_run']} epochs, "
              f"top-1 = {ranked[0][0]}, clean train Hits@1 = {evaluate_hits(ablated, inputs, corpus)}")


if __name__ == "__main__":
    main()
