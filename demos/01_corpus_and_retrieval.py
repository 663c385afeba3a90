"""Corpus loading, tokenization, anchors, and the lexical trap.

Builds the bundled tiny wiki, indexes it, and shows why plain lexical
retrieval cannot find the answer passage of a multi-hop question: the pages
that share words with the question are traps, and the page holding the
answer shares none.
"""

import tempfile

from bridgeqa.corpus import load_corpus, load_questions, tokenize
from bridgeqa.retrieval import build_index, retrieve_start_passages
from bridgeqa.tinywiki import write_fixture


def main():
    workdir = tempfile.mkdtemp(prefix="bridgeqa_demo_")
    paths = write_fixture(workdir, seed=7)
    corpus = load_corpus(paths["corpus"])
    questions = load_questions(paths["train_questions"])
    print(f"tiny wiki: {len(corpus)} passages, {len(questions)} training questions\n")

    film = corpus.by_id["film00"]
    print(f"start passage: {film.title}")
    print(f"  text: {film.text}")
    for anchor in film.anchors:
        mention = film.text[anchor.char_start : anchor.char_end]
        print(f"  anchor {mention!r} -> {anchor.target_title!r} "
              f"(tokens {anchor.token_start}..{anchor.token_end})")

    question = questions[0]
    print(f"\nquestion: {question.question}")
    print(f"answer:   {question.answer}")
    print(f"tokens:   {list(tokenize(question.question).tokens)[:8]} ...")

    index = build_index(corpus)
    print(f"\nindex: {index.N} documents, {len(index.body.term_id)} body terms")
    print("top-10 start passages by hybrid BM25 + title tf-idf:")
    for r in retrieve_start_passages(index, tokenize(question.question), 10):
        print(f"  {r.rank:>2}. {corpus.by_id[r.passage_id].title:<40} {r.score:.3f}")

    answer_page = corpus.by_title[question.supporting_titles[1]]
    print(f"\nthe answer passage is {answer_page.title!r}:")
    print(f"  text: {answer_page.text}")
    print("it shares no content words with the question, so lexical retrieval")
    print("never returns it; the film page's anchor is the only road there.")


if __name__ == "__main__":
    main()
