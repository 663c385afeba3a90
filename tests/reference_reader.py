"""The reader context's per-token layout, the oracle of its passage blocks:
one origin per context token (a sentinel, or a title or text token of one
passage with its character offsets), span text sliced from the first to the
last token's offsets when both come from one passage's title or text, and
an answer's title span read from the passage its first token came from.
Titles and texts are tokenized here, not read from the passages.

locate_answer_span is the answer search that tries every start token, the
oracle of the reader's, which skips start tokens that cannot begin the
answer."""

from __future__ import annotations

from dataclasses import dataclass

from bridgeqa import reader
from bridgeqa.corpus import Passage, tokenize
from bridgeqa.metrics import normalize_answer
from bridgeqa.reader import MAX_ANSWER_LEN, SENTINELS, ReaderContext


@dataclass(frozen=True)
class TokenOrigin:
    kind: str  # "sentinel" | "title" | "text"
    passage_id: str | None
    char_start: int
    char_end: int


@dataclass
class Context:
    tokens: list[str]
    origins: list[TokenOrigin]
    passages: list[Passage]
    title_spans: dict[str, tuple[int, int]]  # passage id -> inclusive token span of its title


def build_context(passages: list[Passage], max_tokens: int | None = None) -> Context:
    tokens = list(SENTINELS)
    origins = [TokenOrigin("sentinel", None, 0, 0) for _ in SENTINELS]
    used: list[Passage] = []
    title_spans: dict[str, tuple[int, int]] = {}
    for passage in passages:
        title_ts, body_ts = tokenize(passage.title), tokenize(passage.text)
        if max_tokens is not None and used and len(tokens) + len(title_ts) + len(body_ts) > max_tokens:
            break
        start = len(tokens)
        for kind, ts in (("title", title_ts), ("text", body_ts)):
            for tok, (cs, ce) in zip(ts.tokens, ts.char_offsets):
                tokens.append(tok)
                origins.append(TokenOrigin(kind, passage.id, cs, ce))
            if kind == "title" and len(ts):
                title_spans[passage.id] = (start, len(tokens) - 1)
        used.append(passage)
    return Context(tokens, origins, used, title_spans)


def span_to_text(context: Context, s: int, e: int) -> str:
    for pos in range(s, e + 1):
        if context.origins[pos].kind == "sentinel":
            return context.tokens[pos]
    first, last = context.origins[s], context.origins[e]
    if first.passage_id == last.passage_id and first.kind == last.kind and first.passage_id is not None:
        passage = next(p for p in context.passages if p.id == first.passage_id)
        source = passage.title if first.kind == "title" else passage.text
        return source[first.char_start : last.char_end]
    return " ".join(context.tokens[s : e + 1])


def title_span_at(context: Context, i: int) -> tuple[int, int] | None:
    origin = context.origins[i]
    return None if origin.passage_id is None else context.title_spans.get(origin.passage_id)


def locate_answer_span(context: ReaderContext, answer: str, max_len: int = MAX_ANSWER_LEN):
    """The first window, scanned from every start token, whose span text
    normalizes to the normalized answer; a window stops growing once its
    normalized text is longer than the answer's."""
    target = normalize_answer(answer)
    if not target:
        return None
    T = len(context.tokens)
    for s in range(T):
        for e in range(s, min(T, s + max_len)):
            window = normalize_answer(reader.span_to_text(context, s, e))
            if window == target:
                return (s, e)
            if len(window) > len(target):
                break
    return None
