"""Corpus and question loading: passages with anchor mentions, tokenization,
and character-to-token alignment.

A passage is one node of the corpus graph; its anchors point at other
passages by title. Each record owns its tokens: a passage tokenizes its text
and title when built (a corpus load tokenizes them all at once and hands
them in), a question its text on first use, and every other module reads
those fields instead of tokenizing again. A text's token offsets are two
flat int arrays, so a loaded page is a dozen objects, however many tokens
it holds, and its tokens are interned: one str object per distinct token
across the corpus and the questions. Everything loaded here is immutable
after construction (nothing writes a TokenSeq's offset arrays) and safe to
share across threads.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from sys import intern

import numpy as np

from .errors import AlignmentError, ValidationError
from .manifest import read_jsonl, write_jsonl

QUESTION_TYPES = ("bridge", "comparison")

# texts per array pass of tokenize_many: a pass holds its block's joined
# bytes and their per-byte arrays, so the block bounds that memory
TOKENIZE_BLOCK = 1024
# a bytes.translate table: an ASCII letter or digit (the ASCII characters
# str.isalnum accepts) to its lowercase, every other byte to a space
_FOLD_ASCII = bytes(ord(chr(b).lower()) if chr(b).isascii() and chr(b).isalnum() else 0x20 for b in range(256))


@dataclass(frozen=True)
class TokenSeq:
    """Lowercased tokens plus their character offsets in the source string:
    token i is source[starts[i]:ends[i]], lowercased.

    The offsets are two flat runs of C ints, array("i"), both ascending: a
    text's offsets are two objects, not a (start, end) tuple per token that
    the garbage collector tracks and walks. C ints bound a text at 2**31
    characters."""

    tokens: tuple[str, ...]
    starts: array
    ends: array

    def __len__(self) -> int:
        return len(self.tokens)

    def __hash__(self) -> int:
        # an array is unhashable; equal sequences have equal tokens
        return hash(self.tokens)

    @property
    def char_offsets(self) -> tuple[tuple[int, int], ...]:
        """The (start, end) pair of every token, built on each read."""
        return tuple(zip(self.starts, self.ends))


def tokenize(text: str) -> TokenSeq:
    """Split text into maximal runs of Unicode alphanumeric characters, lowercased.

    Offsets always index the original string; an empty string yields an
    empty TokenSeq. This character walk is the definition of a token:
    tokenize_many, which tokenizes a corpus, returns exactly its results.

    Every token is interned (sys.intern), here and in tokenize_many: equal
    tokens of any texts, titles and questions are one str object, so a
    corpus holds each distinct token's text once, and the dicts keyed by
    tokens (the index's term ids, the linker's token map, the embedding
    vocabulary, the encoding memos' keys) hash it once and match it by
    identity. CPython 3.12 makes interned strings immortal (3.10, 3.11 and
    3.13 keep them mortal), so there the interned tokens live as long as
    the process: a set bounded by the distinct tokens it has seen.
    """
    tokens: list[str] = []
    starts: list[int] = []
    ends: list[int] = []
    start = -1
    for i, ch in enumerate(text):
        if ch.isalnum():
            if start < 0:
                start = i
        elif start >= 0:
            tokens.append(intern(text[start:i].lower()))
            starts.append(start)
            ends.append(i)
            start = -1
    if start >= 0:
        tokens.append(intern(text[start:].lower()))
        starts.append(start)
        ends.append(len(text))
    return TokenSeq(tuple(tokens), array("i", starts), array("i", ends))


def tokenize_many(texts: Sequence[str]) -> list[TokenSeq]:
    """[tokenize(t) for t in texts], with the ASCII texts tokenized by one
    array pass per block of TOKENIZE_BLOCK texts.

    In ASCII, str.isalnum accepts the letters and digits alone, so a block's
    ASCII texts are joined with a NUL between them, every other byte is
    folded to a space, and the edges of the non-space runs give every
    token's start and end at once; the texts' start positions split them
    per text. A text that is not ASCII takes the character walk. Both paths
    intern their tokens, so each token is the very object tokenize returns.
    """
    out: list[TokenSeq] = []
    for lo in range(0, len(texts), TOKENIZE_BLOCK):
        block = texts[lo : lo + TOKENIZE_BLOCK]
        bulk = iter(_tokenize_ascii([t for t in block if t.isascii()]))
        out.extend(next(bulk) if t.isascii() else tokenize(t) for t in block)
    return out


def _tokenize_ascii(texts: list[str]) -> list[TokenSeq]:
    """tokenize over ASCII texts, by one pass over their joined bytes; the
    words split() returns are interned, as tokenize's tokens are."""
    folded = "\0".join(texts).encode("ascii").translate(_FOLD_ASCII)
    edges = np.flatnonzero(np.diff(np.frombuffer(folded, np.uint8) != 0x20, prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2]
    # each text's first byte in the joined bytes, and its first token
    spans = np.fromiter(map(len, texts), np.int64, len(texts)) + 1
    text_starts = np.cumsum(spans) - spans
    first = np.searchsorted(starts, text_starts).tolist() + [len(starts)]
    base = np.repeat(text_starts, np.diff(first))
    # the offsets in each text, as the C ints of two flat arrays
    starts, ends = (array("i", (edge - base).astype(np.intc).tobytes()) for edge in (starts, ends))
    words = tuple(map(intern, folded.decode("ascii").split()))
    return [TokenSeq(words[a:b], starts[a:b], ends[a:b]) for a, b in zip(first, first[1:])]


@dataclass(frozen=True)
class AnchorMention:
    """A hyperlink mention inside a passage, targeting another passage's title."""

    target_title: str
    char_start: int
    char_end: int
    token_start: int | None = None
    token_end: int | None = None


@dataclass(frozen=True)
class Passage:
    """A corpus page; tokens and title_tokens default to its text's and
    title's tokens (replace() keeps them: pass new ones with a new text)."""

    id: str
    title: str
    text: str
    anchors: tuple[AnchorMention, ...] = ()
    tokens: TokenSeq = field(default=None, compare=False, repr=False)  # type: ignore[assignment]
    title_tokens: TokenSeq = field(default=None, compare=False, repr=False)  # type: ignore[assignment]

    def __post_init__(self):
        if self.tokens is None:
            object.__setattr__(self, "tokens", tokenize(self.text))
        if self.title_tokens is None:
            object.__setattr__(self, "title_tokens", tokenize(self.title))


@dataclass(frozen=True)
class QARecord:
    id: str
    question: str
    answer: str
    qtype: str
    supporting_titles: tuple[str, ...] | None = None

    @cached_property
    def question_tokens(self) -> TokenSeq:
        """The question's tokens, tokenized on first use."""
        return tokenize(self.question)


@dataclass(frozen=True)
class Corpus:
    passages: tuple[Passage, ...]
    by_title: dict[str, Passage]
    by_id: dict[str, Passage]

    def __len__(self) -> int:
        return len(self.passages)

    def __contains__(self, title: str) -> bool:
        return title in self.by_title


def _token_span(tokens: TokenSeq, text_len: int, start: int, end: int, where: str) -> tuple[int, int]:
    """The first and last token overlapping the character span [start, end),
    found by bisection: the offsets are ascending and disjoint, so the tokens
    ending past start are a suffix and those starting before end a prefix."""
    if not (0 <= start < end <= text_len):
        raise ValidationError(f"{where}: anchor span ({start}, {end}) out of bounds for text of length {text_len}")
    first = bisect_right(tokens.ends, start)
    last = bisect_left(tokens.starts, end) - 1
    if first > last:
        raise AlignmentError(f"{where}: anchor span ({start}, {end}) covers no token")
    return first, last


def align_anchor(passage: Passage, mention: AnchorMention) -> AnchorMention:
    """Fill token_start/token_end with the first and last token overlapping the
    character span [char_start, char_end)."""
    first, last = _token_span(
        passage.tokens, len(passage.text), mention.char_start, mention.char_end,
        f"passage {passage.id!r}",
    )
    return AnchorMention(mention.target_title, mention.char_start, mention.char_end, first, last)


def _parse_passage(obj: dict, where: str, tokens: TokenSeq, title_tokens: TokenSeq) -> Passage:
    """The passage of a corpus record, its anchors aligned; tokens and
    title_tokens are its text's and title's tokens."""
    for key in ("id", "title", "text"):
        if key not in obj or not isinstance(obj[key], str):
            raise ValidationError(f"{where}: missing or non-string field {key!r}")
    if not obj["title"]:
        raise ValidationError(f"{where}: empty title (passage {obj['id']!r})")
    raw_anchors = obj.get("anchors", [])
    if not isinstance(raw_anchors, list):
        raise ValidationError(f"{where}: anchors must be a list")
    keys: set[tuple[int, int, str]] = set()
    for a in raw_anchors:
        target, start, end = (a.get("target"), a.get("start"), a.get("end")) if isinstance(a, dict) else (None,) * 3
        # offsets are JSON integers (a bool is not one), the target a non-empty title
        if not (isinstance(target, str) and target and type(start) is int and type(end) is int):
            raise ValidationError(f"{where}: malformed anchor {a!r}")
        keys.add((start, end, target))  # duplicate anchors (same target, same span) are dropped at load
    text = obj["text"]
    anchor_where = f"{where}: passage {obj['id']!r}"
    anchors = []
    for start, end, target in sorted(keys):
        first, last = _token_span(tokens, len(text), start, end, anchor_where)
        anchors.append(AnchorMention(target, start, end, first, last))
    return Passage(obj["id"], obj["title"], text, tuple(anchors), tokens, title_tokens)


def load_corpus(path: str | Path) -> Corpus:
    """Load a line-delimited JSON corpus file and align every anchor.

    Anchors whose target title is absent from the corpus are kept; they are
    filtered later, at candidate-collection time, so partial corpora stay
    loadable. tokenize_many tokenizes all the texts and then all the titles
    before any record is checked, and the records are checked in file
    order, so a faulty file raises on its first faulty record.
    """
    records = read_jsonl(path)
    # a text or title that is not a string is tokenized as "": its record
    # is rejected before its tokens are read
    text_seqs, title_seqs = (
        tokenize_many([value if isinstance(value := obj.get(key), str) else "" for obj in records])
        for key in ("text", "title")
    )
    passages: list[Passage] = []
    by_title: dict[str, Passage] = {}
    by_id: dict[str, Passage] = {}
    for n, (obj, tokens, title_tokens) in enumerate(zip(records, text_seqs, title_seqs), start=1):
        where = f"{path} record {n}"
        passage = _parse_passage(obj, where, tokens, title_tokens)
        if passage.title in by_title:
            raise ValidationError(f"{where}: duplicate title {passage.title!r}")
        if passage.id in by_id:
            raise ValidationError(f"{where}: duplicate passage id {passage.id!r}")
        passages.append(passage)
        by_title[passage.title] = passage
        by_id[passage.id] = passage
    return Corpus(tuple(passages), by_title, by_id)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus back in the load_corpus line format (round-trip safe)."""
    write_jsonl(
        path,
        (
            {
                "id": p.id,
                "title": p.title,
                "text": p.text,
                "anchors": [{"target": a.target_title, "start": a.char_start, "end": a.char_end} for a in p.anchors],
            }
            for p in corpus.passages
        ),
    )


def load_questions(path: str | Path) -> list[QARecord]:
    """Load line-delimited JSON question records.

    Records without supporting_titles are accepted (evaluation-time data);
    when present the list must be non-empty, of non-empty strings. Question
    ids are unique.
    """
    records: list[QARecord] = []
    ids: set[str] = set()
    for n, obj in enumerate(read_jsonl(path), start=1):
        where = f"{path} record {n}"
        for key in ("id", "question", "type"):
            if key not in obj or not isinstance(obj[key], str):
                raise ValidationError(f"{where}: missing or non-string field {key!r}")
        if obj["id"] in ids:
            raise ValidationError(f"{where}: duplicate question id {obj['id']!r}")
        ids.add(obj["id"])
        if not isinstance(obj.get("answer"), str) or not obj["answer"]:
            raise ValidationError(f"{where}: missing answer (question {obj['id']!r})")
        if obj["type"] not in QUESTION_TYPES:
            raise ValidationError(
                f"{where}: unknown question type {obj['type']!r} (expected one of {QUESTION_TYPES})"
            )
        titles = obj.get("supporting_titles")
        if titles is not None:
            if not isinstance(titles, list) or not titles:
                raise ValidationError(f"{where}: supporting_titles must be a non-empty list when present")
            if not all(isinstance(t, str) and t for t in titles):
                raise ValidationError(
                    f"{where}: supporting_titles must be non-empty strings (question {obj['id']!r})"
                )
            titles = tuple(titles)
        records.append(
            QARecord(
                id=obj["id"],
                question=obj["question"],
                answer=obj["answer"],
                qtype=obj["type"],
                supporting_titles=titles,
            )
        )
    return records


def _question_row(r: QARecord) -> dict:
    obj: dict = {"id": r.id, "question": r.question, "answer": r.answer, "type": r.qtype}
    if r.supporting_titles is not None:
        obj["supporting_titles"] = list(r.supporting_titles)
    return obj


def save_questions(records: list[QARecord], path: str | Path) -> None:
    write_jsonl(path, (_question_row(r) for r in records))
