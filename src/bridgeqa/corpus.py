"""Corpus and question loading: passages with anchor mentions, tokenization,
and character-to-token alignment.

A passage is one node of the corpus graph; its anchors point at other
passages by title. Everything loaded here is immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import AlignmentError, ValidationError
from .manifest import atomic_write

QUESTION_TYPES = ("bridge", "comparison")


@dataclass(frozen=True)
class TokenSeq:
    """Lowercased tokens plus their (start, end) character offsets in the source string."""

    tokens: tuple[str, ...]
    char_offsets: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.tokens)


def tokenize(text: str) -> TokenSeq:
    """Split text into maximal runs of Unicode alphanumeric characters, lowercased.

    Offsets always index the original string; an empty string yields an
    empty TokenSeq.
    """
    tokens: list[str] = []
    offsets: list[tuple[int, int]] = []
    start = -1
    for i, ch in enumerate(text):
        if ch.isalnum():
            if start < 0:
                start = i
        elif start >= 0:
            tokens.append(text[start:i].lower())
            offsets.append((start, i))
            start = -1
    if start >= 0:
        tokens.append(text[start:].lower())
        offsets.append((start, len(text)))
    return TokenSeq(tuple(tokens), tuple(offsets))


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
    id: str
    title: str
    text: str
    anchors: tuple[AnchorMention, ...] = ()
    tokens: TokenSeq = field(default=None, compare=False, repr=False)  # type: ignore[assignment]


@dataclass(frozen=True)
class QARecord:
    id: str
    question: str
    answer: str
    qtype: str
    supporting_titles: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Corpus:
    passages: tuple[Passage, ...]
    by_title: dict[str, Passage]
    by_id: dict[str, Passage]

    def __len__(self) -> int:
        return len(self.passages)

    def __contains__(self, title: str) -> bool:
        return title in self.by_title


def align_anchor(passage: Passage, mention: AnchorMention) -> AnchorMention:
    """Fill token_start/token_end with the first and last token overlapping the
    character span [char_start, char_end)."""
    if not (0 <= mention.char_start < mention.char_end <= len(passage.text)):
        raise ValidationError(
            f"passage {passage.id!r}: anchor span ({mention.char_start}, {mention.char_end}) "
            f"out of bounds for text of length {len(passage.text)}"
        )
    toks = passage.tokens if passage.tokens is not None else tokenize(passage.text)
    first = last = None
    for idx, (s, e) in enumerate(toks.char_offsets):
        if s < mention.char_end and e > mention.char_start:
            if first is None:
                first = idx
            last = idx
    if first is None:
        raise AlignmentError(
            f"passage {passage.id!r}: anchor span ({mention.char_start}, {mention.char_end}) "
            f"covers no token"
        )
    return replace(mention, token_start=first, token_end=last)


def _parse_passage(obj: dict, line_no: int) -> Passage:
    for key in ("id", "title", "text"):
        if key not in obj or not isinstance(obj[key], str):
            raise ValidationError(f"line {line_no}: missing or non-string field {key!r}")
    if not obj["title"]:
        raise ValidationError(f"line {line_no}: empty title (passage {obj['id']!r})")
    raw_anchors = obj.get("anchors", [])
    if not isinstance(raw_anchors, list):
        raise ValidationError(f"line {line_no}: anchors must be a list")
    seen: set[tuple[str, int, int]] = set()
    mentions: list[AnchorMention] = []
    for a in raw_anchors:
        try:
            key = (a["target"], int(a["start"]), int(a["end"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"line {line_no}: malformed anchor {a!r}") from exc
        if key in seen:
            continue  # duplicate anchors (same target, same span) are dropped at load
        seen.add(key)
        mentions.append(AnchorMention(key[0], key[1], key[2]))
    mentions.sort(key=lambda m: (m.char_start, m.char_end, m.target_title))
    passage = Passage(
        id=obj["id"],
        title=obj["title"],
        text=obj["text"],
        tokens=tokenize(obj["text"]),
    )
    aligned = tuple(align_anchor(passage, m) for m in mentions)
    return replace(passage, anchors=aligned)


def load_corpus(path: str | Path) -> Corpus:
    """Load a line-delimited JSON corpus file and align every anchor.

    Anchors whose target title is absent from the corpus are kept; they are
    filtered later, at candidate-collection time, so partial corpora stay
    loadable.
    """
    passages: list[Passage] = []
    by_title: dict[str, Passage] = {}
    by_id: dict[str, Passage] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"line {line_no}: not valid JSON ({exc.msg})") from exc
            passage = _parse_passage(obj, line_no)
            if passage.title in by_title:
                raise ValidationError(f"line {line_no}: duplicate title {passage.title!r}")
            if passage.id in by_id:
                raise ValidationError(f"line {line_no}: duplicate passage id {passage.id!r}")
            passages.append(passage)
            by_title[passage.title] = passage
            by_id[passage.id] = passage
    return Corpus(tuple(passages), by_title, by_id)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus back in the load_corpus line format (round-trip safe)."""
    with atomic_write(path) as fh:
        for p in corpus.passages:
            obj = {
                "id": p.id,
                "title": p.title,
                "text": p.text,
                "anchors": [
                    {"target": a.target_title, "start": a.char_start, "end": a.char_end}
                    for a in p.anchors
                ],
            }
            fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n")


def load_questions(path: str | Path) -> list[QARecord]:
    """Load line-delimited JSON question records.

    Records without supporting_titles are accepted (evaluation-time data);
    when present the list must be non-empty.
    """
    records: list[QARecord] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"line {line_no}: not valid JSON ({exc.msg})") from exc
            for key in ("id", "question", "type"):
                if key not in obj or not isinstance(obj[key], str):
                    raise ValidationError(f"line {line_no}: missing or non-string field {key!r}")
            if not isinstance(obj.get("answer"), str) or not obj["answer"]:
                raise ValidationError(f"line {line_no}: missing answer (question {obj['id']!r})")
            if obj["type"] not in QUESTION_TYPES:
                raise ValidationError(
                    f"line {line_no}: unknown question type {obj['type']!r} "
                    f"(expected one of {QUESTION_TYPES})"
                )
            titles = obj.get("supporting_titles")
            if titles is not None:
                if not isinstance(titles, list) or not titles:
                    raise ValidationError(
                        f"line {line_no}: supporting_titles must be a non-empty list when present"
                    )
                titles = tuple(str(t) for t in titles)
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


def save_questions(records: list[QARecord], path: str | Path) -> None:
    with atomic_write(path) as fh:
        for r in records:
            obj: dict = {"id": r.id, "question": r.question, "answer": r.answer, "type": r.qtype}
            if r.supporting_titles is not None:
                obj["supporting_titles"] = list(r.supporting_titles)
            fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n")
