"""Anchor alignment by a linear scan over every token offset: the plain
reference that corpus.align_anchor's bisection is checked against, result
for result and error for error."""

from __future__ import annotations

from dataclasses import replace

from bridgeqa.corpus import AnchorMention, Passage
from bridgeqa.errors import AlignmentError, ValidationError


def align_by_scan(passage: Passage, mention: AnchorMention) -> AnchorMention:
    """The first and last token overlapping [char_start, char_end), found by
    testing every token."""
    if not (0 <= mention.char_start < mention.char_end <= len(passage.text)):
        raise ValidationError(
            f"passage {passage.id!r}: anchor span ({mention.char_start}, {mention.char_end}) "
            f"out of bounds for text of length {len(passage.text)}"
        )
    first = last = None
    for idx, (s, e) in enumerate(passage.tokens.char_offsets):
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
