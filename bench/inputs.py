"""Seeded input generators for the benchmark: the question stream and the
distractor corpus.

Both are built from the bundled tiny wiki's entities, so the trained models
see familiar names.

Question stream. The stream is a sequence of rounds. Each round asks one
bridge question about every one of the 24 films (paraphrased, so no string
repeats) and six director/studio comparisons over film pairs: 24 to 6 is the
fixture's 80:20 mix. Balanced rounds keep the quality metrics of a
time-bounded prefix steady from seed to seed. Target pages repeat by design
(every round revisits every film and person), so a per-passage cache can
gain while a per-question answer cache cannot.

Distractor corpus. About a thousand synthetic pages with titles, anchors
between each other, and the common words the questions use, so most passages
become retrieval candidates, as in a real encyclopedia. It is the same for
every seed (see distractor_passages).
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from bridgeqa.corpus import QARecord
from bridgeqa.tinywiki import build_tiny_wiki

FIXTURE_SEED = 7
QUALITY_SEED = 0

BRIDGE_TEMPLATES = (
    "What government position was held by the actress who {verb} {char} in {film}?",
    "Which government position did the actress who {verb} {char} in {film} hold?",
    "The actress who {verb} {char} in {film} held what government position?",
    "What position in government did the actress who {verb} {char} in {film} hold?",
    "In {film}, the actress who {verb} {char} later held which government position?",
    "Name the government position held by the actress who {verb} {char} in {film}.",
    "What was the government position of the actress who {verb} {char} in {film}?",
    "Which position was held in government by the actress who {verb} {char} in {film}?",
)
BRIDGE_VERBS = ("played", "portrayed", "appeared as")
FILM_PHRASES = ("the film {name}", "{name}", "the {year} film {name}")

DIRECTOR_TEMPLATES = (
    "Who directed the film {a}: {x} or {y}?",
    "Which director made the film {a}: {x} or {y}?",
    "Was the film {a} directed by {x} or by {y}?",
)
STUDIO_TEMPLATES = (
    "Were the films {a} and {b} both produced by {s}?",
    "Did {s} produce both the film {a} and the film {b}?",
    "Were {a} and {b} both films produced by {s}?",
)

BRIDGE_PER_ROUND = 24
COMPARISONS_PER_ROUND = 6

_BRIDGE_RE = re.compile(r"the actress who (played|portrayed) (\w+) in the film (.+)\?$")
_FILM_RE = re.compile(r"^(.+) \((\d{4}) film\)$")
_DIRECTED_RE = re.compile(r"directed by ([^.]+)\.")
_PRODUCED_RE = re.compile(r"produced by ([^.]+)\.")


def fixture():
    """(passage dicts, train records, dev records) of the bundled tiny wiki."""
    return build_tiny_wiki(seed=FIXTURE_SEED)


def _films(passages: list[dict]) -> list[dict]:
    films = []
    for p in passages:
        m = _FILM_RE.match(p["title"])
        if m is None:
            continue
        films.append(
            {
                "title": p["title"],
                "name": m.group(1),
                "year": m.group(2),
                "director": _DIRECTED_RE.search(p["text"]).group(1),
                "studio": _PRODUCED_RE.search(p["text"]).group(1),
            }
        )
    return films


def _bridge_facts(records: list[QARecord]) -> list[dict]:
    facts = []
    for r in records:
        if r.qtype != "bridge":
            continue
        m = _BRIDGE_RE.search(r.question)
        facts.append(
            {
                "char": m.group(2),
                "film_name": m.group(3),
                "answer": r.answer,
                "supporting": tuple(r.supporting_titles),
            }
        )
    return facts


def _film_phrase(phrase: str, film: dict) -> str:
    return phrase.format(name=film["name"], year=film["year"])


def question_stream(seed: int) -> list[QARecord]:
    """Every question of the stream for this seed, in order, all distinct.

    Bridge questions carry the fixture's answer and supporting titles (film
    page, then person page); comparisons carry both film titles.
    """
    rng = np.random.default_rng([seed, 17])
    passages, train, dev = fixture()
    films = _films(passages)
    film_by_name = {f["name"]: f for f in films}
    facts = _bridge_facts(train + dev)
    if len(facts) != BRIDGE_PER_ROUND:
        raise ValueError(f"expected {BRIDGE_PER_ROUND} bridge facts, found {len(facts)}")

    combos = list(itertools.product(BRIDGE_TEMPLATES, BRIDGE_VERBS, FILM_PHRASES))
    per_fact = [rng.permutation(len(combos)) for _ in facts]

    comparisons = []
    for a, b in itertools.permutations(range(len(films)), 2):
        fa, fb = films[a], films[b]
        if fa["director"] != fb["director"]:
            for template in DIRECTOR_TEMPLATES:
                for x, y in ((fa["director"], fb["director"]), (fb["director"], fa["director"])):
                    comparisons.append(
                        (template.format(a=fa["name"], x=x, y=y), fa["director"], fa, fb)
                    )
        if a < b:
            for template in STUDIO_TEMPLATES:
                for s in sorted({fa["studio"], fb["studio"]}):
                    same = fa["studio"] == s and fb["studio"] == s
                    comparisons.append(
                        (template.format(a=fa["name"], b=fb["name"], s=s), "yes" if same else "no", fa, fb)
                    )
    comparisons = list({c[0]: c for c in comparisons}.values())  # two pairs can share a director
    comparison_order = rng.permutation(len(comparisons))

    n_rounds = min(len(combos), len(comparisons) // COMPARISONS_PER_ROUND)
    stream: list[QARecord] = []
    for r in range(n_rounds):
        round_items = []
        for k, fact in enumerate(facts):
            template, verb, phrase = combos[int(per_fact[k][r])]
            film = _film_phrase(phrase, film_by_name[fact["film_name"]])
            round_items.append(
                (template.format(verb=verb, char=fact["char"], film=film), fact["answer"], "bridge", fact["supporting"])
            )
        for j in range(COMPARISONS_PER_ROUND):
            text, answer, fa, fb = comparisons[int(comparison_order[r * COMPARISONS_PER_ROUND + j])]
            round_items.append((text, answer, "comparison", (fa["title"], fb["title"])))
        for idx in rng.permutation(len(round_items)):
            text, answer, qtype, supporting = round_items[int(idx)]
            stream.append(
                QARecord(
                    id=f"s{seed}-{len(stream):05d}",
                    question=text,
                    answer=answer,
                    qtype=qtype,
                    supporting_titles=supporting,
                )
            )
    return stream


def stream_with_fixed_head(seed: int, head: int) -> list[QARecord]:
    """The first `head` questions of the QUALITY_SEED stream, then the
    seed's own stream without any string already asked.

    Quality is scored on the head only. Which films a paraphrase trips the
    reader on varies from question set to question set, so a seeded head
    would move EM by more than the benchmark's bound between seeds; a fixed
    head makes quality depend on the models alone.
    """
    first = question_stream(QUALITY_SEED)[:head]
    asked = {q.question for q in first}
    return first + [q for q in question_stream(seed) if q.question not in asked]


def target_title(record: QARecord) -> str:
    """The page a question is about: the answer page of a bridge question
    (the person), the first film of a comparison."""
    return record.supporting_titles[-1] if record.qtype == "bridge" else record.supporting_titles[0]


def repeat_shares(records: list[QARecord]) -> dict[str, float]:
    """Share of questions whose string, and whose target title, already
    appeared earlier in the same list."""
    n = len(records)
    if n == 0:
        return {"repeated_questions": 0.0, "repeated_targets": 0.0}
    return {
        "repeated_questions": 1.0 - len({r.question for r in records}) / n,
        "repeated_targets": 1.0 - len({target_title(r) for r in records}) / n,
    }


# ---------------------------------------------------------------------------
# distractor corpus

_ONSETS = ("b", "br", "c", "d", "dr", "f", "g", "gr", "h", "k", "l", "m", "n", "p", "qu", "r",
           "s", "st", "t", "tr", "v", "w", "z")
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ea", "ou")
_CODAS = ("", "n", "r", "l", "m", "s", "th", "x", "nd", "rk")
KINDS = ("Society", "River", "Treaty", "Company", "Festival", "Railway", "Academy",
         "Gazette", "Council", "Observatory", "Guild", "Chronicle")
QUESTION_WORDS = ("what", "government", "position", "held", "actress", "who", "played",
                  "portrayed", "film", "directed", "produced", "both", "films", "was", "which")
FILLER = ("archive", "record", "season", "market", "harvest", "charter", "bridge", "letter",
          "ledger", "valley", "colony", "survey", "meeting", "office", "province", "journey")
SENTENCES = (
    "{title} is a {kind} founded in {year} near {place}.",
    "The {w1} {w2} of {place} was {w3} by a {w4} from {title}.",
    "Records of the {w1} and the {w2} were {w3} in {place} for many years.",
    "Its {w1} {w2} the {w3} of the {w4} in {year}.",
    "Local histories say the {w1} who {w2} the {w3} later {w4} in {place}.",
)


def _pseudo_word(rng: np.random.Generator) -> str:
    syllables = int(rng.integers(2, 4))
    word = "".join(
        _ONSETS[int(rng.integers(len(_ONSETS)))]
        + _NUCLEI[int(rng.integers(len(_NUCLEI)))]
        + _CODAS[int(rng.integers(len(_CODAS)))]
        for _ in range(syllables)
    )
    return word.capitalize()


def distractor_passages(n: int, reserved_titles: set[str]) -> list[dict]:
    """n synthetic passages (corpus-file dicts) with unique titles not in
    reserved_titles, each anchoring two other distractors.

    The corpus comes from QUALITY_SEED, not the workload seed: which
    distractors outrank a film page moves open-domain EM by more than the
    benchmark's bound from corpus to corpus, so a fixed corpus keeps quality
    comparable while the seed still varies the question stream.
    """
    rng = np.random.default_rng([QUALITY_SEED, 29])
    reserved = {t.lower() for t in reserved_titles}
    titles: list[str] = []
    seen: set[str] = set()
    while len(titles) < n:
        title = f"{_pseudo_word(rng)} {KINDS[int(rng.integers(len(KINDS)))]}"
        if title.lower() in seen or title.lower() in reserved:
            continue
        seen.add(title.lower())
        titles.append(title)
    places = [_pseudo_word(rng) for _ in range(64)]
    words = QUESTION_WORDS + FILLER

    passages = []
    for i, title in enumerate(titles):
        parts = []
        for template in SENTENCES:
            if rng.random() < 0.25:
                continue
            fill = {f"w{j}": words[int(rng.integers(len(words)))] for j in range(1, 5)}
            parts.append(
                template.format(
                    title=title,
                    kind=title.split()[-1].lower(),
                    year=1800 + int(rng.integers(200)),
                    place=places[int(rng.integers(len(places)))],
                    **fill,
                )
            )
        targets = [titles[int(j)] for j in rng.choice(n, size=3, replace=False) if int(j) != i][:2]
        parts.append("See also " + " and ".join(targets) + ".")
        text = " ".join(parts)
        anchors = []
        cursor = text.index("See also ")
        for target in targets:
            start = text.index(target, cursor)
            anchors.append({"target": target, "start": start, "end": start + len(target)})
            cursor = start + len(target)
        passages.append({"id": f"dx{i:04d}", "title": title, "text": text, "anchors": anchors})
    return passages
