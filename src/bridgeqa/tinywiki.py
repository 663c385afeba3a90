"""Bundled synthetic corpus: a tiny wiki whose anchor graph contains lexical
traps.

Each bridge question asks about a fact stated only on a person's page, while
naming a film that stars that person. The film page (start passage) anchors
the person page (answer passage); the person page deliberately shares no
content words with the question, and several trap pages are stuffed with the
question's template words, so plain lexical retrieval ranks the wrong pages
and only context-level reasoning finds the answer passage.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .corpus import QARecord, save_questions
from .manifest import write_jsonl

FIRST_NAMES = [
    "Mara", "Tobin", "Isolde", "Quentin", "Beatrix", "Casper", "Odette", "Ferris",
    "Gwendolyn", "Hollis", "Imogen", "Jasper", "Katriona", "Lemuel", "Mirabel",
    "Norbert", "Ophelia", "Percival", "Quilla", "Rosalind", "Sylvester", "Tamsin",
    "Ulric", "Verena",
]
LAST_NAMES = [
    "Ellison", "Reyes", "Varga", "Holt", "Marsh", "Okafor", "Lindqvist", "Abernathy",
    "Castellan", "Drummond", "Eastwick", "Fairburn", "Galloway", "Hartwell", "Ivers",
    "Jellicoe", "Kessler", "Lockridge", "Moravec", "Nightingale", "Ostrander",
    "Pemberton", "Quarles", "Rutherford",
]
TITLE_ADJECTIVES = [
    "Crimson", "Silent", "Amber", "Velvet", "Hollow", "Gilded", "Winter", "Scarlet",
    "Ashen", "Ebony", "Frozen", "Lunar", "Misty", "Copper", "Ivory", "Emerald",
    "Sable", "Cobalt", "Russet", "Marble", "Opal", "Thorn", "Cedar", "Briar",
]
TITLE_NOUNS = [
    "Harbor", "Orchard", "Lantern", "Meadow", "Sparrow", "Compass", "Anthem",
    "Voyage", "Garland", "Horizon", "Pavilion", "Serenade", "Carousel", "Monsoon",
    "Citadel", "Prairie", "Sonata", "Gondola", "Labyrinth", "Tempest", "Vineyard",
    "Waltz", "Zephyr", "Bazaar",
]
CHARACTERS = [
    "Araminta", "Bartleby", "Clemence", "Dorothea", "Elspeth", "Fitzroy", "Ginevra",
    "Horatio", "Isadora", "Jocasta", "Kingsley", "Leopoldine", "Montgomery",
    "Nerissa", "Octavian", "Philippa", "Quincey", "Romilly", "Seraphina",
    "Thaddeus", "Undine", "Valentina", "Wilhelmina", "Xanthe",
]
ROLES = ["chief", "minister", "secretary", "envoy", "commissioner", "warden", "curator", "registrar"]
DOMAINS = [
    "protocol", "fisheries", "railways", "antiquities", "treasury", "lighthouses",
    "customs", "granaries", "archives", "aqueducts", "ferries", "mints",
]
DIRECTORS = [
    "Abel Winterbourne", "Greta Kaufmann", "Silas Bonfield",
    "Yuki Tanabe", "Ines Valdemar", "Rupert Ashcombe",
]
STUDIOS = ["Northlight Pictures", "Meridian Films", "Starfall Studios", "Pinnacle Pictures"]
CITIES = ["Port Vellum", "Grayfield", "Osterbrook", "Candlewick"]

N_TRIPLES = 24
N_TRAIN_BRIDGE = 16


def _anchor(text: str, mention: str, target: str) -> dict:
    start = text.index(mention)
    return {"target": target, "start": start, "end": start + len(mention)}


def build_tiny_wiki(seed: int = 7) -> tuple[list[dict], list[QARecord], list[QARecord]]:
    """Returns (passage dicts, train records, dev records)."""
    rng = np.random.default_rng([seed, 3])
    person_order = rng.permutation(N_TRIPLES)

    persons = [f"{FIRST_NAMES[int(j)]} {LAST_NAMES[int(j)]}" for j in person_order]
    films = [f"{TITLE_ADJECTIVES[i]} {TITLE_NOUNS[i]}" for i in range(N_TRIPLES)]
    film_titles = [f"{films[i]} ({1941 + i} film)" for i in range(N_TRIPLES)]
    facts = [f"{ROLES[i % len(ROLES)]} of {DOMAINS[i % len(DOMAINS)]}" for i in range(N_TRIPLES)]

    passages: list[dict] = []

    for i in range(N_TRIPLES):
        director = DIRECTORS[i % len(DIRECTORS)]
        studio = STUDIOS[i % len(STUDIOS)]
        if i % 2 == 0:
            text = (
                f"{films[i]} is a {1941 + i} drama film directed by {director}. "
                f"The film stars {persons[i]} as {CHARACTERS[i]}. "
                f"It was produced by {studio}."
            )
        else:
            text = (
                f"{films[i]} is a {1941 + i} comedy film directed by {director}. "
                f"It features {persons[i]} as the reporter {CHARACTERS[i]}. "
                f"It was produced by {studio}."
            )
        passages.append(
            {
                "id": f"film{i:02d}",
                "title": film_titles[i],
                "text": text,
                "anchors": [
                    _anchor(text, persons[i], persons[i]),
                    _anchor(text, director, director),
                    _anchor(text, studio, studio),
                ],
            }
        )

    for i in range(N_TRIPLES):
        city = CITIES[i % len(CITIES)]
        text = (
            f"{persons[i]} was a stage performer who later entered public service. "
            f"{persons[i]} served as {facts[i]} until retiring to {city}."
        )
        passages.append(
            {
                "id": f"per{i:02d}",
                "title": persons[i],
                "text": text,
                "anchors": [_anchor(text, city, city)],
            }
        )

    for d, director in enumerate(DIRECTORS):
        own = [i for i in range(N_TRIPLES) if i % len(DIRECTORS) == d]
        listed = ", ".join(films[i] for i in own[:-1]) + f" and {films[own[-1]]}"
        text = f"{director} directed the films {listed}."
        passages.append(
            {
                "id": f"dir{d}",
                "title": director,
                "text": text,
                "anchors": [_anchor(text, films[i], film_titles[i]) for i in own],
            }
        )

    for s, studio in enumerate(STUDIOS):
        city = CITIES[s % len(CITIES)]
        text = f"{studio} is a production company with offices in {city}."
        passages.append(
            {
                "id": f"stu{s}",
                "title": studio,
                "text": text,
                "anchors": [_anchor(text, city, city)],
            }
        )

    for c, city in enumerate(CITIES):
        text = f"{city} is a quiet town known for its riverside markets and mills."
        passages.append({"id": f"city{c}", "title": city, "text": text, "anchors": []})

    traps = [
        (
            "Government Positions of Valdoria",
            "A government position is an office held by an appointed official. Many a "
            "government position was held by officials who never appeared in any film. "
            "See the Civil Service Register and the Assembly of Valdoria.",
            ["Civil Service Register", "Assembly of Valdoria"],
        ),
        (
            "Civil Service Register",
            "The register records every government position held in the republic, and "
            "the position of every office holder. It is kept by the Assembly of Valdoria.",
            ["Assembly of Valdoria"],
        ),
        (
            "Assembly of Valdoria",
            "The assembly appoints officials to government positions and reviews what "
            "position each official has held. Records go to the Civil Service Register.",
            ["Civil Service Register"],
        ),
        (
            "History of Acting",
            "An actress who played or portrayed a leading character in a film often held "
            "great fame. What fame the actress held, the film preserved. See the Assembly "
            "of Valdoria.",
            ["Assembly of Valdoria"],
        ),
        (
            "Republic of Valdoria",
            "The republic maintained a government position in every province, each held "
            "by an official listed in the Civil Service Register.",
            ["Civil Service Register"],
        ),
    ]
    for t, (title, text, targets) in enumerate(traps):
        passages.append(
            {
                "id": f"trap{t}",
                "title": title,
                "text": text,
                "anchors": [_anchor(text, target, target) for target in targets],
            }
        )

    train: list[QARecord] = []
    dev: list[QARecord] = []
    for i in range(N_TRIPLES):
        verb = "played" if i % 2 == 0 else "portrayed"
        record = QARecord(
            id=f"bq{i:02d}",
            question=(
                f"What government position was held by the actress who {verb} "
                f"{CHARACTERS[i]} in the film {films[i]}?"
            ),
            answer=facts[i],
            qtype="bridge",
            supporting_titles=(film_titles[i], persons[i]),
        )
        (train if i < N_TRAIN_BRIDGE else dev).append(record)

    comparison_specs = [
        # (id, film_a, film_b, kind) over train films for train, dev films for dev
        ("cq00", 0, 1, "director"),
        ("cq01", 2, 6, "same_studio"),
        ("cq02", 3, 4, "same_studio"),
        ("cq03", 16, 17, "director"),
        ("cq04", 18, 22, "same_studio"),
        ("cq05", 19, 20, "same_studio"),
    ]
    for qid, a, b, kind in comparison_specs:
        if kind == "director":
            d_a = DIRECTORS[a % len(DIRECTORS)]
            d_b = DIRECTORS[b % len(DIRECTORS)]
            record = QARecord(
                id=qid,
                question=f"Who directed the film {films[a]}: {d_a} or {d_b}?",
                answer=d_a,
                qtype="comparison",
                supporting_titles=(film_titles[a], film_titles[b]),
            )
        else:
            same = (a % len(STUDIOS)) == (b % len(STUDIOS))
            record = QARecord(
                id=qid,
                question=(
                    f"Were the films {films[a]} and {films[b]} both produced by "
                    f"{STUDIOS[a % len(STUDIOS)]}?"
                ),
                answer="yes" if same else "no",
                qtype="comparison",
                supporting_titles=(film_titles[a], film_titles[b]),
            )
        (train if int(qid[2:]) < 3 else dev).append(record)

    return passages, train, dev


def write_fixture(directory: str | Path, seed: int = 7) -> dict[str, str]:
    """Write corpus.jsonl, train_questions.jsonl, and dev_questions.jsonl."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    passages, train, dev = build_tiny_wiki(seed)
    corpus_path = directory / "corpus.jsonl"
    write_jsonl(corpus_path, passages)
    train_path = directory / "train_questions.jsonl"
    dev_path = directory / "dev_questions.jsonl"
    save_questions(train, train_path)
    save_questions(dev, dev_path)
    return {
        "corpus": str(corpus_path),
        "train_questions": str(train_path),
        "dev_questions": str(dev_path),
    }


def fixture_config(fixture_dir: str | Path, output_dir: str | Path, **overrides) -> dict:
    """Config dict tuned for fast, deterministic overfitting of the fixture."""
    fixture_dir = Path(fixture_dir)
    cfg = {
        "corpus_path": str(fixture_dir / "corpus.jsonl"),
        "train_questions_path": str(fixture_dir / "train_questions.jsonl"),
        "dev_questions_path": str(fixture_dir / "dev_questions.jsonl"),
        "output_dir": str(output_dir),
        "gru_hidden": 12,
        "lstm_hidden": 12,
        "dropout": 0.0,
        "lr": 5e-3,
        "reader_lr": 1e-3,
        "reader_batch_size": 4,
        "bridge_epochs": 200,
        "reader_epochs": 220,
        "abstract_max_tokens": 16,
        "seed": 13,
    }
    cfg.update(overrides)
    return cfg
