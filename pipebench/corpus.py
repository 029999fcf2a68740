#!/usr/bin/env python3
"""Seeded synthetic corpora for the pipeline benchmark.

A corpus is a records CSV in the program's input format plus a keyword
mapping table. It is built from a vocabulary of concepts whose frequencies
follow a Zipf law, grouped into topics so the co-word map has clusters, and
drifting over 2001-2012 so the two period windows differ. Each concept is
written in several surface forms: its canonical descriptor, case and
whitespace variants, and a Portuguese form (sometimes in decomposed
Unicode). The mapping table merges the Portuguese forms and some case
variants into the canonical descriptors; a share of concepts has no entry
and reaches the map by passthrough.

Class labels come from the package's bundled scheme files, read as text.
The keyword alphabet has no '"', ';' or line breaks.

The same seed always gives the same bytes.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
import random
import unicodedata
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

YEARS = tuple(range(2001, 2013))
SOURCES = ("BAD", "WOS")
RECORDS_HEADER = ["id", "source", "year", "title", "class_a", "class_b", "keywords"]
ONSETS = ("b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "v", "br", "tr", "pl", "ch")
VOWELS = ("a", "e", "i", "o", "u")
PT_ENDINGS = ("ção", "ções", "ária", "ência", "ões", "ão", "ível")


@dataclass(frozen=True)
class CorpusSize:
    """Make-up of one corpus family."""

    records: int
    concepts: int
    topics: int
    zipf_s: float
    mean_keywords: float
    topic_share: float  # chance a keyword is drawn from the record's topic


SIZES = {
    "tiny": CorpusSize(records=60, concepts=40, topics=3, zipf_s=0.9, mean_keywords=4.0, topic_share=0.7),
    "paper": CorpusSize(records=500, concepts=400, topics=6, zipf_s=1.3, mean_keywords=3.8, topic_share=0.7),
    "20k": CorpusSize(records=20_000, concepts=4_000, topics=8, zipf_s=1.8, mean_keywords=8.0, topic_share=0.7),
}


def match_key(raw: str) -> str:
    """The documented match-key rule: NFC, casefold, collapse whitespace."""
    return " ".join(unicodedata.normalize("NFC", raw).casefold().split())


def read_scheme_labels(path: Path) -> list[str]:
    labels = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            labels.append(line)
    return labels


@dataclass(frozen=True)
class Concept:
    canonical: str  # descriptor the concept should end up as
    plain: str  # lower-case English form seen in records
    portuguese: str
    mapped: bool
    topic: int
    trend: int  # -1 fades, 0 steady, +1 rises over the years


@dataclass(frozen=True)
class Corpus:
    records_csv: bytes
    mapping_txt: bytes
    n_records: int
    by_source: dict[str, int]
    class_a: dict[str, int]  # label -> count, "" for unclassified
    class_b: dict[str, int]


def _word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(ONSETS) + rng.choice(VOWELS) for _ in range(syllables))


def _vocabulary(rng: random.Random, size: CorpusSize) -> list[Concept]:
    concepts: list[Concept] = []
    keys: set[str] = set()
    while len(concepts) < size.concepts:
        words = [_word(rng, rng.randint(2, 3)) for _ in range(rng.randint(1, 2))]
        plain = " ".join(words)
        stem = words[-1].rstrip("aeiou") or words[-1]
        portuguese = " ".join(words[:-1] + [stem + rng.choice(PT_ENDINGS)])
        mapped = rng.random() < 0.75
        canonical = plain.title() if mapped and rng.random() < 0.3 else plain
        forms = {match_key(plain), match_key(portuguese)}
        if len(forms) < 2 or forms & keys:
            continue
        keys |= forms
        concepts.append(
            Concept(
                canonical=canonical if mapped else plain,
                plain=plain,
                portuguese=portuguese,
                mapped=mapped,
                topic=len(concepts) % size.topics,
                trend=rng.randint(-1, 1),
            )
        )
    return concepts


def _surface(rng: random.Random, c: Concept, source: str) -> str:
    """One raw keyword for concept ``c`` as an author might have typed it."""
    u = rng.random()
    pt_share = 0.5 if source == "BAD" else 0.1
    if c.mapped and u < pt_share:
        text = c.portuguese
        if rng.random() < 0.3:
            text = unicodedata.normalize("NFD", text)
    elif u < pt_share + 0.15:
        text = c.plain.upper() if rng.random() < 0.5 else c.plain.title()
    else:
        text = c.canonical if rng.random() < 0.5 else c.plain
    if rng.random() < 0.1:
        text = text.replace(" ", "  ")
    return text


def _mapping_text(concepts: list[Concept], rng: random.Random) -> str:
    lines = ["# Keyword mapping: raw form -> canonical descriptor.", ""]
    for c in concepts:
        if not c.mapped:
            continue
        lines.append(f"{c.portuguese} -> {c.canonical}")
        if rng.random() < 0.3:
            lines.append(f"{c.plain.upper()} -> {c.canonical}")
    return "\n".join(lines) + "\n"


def _cumulative_weights(concepts: list[Concept], size: CorpusSize) -> list[list[list[float]]]:
    """cdf[year_index][topic] over concepts of the per-record draw distribution."""
    zipf = [(rank + 1) ** -size.zipf_s for rank in range(len(concepts))]
    out = []
    for year in YEARS:
        drift = [z * math.exp(c.trend * (year - 2006.5) / 4.0) for z, c in zip(zipf, concepts)]
        total = sum(drift)
        per_topic = []
        for t in range(size.topics):
            in_topic = sum(w for w, c in zip(drift, concepts) if c.topic == t)
            p = [
                size.topic_share * (w / in_topic if c.topic == t else 0.0) + (1 - size.topic_share) * w / total
                for w, c in zip(drift, concepts)
            ]
            cdf = list(accumulate(p))
            cdf[-1] = 1.0
            per_topic.append(cdf)
        out.append(per_topic)
    return out


def _poisson(rng: random.Random, mean: float) -> int:
    limit, k, prod = math.exp(-mean), 0, rng.random()
    while prod > limit:
        k += 1
        prod *= rng.random()
    return k


def generate(size_name: str, seed: int, scheme_dir: Path, index: int = 0) -> Corpus:
    """Build corpus number ``index`` of family ``size_name`` for ``seed``."""
    size = SIZES[size_name]
    rng = random.Random(f"{size_name}:{seed}:{index}")
    labels_a = read_scheme_labels(scheme_dir / "scheme_a.txt")
    labels_b = read_scheme_labels(scheme_dir / "scheme_b.txt")
    concepts = _vocabulary(rng, size)
    mapping = _mapping_text(concepts, rng)
    cdf = _cumulative_weights(concepts, size)

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(RECORDS_HEADER)
    by_source = {s: 0 for s in SOURCES}
    tally_a: dict[str, int] = {}
    tally_b: dict[str, int] = {}
    for n in range(size.records):
        year = rng.choice(YEARS)
        source = SOURCES[int(rng.random() < 0.4)]
        draw = cdf[year - YEARS[0]][rng.randrange(size.topics)]
        k = min(10, 1 + _poisson(rng, size.mean_keywords - 1))
        picks: list[int] = []
        for _ in range(3 * k):
            idx = bisect.bisect_right(draw, rng.random())
            if idx not in picks:
                picks.append(idx)
            if len(picks) == k:
                break
        raw = [_surface(rng, concepts[i], source) for i in picks]
        if rng.random() < 0.1:  # the same concept written twice in one record
            raw.append(_surface(rng, concepts[picks[0]], source))
        class_a = labels_a[min(int(rng.expovariate(1 / 3.0)), len(labels_a) - 1)] if rng.random() > 0.05 else ""
        class_b = labels_b[min(int(rng.expovariate(1 / 2.5)), len(labels_b) - 1)] if rng.random() > 0.05 else ""
        title = " ".join(_word(rng, 3) for _ in range(rng.randint(3, 6)))
        if rng.random() < 0.2:
            title = title.replace(" ", ", ", 1)
        sep = "; " if rng.random() < 0.9 else ";"
        writer.writerow([f"r{n:05d}", source, year, title, class_a, class_b, sep.join(raw)])
        by_source[source] += 1
        tally_a[class_a] = tally_a.get(class_a, 0) + 1
        tally_b[class_b] = tally_b.get(class_b, 0) + 1
    return Corpus(
        records_csv=out.getvalue().encode("utf-8"),
        mapping_txt=mapping.encode("utf-8"),
        n_records=size.records,
        by_source={s: c for s, c in by_source.items() if c},
        class_a=tally_a,
        class_b=tally_b,
    )


def write_corpus(corpus: Corpus, out_dir: Path) -> tuple[Path, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    records = out_dir / "records.csv"
    mapping = out_dir / "mapping.txt"
    records.write_bytes(corpus.records_csv)
    mapping.write_bytes(corpus.mapping_txt)
    return records, mapping

