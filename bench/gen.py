"""Seeded inputs and ground truth for the four benchmark workloads.

Everything is built from the seed sentences bundled with the package
(``src/transmix/data/seeds/<lang>.txt``), read here as plain text so the
generator shares no code with the program under test. The same seed always
gives the same inputs. The ground truth (planted duplicates, cluster
membership, translation-pair indices, generation languages) is written next
to the inputs and is never shown to the program.

Regenerate one workload's inputs and ground truth:

    python3 bench/gen.py --workload pipeline-echo --seed 1 --out .bench_work/inputs
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

SEED_DIR = Path(__file__).resolve().parent.parent / "src" / "transmix" / "data" / "seeds"
LANG_NAMES = {"en": "English", "fr": "French", "de": "German", "es": "Spanish"}

# ROADMAP baseline corpus: 4,000 en docs of 10-30 sentences in paragraphs of
# five, 10% of them near-duplicates of an earlier doc with one word edited.
PIPELINE_DOCS = 4000
DUP_SHARE = 0.10
# translate-latency: about 200 docs x 3 targets, about 1.5 chunks per doc.
LATENCY_DOCS = 200
# dedup-clusters: one boilerplate cluster, a few dozen small clusters and a
# background of distinct docs.
BOILERPLATE_SIZE = 300
SMALL_CLUSTERS = 36
BACKGROUND_DOCS = 1000
# probe-prior: generation languages (a fixed multiset, shuffled by seed) and
# the planted translation pairs.
PROBE_LANG_COUNTS = {"en": 192, "fr": 96, "de": 96, "es": 96}
PROBE_PAIRS = 32
GENERATION_CHARS = 1500


def seed_sentences(lang: str) -> list[str]:
    text = (SEED_DIR / f"{lang}.txt").read_text(encoding="utf-8")
    return [line.strip() for line in text.splitlines() if line.strip()]


def sentence_counts(rng: random.Random, n_docs: int) -> list[int]:
    """10 to 30 sentences per doc, in a fixed multiset that only the order
    depends on the seed, so every seed gives the same amount of work."""
    counts = [10 + i % 21 for i in range(n_docs)]
    rng.shuffle(counts)
    return counts


def doc_text(rng: random.Random, sentences: list[str], n_sentences: int) -> str:
    picked = [rng.choice(sentences) for _ in range(n_sentences)]
    paragraphs = [" ".join(picked[i:i + 5]) for i in range(0, n_sentences, 5)]
    return "\n\n".join(paragraphs)


def edit_one_word(rng: random.Random, text: str, vocabulary: list[str]) -> str:
    """Replace one inner word of one sentence with a different lowercase word.

    Inner words carry no punctuation and are never sentence-initial, so the
    edit keeps every sentence terminal and every sentence boundary in place.
    """
    words = text.split(" ")
    inner = [i for i in range(1, len(words) - 1)
             if words[i].isalpha() and words[i].islower()
             and words[i - 1][-1:].isalpha()]
    i = rng.choice(inner)
    words[i] = rng.choice([w for w in vocabulary if w != words[i]])
    return " ".join(words)


def _vocabulary(sentences: list[str]) -> list[str]:
    return sorted({w for s in sentences for w in s.split() if w.isalpha() and w.islower()})


def _doc_id(i: int) -> str:
    return f"d{i:05d}"


def pipeline_corpus(seed: int, n_docs: int = PIPELINE_DOCS) -> tuple[list[dict], dict]:
    """Baseline corpus; the planted duplicates always follow their original."""
    rng = random.Random(f"pipeline-echo:{seed}")
    sentences = seed_sentences("en")
    vocab = _vocabulary(sentences)
    n_dups = int(n_docs * DUP_SHARE)
    dup_slots = set(rng.sample(range(1, n_docs), n_dups))
    lengths = sentence_counts(rng, n_docs - n_dups)
    docs: list[dict] = []
    originals: list[int] = []
    duplicates: list[str] = []
    for i in range(n_docs):
        if i in dup_slots:
            text = edit_one_word(rng, docs[rng.choice(originals)]["text"], vocab)
            duplicates.append(_doc_id(i))
        else:
            text = doc_text(rng, sentences, lengths.pop())
            originals.append(i)
        docs.append({"id": _doc_id(i), "lang": "en", "text": text})
    return docs, {"duplicate_ids": duplicates}


def latency_corpus(seed: int, n_docs: int = LATENCY_DOCS) -> tuple[list[dict], dict]:
    rng = random.Random(f"translate-latency:{seed}")
    sentences = seed_sentences("en")
    docs = [{"id": _doc_id(i), "lang": "en", "text": doc_text(rng, sentences, k)}
            for i, k in enumerate(sentence_counts(rng, n_docs))]
    return docs, {}


def cluster_corpus(seed: int, boilerplate: int = BOILERPLATE_SIZE,
                   small_clusters: int = SMALL_CLUSTERS,
                   background: int = BACKGROUND_DOCS) -> tuple[list[dict], dict]:
    """Planted near-duplicate clusters scattered among distinct documents."""
    rng = random.Random(f"dedup-clusters:{seed}")
    sentences = seed_sentences("en")
    vocab = _vocabulary(sentences)
    lengths = sentence_counts(rng, small_clusters + background)
    groups: list[list[str]] = []
    base = doc_text(rng, sentences, 20)
    groups.append([edit_one_word(rng, base, vocab) for _ in range(boilerplate)])
    for i in range(small_clusters):
        base = doc_text(rng, sentences, lengths.pop())
        groups.append([base] + [edit_one_word(rng, base, vocab) for _ in range(1 + i % 4)])
    for _ in range(background):
        groups.append([doc_text(rng, sentences, lengths.pop())])
    total = sum(len(g) for g in groups)
    ids = [_doc_id(i) for i in range(total)]
    rng.shuffle(ids)
    docs: list[dict] = []
    clusters: list[list[str]] = []
    singletons: list[str] = []
    for group in groups:
        members = [ids.pop() for _ in group]
        docs.extend({"id": m, "lang": "en", "text": t} for m, t in zip(members, group))
        if len(members) > 1:
            clusters.append(sorted(members))
        else:
            singletons.append(members[0])
    docs.sort(key=lambda d: d["id"])
    return docs, {"clusters": clusters, "singletons": singletons}


def _generation(rng: random.Random, sentences: list[str], paragraphs: bool) -> str:
    picked: list[str] = []
    while sum(len(s) + 1 for s in picked) < GENERATION_CHARS:
        picked.append(rng.choice(sentences))
    if not paragraphs:
        return " ".join(picked)
    return "\n\n".join(" ".join(picked[i:i + 4]) for i in range(0, len(picked), 4))


def _pair_generation(rng: random.Random, langs: tuple[str, str],
                     aligned: dict[str, list[str]]) -> str:
    lines: list[str] = []
    while sum(len(s) + 1 for s in lines) < GENERATION_CHARS:
        k = rng.randrange(len(aligned["en"]))
        lines += [f"{LANG_NAMES[lang]}: {aligned[lang][k]}" for lang in langs]
    return "\n".join(lines)


def probe_generations(seed: int, lang_counts: dict[str, int] | None = None,
                      n_pairs: int = PROBE_PAIRS) -> tuple[list[str], dict]:
    """Single-language generations plus planted "English: ... / French: ..."
    translation pairs, at seeded positions.

    Every fourth single-language generation is split into paragraphs, which
    the pair check classifies block by block. The rest are one paragraph, so
    that a round stays short enough for a run to hold several.
    """
    rng = random.Random(f"probe-prior:{seed}")
    lang_counts = lang_counts or PROBE_LANG_COUNTS
    per_lang = {lang: seed_sentences(lang) for lang in LANG_NAMES}
    plan: list[object] = [lang for lang, k in sorted(lang_counts.items()) for _ in range(k)]
    others = sorted(set(LANG_NAMES) - {"en"})
    plan += [("en", others[i % len(others)]) for i in range(n_pairs)]
    rng.shuffle(plan)
    texts: list[str] = []
    languages: list[object] = []
    for item in plan:
        if isinstance(item, tuple):
            texts.append(_pair_generation(rng, item, per_lang))
            languages.append(list(item))
        else:
            paragraphs = sum(isinstance(lang, str) for lang in languages) % 4 == 0
            texts.append(_generation(rng, per_lang[item], paragraphs))
            languages.append(item)
    pairs = [i for i, lang in enumerate(languages) if isinstance(lang, list)]
    return texts, {"languages": languages, "pair_indices": pairs}


def write_jsonl(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def write_inputs(workload: str, seed: int, out: Path) -> None:
    """Write one workload's inputs and its ground truth (truth.json)."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "probe-prior":
        texts, truth = probe_generations(seed)
        write_jsonl(out / "generations.jsonl", [{"text": t} for t in texts])
    else:
        make = {"pipeline-echo": pipeline_corpus, "translate-latency": latency_corpus,
                "dedup-clusters": cluster_corpus}[workload]
        docs, truth = make(seed)
        write_jsonl(out / "corpus.jsonl", docs)
    (out / "truth.json").write_text(json.dumps(truth, indent=1) + "\n", encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["pipeline-echo", "translate-latency",
                                 "dedup-clusters", "probe-prior"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    write_inputs(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
