"""Corpus basics: JSONL round trips, token counting, per-language statistics.

Run:  python demos/01_corpus_statistics.py
"""

import json
import tempfile
from pathlib import Path

from transmix.corpus import compute_stats, Document, read_corpus, write_corpus
from transmix.tokenizer import BpeCounter, WhitespaceCounter, bundled_bpe_paths

docs = [
    Document(id="en-001", lang="en",
             text="The ferry to the island runs twice a day in winter."),
    Document(id="en-002", lang="en",
             text="Fresh bread from the corner bakery still costs less than two euros."),
    Document(id="fr-001", lang="fr",
             text="Le bac pour l'île ne passe que deux fois par jour en hiver."),
    Document(id="de-001", lang="de",
             text="Die Fähre zur Insel fährt im Winter nur zweimal am Tag."),
    Document(id="es-001", lang="es",
             text="El transbordador a la isla solo pasa dos veces al día en invierno."),
]

workdir = Path(tempfile.mkdtemp(prefix="transmix-demo-"))
corpus_path = workdir / "mini.jsonl"

counter = WhitespaceCounter()
write_corpus(corpus_path, docs)
print(f"wrote {len(docs)} documents to {corpus_path}")
print("first line:", corpus_path.read_text(encoding="utf-8").splitlines()[0])

# Streaming read: documents come back field-for-field identical.
assert list(read_corpus(corpus_path)) == docs
print("round trip: ok")

# Whitespace counting is the fallback; the bundled BPE gives subword counts.
sample = docs[0].text
bpe = BpeCounter(*bundled_bpe_paths())
print(f"\n{sample!r}")
print(f"  whitespace tokens: {counter.count(sample)}")
print(f"  bpe tokens:        {bpe.count(sample)}  (fingerprint {bpe.fingerprint})")

# Per-language statistics in one pass.
stats = compute_stats(read_corpus(corpus_path), counter)
print("\nper-language report:")
print(json.dumps(stats.to_report(), indent=2, ensure_ascii=False))

# The report satisfies the consistency identity: avg x docs == tokens.
for lang, row in stats.per_language.items():
    assert abs(row.avg_doc_length * row.doc_count - row.token_total) <= 0.5 * row.doc_count
print("consistency identity holds for every row")
