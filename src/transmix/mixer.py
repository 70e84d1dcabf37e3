"""Balanced token-budget sampling and stage mixture composition.

Sampling is without replacement: documents are shuffled and taken whole
until the cumulative token count reaches the budget, including the final
overshooting document. The samples of several sources are then interleaved
by one exact seeded shuffle of their union. All randomness is seed-driven
and recorded in the composition manifest.

``compose_stage`` holds numbers, not text: it reads each source as a
``corpus.TwoPassCorpus``, whose first pass it uses to count every document's
tokens; the sample and the shuffle are made over document indices, and the
iterator it returns reads the sampled lines back once.

Every token count here is made by the caller's ``TokenCounter``, whose
fingerprint the manifest records; a ``token_count`` key in an input line is
neither read nor changed.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from array import array
from bisect import bisect_right
from typing import Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .corpus import Document, TwoPassCorpus, read_back_lines
from .tokenizer import TokenCounter

T = TypeVar("T")

__all__ = [
    "MixtureError",
    "balanced_sample",
    "interleave",
    "compose_stage",
    "derive_seed",
]


class MixtureError(ValueError):
    """No sources, two sources of one name, or an unsatisfiable budget."""


def derive_seed(seed: int, name: str) -> int:
    """Stable per-stage sub-seed from the global seed."""
    digest = hashlib.blake2b(f"{seed}:{name}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _shuffle(items: list | array, rng: random.Random) -> None:
    # Fisher-Yates driven by Random.random(), the one generator method with a
    # documented cross-version stability guarantee; keeps seeded output
    # byte-identical across platforms and Python releases.
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]


def balanced_sample(
    docs: Sequence[Document] | Iterable[Document],
    budget: int,
    counter: TokenCounter,
    seed: int = 0,
) -> list[Document]:
    """Uniform whole-document sample until the budget is reached.

    The final overshooting document is included, so the realized total lies
    in [budget, budget + max document length). Raises MixtureError naming the
    shortfall when the corpus is too small.
    """
    docs = list(docs)
    counts = [counter.count(d.text) for d in docs]
    total = sum(counts)
    if total < budget:
        raise MixtureError(
            f"corpus has {total} tokens but the budget is {budget} "
            f"(short by {budget - total})")
    return [docs[idx] for idx in _take(counts, budget, seed)]


def _take(counts: Sequence[int], budget: int, seed: int) -> list[int]:
    """Indices in seeded shuffle order, taken until their token counts reach
    the budget (the overshooting one included)."""
    order = list(range(len(counts)))
    _shuffle(order, random.Random(seed))
    taken: list[int] = []
    acc = 0
    for idx in order:
        taken.append(idx)
        acc += counts[idx]
        if acc >= budget:
            break
    return taken


def interleave(corpora: Sequence[Sequence[T]], seed: int = 0) -> Iterator[T]:
    """Exact seeded shuffle of the union of several sequences.

    Every input item (a document, or a reference to one) appears exactly
    once, and the order depends only on the seed and the sequence lengths.
    The shuffle moves 8-byte positions in the concatenated sequences, not
    the items.
    """
    starts = list(itertools.accumulate(map(len, corpora), initial=0))
    order = array("q", range(starts[-1]))
    _shuffle(order, random.Random(seed))
    for pos in order:
        c = bisect_right(starts, pos) - 1
        yield corpora[c][pos - starts[c]]


def compose_stage(
    sources: Sequence[tuple[str, str]],
    counter: TokenCounter,
    budget: int | None = None,
    seed: int = 0,
    strict: bool = False,
) -> tuple[Iterator[str], dict]:
    """Sample every ``(name, path)`` source to one token budget, interleave,
    and report realized counts.

    Each source's first pass counts each document once, before anything is
    emitted, so a shortfall in any source fails the stage with no partial
    output. Per document it keeps a token count, not the text; the budget
    is the smallest source's total when none is given, and a source with no
    tokens then fails the stage. The mixed lines come back as an iterator
    that reads them from the sources again, so the sources must be regular
    files that do not change until it has been read (CorpusRereadError
    otherwise). ``strict`` is as in ``corpus.read_corpus``.
    """
    if not sources:
        raise MixtureError("the mix has no sources")
    names: set[str] = set()
    for name, _ in sources:
        if name in names:
            raise MixtureError(f"the mix has two sources named {name!r}")
        names.add(name)
    corpora = [TwoPassCorpus(path, strict) for _, path in sources]
    token_counts = [array("q", (counter.count(d.text) for d in src.documents()))
                    for src in corpora]
    totals = [sum(counts) for counts in token_counts]
    if budget is None:
        empty = [name for (name, _), total in zip(sources, totals) if total == 0]
        if empty:
            raise MixtureError("sources with no tokens: " + ", ".join(map(repr, empty)))
        budget = min(totals)

    shortfalls = [f"{name}: have {total}, need {budget}"
                  for (name, _), total in zip(sources, totals) if total < budget]
    if shortfalls:
        raise MixtureError("source shortfall: " + "; ".join(shortfalls))

    # the shuffle moves references, index * len(sources) + source, not documents
    k = len(sources)
    samples: list[array] = []
    realized: dict[str, dict] = {}
    for s, ((name, _), counts) in enumerate(zip(sources, token_counts)):
        sub_seed = derive_seed(seed, f"sample:{name}")
        taken = _take(counts, budget, sub_seed)
        samples.append(array("q", [idx * k + s for idx in taken]))
        realized[name] = {
            "budget": budget,
            "tokens": sum(counts[idx] for idx in taken),
            "docs": len(taken),
            "seed": sub_seed,
        }

    shuffle_seed = derive_seed(seed, "interleave")
    refs = np.fromiter(interleave(samples, seed=shuffle_seed),
                       dtype=np.int64, count=sum(map(len, samples)))
    manifest = {
        "seed": seed,
        "shuffle_seed": shuffle_seed,
        "sources": realized,
        "output_docs": len(refs),
        "tokenizer_fingerprint": counter.fingerprint,
    }
    return read_back_lines(corpora, refs), manifest
