"""Balanced token-budget sampling and stage mixture composition.

Sampling is without replacement: documents are shuffled and taken whole
until the cumulative token count reaches the budget, including the final
overshooting document. Streams from several sources are then interleaved
with a bounded-memory buffer shuffle. All randomness is seed-driven and
recorded in the composition manifest.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .corpus import Document, read_corpus
from .tokenizer import TokenCounter

__all__ = [
    "MixtureEntry",
    "MixtureSpec",
    "MixtureError",
    "balanced_sample",
    "interleave",
    "compose_stage",
    "derive_seed",
]

DEFAULT_BUFFER_SIZE = 100_000


class MixtureError(ValueError):
    """Invalid mixture spec or an unsatisfiable budget."""


def derive_seed(seed: int, name: str) -> int:
    """Stable per-stage sub-seed from the global seed."""
    digest = hashlib.blake2b(f"{seed}:{name}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _randbelow(rng: random.Random, n: int) -> int:
    # Fisher-Yates driven by Random.random(), the one generator method with a
    # documented cross-version stability guarantee; keeps seeded output
    # byte-identical across platforms and Python releases.
    return int(rng.random() * n)


def _shuffle(items: list, rng: random.Random) -> None:
    for i in range(len(items) - 1, 0, -1):
        j = _randbelow(rng, i + 1)
        items[i], items[j] = items[j], items[i]


@dataclass(frozen=True)
class MixtureEntry:
    name: str
    path: str
    token_budget: int | None = None
    weight: float | None = None


@dataclass
class MixtureSpec:
    """Named sources with per-source token budgets or weights for one stage.

    When no entry carries either, every source gets the smallest source's
    token total as its budget, resolved once the sources are counted.
    """

    stage: str
    entries: list[MixtureEntry]
    seed: int = 0
    total_tokens: int | None = None  # required when entries carry weights

    def validate(self) -> None:
        if not self.entries:
            raise MixtureError(f"stage {self.stage!r} has no sources")
        budgets = [e.token_budget is not None for e in self.entries]
        weights = [e.weight is not None for e in self.entries]
        if any(budgets) and any(weights):
            raise MixtureError("entries must use budgets or weights, not a mix")
        if any(budgets) != all(budgets) or any(weights) != all(weights):
            raise MixtureError("give every entry a budget or a weight, or none of them")
        if all(weights):
            total = sum(e.weight for e in self.entries)
            if abs(total - 1.0) > 1e-9:
                raise MixtureError(f"weights sum to {total}, expected 1.0")
            if self.total_tokens is None:
                raise MixtureError("weight-based entries need total_tokens")

    def resolved_budgets(self, totals: dict[str, int] | None = None) -> dict[str, int]:
        """Token budget per source; ``totals`` (tokens per source) is needed
        only when the entries carry neither budgets nor weights."""
        self.validate()
        first = self.entries[0]
        if first.token_budget is not None:
            return {e.name: int(e.token_budget) for e in self.entries}
        if first.weight is not None:
            return {e.name: int(round(e.weight * self.total_tokens)) for e in self.entries}
        if totals is None:
            raise MixtureError("the smallest-source budget needs the source totals")
        smallest = min(totals[e.name] for e in self.entries)
        return {e.name: smallest for e in self.entries}


def balanced_sample(
    docs: Sequence[Document] | Iterable[Document],
    budget: int,
    counter: TokenCounter,
    seed: int = 0,
) -> list[Document]:
    """Uniform whole-document sample until the budget is reached.

    The final overshooting document is included, so the realized total lies
    in [budget, budget + max document length). Raises MixtureError naming the
    shortfall when the corpus is too small. Counts are always recomputed with
    the active counter; the token_count cache is advisory only.
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


def interleave(
    corpora: Sequence[Iterable[Document]],
    seed: int = 0,
    buffer_size: int = DEFAULT_BUFFER_SIZE,
) -> Iterator[Document]:
    """Shuffle the union of several streams with a fixed-size buffer.

    Every input document appears exactly once. With a buffer at least as
    large as the input this is an exact uniform shuffle; smaller buffers
    trade exactness for bounded memory.
    """
    if buffer_size < 1:
        raise ValueError("buffer_size must be >= 1")
    rng = random.Random(seed)
    buffer: list[Document] = []
    for corpus in corpora:
        for doc in corpus:
            if len(buffer) < buffer_size:
                buffer.append(doc)
                continue
            slot = _randbelow(rng, buffer_size)
            out, buffer[slot] = buffer[slot], doc
            yield out
    _shuffle(buffer, rng)
    yield from buffer


def compose_stage(
    spec: MixtureSpec,
    counter: TokenCounter,
    buffer_size: int = DEFAULT_BUFFER_SIZE,
) -> tuple[list[Document], dict]:
    """Sample every source to its budget, interleave, and report realized counts.

    All sources are loaded and checked before anything is emitted, so a
    shortfall in any source fails the stage with no partial output. Each
    source is read once and each document counted once, also when the
    budget is the smallest source's total.
    """
    spec.validate()
    loaded: dict[str, list[Document]] = {
        e.name: list(read_corpus(e.path)) for e in spec.entries
    }
    counts = {name: [counter.count(d.text) for d in docs] for name, docs in loaded.items()}
    totals = {name: sum(c) for name, c in counts.items()}
    budgets = spec.resolved_budgets(totals)

    shortfalls = []
    for entry in spec.entries:
        total = totals[entry.name]
        if total < budgets[entry.name]:
            shortfalls.append(
                f"{entry.name}: have {total}, need {budgets[entry.name]}")
    if shortfalls:
        raise MixtureError("source shortfall: " + "; ".join(shortfalls))

    samples: dict[str, list[Document]] = {}
    realized: dict[str, dict] = {}
    for entry in spec.entries:
        sub_seed = derive_seed(spec.seed, f"sample:{entry.name}")
        taken = _take(counts[entry.name], budgets[entry.name], sub_seed)
        samples[entry.name] = [loaded[entry.name][idx] for idx in taken]
        realized[entry.name] = {
            "budget": budgets[entry.name],
            "tokens": sum(counts[entry.name][idx] for idx in taken),
            "docs": len(taken),
            "seed": sub_seed,
        }

    shuffle_seed = derive_seed(spec.seed, "interleave")
    mixed = list(interleave([samples[e.name] for e in spec.entries],
                            seed=shuffle_seed, buffer_size=buffer_size))
    manifest = {
        "stage": spec.stage,
        "seed": spec.seed,
        "shuffle_seed": shuffle_seed,
        "sources": realized,
        "output_docs": len(mixed),
        "tokenizer_fingerprint": counter.fingerprint,
    }
    return mixed, manifest
