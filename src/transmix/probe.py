"""Language identification and unconditional-generation prior probing.

A self-contained character 1-3-gram multinomial classifier (trained on the
bundled seed corpora) replaces any external language-id dependency. The
prior probe samples unconditional generations from a backend, labels each
one, and reports per-language percentages plus the share of generations that
look like translation pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from collections import Counter
from pathlib import Path
from typing import Iterable

__all__ = [
    "LangScore",
    "NgramLanguageModel",
    "train_langid",
    "classify_language",
    "PriorReport",
    "probe_prior",
    "detect_translation_pair",
    "bundled_seed_paths",
    "load_language_names",
]

NGRAM_ORDERS = (1, 2, 3)
MIN_SEED_CHARS = 10_000
OTHER_MARGIN = 0.15  # per-character log-prob units
LOW_CONFIDENCE_CHARS = 20

_DATA_DIR = Path(__file__).parent / "data"


@dataclass(frozen=True)
class LangScore:
    """Per-language scores with the winning label and its margin."""

    scores: dict
    label: str
    margin: float
    low_confidence: bool = False


class NgramLanguageModel:
    """Character n-gram multinomial model with add-one smoothing."""

    def __init__(self) -> None:
        self.counts: dict[str, dict[int, Counter]] = {}
        self.totals: dict[str, dict[int, int]] = {}
        self.vocab_sizes: dict[int, int] = {}
        # lang -> order -> (gram -> log-probability, log-probability of an unseen gram)
        self._log_probs: dict[str, dict[int, tuple[dict[str, float], float]]] = {}

    @property
    def languages(self) -> list[str]:
        return sorted(self.counts)

    def add_language(self, lang: str, text: str) -> None:
        per_order = self.counts.setdefault(
            lang, {n: Counter() for n in NGRAM_ORDERS})
        for n in NGRAM_ORDERS:
            per_order[n].update(_grams(text, n))
        self.totals[lang] = {n: sum(per_order[n].values()) for n in NGRAM_ORDERS}
        self._log_probs = {}  # stale until finalize()

    def finalize(self) -> None:
        """Fix smoothing vocabularies from the union over languages."""
        for n in NGRAM_ORDERS:
            seen = set()
            for lang in self.counts:
                seen.update(self.counts[lang][n])
            self.vocab_sizes[n] = len(seen) + 1  # one slot for unseen grams
        self._tabulate()

    def _tabulate(self) -> None:
        """Fix each gram's smoothed log-probability from the counts and the
        vocabulary sizes, so scoring looks grams up instead of taking logs."""
        self._log_probs = {}
        for lang, per_order in self.counts.items():
            tables = self._log_probs[lang] = {}
            for n, counts in per_order.items():
                denom = self.totals[lang][n] + self.vocab_sizes[n]
                tables[n] = ({gram: math.log((c + 1) / denom) for gram, c in counts.items()},
                             math.log(1 / denom))

    def log_prob(self, lang: str, text: str) -> float:
        """Average log-probability per character of the text under ``lang``."""
        if not text:
            return float("-inf")
        return self._score(lang, _all_grams(text)) / len(text)

    def log_probs(self, text: str) -> dict[str, float]:
        """``log_prob`` under every language, slicing the text's grams once."""
        if not text:
            return {lang: float("-inf") for lang in self.languages}
        grams = _all_grams(text)
        return {lang: self._score(lang, grams) / len(text) for lang in self.languages}

    def _score(self, lang: str, grams: list[tuple[int, list[str]]]) -> float:
        # summed in text order, order by order, as one language's own pass
        # would, so sharing the grams leaves every score the same float
        total = 0.0
        for n, order_grams in grams:
            table, unseen = self._log_probs[lang][n]
            get = table.get
            for gram in order_grams:
                total += get(gram, unseen)
        return total

    def save(self, path: str | Path) -> None:
        payload = {
            "orders": list(NGRAM_ORDERS),
            "vocab_sizes": {str(k): v for k, v in self.vocab_sizes.items()},
            "counts": {
                lang: {str(n): dict(c) for n, c in per_order.items()}
                for lang, per_order in self.counts.items()
            },
        }
        Path(path).write_text(json.dumps(payload, ensure_ascii=False),
                              encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "NgramLanguageModel":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        model = cls()
        for lang, per_order in payload["counts"].items():
            model.counts[lang] = {
                int(n): Counter(c) for n, c in per_order.items()}
            model.totals[lang] = {
                n: sum(c.values()) for n, c in model.counts[lang].items()}
        model.vocab_sizes = {int(k): v for k, v in payload["vocab_sizes"].items()}
        model._tabulate()
        return model


def _grams(text: str, n: int) -> Iterable[str]:
    if n == 1:
        return text
    return (text[i:i + n] for i in range(len(text) - n + 1))


def _all_grams(text: str) -> list[tuple[int, list[str]]]:
    return [(n, list(_grams(text, n))) for n in NGRAM_ORDERS]


def bundled_seed_paths() -> dict[str, Path]:
    base = _DATA_DIR / "seeds"
    return {p.stem: p for p in sorted(base.glob("*.txt"))}


def train_langid(seed_texts: dict[str, str] | None = None,
                 min_chars: int = MIN_SEED_CHARS) -> NgramLanguageModel:
    """Train the classifier from per-language seed text.

    Defaults to the bundled seed corpora. Each language must supply at least
    ``min_chars`` characters of text.
    """
    if seed_texts is None:
        seed_texts = {lang: path.read_text(encoding="utf-8")
                      for lang, path in bundled_seed_paths().items()}
    if not seed_texts:
        raise ValueError("no seed corpora given")
    model = NgramLanguageModel()
    for lang, text in sorted(seed_texts.items()):
        if len(text) < min_chars:
            raise ValueError(
                f"seed corpus for {lang!r} has {len(text)} chars, "
                f"need at least {min_chars}")
        model.add_language(lang, text)
    model.finalize()
    return model


def classify_language(text: str, model: NgramLanguageModel,
                      other_margin: float = OTHER_MARGIN) -> LangScore:
    """Deterministic language scores; 'other' when evidence is too thin."""
    has_letters = any(ch.isalpha() for ch in text)
    if not text or not has_letters:
        return LangScore(scores={lang: float("-inf") for lang in model.languages},
                         label="other", margin=0.0,
                         low_confidence=len(text) < LOW_CONFIDENCE_CHARS)
    scores = model.log_probs(text)
    ranked = sorted(scores.items(), key=lambda kv: kv[1], reverse=True)
    best_lang, best = ranked[0]
    margin = best - ranked[1][1] if len(ranked) > 1 else float("inf")
    label = best_lang if margin >= other_margin else "other"
    return LangScore(scores=scores, label=label, margin=margin,
                     low_confidence=len(text) < LOW_CONFIDENCE_CHARS)


@dataclass
class PriorReport:
    """Language distribution over unconditional generations."""

    requested: int
    obtained: int
    percentages: dict
    translation_pair_percent: float
    max_tokens: int
    temperature: float
    seed: int | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    def check(self) -> bool:
        return self.obtained == 0 or abs(sum(self.percentages.values()) - 100.0) <= 0.1


def probe_prior(
    backend,
    model: NgramLanguageModel,
    n: int = 512,
    max_tokens: int = 300,
    temperature: float = 1.0,
    seed: int | None = None,
    prompt: str = "",
    detect_pairs: bool = True,
) -> tuple[PriorReport, list[dict]]:
    """Sample n unconditional generations and chart their language prior.

    The prompt defaults to empty (the backend applies its own
    begin-of-sequence convention). The seed is recorded in the report and
    handed to backends that expose a ``reseed`` hook; remote samplers that
    cannot be seeded simply ignore it. Backend failures reduce the effective
    sample; the report records requested vs obtained. Returns the report and
    the evidence records of translation-pair detections.
    """
    if seed is not None and hasattr(backend, "reseed"):
        backend.reseed(seed)
    labels: Counter[str] = Counter()
    pair_hits = 0
    evidence: list[dict] = []
    obtained = 0
    language_names = load_language_names() if detect_pairs else frozenset()
    for i in range(n):
        result = backend.complete(prompt, max_tokens=max_tokens,
                                  temperature=temperature)
        if not result.ok:
            continue
        obtained += 1
        score = classify_language(result.text, model)
        label = score.label if score.label in model.languages else "others"
        labels[label] += 1
        if detect_pairs:
            is_pair, why = detect_translation_pair(
                result.text, model, language_names=language_names)
            if is_pair:
                pair_hits += 1
                evidence.append({"index": i, **why})

    percentages = {}
    for lang in model.languages + ["others"]:
        percentages[lang] = 100.0 * labels.get(lang, 0) / obtained if obtained else 0.0
    report = PriorReport(
        requested=n,
        obtained=obtained,
        percentages=percentages,
        translation_pair_percent=100.0 * pair_hits / obtained if obtained else 0.0,
        max_tokens=max_tokens,
        temperature=temperature,
        seed=seed,
    )
    return report, evidence


def load_language_names() -> frozenset[str]:
    """Language names recognized as 'Name:' prefixes in generations."""
    path = _DATA_DIR / "language_names.txt"
    return frozenset(
        line.strip() for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip())


def detect_translation_pair(
    text: str,
    model: NgramLanguageModel,
    block_margin: float = 0.6,
    language_names: frozenset[str] | None = None,
) -> tuple[bool, dict | None]:
    """Heuristics for the degenerate bilingual-pair generation format.

    True when (a) lines are prefixed by two different language names followed
    by a colon, (b) some line holds a tab whose two sides classify as
    different languages, or (c) consecutive blocks alternate between two
    languages, each labeled with a confident margin.
    """
    if language_names is None:
        language_names = load_language_names()

    lines = [ln for ln in text.splitlines() if ln.strip()]

    # (a) "English: ..." / "Czech: ..." prefixes
    prefixes = set()
    for line in lines:
        head, sep, _ = line.lstrip().partition(":")
        if sep and head.strip() in language_names:
            prefixes.add(head.strip())
    if len(prefixes) >= 2:
        return True, {"rule": "name_prefix", "names": sorted(prefixes)}

    # (b) tab-separated bilingual line
    for i, line in enumerate(lines):
        if "\t" not in line:
            continue
        left, _, right = line.partition("\t")
        left_score = classify_language(left.strip(" *-"), model)
        right_score = classify_language(right.strip(" *-"), model)
        if (left_score.label != "other" and right_score.label != "other"
                and left_score.label != right_score.label):
            return True, {"rule": "tab_bilingual", "line": i,
                          "labels": [left_score.label, right_score.label]}

    # (c) blocks alternating between two confidently-labeled languages
    blocks = [b.strip() for b in text.split("\n\n") if b.strip()]
    if len(blocks) >= 2:
        labeled = [classify_language(b, model) for b in blocks]
        langs = {s.label for s in labeled}
        if (len(langs) == 2 and "other" not in langs
                and all(s.margin >= block_margin for s in labeled)
                and all(labeled[i].label != labeled[i + 1].label
                        for i in range(len(labeled) - 1))):
            return True, {"rule": "alternating_blocks", "labels": sorted(langs)}

    return False, None
