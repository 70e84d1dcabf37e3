"""Heuristic document quality filtering for web data (Gopher-style rules).

Rules run in a fixed order and every active rule is measured even after the
first failure, so reports are complete enough to audit threshold choices.
Words are maximal non-whitespace runs; alphabetic means Unicode letter.
A ``BoundedMemo`` keeps each word's features, up to 100,000 distinct words,
and ``filter_corpus`` shares one across its corpus.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, asdict
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator

from .corpus import Document
from .tokenizer import WORD_MEMO_CAP, BoundedMemo

__all__ = [
    "RuleConfig",
    "RuleResult",
    "QualityReport",
    "gopher_filter",
    "filter_corpus",
    "load_stopwords",
]

BULLET_CHARS = ("•", "‣", "▪", "-", "*")

# the rules every document is measured by, in report order
BASE_RULES = ("word_count", "mean_word_length", "symbol_word_ratio", "bullet_line_fraction",
              "ellipsis_line_fraction", "alpha_word_fraction", "stop_words")

_DATA_DIR = Path(__file__).parent / "data" / "stopwords"


@dataclass(frozen=True)
class RuleConfig:
    """Thresholds for the quality rules; the repetition rules can be
    switched on."""

    min_words: int = 50
    max_words: int = 100_000
    min_mean_word_length: float = 3.0
    max_mean_word_length: float = 10.0
    max_symbol_word_ratio: float = 0.1
    max_bullet_line_fraction: float = 0.9
    max_ellipsis_line_fraction: float = 0.3
    min_alpha_word_fraction: float = 0.8
    min_stop_words: int = 2
    # repetition rules are off by default; enable for noisy web dumps
    check_repetition: bool = False
    max_duplicate_line_fraction: float = 0.3
    max_duplicate_paragraph_fraction: float = 0.3

    def active_rules(self) -> tuple[str, ...]:
        if self.check_repetition:
            return BASE_RULES + ("duplicate_line_fraction", "duplicate_paragraph_fraction")
        return BASE_RULES


@dataclass(frozen=True)
class RuleResult:
    rule: str
    value: float
    passed: bool


@dataclass
class QualityReport:
    doc_id: str
    results: list[RuleResult] = field(default_factory=list)

    @property
    def keep(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def first_failed(self) -> str | None:
        for r in self.results:
            if not r.passed:
                return r.rule
        return None

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "keep": self.keep,
            "first_failed": self.first_failed,
            "rules": [asdict(r) for r in self.results],
        }


@lru_cache(maxsize=None)
def load_stopwords(lang: str) -> frozenset[str]:
    """Lowercased stop-word set for a language; 'other' uses the en list."""
    path = _DATA_DIR / f"{'en' if lang == 'other' else lang}.txt"
    return frozenset(
        w.strip().lower()
        for w in path.read_text(encoding="utf-8").splitlines()
        if w.strip()
    )


def _ellipsis_count(s: str) -> int:
    return s.count("…") + s.count("...")


def _strip_edges(word: str) -> str:
    return word.strip("\"'.,;:!?()[]{}«»“”‘’-")


def _word_features(word: str) -> tuple[int, bool, str]:
    """(length, has a letter, stop-word key); the same in every language."""
    return len(word), any(c.isalpha() for c in word), _strip_edges(word).lower()


def gopher_filter(doc: Document, rules: RuleConfig | None = None,
                  stopwords: frozenset[str] | None = None,
                  word_memo: BoundedMemo | None = None) -> QualityReport:
    """Evaluate every active rule against one document.

    ``word_memo`` keeps per-word features across calls; ``filter_corpus``
    passes one for its whole corpus.
    """
    rules = rules or RuleConfig()
    if word_memo is None:
        word_memo = BoundedMemo(_word_features, WORD_MEMO_CAP)
    if stopwords is None:
        stopwords = load_stopwords(doc.lang)

    words = doc.text.split()
    num_words = len(words)
    lines = [ln for ln in doc.text.splitlines() if ln.strip()]
    num_lines = len(lines)

    measured: dict[str, tuple[float, bool]] = {}

    measured["word_count"] = (
        float(num_words), rules.min_words <= num_words <= rules.max_words)

    # one pass over the distinct words; the sums stay integers, so every
    # ratio is the same float a pass over all words gives
    total_len = alpha_words = 0
    distinct_stops: set[str] = set()
    for word, count in Counter(words).items():
        length, has_alpha, key = word_memo[word]
        total_len += length * count
        if has_alpha:
            alpha_words += count
        if key in stopwords:
            distinct_stops.add(key)

    mean_len = total_len / num_words if num_words else 0.0
    measured["mean_word_length"] = (
        mean_len, rules.min_mean_word_length <= mean_len <= rules.max_mean_word_length)

    symbols = doc.text.count("#") + _ellipsis_count(doc.text)
    symbol_ratio = symbols / num_words if num_words else 1.0
    measured["symbol_word_ratio"] = (
        symbol_ratio, symbol_ratio <= rules.max_symbol_word_ratio)

    bullet_frac = (
        sum(1 for ln in lines if ln.lstrip().startswith(BULLET_CHARS)) / num_lines
        if num_lines else 0.0)
    measured["bullet_line_fraction"] = (
        bullet_frac, bullet_frac <= rules.max_bullet_line_fraction)

    ellipsis_frac = (
        sum(1 for ln in lines if ln.rstrip().endswith(("…", "..."))) / num_lines
        if num_lines else 0.0)
    measured["ellipsis_line_fraction"] = (
        ellipsis_frac, ellipsis_frac <= rules.max_ellipsis_line_fraction)

    alpha_frac = alpha_words / num_words if num_words else 0.0
    measured["alpha_word_fraction"] = (
        alpha_frac, alpha_frac >= rules.min_alpha_word_fraction)

    measured["stop_words"] = (
        float(len(distinct_stops)), len(distinct_stops) >= rules.min_stop_words)

    if rules.check_repetition:
        dup_line = _duplicate_fraction(lines)
        measured["duplicate_line_fraction"] = (
            dup_line, dup_line <= rules.max_duplicate_line_fraction)
        paragraphs = [p.strip() for p in doc.text.split("\n\n") if p.strip()]
        dup_para = _duplicate_fraction(paragraphs)
        measured["duplicate_paragraph_fraction"] = (
            dup_para, dup_para <= rules.max_duplicate_paragraph_fraction)

    report = QualityReport(doc_id=doc.id)
    for rule in rules.active_rules():
        value, passed = measured[rule]
        report.results.append(RuleResult(rule=rule, value=value, passed=passed))
    return report


def _duplicate_fraction(items: list[str]) -> float:
    if not items:
        return 0.0
    return (len(items) - len(set(items))) / len(items)


def filter_corpus(
    docs: Iterable[Document],
    rules: RuleConfig | None = None,
) -> Iterator[tuple[Document, QualityReport]]:
    """Yield (doc, report) pairs; callers partition on report.keep.

    Input order is preserved, so the kept and rejected streams each keep
    their relative order.
    """
    rules = rules or RuleConfig()
    word_memo = BoundedMemo(_word_features, WORD_MEMO_CAP)
    for doc in docs:
        yield doc, gopher_filter(doc, rules, load_stopwords(doc.lang), word_memo)
