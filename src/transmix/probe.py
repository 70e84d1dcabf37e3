"""Language identification and unconditional-generation prior probing.

A self-contained character 1-3-gram multinomial classifier (trained on the
bundled seed corpora) replaces any external language-id dependency. The
prior probe samples unconditional generations from a backend, labels each
one, and reports per-language percentages plus the share of generations that
look like translation pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections import Counter
from pathlib import Path
from typing import Sequence

import numpy as np

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
BLOCK_MARGIN = 0.6  # the margin each alternating block needs to count as a pair
LOW_CONFIDENCE_CHARS = 20
DEFAULT_PROBE_N = 512
DEFAULT_PROBE_MAX_TOKENS = 300
DEFAULT_PROBE_TEMPERATURE = 1.0
_CODE_BITS = 21  # bits per code point in a gram code: a 3-gram fits in an int64
_BLOCK = 1 << 14  # characters per scoring block: at most 3 * _BLOCK rows per gather
# Entries the row tables, the rank table included, may hold: a model past it (a
# script with a few thousand characters) is refused at finalize.
_TABLE_CAP = 1 << 22

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
        # lang -> order -> (distinct gram codes, ascending; their counts)
        self._tallies: dict[str, dict[int, tuple[np.ndarray, np.ndarray]]] = {}
        self.totals: dict[str, dict[int, int]] = {}
        self.vocab_sizes: dict[int, int] = {}
        # Smoothed log-probabilities, one column per language in ``languages``
        # order, plus a zero column when the number of languages is odd. Each
        # order has a row per gram seen in any language, by ascending gram code,
        # then a row for unseen grams. None while stale.
        self._table: np.ndarray | None = None
        self._row_tables: _RowTables | None = None  # each gram's row; None until finalized

    @property
    def languages(self) -> list[str]:
        return sorted(self._tallies)

    def add_language(self, lang: str, text: str) -> None:
        """Count the text's grams into ``lang``'s, as ``Counter.update`` over strings would."""
        points = _code_points(text)
        tallies = self._tallies.setdefault(lang, {})
        totals = self.totals.setdefault(lang, dict.fromkeys(NGRAM_ORDERS, 0))
        for n in NGRAM_ORDERS:
            count = max(len(points) - n + 1, 0)
            new = _group(_pack([points[k:count + k] for k in range(n)]))
            tallies[n] = _group(*map(np.concatenate, zip(tallies[n], new))) if n in tallies else new
            totals[n] += count
        self._table = None  # stale until finalize()

    def finalize(self) -> None:
        """Fix each gram's smoothed log-probability under each language, so
        scoring gathers table rows instead of taking logs. Each order's
        smoothing vocabulary is its union over languages, plus one for unseen
        grams. A ValueError if there are no languages or the row tables would
        pass ``_TABLE_CAP``."""
        self.vocab_sizes = {}
        languages = self.languages
        if not languages:
            raise ValueError("the model has no languages")
        blocks = []
        orders = {}  # order -> (its seen gram codes, ascending; its first row in the table)
        first = 0
        for n in NGRAM_ORDERS:
            tallies = [self._tallies[lang][n] for lang in languages]
            seen = _distinct(np.sort(np.concatenate([codes for codes, _ in tallies])))
            self.vocab_sizes[n] = 1 + len(seen)
            block = np.zeros((len(seen) + 1, len(languages) + len(languages) % 2))
            for col, (lang, (codes, counts)) in enumerate(zip(languages, tallies)):
                denom = self.totals[lang][n] + self.vocab_sizes[n]
                block[:, col] = math.log(1 / denom)
                # math.log, as the per-gram sum it replaces, once per distinct count
                distinct = _distinct(np.sort(counts))
                logs = np.array([math.log((c + 1) / denom) for c in distinct.tolist()])
                block[np.searchsorted(seen, codes), col] = logs[np.searchsorted(distinct, counts)]
            orders[n] = seen, first
            first += len(block)
            blocks.append(block)
        self._row_tables = _RowTables.build(orders)  # before the table: a refusal leaves no model
        self._table = np.concatenate(blocks)

    def log_probs(self, text: str) -> dict[str, float]:
        """The average log-probability per character of the text under each
        language, from one pass over the text."""
        if self._table is None:
            raise RuntimeError(
                "the language model is not finalized: call finalize() after add_language()")
        if not text:
            return {lang: float("-inf") for lang in self.languages}
        totals = self._totals(text)
        return {lang: total / len(text) for lang, total in zip(self.languages, totals)}

    def _totals(self, text: str) -> list[float]:
        """Per-language sums of the text's gram log-probabilities, and a 0.0
        for the pad column, if any.

        Each sum adds one gram at a time, the 1-grams in text order, then the
        2-grams, then the 3-grams, as a per-gram loop would, so every total is
        the same float as that loop's. The grams' rows, up to ``_BLOCK`` of one
        order at a time, fill one buffer of ``3 * _BLOCK`` rows, which is
        gathered and accumulated whenever full, carrying the running totals.
        """
        block = _BLOCK
        tables = self._row_tables
        rows = np.empty(3 * min(len(text), block), dtype=np.int32)
        filled = 0
        total = np.zeros(self._table.shape[1] // 2, dtype=np.complex128)
        ranked = -1, None  # a block's start and its characters' ranks, for every order
        for n in NGRAM_ORDERS:
            for start in range(0, len(text) - n + 1, block):
                count = min(block, len(text) - n + 1 - start)
                if filled + count > len(rows):
                    total = self._accumulate(total, rows[:filled])
                    filled = 0
                out = rows[filled:filled + count]
                filled += count
                if ranked[0] != start:
                    ranked = start, tables._ranks(text[start:start + block + 2])
                tables.fill(n, ranked[1], out)
        return self._accumulate(total, rows[:filled]).view(np.float64).tolist()

    def _accumulate(self, total: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # A sequential running sum, two languages a lane: a complex add is one
        # IEEE add of the real parts and one of the imaginary parts, so every
        # total is the same float as a float64 running sum's, in half the
        # latency-bound steps. A pairwise sum would change the last bits.
        values = self._table.view(np.complex128).take(rows, axis=0)
        values[0] += total
        return np.add.accumulate(values, axis=0, out=values)[-1]


class _RowTables:
    """Each gram's row in ``NgramLanguageModel._table``, found by indexing
    with the ranks of its characters in the model's alphabet: the code
    points of the seen 1-grams, which hold every character of a seen 2- or
    3-gram.

    A character's rank is read from a table indexed by code point, which
    runs to one past the alphabet's largest point; a character outside the
    alphabet, or past its end, takes the rank after the last one. A 3-gram's
    row is indexed by the rank of its first two characters among the
    distinct prefixes of the seen 3-grams, then by its last character. A gram
    that was not seen indexes its order's unseen row. The 2-D tables are kept
    flat: entry ``[i, j]`` is at ``i * side + j``, where ``side`` is the
    number of ranks.
    """

    # A plain class: a dataclass compiles generated methods at every import,
    # which raised peak RSS by about 0.6 MB in a process that imports the
    # package anew nine times.
    def __init__(self, rank: np.ndarray, one: np.ndarray, two: np.ndarray,
                 prefix: np.ndarray, three: np.ndarray) -> None:
        self.rank = rank  # [code point] -> rank; the last entry is the unseen rank
        self.side = int(rank[-1]) + 1
        self.one = one  # [a] -> 1-gram row
        self.two = two  # [a, b] -> 2-gram row
        self.prefix = prefix  # [a, b] -> prefix rank, or the number of prefixes if none
        self.three = three  # [prefix rank, c] -> 3-gram row

    @classmethod
    def build(cls, codes: dict[int, tuple[np.ndarray, int]]) -> "_RowTables":
        """The tables for each order's seen gram codes, ascending, and first
        row; a ValueError if they would hold more than ``_TABLE_CAP`` entries."""
        seen = {n: codes[n][0] for n in NGRAM_ORDERS}
        mask = (1 << _CODE_BITS) - 1
        alphabet = seen[1]
        prefixes = _distinct(seen[3] >> _CODE_BITS)
        side = len(alphabet) + 1
        rank_size = int(alphabet.max(initial=-1)) + 2
        entries = rank_size + side + (2 * side + len(prefixes) + 1) * side
        if entries > _TABLE_CAP:
            raise ValueError(f"the row tables would hold {entries:,} entries, over the cap of "
                             f"{_TABLE_CAP:,}, for an alphabet of {len(alphabet):,} characters")
        rank = np.full(rank_size, side - 1, dtype=np.int32)
        rank[alphabet] = np.arange(len(alphabet))

        def pair(pairs: np.ndarray) -> np.ndarray:
            """The flat indices of 2-character codes in a side x side table."""
            return rank[pairs >> _CODE_BITS] * side + rank[pairs & mask]

        def table(n: int, size: int, index: np.ndarray) -> np.ndarray:
            """The rows of the seen n-grams at ``index``, the unseen row elsewhere."""
            first = codes[n][1]
            rows = np.full(size, first + len(seen[n]), dtype=np.int32)
            rows[index] = first + np.arange(len(seen[n]))
            return rows

        prefix = np.full(side * side, len(prefixes), dtype=np.int32)
        prefix[pair(prefixes)] = np.arange(len(prefixes))
        return cls(
            rank=rank,
            one=table(1, side, rank[seen[1]]),
            two=table(2, side * side, pair(seen[2])),
            prefix=prefix,
            three=table(3, (len(prefixes) + 1) * side,
                        np.searchsorted(prefixes, seen[3] >> _CODE_BITS) * side
                        + rank[seen[3] & mask]),
        )

    def _ranks(self, text: str) -> np.ndarray:
        """Each character's rank: its code point, clamped, indexes ``rank``."""
        return self.rank.take(_code_points(text), mode="clip")

    def fill(self, n: int, ranks: np.ndarray, out: np.ndarray) -> None:
        """Write into ``out`` the rows of the n-grams that start at the
        first ``len(out)`` of the characters with these ranks."""
        count = len(out)
        if n == 1:
            self.one.take(ranks[:count], out=out)
            return
        np.multiply(ranks[:count], self.side, out=out)
        out += ranks[1:count + 1]
        if n == 2:
            self.two.take(out, out=out)
            return
        self.prefix.take(out, out=out)
        out *= self.side
        out += ranks[2:count + 2]
        self.three.take(out, out=out)


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending array of codes, which are never
    negative. ``np.unique`` would import ``numpy.ma`` on first use (numpy
    2), which costs about 15 ms and 2 MB of resident memory."""
    return ascending[np.diff(ascending, prepend=-1) != 0]


def _code_points(text: str) -> np.ndarray:
    """The text's code points, lone surrogates included, one per character."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")


def _pack(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Gram codes from the code points at each position of the grams: the
    points packed ``_CODE_BITS`` bits each, first point highest."""
    codes = columns[0].astype(np.int64)
    for points in columns[1:]:
        codes <<= _CODE_BITS
        codes |= points
    return codes


def _group(codes: np.ndarray,
           counts: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct code, ascending, with the sum of its counts; without
    them, each code counts one."""
    order = np.argsort(codes)
    codes = codes[order]
    starts = np.flatnonzero(np.diff(codes, prepend=-1))  # codes are never negative
    counts = np.ones(len(codes), np.int64) if counts is None else counts[order]
    return codes[starts], np.add.reduceat(counts, starts)


def bundled_seed_paths() -> dict[str, Path]:
    base = _DATA_DIR / "seeds"
    return {p.stem: p for p in sorted(base.glob("*.txt"))}


def train_langid(seed_texts: dict[str, str] | None = None) -> NgramLanguageModel:
    """Train the classifier from per-language seed text.

    Defaults to the bundled seed corpora. Each language must supply at least
    ``MIN_SEED_CHARS`` characters of text.
    """
    if seed_texts is None:
        seed_texts = {lang: path.read_text(encoding="utf-8")
                      for lang, path in bundled_seed_paths().items()}
    if not seed_texts:
        raise ValueError("no seed corpora given")
    model = NgramLanguageModel()
    for lang, text in sorted(seed_texts.items()):
        if len(text) < MIN_SEED_CHARS:
            raise ValueError(
                f"seed corpus for {lang!r} has {len(text)} chars, "
                f"need at least {MIN_SEED_CHARS}")
        model.add_language(lang, text)
    model.finalize()
    return model


def classify_language(text: str, model: NgramLanguageModel) -> LangScore:
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
    label = best_lang if margin >= OTHER_MARGIN else "other"
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


def probe_prior(
    backend,
    model: NgramLanguageModel,
    n: int = DEFAULT_PROBE_N,
    max_tokens: int = DEFAULT_PROBE_MAX_TOKENS,
    temperature: float = DEFAULT_PROBE_TEMPERATURE,
    seed: int | None = None,
) -> tuple[PriorReport, list[dict]]:
    """Sample n unconditional generations and chart their language prior.

    The prompt is empty (the backend applies its own begin-of-sequence
    convention). The seed is recorded in the report and
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
    language_names = load_language_names()
    for i in range(n):
        result = backend.complete("", max_tokens=max_tokens,
                                  temperature=temperature)
        if not result.ok:
            continue
        obtained += 1
        score = classify_language(result.text, model)
        label = score.label if score.label in model.languages else "others"
        labels[label] += 1
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

    # (b) tab-separated bilingual line; the right side is classified only
    # when the left side is a language
    for i, line in enumerate(lines):
        if "\t" not in line:
            continue
        left, _, right = line.partition("\t")
        left_score = classify_language(left.strip(" *-"), model)
        if left_score.label == "other":
            continue
        right_score = classify_language(right.strip(" *-"), model)
        if right_score.label not in ("other", left_score.label):
            return True, {"rule": "tab_bilingual", "line": i,
                          "labels": [left_score.label, right_score.label]}

    # (c) blocks alternating between two confidently-labeled languages; the
    # blocks are classified in order, up to the first one that breaks the rule
    blocks = [b.strip() for b in text.split("\n\n") if b.strip()]
    if len(blocks) < 2:
        return False, None
    labels: list[str] = []
    for block in blocks:
        score = classify_language(block, model)
        if (score.label == "other" or score.margin < BLOCK_MARGIN
                or labels[-1:] == [score.label] or len({*labels, score.label}) > 2):
            return False, None
        labels.append(score.label)
    return True, {"rule": "alternating_blocks", "labels": sorted(set(labels))}
