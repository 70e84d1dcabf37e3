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
from dataclasses import dataclass
from collections import Counter
from pathlib import Path
from typing import Collection, Sequence

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
# script with a few thousand characters) is refused where it is built or loaded.
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
        # lang -> order -> (distinct gram codes, ascending; their counts; first-seen keys)
        self._tallies: dict[str, dict[int, tuple[np.ndarray, ...]]] = {}
        self._counts: dict[str, dict[int, Counter]] | None = None  # ``counts``, once built
        self.totals: dict[str, dict[int, int]] = {}
        self.vocab_sizes: dict[int, int] = {}
        # Smoothed log-probabilities, one column per language in ``languages``
        # order. Each order has a row per gram seen in any language, by
        # ascending gram code, then a row for unseen grams. None while stale.
        self._table: np.ndarray | None = None
        self._row_tables: _RowTables | None = None  # each gram's row; None until tabulated

    @property
    def languages(self) -> list[str]:
        return sorted(self._tallies)

    @property
    def counts(self) -> dict[str, dict[int, Counter]]:
        """A read-only view: each language's gram strings and counts, in first-seen order."""
        if self._counts is None:
            self._counts = {lang: {n: _counter(n, *per_order[n]) for n in NGRAM_ORDERS}
                            for lang, per_order in self._tallies.items()}
        return self._counts

    def add_language(self, lang: str, text: str) -> None:
        """Count the text's grams into ``lang``'s, as ``Counter.update`` over strings would."""
        points = _code_points(text)
        tallies = self._tallies.setdefault(lang, {})
        totals = self.totals.setdefault(lang, dict.fromkeys(NGRAM_ORDERS, 0))
        for n in NGRAM_ORDERS:
            count = max(len(points) - n + 1, 0)
            codes, counts, first = _group(_pack([points[k:count + k] for k in range(n)]))
            new = codes, counts, first + totals[n]  # seen after the grams counted before
            tallies[n] = _group(*map(np.concatenate, zip(tallies[n], new))) if n in tallies else new
            totals[n] += count
        self._counts = None
        self._table = None  # stale until finalize()

    def finalize(self) -> None:
        """Fix smoothing vocabularies from the union over languages; a ValueError
        if there are no languages or the row tables would pass ``_TABLE_CAP``."""
        self.vocab_sizes = {}  # _tabulate counts each order's union, plus one for unseen grams
        self._tabulate()

    def _tabulate(self) -> None:
        """Fix each gram's smoothed log-probability under each language from
        the counts and the vocabulary sizes, so scoring gathers table rows
        instead of taking logs."""
        languages = self.languages
        if not languages:
            raise ValueError("the model has no languages")
        blocks = []
        orders = {}  # order -> (its seen gram codes, ascending; its first row in the table)
        first = 0
        for n in NGRAM_ORDERS:
            tallies = [self._tallies[lang][n] for lang in languages]
            seen = _distinct(np.sort(np.concatenate([codes for codes, _, _ in tallies])))
            block = np.empty((len(seen) + 1, len(languages)))
            for col, (lang, (codes, counts, _)) in enumerate(zip(languages, tallies)):
                denom = self.totals[lang][n] + self.vocab_sizes.setdefault(n, 1 + len(seen))
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
        """Per-language sums of the text's gram log-probabilities.

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
        total = np.zeros(self._table.shape[1])
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
        return self._accumulate(total, rows[:filled]).tolist()

    def _accumulate(self, total: np.ndarray, rows: np.ndarray) -> np.ndarray:
        values = self._table.take(rows, axis=0)
        values[0] += total
        # a sequential running sum: a pairwise sum would change the last bits
        return np.add.accumulate(values, axis=0, out=values)[-1]

    def save(self, path: str | Path) -> None:
        payload = {
            "orders": list(NGRAM_ORDERS),
            "vocab_sizes": {str(k): v for k, v in self.vocab_sizes.items()},
            "counts": {
                lang: {str(n): dict(c) for n, c in per_order.items()}
                for lang, per_order in self.counts.items()
            },
        }
        # a gram may be a lone surrogate, which strict UTF-8 cannot write
        Path(path).write_text(json.dumps(payload, ensure_ascii=False),
                              encoding="utf-8", errors="surrogatepass")

    @classmethod
    def load(cls, path: str | Path) -> "NgramLanguageModel":
        """The model that ``save`` wrote to ``path``; a ValueError naming the
        path if the file does not hold one."""
        try:
            return cls._from_payload(json.loads(
                Path(path).read_text(encoding="utf-8", errors="surrogatepass")))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    @classmethod
    def _from_payload(cls, payload: object) -> "NgramLanguageModel":
        payload = _as_object(payload, "")
        if missing := [k for k in ("orders", "vocab_sizes", "counts") if k not in payload]:
            raise ValueError(f"no {missing[0]!r} key")
        if payload["orders"] != list(NGRAM_ORDERS):
            raise ValueError(f"orders {payload['orders']} differ from {list(NGRAM_ORDERS)}")
        vocab_sizes = _as_object(payload["vocab_sizes"], "'vocab_sizes' is ")
        counts = {lang: _as_object(c, f"the counts of {lang!r} are ")
                  for lang, c in _as_object(payload["counts"], "'counts' is ").items()}
        for name, per_order in [("vocab_sizes", vocab_sizes), *(
                (f"the counts of {lang!r}", c) for lang, c in counts.items())]:
            if missing := [n for n in NGRAM_ORDERS if str(n) not in per_order]:
                raise ValueError(f"{name} lack order {missing[0]}")
        for n in NGRAM_ORDERS:
            if type(size := vocab_sizes[str(n)]) is not int or size < 1:
                raise ValueError(f"vocab_sizes of order {n} is {size!r}, not a positive integer")
            if size >= 2**63:
                raise ValueError(f"vocab_sizes of order {n} is 2**63 or more")
        model = cls()
        for lang, per_order in counts.items():
            grams = {n: _as_object(per_order[str(n)], f"the {n}-gram counts of {lang!r} are ")
                     for n in NGRAM_ORDERS}
            for n, c in grams.items():
                for v in c.values():
                    if type(v) is not int or not 0 <= v < 2**63:
                        raise ValueError(f"the {n}-gram counts of {lang!r} " + (
                            "are not all integers" if type(v) is not int else
                            "include a negative count" if v < 0 else
                            "include a count of 2**63 or more"))
            model._tallies[lang] = {n: _group(_gram_codes(c, n), np.array([*c.values()], np.int64),
                                              np.arange(len(c))) for n, c in grams.items()}
            model.totals[lang] = {n: sum(c.values()) for n, c in grams.items()}
        model.vocab_sizes = {n: vocab_sizes[str(n)] for n in NGRAM_ORDERS}
        model._tabulate()
        return model


def _as_object(value: object, what: str) -> dict:
    """``value`` if it is a JSON object; else a ValueError that starts with
    ``what`` and names its JSON type."""
    if not isinstance(value, dict):
        raise ValueError(f"{what}a JSON {type(value).__name__}, not an object")
    return value


class _RowTables:
    """Each gram's row in ``NgramLanguageModel._table``, found by indexing
    with the ranks of its characters in the model's alphabet: every code
    point of a seen gram of any order.

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
        # a loaded model may hold grams whose characters or prefixes were
        # seen in no lower order, so every order adds to both
        alphabet = _distinct(np.sort(np.concatenate(
            [seen[n] >> (_CODE_BITS * k) & mask for n in NGRAM_ORDERS for k in range(n)])))
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


def _gram_codes(grams: Collection[str], n: int) -> np.ndarray:
    """The codes of n-grams given as strings, in the same order."""
    joined = "".join(grams)
    if len(joined) != n * len(grams):
        raise ValueError(f"the model's {n}-grams are not all {n} characters long")
    return _pack(_code_points(joined).reshape(-1, n).T)


def _group(codes: np.ndarray, counts: np.ndarray | None = None,
           first: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Each distinct code, ascending, with the sum of its counts and the least
    of its first-seen keys; without them, each code counts one, seen at its index."""
    order = np.argsort(codes)
    codes = codes[order]
    starts = np.flatnonzero(np.diff(codes, prepend=-1))  # codes are never negative
    counts = np.ones(len(codes), np.int64) if counts is None else counts[order]
    first = order if first is None else first[order]
    return codes[starts], np.add.reduceat(counts, starts), np.minimum.reduceat(first, starts)


def _counter(n: int, codes: np.ndarray, counts: np.ndarray, first: np.ndarray) -> Counter:
    """The n-grams of the codes as strings, with their counts, in first-seen order."""
    order = np.argsort(first)
    points = codes[order, None] >> _CODE_BITS * np.arange(n - 1, -1, -1) & (1 << _CODE_BITS) - 1
    text = points.astype("<u4").tobytes().decode("utf-32-le", "surrogatepass")
    grams = [text[k:k + n] for k in range(0, len(text), n)]
    return Counter(dict(zip(grams, counts[order].tolist())))


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
                and all(s.margin >= BLOCK_MARGIN for s in labeled)
                and all(labeled[i].label != labeled[i + 1].label
                        for i in range(len(labeled) - 1))):
            return True, {"rule": "alternating_blocks", "labels": sorted(langs)}

    return False, None
