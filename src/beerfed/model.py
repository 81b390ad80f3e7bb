"""Domain types and taxonomy rules for collaborative tasting datasets.

Covers the beverage/review data model, ABV strength bands, style-family
bucketing (config-driven, with a mandatory fallback family) and dataset
validation.
"""

from __future__ import annotations

import enum
import json
import math
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import BeerfedError, ConfigurationError

FALLBACK_FAMILY_NAME = "Specialty and hybrid styles"

# Raw scores are one-decimal points in [1, 5]; a ReviewTable holds each as
# its integer tenths, SCORE_MIN to SCORE_MAX, so normalization stays exact.
SCORE_MIN = 10
SCORE_MAX = 50

OBSERVED_ABV_MIN = 0.5
OBSERVED_ABV_MAX = 12.5

DEFAULT_K = 5  # slots per recommendation set


class NoteTag(str, enum.Enum):
    REAL_FLAVOUR = "real_flavour"
    ARTIFICIAL_FLAVOUR = "artificial_flavour"
    OTHER = "other"


class AbvBand(str, enum.Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"
    VERY_HIGH = "very_high"


# Half-open intervals (lo, hi]; together they partition (0, 100] so every
# positive ABV lands in exactly one band.
ABV_BAND_EDGES: list[tuple[AbvBand, float, float]] = [
    (AbvBand.LOW, 0.0, 4.5),
    (AbvBand.MEDIUM, 4.5, 6.5),
    (AbvBand.HIGH, 6.5, 9.0),
    (AbvBand.VERY_HIGH, 9.0, 100.0),
]


def classify_abv(abv: float) -> AbvBand:
    """Map an ABV percentage onto its strength band.

    Bands are low (0, 4.5], medium (4.5, 6.5], high (6.5, 9.0] and
    very_high (9.0, 100]. Raises ValueError outside (0, 100] or for
    non-finite input.
    """
    if not isinstance(abv, (int, float)) or isinstance(abv, bool):
        raise ValueError(f"abv must be a number, got {type(abv).__name__}")
    if not math.isfinite(abv):
        raise ValueError(f"abv must be finite, got {abv!r}")
    if abv <= 0 or abv > 100:
        raise ValueError(f"abv must lie in (0, 100], got {abv!r}")
    for band, lo, hi in ABV_BAND_EDGES:
        if lo < abv <= hi:
            return band
    raise AssertionError("unreachable: bands partition (0, 100]")


class StyleFamily(NamedTuple):
    """A coarse style bucket matched by case-insensitive substring patterns."""

    name: str
    patterns: tuple[str, ...] = ()
    fallback: bool = False


DEFAULT_STYLE_FAMILIES: list[StyleFamily] = [
    # Order is the matching priority: more specific buckets first so that
    # e.g. "Fruited Gose" lands in Gose and "Black IPA" in Stout & porter.
    StyleFamily("Gose", ("gose",)),
    StyleFamily("Sour & wild ale", ("sour", "wild ale", "lambic", "gueuze", "berliner")),
    StyleFamily("Stout & porter", ("stout", "porter", "black ipa")),
    StyleFamily("Saison & farmhouse", ("saison", "farmhouse", "grisette")),
    StyleFamily("Wheat beer", ("wheat", "weizen", "weiss", "witbier", "wit")),
    StyleFamily("Belgian styles", ("belgian", "dubbel", "tripel", "triple", "quadrupel", "trappist", "abbey", "flanders")),
    StyleFamily("Fruit beer", ("fruit", "cherry", "raspberry", "grape", "berry")),
    StyleFamily("Pale ale & IPA", ("ipa", "pale ale", "hazy", "xpa")),
    StyleFamily("Lager & pils", ("lager", "pils", "pilsner", "helles", "kellerbier", "bock", "kolsch")),
    StyleFamily(FALLBACK_FAMILY_NAME, (), fallback=True),
]


def validate_families(families: list[StyleFamily]) -> StyleFamily:
    """Check family-config invariants and return the fallback family."""
    if not families:
        raise ConfigurationError("family configuration must not be empty")
    names = [f.name for f in families]
    dupes = [n for n, c in Counter(names).items() if c > 1]
    if dupes:
        raise ConfigurationError(f"duplicate family names: {sorted(dupes)}")
    fallbacks = [f for f in families if f.fallback]
    if len(fallbacks) != 1:
        raise ConfigurationError(
            f"exactly one family must be flagged as fallback, found {len(fallbacks)}"
        )
    if fallbacks[0].name != FALLBACK_FAMILY_NAME:
        raise ConfigurationError(
            f"the fallback family must be named {FALLBACK_FAMILY_NAME!r}, "
            f"got {fallbacks[0].name!r}"
        )
    for family in families:
        if not all(p.strip() for p in family.patterns):  # "" or " " would match every style
            raise ConfigurationError(f"family {family.name!r}: patterns must not be empty or blank")
    return fallbacks[0]


def _json_bool(entry: dict, key: str, where: str) -> bool:
    """A JSON flag defaulting to false; anything but true/false is a
    ConfigurationError (bool("false") would silently be True)."""
    value = entry.get(key, False)
    if not isinstance(value, bool):
        raise ConfigurationError(where, f"{key} must be true or false, got {value!r}")
    return value


def _json_str(entry: dict, key: str, where: str, error: type[BeerfedError] = ConfigurationError) -> str:
    """A required JSON string; a number, null, list or other value is an
    ``error`` (str(7) would silently be "7", str(None) "None") naming the
    key after ``where``, its place in the file ("" at the top level)."""
    value = entry.get(key)
    if not isinstance(value, str):
        raise error(where, f"{key} must be a string, got {value!r}")
    return value


def _json_number(entry: dict, key: str, where: str, *, integer: bool = False):
    """A required JSON number as a float, or as an int when ``integer``;
    an absent key, booleans, strings, null, NaN, infinities and fractional
    integers are a ConfigurationError (no silent coercion)."""
    value = entry.get(key)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = int(value) if integer else float(value)
        except (OverflowError, ValueError):  # NaN, infinity, beyond float range
            number = None
        if number is not None and number == value and (integer or math.isfinite(number)):
            return number
    kind = "an integer" if integer else "a finite number"
    raise ConfigurationError(where, f"{key} must be {kind}, got {value!r}")


def _known_keys(entry: dict, known: Iterable[str], where: str) -> None:
    """A key of ``entry`` outside ``known`` is a ConfigurationError naming it."""
    if unknown := set(entry) - set(known):
        raise ConfigurationError(where, f"unknown key(s) {sorted(unknown)}")


def _distinct_keys(pairs: list[tuple], what: str = "key") -> dict:
    """``dict(pairs)``; a ``what`` given twice (json.loads keeps a JSON object's last value) is a ValueError."""
    if len(obj := dict(pairs)) < len(pairs):
        raise ValueError(f"duplicate {what} {next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)!r}")
    return obj


def _json_pair(value, where: str, *, integer: bool = False) -> tuple:
    """A [low, high] JSON list of two numbers."""
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigurationError(f"{where} must be a [low, high] pair, got {value!r}")
    pair = dict(zip(("low", "high"), value))
    return tuple(_json_number(pair, key, where, integer=integer) for key in ("low", "high"))


@contextmanager
def _read_json(path: str | Path, error: type[BeerfedError]) -> Iterator:
    """Give the parsed content of a UTF-8 JSON file to the ``with`` block
    that reads it; every BeerfedError raised here or in the block names the
    file. Undecodable bytes, invalid JSON, a key repeated in one object,
    nesting too deep to parse and a ``\\u`` escape that leaves a lone
    surrogate (text no UTF-8 output can hold) raise ``error``; a file that
    cannot be opened raises OSError."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
            value = json.loads(text, object_pairs_hook=_distinct_keys)
            if "\\u" in text:  # decoded UTF-8 holds no surrogate; only escapes can
                json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            char = exc.object[exc.start]
            raise error(f"invalid JSON: lone surrogate \\u{ord(char):04x} in a string", path=path) from None
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError, JSONDecodeError
            raise error(f"invalid JSON: {exc}", path=path) from None
    try:
        yield value
    except BeerfedError as exc:
        exc.path = path
        raise


def load_style_families(path: str | Path) -> list[StyleFamily]:
    """Load a family configuration file: a JSON list of
    {"name": ..., "patterns": [...], "fallback": bool?} objects."""
    with _read_json(path, ConfigurationError) as raw:
        if not isinstance(raw, list):
            raise ConfigurationError("family configuration must be a JSON list")
        families = []
        for i, entry in enumerate(raw):
            if not isinstance(entry, dict) or "name" not in entry:
                raise ConfigurationError(f"family entry {i} must be an object with a name")
            name = _json_str(entry, "name", f"family entry {i}")
            _known_keys(entry, ("name", "patterns", "fallback"), f"family {name!r}")
            patterns = entry.get("patterns", [])
            if not isinstance(patterns, list) or not all(isinstance(p, str) for p in patterns):
                raise ConfigurationError(f"family {name!r}: patterns must be a list of strings")
            families.append(
                StyleFamily(
                    name=name,
                    patterns=tuple(patterns),
                    fallback=_json_bool(entry, "fallback", f"family {name!r}"),
                )
            )
        validate_families(families)
    return families


def style_bucketer(families: list[StyleFamily] | None = None) -> Callable[[str], StyleFamily]:
    """Validate ``families`` (default: ``DEFAULT_STYLE_FAMILIES``) once and
    return the function that assigns a raw style to the first matching
    family: case-insensitive substring search in configured priority order.
    Anything unmatched, the empty style included, goes to the fallback
    family, so the function never fails."""
    if families is None:
        families = DEFAULT_STYLE_FAMILIES
    fallback = validate_families(families)
    patterns = [(family, [p.casefold() for p in family.patterns]) for family in families]

    @cache  # each distinct raw style is bucketed once
    def bucket(raw_style: str) -> StyleFamily:
        needle = raw_style.casefold()
        if needle:
            for family, casefolded in patterns:
                if any(p in needle for p in casefolded):
                    return family
        return fallback

    return bucket


def normalize_name(name: str) -> str:
    """Join key for beverage names: casefolded, whitespace collapsed."""
    return " ".join(name.split()).casefold()


@dataclass(frozen=True)
class Beverage:
    id: str
    producer: str
    name: str
    raw_style: str
    style_family: str
    abv: float
    ingredients: frozenset[str] | None = None
    note_tags: frozenset[NoteTag] = frozenset()

    def __post_init__(self):  # the domain of classify_abv; NaN fails the test
        if not (0.0 < self.abv <= 100.0):
            raise ValueError(f"beverage {self.id!r}: abv must lie in (0, 100], got {self.abv!r}")


_REAL_WORD = re.compile(r"\breal\b", re.IGNORECASE)
_ARTIFICIAL_WORD = re.compile(r"\bartificial\b", re.IGNORECASE)


def derive_note_tags(note_text: str | None) -> frozenset[NoteTag]:
    """Derive flavour tags from free text by exact keyword match ("real",
    "artificial"); notes without either keyword tag as OTHER."""
    if note_text is None or not note_text.strip():
        return frozenset()
    tags = set()
    if _REAL_WORD.search(note_text):
        tags.add(NoteTag.REAL_FLAVOUR)
    if _ARTIFICIAL_WORD.search(note_text):
        tags.add(NoteTag.ARTIFICIAL_FLAVOUR)
    return frozenset(tags) if tags else frozenset({NoteTag.OTHER})


def _clash(seen: dict[str, tuple[str, Beverage]], names: dict[str, str] | None,
           beverage: Beverage, where: str) -> str | None:
    """Record ``beverage`` as found at ``where``, or, when an earlier one
    holds its id, say so naming both: two (brewery, beer_name) pairs can
    share an id, as "a::b","c" and "a","b::c" do. Given ``names`` (each
    normalized name's id), a shared normalized name clashes too, as
    scorecards could not tell the two beverages apart. An earlier entry is
    told by its ``where``, not its identity: one object listed twice clashes."""
    what, key = "duplicate beverage id", beverage.id
    first, other = seen.setdefault(key, (where, beverage))
    if first == where and names is not None:
        what, key = "ambiguous beverage name", normalize_name(beverage.name)
        first, other = seen[names.setdefault(key, beverage.id)]
    if first != where:
        return (f"{what} {key!r}: {beverage.name!r} for {beverage.producer!r}"
                f" and, at {first}, {other.name!r} for {other.producer!r}")


def _check_codes(name: str, codes: np.ndarray, size: int) -> None:
    """The one test of a code column: each code is a place in a list of
    ``size`` entries; one below 0 or past the end is a ValueError."""
    for bad, fault in ((codes < 0, "is negative"), (codes >= size, f"must lie below {size}")):
        if np.count_nonzero(bad):
            raise ValueError(f"row {int(bad.argmax())}: {name} code {codes[bad.argmax()]} {fault}")


@dataclass(frozen=True, eq=False)
class ReviewTable:
    """Reviews as read-only columns of codes: row ``i`` is the ``judge[i]``-th
    judge of its ``Dataset`` scoring, at ``score[i]`` tenths, the
    ``beverage[i]``-th beverage of its list or, from the list's length
    ``n`` on, the name ``unknown[beverage[i] - n]`` that matched none;
    tagged ``tag_sets[tags[i]]``, with note ``note_texts[notes[i]]``. A check
    on a list entry runs once and reaches the rows by one array lookup. All columns have
    one length, scores are uint8 tenths in [10, 50] and tags and notes codes index their lists."""

    unknown: tuple[str, ...]
    tag_sets: tuple[frozenset[NoteTag], ...]
    note_texts: tuple[str | None, ...]
    judge: np.ndarray
    beverage: np.ndarray
    tags: np.ndarray
    notes: np.ndarray
    score: np.ndarray

    def __post_init__(self):
        score = self.score
        for name in ("judge", "beverage", "tags", "notes"):
            if (rows := len(getattr(self, name))) != len(score):
                raise ValueError(f"{name} column has {rows} rows, score column has {len(score)}")
        if score.dtype != np.uint8:
            raise ValueError(f"row 0: raw score column is {score.dtype}, must be uint8 tenths")
        if np.count_nonzero(bad := (score < SCORE_MIN) | (score > SCORE_MAX)):
            row = int(bad.argmax())
            raise ValueError(f"row {row}: raw score {score[row]} tenths must lie in [{SCORE_MIN}, {SCORE_MAX}]")
        _check_codes("tags", self.tags, len(self.tag_sets))
        _check_codes("notes", self.notes, len(self.note_texts))
        for column in (self.judge, self.beverage, self.tags, self.notes, score):
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.score)


@dataclass(frozen=True)
class Dataset:
    """Beverages, judges and every review as one ``ReviewTable``, checked
    when built: an instance holds tuples of distinct judges and beverage ids,
    judge codes in ``[0, len(judges))`` and beverage codes in
    ``[0, len(beverages) + len(reviews.unknown))``."""

    beverages: tuple[Beverage, ...]
    reviews: ReviewTable
    judges: tuple[str, ...]

    def __post_init__(self):
        for name in ("beverages", "judges"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        _distinct_keys([(j, j) for j in self.judges], "judge")
        _distinct_keys([(b.id, b) for b in self.beverages], "beverage id")
        _check_codes("judge", self.reviews.judge, len(self.judges))
        _check_codes("beverage", self.reviews.beverage, len(self.beverages) + len(self.reviews.unknown))


class Severity(str, enum.Enum):
    ERROR = "error"
    WARNING = "warning"


MISSING_REVIEWS = "MISSING_REVIEWS"
DUP_REVIEW = "DUP_REVIEW"
DANGLING_REF = "DANGLING_REF"
ABV_RANGE_WARN = "ABV_RANGE_WARN"
PRODUCER_LIMIT_WARN = "PRODUCER_LIMIT_WARN"

_SEVERITY_BY_CODE = {
    MISSING_REVIEWS: Severity.ERROR,
    DUP_REVIEW: Severity.ERROR,
    DANGLING_REF: Severity.ERROR,
    ABV_RANGE_WARN: Severity.WARNING,
    PRODUCER_LIMIT_WARN: Severity.WARNING,
}

MAX_BEVERAGES_PER_PRODUCER = 4
MIN_REVIEWS_PER_BEVERAGE = 2


class Violation(NamedTuple):
    code: str
    subject: str
    message: str

    @property
    def severity(self) -> Severity:
        return _SEVERITY_BY_CODE[self.code]


def validate_dataset(dataset: Dataset) -> list[Violation]:
    """Check dataset shape rules; returns a deterministically sorted list of
    violations (empty iff the dataset is well-formed).

    Output is independent of beverage/review ordering, and the check itself
    never mutates the dataset, so it is idempotent.
    """
    violations: set[Violation] = set()
    judge, beverage = dataset.reviews.judge, dataset.reviews.beverage
    listed = len(dataset.beverages)  # a beverage code from here on names an unknown one
    ids = [*(b.id for b in dataset.beverages), *dataset.reviews.unknown]

    # every distinct (judge, beverage) pair once, with its review count
    width = max(1, len(ids))
    pairs, counts = np.unique(judge * width + beverage, return_counts=True)
    per_code = np.bincount(beverage, minlength=listed).tolist()
    judge, beverage = np.divmod(pairs, width)
    flagged = (counts > 1) | (beverage >= listed)
    for j, b, count in zip(judge[flagged].tolist(), beverage[flagged].tolist(), counts[flagged].tolist()):
        subject = f"{dataset.judges[j]}:{ids[b]}"
        if count > 1:
            violations.add(Violation(DUP_REVIEW, subject, f"{count} reviews for the same (judge, beverage) pair"))
        if b >= listed:
            violations.add(Violation(DANGLING_REF, subject, f"review references unknown beverage {ids[b]!r}"))

    for beverage, n in zip(dataset.beverages, per_code):
        if n < MIN_REVIEWS_PER_BEVERAGE:
            violations.add(
                Violation(
                    MISSING_REVIEWS,
                    beverage.id,
                    f"beverage has {n} review(s), expected at least {MIN_REVIEWS_PER_BEVERAGE}",
                )
            )
        if not (OBSERVED_ABV_MIN <= beverage.abv <= OBSERVED_ABV_MAX):
            violations.add(
                Violation(
                    ABV_RANGE_WARN,
                    beverage.id,
                    f"abv {beverage.abv} outside the observed range "
                    f"[{OBSERVED_ABV_MIN}, {OBSERVED_ABV_MAX}]",
                )
            )

    per_producer = Counter(b.producer for b in dataset.beverages)
    for producer, count in per_producer.items():
        if count > MAX_BEVERAGES_PER_PRODUCER:
            violations.add(
                Violation(
                    PRODUCER_LIMIT_WARN,
                    producer,
                    f"producer presents {count} beverages, limit is "
                    f"{MAX_BEVERAGES_PER_PRODUCER}",
                )
            )

    return sorted(violations)
