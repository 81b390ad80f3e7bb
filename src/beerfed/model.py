"""Domain types and taxonomy rules for collaborative tasting datasets.

Covers the beverage/review data model, ABV strength bands, style-family
bucketing (config-driven, with a mandatory fallback family), the
four-ingredient purity predicate, and dataset validation.
"""

from __future__ import annotations

import enum
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigurationError

FALLBACK_FAMILY_NAME = "Specialty and hybrid styles"

# Raw scores and ABV values are conventionally one-decimal; scores are
# validated to the 0.1 grid so downstream normalization stays exact.
SCORE_MIN = 1.0
SCORE_MAX = 5.0

OBSERVED_ABV_MIN = 0.5
OBSERVED_ABV_MAX = 12.5


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


@dataclass(frozen=True)
class StyleFamily:
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
    return fallbacks[0]


def _json_bool(entry: dict, key: str, where: str) -> bool:
    """A JSON flag defaulting to false; anything but true/false is a
    ConfigurationError (bool("false") would silently be True)."""
    value = entry.get(key, False)
    if not isinstance(value, bool):
        raise ConfigurationError(f"{where}: {key} must be true or false, got {value!r}")
    return value


def _json_str(entry: dict, key: str, where: str, error: type[Exception] = ConfigurationError) -> str:
    """A required JSON string; a number, null, list or other value is an
    ``error`` (str(7) would silently be "7", str(None) "None")."""
    value = entry.get(key)
    if not isinstance(value, str):
        raise error(f"{where}: {key} must be a string, got {value!r}")
    return value


def _json_number(entry: dict, key: str, where: str, default=None, *, integer: bool = False):
    """A JSON number (``default`` when the key is absent) as a float, or as
    an int when ``integer``; booleans, strings, null, NaN, infinities and
    fractional integers are a ConfigurationError (no silent coercion)."""
    value = entry.get(key, default)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = int(value) if integer else float(value)
        except (OverflowError, ValueError):  # NaN, infinity, beyond float range
            number = None
        if number is not None and number == value and (integer or math.isfinite(number)):
            return number
    kind = "an integer" if integer else "a finite number"
    raise ConfigurationError(f"{where}: {key} must be {kind}, got {value!r}")


def _read_json(path: str | Path, error: type[Exception]):
    """The parsed content of a UTF-8 JSON file. Undecodable bytes, invalid
    JSON, nesting too deep to parse and a ``\\u`` escape that leaves a lone
    surrogate (text no UTF-8 output can hold) raise ``error`` naming the
    file; a file that cannot be opened raises OSError."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
            value = json.loads(text)
            if "\\u" in text:  # decoded UTF-8 holds no surrogate; only escapes can
                json.dumps(value, ensure_ascii=False).encode("utf-8")
            return value
        except UnicodeEncodeError as exc:
            char = exc.object[exc.start]
            raise error(f"{path}: invalid JSON: lone surrogate \\u{ord(char):04x} in a string") from None
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError, JSONDecodeError
            raise error(f"{path}: invalid JSON: {exc}") from None


def load_style_families(path: str | Path) -> list[StyleFamily]:
    """Load a family configuration file: a JSON list of
    {"name": ..., "patterns": [...], "fallback": bool?} objects."""
    raw = _read_json(path, ConfigurationError)
    if not isinstance(raw, list):
        raise ConfigurationError("family configuration must be a JSON list")
    families = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "name" not in entry:
            raise ConfigurationError(f"family entry {i} must be an object with a name")
        name = _json_str(entry, "name", f"family entry {i}")
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
    return the ``bucket_style`` that assigns raw styles to them."""
    if families is None:
        families = DEFAULT_STYLE_FAMILIES
    fallback = validate_families(families)

    def bucket(raw_style: str) -> StyleFamily:
        needle = raw_style.casefold()
        if needle:
            for family in families:
                if any(p.casefold() in needle for p in family.patterns):
                    return family
        return fallback

    return bucket


def bucket_style(raw_style: str, families: list[StyleFamily] | None = None) -> StyleFamily:
    """Assign a raw style string to the first matching family.

    Matching is case-insensitive substring search in configured priority
    order; anything unmatched (including empty styles) goes to the
    fallback family, so this never fails.
    """
    return style_bucketer(families)(raw_style)


PURE_INGREDIENTS = frozenset({"water", "yeast", "malt", "hops"})
CORIANDER = "coriander"


def check_reinheitsgebot(
    ingredients: set[str] | frozenset[str] | None,
    allow_coriander: bool = False,
) -> bool | None:
    """Four-ingredient purity predicate: water, yeast, malt, hops (plus
    coriander under the historic exception flag).

    Returns None ("unknown") when ingredient data is missing or empty,
    which is distinct from False.
    """
    if not ingredients:
        return None
    allowed = PURE_INGREDIENTS | ({CORIANDER} if allow_coriander else set())
    return all(i.strip().casefold() in allowed for i in ingredients)


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

    def __post_init__(self):
        if not math.isfinite(self.abv) or not (0.0 <= self.abv <= 100.0):
            raise ValueError(f"beverage {self.id!r}: abv must lie in [0, 100], got {self.abv!r}")

    @property
    def abv_band(self) -> AbvBand:
        return classify_abv(self.abv)


def score_tenths(raw_score: float) -> int:
    """Raw score as an integer count of tenths (3.8 -> 38).

    Scores live on a 0.1 grid; integer tenths keep later arithmetic exact.
    """
    tenths = round(raw_score * 10)
    if abs(raw_score * 10 - tenths) > 1e-6:
        raise ValueError(f"raw score {raw_score!r} is not on the 0.1 grid")
    return tenths


# the 41 valid raw scores, exactly as float() parses "1.0" ... "5.0"
_GRID_SCORES = frozenset(t / 10 for t in range(10, 51))


@dataclass(frozen=True)
class Review:
    judge_id: str
    beverage_id: str
    raw_score: float
    note_tags: frozenset[NoteTag] = frozenset()
    note_text: str | None = None

    def __post_init__(self):
        if self.raw_score in _GRID_SCORES:
            return
        if not (SCORE_MIN <= self.raw_score <= SCORE_MAX):
            raise ValueError(
                f"raw score must lie in [{SCORE_MIN}, {SCORE_MAX}], got {self.raw_score!r}"
            )
        score_tenths(self.raw_score)


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


def positions(values: Sequence, order: Sequence) -> np.ndarray:
    """Each value's place in ``order`` (its last, if repeated), or -1."""
    where = {v: i for i, v in enumerate(order)}
    return np.fromiter(map(where.get, values, repeat(-1)), np.intp, len(values))


@dataclass(frozen=True, eq=False)
class ReviewTable(Sequence[Review]):
    """Reviews as read-only columns over small vocabularies: row ``i`` is
    judge ``judge_ids[judge[i]]`` scoring beverage
    ``beverage_ids[beverage[i]]`` at ``score[i]``, tagged
    ``tag_sets[tags[i]]``, with note ``note_texts[notes[i]]``. A join or
    check on a vocabulary runs once per distinct value and reaches the rows
    by one array lookup; indexing builds ``Review``s on demand."""

    judge_ids: tuple[str, ...]
    beverage_ids: tuple[str, ...]
    tag_sets: tuple[frozenset[NoteTag], ...]
    note_texts: tuple[str | None, ...]
    judge: np.ndarray
    beverage: np.ndarray
    tags: np.ndarray
    notes: np.ndarray
    score: np.ndarray

    def __post_init__(self):
        for column in (self.judge, self.beverage, self.tags, self.notes, self.score):
            column.flags.writeable = False

    @classmethod
    def from_reviews(cls, reviews: Iterable[Review]) -> ReviewTable:
        """The table of ``reviews``, each vocabulary in first-seen order."""
        reviews = list(reviews)
        columns = ([r.judge_id for r in reviews], [r.beverage_id for r in reviews],
                   [r.note_tags for r in reviews], [r.note_text for r in reviews])
        vocabularies = [tuple(dict.fromkeys(column)) for column in columns]
        return cls(*vocabularies, *map(positions, columns, vocabularies),
                   np.array([r.raw_score for r in reviews], dtype=float))

    def __len__(self) -> int:
        return len(self.score)

    def __getitem__(self, index: int) -> Review:
        row = range(len(self))[index]  # IndexError, negative indices
        return Review(self.judge_ids[self.judge[row]], self.beverage_ids[self.beverage[row]],
                      float(self.score[row]), self.tag_sets[self.tags[row]], self.note_texts[self.notes[row]])

    def __eq__(self, other) -> bool:
        """Equal to a table or list holding equal reviews in the same order,
        whatever order its vocabularies are in."""
        if not isinstance(other, (ReviewTable, list)):
            return NotImplemented
        return list(self) == list(other)


@dataclass
class Dataset:
    """Beverages, judges and every review as one ``ReviewTable`` (given
    ``Review`` objects, ``reviews`` stores them as a table)."""

    beverages: list[Beverage] = field(default_factory=list)
    reviews: ReviewTable | Iterable[Review] = ()
    judges: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not isinstance(self.reviews, ReviewTable):
            self.reviews = ReviewTable.from_reviews(self.reviews)

    def beverage_index(self) -> dict[str, Beverage]:
        return {b.id: b for b in self.beverages}


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


@dataclass(frozen=True, order=True)
class Violation:
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
    table = dataset.reviews
    known_judge = positions(table.judge_ids, dataset.judges) >= 0
    known_beverage = positions(table.beverage_ids, [b.id for b in dataset.beverages]) >= 0

    # every distinct (judge, beverage) pair once, with its review count
    width = max(1, len(table.beverage_ids))
    pairs, counts = np.unique(table.judge * width + table.beverage, return_counts=True)
    judge, beverage = np.divmod(pairs, width)
    flagged = (counts > 1) | ~known_judge[judge] | ~known_beverage[beverage]
    for j, b, count in zip(judge[flagged].tolist(), beverage[flagged].tolist(), counts[flagged].tolist()):
        judge_id, beverage_id = table.judge_ids[j], table.beverage_ids[b]
        if count > 1:
            violations.add(
                Violation(
                    DUP_REVIEW,
                    f"{judge_id}:{beverage_id}",
                    f"{count} reviews for the same (judge, beverage) pair",
                )
            )
        dangling = []
        if not known_beverage[b]:
            dangling.append(f"unknown beverage {beverage_id!r}")
        if not known_judge[j]:
            dangling.append(f"unknown judge {judge_id!r}")
        if dangling:
            violations.add(
                Violation(
                    DANGLING_REF,
                    f"{judge_id}:{beverage_id}",
                    "review references " + " and ".join(dangling),
                )
            )

    per_code = np.bincount(table.beverage, minlength=len(table.beverage_ids))
    review_counts = dict(zip(table.beverage_ids, per_code.tolist()))
    for beverage in dataset.beverages:
        n = review_counts.get(beverage.id, 0)
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
