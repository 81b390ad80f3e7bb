"""Validation and scoring of model-produced recommendation lists against
judges' own scorecards.

A model submits one ranked 5-slot recommendation set per consumer profile.
Slots are validated (in-list, non-duplicate, well-ranked, present) and the
five quality metrics are computed from the raw, unnormalised scores:

  mean rating      mean of the owning judge's score over valid slots
  mean percentile  position of each valid slot within the judge's own
                   ranking (mid-rank ties), averaged per judge then across
                   judges
  hit@k            valid slots landing in the judge's top-k set / (J*K)
  nDCG@k           rank-discounted relevance vs the judge's ideal ordering,
                   averaged across judges
  coverage         valid slots / (J*K)

Everything the metrics need from a judge's scorecard depends only on the
scorecard and k, so it is computed once per run in a ``JudgeIndex``: the
ascending scores (bisect gives mid-rank percentiles), the fixed top-k set
from ``top_k_set``, the k-th best score (the threshold-mode cutoff) and
the IDCG, the discounted sum of the k best scores (Jarvelin & Kekalainen
2002). Each value comes from the same expression, in the same order, that
a per-model pass would evaluate, so results are bit-identical whether a
caller passes the index or a plain mapping (which is indexed on the spot).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Iterator, Mapping

from .errors import IngestError
from .model import _json_str, _read_json

DEFAULT_K = 5


def normalize_name(name: str) -> str:
    """Join key for beverage names: casefolded, whitespace collapsed."""
    return " ".join(name.split()).casefold()


@dataclass(frozen=True)
class RecommendationSlot:
    beverage_name: str
    rank: int | None = None
    justification: str = ""


@dataclass
class RecommendationSet:
    model_id: str
    profile_id: str
    slots: list[RecommendationSlot] = field(default_factory=list)


class VerdictReason(str, Enum):
    OK = "OK"
    NOT_IN_LIST = "NOT_IN_LIST"
    DUPLICATE = "DUPLICATE"
    BAD_RANK = "BAD_RANK"
    MISSING = "MISSING"


@dataclass(frozen=True)
class SlotVerdict:
    slot_index: int
    valid: bool
    reason: VerdictReason
    beverage_name: str = ""


def validate_recs(
    recs: RecommendationSet,
    beverage_names: set[str],
    k: int = DEFAULT_K,
) -> list[SlotVerdict]:
    """Judge every slot of a recommendation set, never repairing it.

    Produces max(k, len(slots)) verdicts; sets shorter than k are padded
    with MISSING. A slot is valid iff its name matches the master list
    (case-insensitive, whitespace-normalized), has not appeared in an
    earlier slot, and carries an integer rank in 1..k not used before.
    When several rules are broken, the reported reason follows that order.
    """
    verdicts = _verdicts(recs, {normalize_name(n) for n in beverage_names}, k)
    return verdicts + [SlotVerdict(i, False, VerdictReason.MISSING) for i in range(len(verdicts), k)]


def _verdicts(recs: RecommendationSet, known: set[str], k: int) -> list[SlotVerdict]:
    """validate_recs against an already normalized master-name set, without
    the MISSING padding (k may be far larger than any set)."""
    seen_names: set[str] = set()
    seen_ranks: set[int] = set()
    verdicts = []
    for i, slot in enumerate(recs.slots):
        name = normalize_name(slot.beverage_name)
        if not name or name not in known:
            reason = VerdictReason.NOT_IN_LIST
        elif name in seen_names:
            reason = VerdictReason.DUPLICATE
        elif (
            not isinstance(slot.rank, int)
            or isinstance(slot.rank, bool)
            or not (1 <= slot.rank <= k)
            or slot.rank in seen_ranks
        ):
            reason = VerdictReason.BAD_RANK
        else:
            reason = VerdictReason.OK
            seen_ranks.add(slot.rank)
        seen_names.add(name)
        verdicts.append(
            SlotVerdict(i, reason is VerdictReason.OK, reason, slot.beverage_name)
        )
    return verdicts


Scorecard = Mapping[str, float]  # normalized beverage name -> raw score
Scorecards = Mapping[str, Scorecard]  # judge id -> scorecard
RecsByProfile = Mapping[str, RecommendationSet]


def top_k_set(scorecard: Scorecard, k: int) -> set[str]:
    """The judge's fixed top-k beverage set: score descending, ties at the
    cut resolved by name ascending."""
    ordered = sorted(scorecard.items(), key=lambda kv: (-kv[1], kv[0]))
    return {name for name, _ in ordered[:k]}


@dataclass(frozen=True)
class _JudgeEntry:
    """What the metrics read from one judge's scorecard for a given k."""

    card: Scorecard
    ascending: tuple[float, ...]
    top: frozenset[str]  # the fixed top-k set
    cutoff: float  # the k-th best score (threshold-mode Hit@k)
    idcg: float


class JudgeIndex(Mapping[str, Scorecard]):
    """Immutable per-run index of judges' scorecards for one k.

    A mapping from judge id to scorecard, in sorted judge order, that also
    holds each judge's sorted scores, fixed top-k set, threshold cutoff and
    IDCG, so evaluating many models against the same scorecards sorts each
    scorecard once instead of once per model. Build it once and pass it
    wherever a ``Scorecards`` mapping is accepted.
    """

    __slots__ = ("k", "_entries")

    def __init__(self, scorecards: Scorecards, k: int):
        entries = {}
        for judge in sorted(scorecards):
            card = MappingProxyType(dict(scorecards[judge]))  # later edits cannot desync it
            ascending = tuple(sorted(card.values()))
            ideal = ascending[::-1][:k]
            entries[judge] = _JudgeEntry(
                card=card,
                ascending=ascending,
                top=frozenset(top_k_set(card, k)),
                cutoff=ideal[-1] if ideal else math.inf,
                idcg=sum(rel / math.log2(i + 1) for i, rel in enumerate(ideal, start=1)),
            )
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "_entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __getitem__(self, judge: str) -> Scorecard:
        return self._entries[judge].card

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Iterator[tuple[str, _JudgeEntry]]:
        """(judge, entry) pairs in sorted judge order."""
        return iter(self._entries.items())


@dataclass
class _Terms:
    """Raw terms of the five metrics for one model across all judges."""

    judges: int
    k: int
    valid: int = 0
    hits: int = 0
    ratings: list[float] = field(default_factory=list)  # per valid scored slot
    percentiles: list[float] = field(default_factory=list)  # per-judge means
    ndcgs: list[float] = field(default_factory=list)  # per judge

    def share(self, count: int) -> float:
        """count over the J*K recommendation slots."""
        if not self.judges:
            raise ValueError("at least one scorecard is required")
        return count / (self.judges * self.k)


def _mean(values: list[float], empty: float | None = None) -> float | None:
    return sum(values) / len(values) if values else empty


def _one_pass(
    recs_by_profile: RecsByProfile,
    scorecards: Scorecards,
    beverage_names: set[str],
    k: int,
    tie_mode: str = "fixed",
) -> _Terms:
    """Validate each judge's set once and collect the terms of all five
    metrics against that judge's indexed scorecard (a plain mapping, or an
    index built for another k, is indexed here first)."""
    if tie_mode not in ("fixed", "threshold"):
        raise ValueError(f"unknown tie_mode {tie_mode!r}")
    if not (isinstance(scorecards, JudgeIndex) and scorecards.k == k):
        scorecards = JudgeIndex(scorecards, k)
    known = {normalize_name(n) for n in beverage_names}
    terms = _Terms(len(scorecards), k)
    for judge, entry in scorecards.entries():
        card, ascending = entry.card, entry.ascending
        recs = recs_by_profile.get(judge)
        verdicts = [] if recs is None else _verdicts(recs, known, k)
        picks = [
            (recs.slots[v.slot_index].rank, normalize_name(v.beverage_name))
            for v in verdicts
            if v.valid
        ]
        scored = [name for _, name in picks if name in card]
        terms.valid += len(picks)
        terms.ratings.extend(card[name] for name in scored)
        if tie_mode == "fixed":
            terms.hits += len(entry.top.intersection(scored))
        else:  # anything scoring at least the k-th best score
            terms.hits += sum(card[name] >= entry.cutoff for name in scored)
        if len(card) >= 2 and scored:  # mid-ranked: ties count half
            values = []
            for name in scored:
                below = bisect_left(ascending, card[name])
                tied_others = bisect_right(ascending, card[name]) - below - 1
                values.append((below + 0.5 * tied_others) / (len(card) - 1))
            terms.percentiles.append(_mean(values))
        # ranks 1..k without a valid pick add +0.0, so only the picks' ranks are summed
        relevance = {rank: card.get(name, 0.0) for rank, name in picks}
        dcg = sum(relevance[i] / math.log2(i + 1) for i in sorted(relevance))
        terms.ndcgs.append(dcg / entry.idcg if entry.idcg > 0 else 0.0)
    return terms


def coverage(
    recs_by_profile: RecsByProfile,
    scorecards: Scorecards,
    beverage_names: set[str],
    k: int = DEFAULT_K,
) -> float:
    """Fraction of the J*K recommendation slots that are valid."""
    terms = _one_pass(recs_by_profile, scorecards, beverage_names, k)
    return terms.share(terms.valid)


def mean_rating(
    recs_by_profile: RecsByProfile,
    scorecards: Scorecards,
    beverage_names: set[str],
    k: int = DEFAULT_K,
) -> float | None:
    """Mean of the owning judge's raw score over all valid slots; None when
    no valid slot has a score (undefined, not zero)."""
    return _mean(_one_pass(recs_by_profile, scorecards, beverage_names, k).ratings)


def mean_percentile(
    recs_by_profile: RecsByProfile,
    scorecards: Scorecards,
    beverage_names: set[str],
    k: int = DEFAULT_K,
) -> float | None:
    """Where valid slots sit within each judge's own ranking (1.0 = the
    judge's unique favourite, 0.0 = their unique least favourite; ties
    mid-ranked), averaged per judge and then across judges."""
    return _mean(_one_pass(recs_by_profile, scorecards, beverage_names, k).percentiles)


def hit_at_k(
    recs_by_profile: RecsByProfile,
    scorecards: Scorecards,
    beverage_names: set[str],
    k: int = DEFAULT_K,
    tie_mode: str = "fixed",
) -> float:
    """Valid slots whose beverage lands in the judge's top-k, over J*K.

    ``tie_mode`` "fixed" uses the deterministic k-sized set (ties at the
    cut broken by name); "threshold" counts anything scoring at least the
    k-th best score as a hit.
    """
    terms = _one_pass(recs_by_profile, scorecards, beverage_names, k, tie_mode)
    return terms.share(terms.hits)


def ndcg_at_k(
    recs_by_profile: RecsByProfile,
    scorecards: Scorecards,
    beverage_names: set[str],
    k: int = DEFAULT_K,
) -> float:
    """Mean over judges of DCG/IDCG, with the judge's raw score as the
    relevance of each valid slot (0 for invalid or unscored slots) and the
    judge's k best scores as the ideal."""
    return _mean(_one_pass(recs_by_profile, scorecards, beverage_names, k).ndcgs, 0.0)


QUANTIZATION_TOL = 1e-9


@dataclass(frozen=True)
class MetricReport:
    model_id: str
    mean_rating: float | None
    mean_percentile: float | None
    hit_rate: float | None
    ndcg: float | None
    coverage: float
    n_profiles: int
    k: int

    def __post_init__(self):
        # hit and coverage count slots, so they must be exact multiples of
        # 1/(J*K); anything else indicates corrupted slot accounting.
        denom = self.n_profiles * self.k
        for label, value in (("coverage", self.coverage), ("hit rate", self.hit_rate)):
            if value is None:
                continue
            # value * denom, exactly as p * denom / q since k may exceed float range:
            # how far it lies from the nearest integer
            p, q = value.as_integer_ratio()
            off = p * denom % q
            if min(off, q - off) / q > QUANTIZATION_TOL:
                raise ValueError(
                    f"{label} {value!r} is not a multiple of 1/{denom}"
                )


def evaluate_model(
    recs_by_profile: RecsByProfile,
    scorecards: Scorecards,
    beverage_names: set[str],
    k: int = DEFAULT_K,
    model_id: str | None = None,
    tie_mode: str = "fixed",
) -> MetricReport:
    """Compose the five metrics for one model across all profiles.

    With zero valid slots only coverage (0.0) is defined; the other four
    report as None rather than a misleading zero.
    """
    if model_id is None:
        model_id = next(
            (r.model_id for r in recs_by_profile.values() if r.model_id), "unknown"
        )
    terms = _one_pass(recs_by_profile, scorecards, beverage_names, k, tie_mode)
    cov = terms.share(terms.valid)
    if cov == 0.0:
        return MetricReport(model_id, None, None, None, None, 0.0,
                            len(scorecards), k)
    return MetricReport(
        model_id=model_id,
        mean_rating=_mean(terms.ratings),
        mean_percentile=_mean(terms.percentiles),
        hit_rate=terms.share(terms.hits),
        ndcg=_mean(terms.ndcgs),
        coverage=cov,
        n_profiles=len(scorecards),
        k=k,
    )


@dataclass
class ModelRecommendations:
    model_id: str
    sets: dict[str, RecommendationSet] = field(default_factory=dict)


def parse_recommendations_json(text: str, source: str = "<memory>") -> ModelRecommendations:
    """Parse a recommendation file body into per-profile sets.

    Schema: {"model_id": ..., "profiles": [{"profile_id": ...,
    "recommendations": [{"beverage_name", "rank", "justification"}]}]}.
    Structural problems raise IngestError; content problems (bad names,
    ranks, duplicates) are preserved for validate_recs to flag.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IngestError(f"{source}: invalid JSON: {exc}") from None
    return _recommendations_from(raw, source)


def _recommendations_from(raw, source: str) -> ModelRecommendations:
    if not isinstance(raw, dict) or "model_id" not in raw or "profiles" not in raw:
        raise IngestError(f"{source}: expected an object with model_id and profiles")
    model_id = _json_str(raw, "model_id", source, IngestError)
    profiles = raw["profiles"]
    if not isinstance(profiles, list):
        raise IngestError(f"{source}: profiles must be a list")
    out = ModelRecommendations(model_id)
    for entry in profiles:
        if not isinstance(entry, dict) or "profile_id" not in entry:
            raise IngestError(f"{source}: each profile needs a profile_id")
        profile_id = _json_str(entry, "profile_id", source, IngestError)
        if profile_id in out.sets:
            raise IngestError(f"{source}: duplicate profile_id {profile_id!r}")
        items = entry.get("recommendations", [])
        if not isinstance(items, list):
            raise IngestError(f"{source}: recommendations must be a list")
        slots = []
        for item in items:
            if not isinstance(item, dict):
                raise IngestError(f"{source}: recommendations must be objects")
            rank = item.get("rank")
            if isinstance(rank, float) and rank.is_integer():
                rank = int(rank)
            if not isinstance(rank, int) or isinstance(rank, bool):
                rank = None
            name = item.get("beverage_name", "")
            slots.append(
                RecommendationSlot(
                    # a non-string name is NOT_IN_LIST, like a missing one
                    beverage_name=name if isinstance(name, str) else "",
                    rank=rank,
                    justification=str(item.get("justification", "")),
                )
            )
        out.sets[profile_id] = RecommendationSet(model_id, profile_id, slots)
    return out


def load_recommendations(path: str | Path) -> ModelRecommendations:
    return _recommendations_from(_read_json(path, IngestError), str(path))


def recommendations_to_json(recs: ModelRecommendations) -> str:
    """Canonical serialization (sorted keys, two-space indent, trailing
    newline) so parse -> serialize round-trips byte-identically."""
    payload = {
        "model_id": recs.model_id,
        "profiles": [
            {
                "profile_id": pid,
                "recommendations": [
                    {
                        "beverage_name": s.beverage_name,
                        "justification": s.justification,
                        "rank": s.rank,
                    }
                    for s in recs.sets[pid].slots
                ],
            }
            for pid in sorted(recs.sets)
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
