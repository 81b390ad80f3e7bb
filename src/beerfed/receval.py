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

Everything the metrics read from the scorecards depends only on them and
k, so a run builds one ``JudgeIndex(matrix, names, k)`` from its score
matrix, master list and k, and evaluates every model against it. Computed
for all judges at once, the index holds each judge's k-th best score (the
threshold-mode cutoff), fixed top-k set (score descending, ties at the cut
by name ascending; ``top_k_set`` in ``tests/oracles.py`` is its
reference), mid-rank percentile of each score and IDCG, the discounted sum
of the k best scores (Jarvelin & Kekalainen 2002). Each master name and
each distinct recommended name is normalized once per run, so a model
costs work per slot. Every sum adds the same floats in the same order as
``oracle_metrics`` in ``tests/oracles.py``, so the two agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import IngestError
from .model import _json_str, _read_json, normalize_name
from .scoring import ScoreMatrix, _midranks


class RecommendationSet(NamedTuple):
    """One profile's ranked slots as parallel tuples: slot ``i`` names
    ``names[i]`` at rank ``ranks[i]`` (None when the file gave no integer)."""

    names: tuple[str, ...]
    ranks: tuple[int | None, ...]


class VerdictReason(str, Enum):
    OK = "OK"
    NOT_IN_LIST = "NOT_IN_LIST"
    DUPLICATE = "DUPLICATE"
    BAD_RANK = "BAD_RANK"


# bound once: looking up an Enum member by attribute costs more than the checks per slot
_OK, _NOT_IN_LIST, _DUPLICATE, _BAD_RANK = VerdictReason


class _Names(dict):
    """Name resolution against one master list: a name as given maps to
    its normalized form if that is on the list, else to a false value.
    Each distinct name, listed or recommended, is normalized once."""

    def __init__(self, beverage_names: Iterable[str]):
        super().__init__((raw, normalize_name(raw)) for raw in dict.fromkeys(beverage_names))
        self.known = set(self.values()) - {""}

    def __missing__(self, raw: str) -> str | None:
        name = normalize_name(raw)
        value = self[raw] = name if name in self.known else None
        return value


def _reasons(recs: RecommendationSet, resolve: Callable[[str], str | None],
             k: int) -> tuple[list[VerdictReason], list[tuple[str, int]]]:
    """Each slot's verdict reason, in slot order, and the (normalized name,
    rank) of each valid slot; ``resolve`` maps a name to its normalized
    form if that is on the master list, else to a false value. A slot is
    valid iff its name resolves, no earlier slot's name resolved alike, and
    its rank is an integer in 1..k no earlier valid slot took; the first
    rule a slot breaks, in that order, is its reason."""
    seen_names: set[str | None] = set()
    seen_ranks: set[int] = set()
    reasons, picks = [], []
    for raw, rank in zip(recs.names, recs.ranks):
        name = resolve(raw)
        if not name:
            reason = _NOT_IN_LIST
        elif name in seen_names:
            reason = _DUPLICATE
        elif not isinstance(rank, int) or isinstance(rank, bool) or not (1 <= rank <= k) or rank in seen_ranks:
            reason = _BAD_RANK
        else:
            reason = _OK
            seen_ranks.add(rank)
            picks.append((name, rank))
        seen_names.add(name)
        reasons.append(reason)
    return reasons, picks


RecsByProfile = Mapping[str, RecommendationSet]


class JudgeIndex:
    """Immutable per-run index of the judges' scorecards for one k.

    Built from a score matrix whose columns are the beverages named
    ``names``, it holds what every metric reads from the scorecards, so
    evaluating many models ranks each scorecard once instead of once per
    model. The evaluation's master list is ``set(names)``, each of whose
    names is normalized once here. Columns sharing a normalized name must
    hold no score (ingest rejects a scored ambiguous name). ``judges`` are
    the matrix's judges in sorted order.
    """

    def __init__(self, matrix: ScoreMatrix, names: Sequence[str], k: int):
        resolve = _Names(names)
        column = {resolve[raw]: c for c, raw in enumerate(names)}  # a shared name keeps its last column
        keys = sorted(column)
        kept = [column[key] for key in keys]
        if len(kept) < len(names) and not np.isnan(np.delete(matrix.cells, kept, axis=1)).all():
            raise ValueError("beverages sharing a normalized name must be unrated")
        order = sorted(range(len(matrix.judges)), key=matrix.judges.__getitem__)
        # rows in judge order, columns in name order, and an all-NaN last
        # column: the column of a name no judge scored is -1
        cells = np.concatenate([matrix.cells[order][:, kept], np.full((len(order), 1), np.nan)], axis=1)
        n = (~np.isnan(cells)).sum(axis=1)
        best = -np.sort(-cells, axis=1)  # each row's scores, best first, then its NaNs
        width = min(k, len(keys))
        ideal_len = np.minimum(n, width)  # the k best scores, or all when fewer
        cutoff = np.where(ideal_len > 0, best[np.arange(len(order)), np.maximum(ideal_len - 1, 0)], np.inf)
        ahead = cells >= cutoff[:, None]  # at least the k-th best score; NaN compares False
        # the fixed top-k set: every score above the cutoff, then the cutoff's
        # ties in name (column) order until the set holds min(k, n) names
        top = cells > cutoff[:, None]
        ties = ahead & ~top
        top |= ties & (np.cumsum(ties, axis=1) <= (ideal_len - top.sum(axis=1))[:, None])
        pct: list[dict[float, float]] = [{} for _ in order]  # each distinct score's percentile
        for row in np.flatnonzero(n >= 2):  # mid-ranked: ties count half
            scores, tied = np.unique(best[row, :n[row]], return_counts=True)  # ascending
            pct[row] = dict(zip(scores.tolist(), ((_midranks(tied) - 1) / (n[row] - 1)).tolist()))
        discounts = [math.log2(i + 1) for i in range(1, width + 1)]
        idcg = [sum(rel / d for rel, d in zip(ideal[:size], discounts))
                for ideal, size in zip(best[:, :width].tolist(), ideal_len.tolist())]
        vars(self).update(k=k, judges=tuple(matrix.judges[i] for i in order), _cells=cells,
                          _column={key: c for c, key in enumerate(keys)}, _pct=pct, _top=top, _ahead=ahead,
                          _idcg=idcg, _names=resolve)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


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
    index: JudgeIndex,
    *,
    model_id: str,
    tie_mode: str = "fixed",
) -> MetricReport:
    """Compose the five metrics for one model across the index's judges,
    validating each judge's set once against the index's master list and
    k; a set for any other profile is not read.

    With zero valid slots only coverage (0.0) is defined; the other four
    report as None rather than a misleading zero. ``tie_mode`` "fixed"
    counts a hit against the judge's k-sized top set (ties at the cut
    broken by name); "threshold" counts anything scoring at least the
    judge's k-th best score.
    """
    if tie_mode not in ("fixed", "threshold"):
        raise ValueError(f"unknown tie_mode {tie_mode!r}")
    if not index.judges:
        raise ValueError("at least one scorecard is required")
    k, judges = index.k, len(index.judges)
    rows, cols, ranks, bounds = [], [], [], [0]  # the valid picks, judge by judge
    for row, judge in enumerate(index.judges):
        recs = recs_by_profile.get(judge)
        if recs is not None:
            for name, rank in _reasons(recs, index._names.__getitem__, k)[1]:
                rows.append(row)
                cols.append(index._column.get(name, -1))
                ranks.append(rank)
        bounds.append(len(rows))
    coverage = len(rows) / (judges * k)
    if coverage == 0.0:
        return MetricReport(model_id, None, None, None, None, 0.0, judges, k)
    scores = index._cells[rows, cols].tolist()  # NaN where the judge has no score
    hits = int((index._top if tie_mode == "fixed" else index._ahead)[rows, cols].sum())
    # ranks 1..k without a valid pick add +0.0, so only the picks' ranks are summed
    gains = [score / math.log2(rank + 1) if score == score else 0.0 for score, rank in zip(scores, ranks)]
    percentiles, ndcgs = [], []  # per-judge means, per judge
    for lo, hi, idcg, pct in zip(bounds, bounds[1:], index._idcg, index._pct):
        values = [pct[score] for score in scores[lo:hi] if score in pct]  # NaN is in no table
        if values:
            percentiles.append(_mean(values))
        dcg = sum(gain for _, gain in sorted(zip(ranks[lo:hi], gains[lo:hi])))  # in rank order
        ndcgs.append(dcg / idcg if idcg > 0 else 0.0)
    return MetricReport(
        model_id=model_id,
        mean_rating=_mean([score for score in scores if score == score]),
        mean_percentile=_mean(percentiles),
        hit_rate=hits / (judges * k),
        ndcg=_mean(ndcgs),
        coverage=coverage,
        n_profiles=judges,
        k=k,
    )


def load_recommendations(path: str | Path) -> tuple[str, dict[str, RecommendationSet]]:
    """Read a recommendation file into its model id and per-profile sets.

    Schema: {"model_id": ..., "profiles": [{"profile_id": ...,
    "recommendations": [{"beverage_name", "rank", "justification"}]}]};
    a justification may hold any JSON value and is not read. Structural
    problems raise IngestError naming the file; content problems (bad
    names, ranks, duplicates) are preserved for validation to flag.
    """
    with _read_json(path, IngestError) as raw:
        if not isinstance(raw, dict) or "model_id" not in raw or "profiles" not in raw:
            raise IngestError("expected an object with model_id and profiles")
        model_id = _json_str(raw, "model_id", "", IngestError)
        profiles = raw["profiles"]
        if not isinstance(profiles, list):
            raise IngestError("profiles must be a list")
        sets: dict[str, RecommendationSet] = {}
        for entry in profiles:
            if not isinstance(entry, dict) or "profile_id" not in entry:
                raise IngestError("each profile needs a profile_id")
            profile_id = _json_str(entry, "profile_id", "", IngestError)
            if profile_id in sets:
                raise IngestError(f"duplicate profile_id {profile_id!r}")
            items = entry.get("recommendations", [])
            if not isinstance(items, list):
                raise IngestError("recommendations must be a list")
            names, ranks = [], []
            for item in items:
                if not isinstance(item, dict):
                    raise IngestError("recommendations must be objects")
                rank = item.get("rank")
                if isinstance(rank, float) and rank.is_integer():
                    rank = int(rank)
                name = item.get("beverage_name", "")
                names.append(name if isinstance(name, str) else "")  # a non-string name is NOT_IN_LIST
                ranks.append(rank if isinstance(rank, int) and not isinstance(rank, bool) else None)
            sets[profile_id] = RecommendationSet(tuple(names), tuple(ranks))
    return model_id, sets
