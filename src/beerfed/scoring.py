"""Score analytics: normalization, aggregate rankings, judge statistics,
inter-judge agreement, divisiveness, and the real-vs-artificial tag report.

Matrices are judges x beverages with NaN for missing cells; every statistic
runs over filled cells only (no imputation). Raw scores sit on a 0.1 grid,
so min-max normalization is done on integer tenths and stays exact.

Agreement is exact for the same reason. Each judge's scores are coded as
levels (at most 41 on the grid), so mid-ranks come from level counts and
are multiples of 0.5: every centred rank is a multiple of 0.5 and every
Spearman dot product an exactly summed multiple of 0.25. Only numpy's
fixed ``corrcoef`` steps round (scale by 1/(n-1), divide by the y then
the x standard deviation, clip), and they are the same steps for one
correlation matrix of all fully scored judges (read from its lower
triangle) as for a two-column ``corrcoef`` of one pair's ranks, so both
paths give the textbook rank-then-correlate value bit for bit. Kendall's
tau-b (Kendall 1945) needs only integer pair counts: concordant,
discordant and tied pairs come from the pair's level contingency table and
its cumulative sums, leaving one rounded expression,
(con - dis) / sqrt(tot - xtie) / sqrt(tot - ytie). One ``bincount`` builds
the tables of a judge against all later judges, so the per-pair work is
whole-array arithmetic on integers and the rounding is unchanged.

Per-beverage statistics are grouped by fill count: the columns filled
exactly c times form one C-contiguous (m, c) block whose rows hold each
column's filled values in judge order, and a reduction along its rows runs
the same numpy loop over the same values as on one column's values alone,
so every mean, standard deviation and range is bit-identical to the
per-column result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DegenerateRowError, InsufficientDataError
from .model import Dataset, NoteTag, positions


@dataclass
class ScoreMatrix:
    """Judges x beverages scores (raw 1-5, or per-judge normalized); rows
    follow the judge list, columns the beverage list."""

    judges: list[str]
    beverages: list[str]
    cells: np.ndarray

    def filled(self) -> np.ndarray:
        return ~np.isnan(self.cells)


def build_score_matrix(dataset: Dataset) -> ScoreMatrix:
    """Arrange a dataset's reviews into a judges x beverages matrix.

    Assumes a validated dataset: reviews with unknown references are
    ignored, and the first review wins for duplicated (judge, beverage)
    pairs.
    """
    judges = list(dataset.judges)
    beverages = [b.id for b in dataset.beverages]
    table = dataset.reviews
    j = positions(table.judge_ids, judges)[table.judge]
    b = positions(table.beverage_ids, beverages)[table.beverage]
    known = (j >= 0) & (b >= 0)
    flat = j[known] * len(beverages) + b[known]
    cells = np.full((len(judges), len(beverages)), np.nan)
    _, first = np.unique(flat, return_index=True)  # index of each cell's first review
    cells.flat[flat[first]] = table.score[known][first]
    return ScoreMatrix(judges, beverages, cells)


def normalize(
    matrix: ScoreMatrix, lenient: bool = False, method: str = "minmax"
) -> ScoreMatrix:
    """Per-judge normalization of raw scores.

    The default min-max rescales each judge's filled cells by that judge's
    own observed min/max onto [0, 1], so every non-degenerate row attains
    exactly 0 and 1 and the per-judge ordering of beverages is unchanged.
    ``method="zscore"`` centres each row by its mean and sample standard
    deviation instead (unbounded, no clipping). Judges whose filled scores
    are all equal (or fewer than two) have no defined scale: that raises
    DegenerateRowError unless ``lenient``, in which case the whole row
    maps to 0.5 (min-max) or 0.0 (z-score).
    """
    if method not in ("minmax", "zscore"):
        raise ValueError(f"unknown normalization method {method!r}")
    out = np.full_like(matrix.cells, np.nan)
    degenerate: list[str] = []
    for i, judge in enumerate(matrix.judges):
        row = matrix.cells[i]
        mask = ~np.isnan(row)
        if not mask.any():
            continue
        tenths = np.rint(row[mask] * 10).astype(np.int64)
        lo, hi = int(tenths.min()), int(tenths.max())
        if hi == lo:
            if lenient:
                out[i, mask] = 0.5 if method == "minmax" else 0.0
            else:
                degenerate.append(judge)
            continue
        if method == "minmax":
            out[i, mask] = (tenths - lo) / (hi - lo)
        else:
            vals = row[mask]
            out[i, mask] = (vals - vals.mean()) / vals.std(ddof=1)
    if degenerate:
        raise DegenerateRowError(degenerate)
    return ScoreMatrix(list(matrix.judges), list(matrix.beverages), out)


@dataclass(frozen=True)
class RankedBeverage:
    beverage_id: str
    name: str
    score: float
    review_count: int


@dataclass
class AggregateRanking:
    entries: list[RankedBeverage]


def _column_stats(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per column of ``cells``, over its filled cells: the count, mean,
    sample standard deviation (ddof=1) and max-min range, each NaN where
    the column has too few cells (one for the mean, two for the others)."""
    filled = ~np.isnan(cells)
    count = filled.sum(axis=0)
    mean, sd, spread = (np.full(count.shape, np.nan) for _ in range(3))
    by_column, filled_by_column = cells.T, filled.T
    # the fill counts present; a plain np.unique would import numpy.ma (~30 ms)
    for c in np.flatnonzero(np.bincount(count)).tolist():
        if c == 0:
            continue
        cols = np.flatnonzero(count == c)
        block = by_column[cols][filled_by_column[cols]].reshape(len(cols), c)
        mean[cols] = block.mean(axis=1)
        if c > 1:
            sd[cols] = block.std(axis=1, ddof=1)
            spread[cols] = block.max(axis=1) - block.min(axis=1)
    return count, mean, sd, spread


def aggregate(
    matrix: ScoreMatrix,
    names: Mapping[str, str] | None = None,
) -> AggregateRanking:
    """Mean score per beverage over filled cells, sorted descending
    (ties broken by beverage name ascending)."""
    names = names or {}
    count, mean, _, _ = _column_stats(matrix.cells)
    entries = [
        RankedBeverage(beverage_id=b, name=names.get(b, b), score=score, review_count=n)
        for b, score, n in zip(matrix.beverages, mean.tolist(), count.tolist())
        if n
    ]
    entries.sort(key=lambda e: (-e.score, e.name))
    return AggregateRanking(entries)


@dataclass(frozen=True)
class JudgeStats:
    judge_id: str
    mean: float
    sd: float
    count: int


def judge_stats(matrix: ScoreMatrix, lenient: bool = False) -> list[JudgeStats]:
    """Per-judge mean and unbiased sample standard deviation of raw scores.

    Judges with fewer than two scores raise InsufficientDataError, or are
    silently dropped when ``lenient``.
    """
    out = []
    for i, judge in enumerate(matrix.judges):
        row = matrix.cells[i]
        vals = row[~np.isnan(row)]
        if vals.size < 2:
            if lenient:
                continue
            raise InsufficientDataError(
                f"judge {judge!r} has {vals.size} score(s); need at least 2"
            )
        out.append(
            JudgeStats(judge, float(vals.mean()), float(vals.std(ddof=1)), int(vals.size))
        )
    return out


@dataclass
class AgreementMatrix:
    judges: list[str]
    values: np.ndarray  # symmetric, unit diagonal; NaN where undefined

    def pair(self, a: str, b: str) -> float:
        i, j = self.judges.index(a), self.judges.index(b)
        return float(self.values[i, j])


MIN_COMMON_BEVERAGES = 3  # at least 2: rank correlation needs two cells


def _midranks(counts: np.ndarray) -> np.ndarray:
    """Mid-rank of each level from how many cells sit on it: tied cells
    share the mean of the ranks they span."""
    return np.cumsum(counts) - counts + (counts + 1) / 2


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho of two level-coded vectors; NaN if either is constant."""
    cx, cy = np.bincount(x), np.bincount(y)
    if cx.max() == x.size or cy.max() == y.size:
        return np.nan
    ranks = np.column_stack((_midranks(cx)[x], _midranks(cy)[y]))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


# table cells one Kendall bincount may build: bounds memory for a matrix
# off the 0.1 grid, whose judges can have far more than 41 levels
_KENDALL_TABLE_CELLS = 1 << 22


def _kendall_tau_b(
    x: np.ndarray, x_filled: np.ndarray, ys: np.ndarray, ys_filled: np.ndarray, levels: int
) -> np.ndarray:
    """Kendall's tau-b of one level-coded row against each row of ``ys``
    over their common cells, from the pair's level contingency table (all
    tables from one ``bincount``, offset per pair); NaN where fewer than
    ``MIN_COMMON_BEVERAGES`` cells are common or either row is constant
    over them. Codes must lie below ``levels``."""
    size = levels * levels
    pair = np.arange(len(ys))[:, None] * size
    cells = (pair + x * levels + ys)[x_filled & ys_filled]
    tables = np.bincount(cells, minlength=len(ys) * size).reshape(-1, levels, levels)
    rows, cols = tables.sum(axis=2), tables.sum(axis=1)
    n = rows.sum(axis=1)
    tot = n * (n - 1) // 2
    xtie = (rows * (rows - 1)).sum(axis=1) // 2
    ytie = (cols * (cols - 1)).sum(axis=1) // 2
    ntie = (np.einsum("pab,pab->p", tables, tables) - n) // 2
    # below[p, a, b]: cells with x level > a and y level <= b
    below = tables[:, :0:-1].cumsum(axis=1)[:, ::-1].cumsum(axis=2)
    dis = np.einsum("pab,pab->p", tables[:, :-1, 1:], below[:, :, :-1])
    con_minus_dis = tot - xtie - ytie + ntie - 2 * dis
    ok = (n >= MIN_COMMON_BEVERAGES) & (xtie < tot) & (ytie < tot)
    tau = np.full(len(ys), np.nan)
    tau[ok] = con_minus_dis[ok] / np.sqrt(tot[ok] - xtie[ok]) / np.sqrt(tot[ok] - ytie[ok])
    return np.clip(tau, -1.0, 1.0)


def agreement(matrix: ScoreMatrix, method: str = "spearman") -> AgreementMatrix:
    """Pairwise rank correlation between judges over commonly scored
    beverages (ties mid-ranked). Pairs sharing fewer than
    ``MIN_COMMON_BEVERAGES`` beverages, or over which either judge is
    constant, are undefined (NaN). ``method`` is "spearman" or "kendall"
    (tau-b).
    """
    if method not in ("spearman", "kendall"):
        raise ValueError(f"unknown agreement method {method!r}")
    n = len(matrix.judges)
    values = np.full((n, n), np.nan)
    filled = matrix.filled()
    # each filled cell as the index of its value among its judge's
    # distinct values (order-preserving; at most 41 on the raw grid)
    codes = np.zeros(matrix.cells.shape, dtype=np.intp)
    for i in range(n):
        codes[i, filled[i]] = np.unique(matrix.cells[i, filled[i]], return_inverse=True)[1]

    # judges who scored every beverage, not all alike: their Spearman
    # pairs come from one correlation matrix of the row mid-ranks
    dense = np.zeros(n, dtype=bool)
    if method == "spearman" and filled.shape[1] >= MIN_COMMON_BEVERAGES:
        dense = filled.all(axis=1) & (codes.max(axis=1, initial=0) > 0)
    rows = np.flatnonzero(dense)
    if rows.size > 1:
        ranks = np.array([_midranks(np.bincount(codes[i]))[codes[i]] for i in rows])
        lower = np.tril(np.corrcoef(ranks), -1)
        values[np.ix_(rows, rows)] = lower + lower.T

    if method == "kendall":
        levels = int(codes.max(initial=0)) + 1
        step = max(1, _KENDALL_TABLE_CELLS // (levels * levels))
        for i in range(n):
            for lo in range(i + 1, n, step):
                hi = min(lo + step, n)
                values[i, lo:hi] = values[lo:hi, i] = _kendall_tau_b(
                    codes[i], filled[i], codes[lo:hi], filled[lo:hi], levels
                )
    else:
        for i in range(n):
            for j in range(i + 1, n):
                if dense[i] and dense[j]:
                    continue
                common = filled[i] & filled[j]
                if common.sum() < MIN_COMMON_BEVERAGES:
                    continue
                values[i, j] = values[j, i] = _spearman(codes[i, common], codes[j, common])
    np.fill_diagonal(values, 1.0)
    return AgreementMatrix(list(matrix.judges), values)


def per_style_distribution(
    norm: ScoreMatrix, dataset: Dataset, family_order: list[str]
) -> dict[str, list[float]]:
    """Aggregate (mean normalized) scores grouped by style family.

    Keys follow ``family_order`` (families without beverages keep empty
    lists); scores within a family are sorted descending. Families present
    in the dataset but missing from the order are appended.
    """
    ranking = aggregate(norm)
    family_of = {b.id: b.style_family for b in dataset.beverages}
    groups: dict[str, list[float]] = {name: [] for name in family_order}
    for entry in ranking.entries:
        family = family_of.get(entry.beverage_id)
        if family is None:
            continue
        groups.setdefault(family, []).append(entry.score)
    return groups


@dataclass(frozen=True)
class DivisiveEntry:
    beverage_id: str
    name: str
    sd: float
    score_range: float
    review_count: int


def divisiveness(
    matrix: ScoreMatrix,
    names: Mapping[str, str] | None = None,
) -> list[DivisiveEntry]:
    """Beverages ranked by sample standard deviation of their raw scores,
    descending (ties by name); max-min range is carried alongside for
    reference. Beverages with fewer than two scores are skipped."""
    names = names or {}
    count, _, sd, spread = _column_stats(matrix.cells)
    entries = [
        DivisiveEntry(beverage_id=b, name=names.get(b, b), sd=d, score_range=r, review_count=n)
        for b, d, r, n in zip(matrix.beverages, sd.tolist(), spread.tolist(), count.tolist())
        if n >= 2
    ]
    entries.sort(key=lambda e: (-e.sd, e.name))
    return entries


@dataclass(frozen=True)
class TagFamilyComparison:
    family: str
    real_mean: float | None
    artificial_mean: float | None
    real_count: int
    artificial_count: int
    comparable: bool
    real_at_least_artificial: bool | None


def tag_report(dataset: Dataset) -> list[TagFamilyComparison]:
    """Compare mean raw scores of real-flavour vs artificial-flavour tagged
    reviews within each style family.

    Only families with at least one tagged review appear; a family lacking
    one of the two tags is marked not comparable. The flag records the
    finding check real_mean >= artificial_mean; it is reported, never
    enforced.
    """
    table = dataset.reviews
    family_of = {b.id: b.style_family for b in dataset.beverages}
    names = sorted({family_of[b] for b in table.beverage_ids if b in family_of})
    row_family = positions([family_of.get(b) for b in table.beverage_ids], names)[table.beverage]
    real: dict[str, np.ndarray] = {}
    artificial: dict[str, np.ndarray] = {}
    for tag, scores in ((NoteTag.REAL_FLAVOUR, real), (NoteTag.ARTIFICIAL_FLAVOUR, artificial)):
        tagged = np.array([tag in s for s in table.tag_sets], dtype=bool)[table.tags] & (row_family >= 0)
        for f in np.flatnonzero(np.bincount(row_family[tagged])).tolist():  # the families present
            scores[names[f]] = table.score[tagged & (row_family == f)]  # in review order

    report = []
    for family in sorted(set(real) | set(artificial)):
        r = real.get(family, ())
        a = artificial.get(family, ())
        r_mean = float(np.mean(r)) if len(r) else None
        a_mean = float(np.mean(a)) if len(a) else None
        comparable = bool(len(r) and len(a))
        report.append(
            TagFamilyComparison(
                family=family,
                real_mean=r_mean,
                artificial_mean=a_mean,
                real_count=len(r),
                artificial_count=len(a),
                comparable=comparable,
                real_at_least_artificial=(r_mean >= a_mean) if comparable else None,
            )
        )
    return report
