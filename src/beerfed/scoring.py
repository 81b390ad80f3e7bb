"""Score analytics: normalization, aggregate rankings, judge statistics,
inter-judge agreement, divisiveness, and the real-vs-artificial tag report.
Every result record is a ``NamedTuple``; ``aggregate`` returns its list of
``RankedBeverage`` rows, which ``per_style_distribution`` groups.

Matrices are judges x beverages with NaN for missing cells; every statistic
runs over filled cells only (no imputation). Reviews hold raw scores as
integer tenths, which the matrix holds as ``tenths / 10``; min-max
normalization is done on integer tenths again and stays exact.

Agreement is exact for the same reason. Each judge's scores are coded as
levels (at most 41 on the grid), so mid-ranks come from level counts and
are multiples of 0.5: every centred rank is a multiple of 0.5 and every
Spearman dot product an exactly summed multiple of 0.25. Judges who scored
every beverage get their Spearman values from one ``corrcoef`` of their
row mid-ranks. Every other pair with ``MIN_COMMON_BEVERAGES`` common cells
gets its level contingency table from one ``bincount`` per judge; its
Spearman sums are integers from the table's level counts, and only
``corrcoef``'s fixed steps round (scale by 1/(n-1), divide by the y then
the x standard deviation, clip), so both paths give the textbook value
bit for bit. Kendall's tau-b (Kendall 1945) needs only integer pair
counts from the table and its cumulative sums, leaving one rounded
expression, (con - dis) / sqrt(tot - xtie) / sqrt(tot - ytie).

Per-beverage statistics are grouped by fill count: the columns filled
exactly c times form one C-contiguous (m, c) block whose rows hold each
column's filled values in judge order, and a reduction along its rows runs
the same numpy loop over the same values as on one column's values alone,
so every mean, standard deviation and range is bit-identical to the
per-column result.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

import numpy as np

from .errors import DegenerateRowError, InsufficientDataError
from .model import Dataset, NoteTag


class ScoreMatrix(NamedTuple):
    """Judges x beverages scores (raw 1-5, or per-judge normalized); rows
    follow the judge list, columns the beverage list."""

    judges: list[str]
    beverages: list[str]
    cells: np.ndarray


def build_score_matrix(dataset: Dataset) -> ScoreMatrix:
    """Arrange a dataset's reviews into a judges x beverages matrix, each
    review in the cell its judge and beverage codes index.

    Assumes a validated dataset: reviews of unknown beverages are ignored,
    and the first review wins for duplicated (judge, beverage) pairs.
    """
    judges = list(dataset.judges)
    beverages = [b.id for b in dataset.beverages]
    j, b = dataset.reviews.judge, dataset.reviews.beverage
    known = b < len(beverages)
    flat = j[known] * len(beverages) + b[known]
    cells = np.full((len(judges), len(beverages)), np.nan)
    score = dataset.reviews.score[known] / 10
    if flat.size and np.bincount(flat).max() > 1:  # numpy sets no order for repeated-index assignment
        _, first = np.unique(flat, return_index=True)  # index of each cell's first review
        flat, score = flat[first], score[first]
    cells.flat[flat] = score
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
    maps to 0.5 (min-max) or 0.0 (z-score). Min-max runs on integer
    tenths, so a filled cell off the 0.1 grid raises ValueError naming its
    judge; the z-score takes any float.
    """
    if method not in ("minmax", "zscore"):
        raise ValueError(f"unknown normalization method {method!r}")
    cells = matrix.cells
    filled = ~np.isnan(cells)
    lo = np.fmin.reduce(cells, axis=1, initial=np.inf)  # fmin and fmax skip NaN
    hi = np.fmax.reduce(cells, axis=1, initial=-np.inf)
    flat = lo == hi  # a filled row with one value; an empty row has lo > hi
    if flat.any() and not lenient:
        raise DegenerateRowError([j for j, f in zip(matrix.judges, flat.tolist()) if f])
    if method == "minmax":
        tenths = np.rint(cells * 10)
        if (off := ((tenths / 10 != cells) & filled).any(axis=1)).any():
            raise ValueError(f"judge {matrix.judges[off.argmax()]!r}: min-max needs scores on the 0.1 grid")
        lo, hi = np.rint(lo * 10), np.rint(hi * 10)
        out = (tenths - lo[:, None]) / np.where(flat, 1, hi - lo)[:, None]
    else:
        _, mean, sd, _ = _column_stats(cells.T)
        out = (cells - mean[:, None]) / np.where(flat, 1, sd)[:, None]
    out[filled & flat[:, None]] = 0.5 if method == "minmax" else 0.0
    return ScoreMatrix(list(matrix.judges), list(matrix.beverages), out)


class RankedBeverage(NamedTuple):
    beverage_id: str
    name: str
    score: float
    review_count: int


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
) -> list[RankedBeverage]:
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
    return entries


class JudgeStats(NamedTuple):
    judge_id: str
    mean: float
    sd: float
    count: int


def judge_stats(matrix: ScoreMatrix, lenient: bool = False) -> list[JudgeStats]:
    """Per-judge mean and unbiased sample standard deviation of raw scores.

    Judges with fewer than two scores raise InsufficientDataError, or are
    silently dropped when ``lenient``.
    """
    count, mean, sd, _ = _column_stats(matrix.cells.T)
    short = np.flatnonzero(count < 2)
    if short.size and not lenient:
        i = short[0]
        raise InsufficientDataError(f"judge {matrix.judges[i]!r} has {count[i]} score(s); need at least 2")
    stats = zip(matrix.judges, mean.tolist(), sd.tolist(), count.tolist())
    return [JudgeStats(*row) for row in stats if row[3] >= 2]


class AgreementMatrix(NamedTuple):
    judges: list[str]
    values: np.ndarray  # symmetric, unit diagonal; NaN where undefined


MIN_COMMON_BEVERAGES = 3  # at least 2: rank correlation needs two cells


def _midranks(counts: np.ndarray) -> np.ndarray:
    """Mid-rank of each level from how many cells sit on it: tied cells
    share the mean of the ranks they span."""
    return np.cumsum(counts) - counts + (counts + 1) / 2


# table and beverage cells one pair-table bincount may take: bounds memory
# for many beverages, or off the 0.1 grid (far more than 41 levels)
_PAIR_TABLE_CELLS = 1 << 22


def _spearman_rho(tables: np.ndarray) -> np.ndarray:
    """Spearman's rho of each pair from its level contingency table, by
    ``np.corrcoef``'s steps on the pair's mid-ranks: the exact centred
    sums, each times 1/(n-1), divided by the y and then the x standard
    deviation, clipped. NaN where either judge is constant over the pair's
    common cells."""
    rows, cols = tables.sum(axis=2), tables.sum(axis=1)
    n = rows.sum(axis=1)
    # twice each level's centred mid-rank, 2 * midrank - (n + 1): integers
    dx = 2 * rows.cumsum(axis=1) - rows - n[:, None]
    dy = 2 * cols.cumsum(axis=1) - cols - n[:, None]
    sxy = np.einsum("pab,pa,pb->p", tables, dx, dy) / 4
    sxx, syy = (rows * dx * dx).sum(axis=1) / 4, (cols * dy * dy).sum(axis=1) / 4
    ok = (sxx > 0) & (syy > 0)
    scale = 1 / (n[ok] - 1)
    rho = np.full(len(tables), np.nan)
    rho[ok] = sxy[ok] * scale / np.sqrt(syy[ok] * scale) / np.sqrt(sxx[ok] * scale)
    return np.clip(rho, -1.0, 1.0)


def _kendall_tau_b(tables: np.ndarray) -> np.ndarray:
    """Kendall's tau-b of each pair from its level contingency table; NaN
    where either judge is constant over the pair's common cells."""
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
    ok = (xtie < tot) & (ytie < tot)
    tau = np.full(len(tables), np.nan)
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
    filled = ~np.isnan(matrix.cells)
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

    # every other pair i < j with enough common cells, counted exactly in
    # float32 (below 2**24 beverages), scored from its contingency table:
    # one bincount builds judge i's tables against its later judges
    mask = filled.astype(np.float32)
    pending = np.triu(mask @ mask.T >= MIN_COMMON_BEVERAGES, 1) & ~(dense[:, None] & dense)
    levels = int(codes.max(initial=0)) + 1
    size = levels * levels
    step = max(1, _PAIR_TABLE_CELLS // (size + filled.shape[1]))
    score = _spearman_rho if method == "spearman" else _kendall_tau_b
    for i in np.flatnonzero(pending.any(axis=1)).tolist():
        later = np.flatnonzero(pending[i])
        for lo in range(0, later.size, step):
            j = later[lo:lo + step]
            cells = (np.arange(j.size)[:, None] * size + codes[i] * levels + codes[j])[filled[i] & filled[j]]
            tables = np.bincount(cells, minlength=j.size * size).reshape(-1, levels, levels)
            values[i, j] = values[j, i] = score(tables)
    np.fill_diagonal(values, 1.0)
    return AgreementMatrix(list(matrix.judges), values)


def per_style_distribution(
    ranking: list[RankedBeverage], dataset: Dataset, family_order: list[str]
) -> dict[str, list[float]]:
    """The scores of ``ranking`` (``aggregate`` of the normalized matrix)
    grouped by style family.

    Keys follow ``family_order`` (families without beverages keep empty
    lists); scores within a family are sorted descending. Families present
    in the dataset but missing from the order are appended.
    """
    family_of = {b.id: b.style_family for b in dataset.beverages}
    groups: dict[str, list[float]] = {name: [] for name in family_order}
    for entry in ranking:
        family = family_of.get(entry.beverage_id)
        if family is None:
            continue
        groups.setdefault(family, []).append(entry.score)
    return groups


class DivisiveEntry(NamedTuple):
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


class TagFamilyComparison(NamedTuple):
    family: str
    real_mean: float | None
    artificial_mean: float | None
    real_count: int
    artificial_count: int
    comparable: bool
    real_at_least_artificial: bool | None


def tag_report(dataset: Dataset) -> list[TagFamilyComparison]:
    """Compare mean raw scores of real-flavour vs artificial-flavour tagged
    reviews within each style family. Each mean is exact, rounded once from
    the sum of its tenths, so the order of the reviews cannot move its last bit.

    Only families with at least one tagged review appear; a family lacking
    one of the two tags is marked not comparable. The flag records the
    finding check real_mean >= artificial_mean; it is reported, never
    enforced.
    """
    table = dataset.reviews
    names = sorted({b.style_family for b in dataset.beverages})
    row_family = np.array([*(names.index(b.style_family) for b in dataset.beverages), *[-1] * len(table.unknown)],
                          np.intp)[table.beverage]  # -1: an unknown beverage
    real: dict[str, np.ndarray] = {}
    artificial: dict[str, np.ndarray] = {}
    for tag, scores in ((NoteTag.REAL_FLAVOUR, real), (NoteTag.ARTIFICIAL_FLAVOUR, artificial)):
        tagged = np.array([tag in s for s in table.tag_sets], dtype=bool)[table.tags] & (row_family >= 0)
        for f in np.flatnonzero(np.bincount(row_family[tagged])).tolist():  # the families present
            scores[names[f]] = table.score[tagged & (row_family == f)]

    report = []
    for family in sorted(set(real) | set(artificial)):
        r = real.get(family, ())
        a = artificial.get(family, ())
        r_mean, a_mean = (int(t.sum()) / (10 * len(t)) if len(t) else None for t in (r, a))
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
