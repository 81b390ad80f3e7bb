import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beerfed.errors import DegenerateRowError, InsufficientDataError
from beerfed.model import DEFAULT_STYLE_FAMILIES, Beverage, NoteTag
from beerfed import scoring
from beerfed.scoring import (
    MIN_COMMON_BEVERAGES,
    ScoreMatrix,
    agreement,
    aggregate,
    build_score_matrix,
    divisiveness,
    judge_stats,
    normalize,
    per_style_distribution,
    tag_report,
)
from beerfed.io import load_dataset
from genutil import Row, dataset_of, festival_files, random_dataset, review_rows, with_reviews
from oracles import (
    oracle_aggregate,
    oracle_column_stats,
    oracle_kendall_tau_b,
    oracle_normalize,
    oracle_sample_sd,
    oracle_score_matrix,
    oracle_spearman,
)


def matrix_from_rows(rows, judges=None, beverages=None):
    cells = np.array(rows, dtype=float)
    judges = judges or [f"J{i}" for i in range(cells.shape[0])]
    beverages = beverages or [f"b{i}" for i in range(cells.shape[1])]
    return ScoreMatrix(judges, beverages, cells)


nan = float("nan")
FAMILY_ORDER = [f.name for f in DEFAULT_STYLE_FAMILIES]


def keep_cells(rng, cells, fill):
    """``cells`` with only ``fill[i]`` cells of row i kept, at random
    positions; the rest are NaN."""
    cells = np.array(cells, dtype=float)
    cells[np.argsort(rng.random(cells.shape), axis=1) >= np.asarray(fill)[:, None]] = nan
    return cells


def many_judge_matrix(rng, n_judges=400, n_beverages=30):
    """Judges with fill counts from 0 to ``n_beverages`` on the 0.1 grid,
    among them empty, single-score and flat rows."""
    fill = rng.integers(0, n_beverages + 1, size=n_judges)
    fill[:3] = 0, 1, 2
    cells = keep_cells(rng, rng.integers(10, 51, size=(n_judges, n_beverages)) / 10, fill)
    flat = rng.random(n_judges) < 0.05
    flat[2] = True
    cells[flat] = np.where(np.isnan(cells[flat]), nan, 3.5)
    return matrix_from_rows(cells[rng.permutation(n_judges)])


def judge_rows(m):
    """The matrix as {judge: {beverage: score}} over filled cells."""
    return {
        j: {b: float(m.cells[i, k]) for k, b in enumerate(m.beverages) if not np.isnan(m.cells[i, k])}
        for i, j in enumerate(m.judges)
    }


class TestBuildScoreMatrix:
    def test_matches_per_review_oracle_with_duplicates_and_dangling_refs(self, rng):
        for trial in range(40):
            ds = random_dataset(
                rng, int(rng.integers(1, 6)), int(rng.integers(1, 12)), rng.uniform(0.0, 0.5)
            )
            reviews = review_rows(ds)
            for _ in range(int(rng.integers(0, 6))):  # repeats of a scored pair, later score differs
                first = reviews[int(rng.integers(len(reviews)))]
                reviews.append(Row(first.judge_id, first.beverage_id, 5.0 if first.raw_score < 5.0 else 1.0))
            reviews.insert(0, Row(ds.judges[-1], "ghost beer", 2.0))
            reviews.insert(int(rng.integers(len(reviews))), Row(ds.judges[0], "ghost beer", 2.0))
            if trial % 7 == 0:
                reviews = []
            ds = with_reviews(ds, reviews)
            m = build_score_matrix(ds)
            assert tuple(m.judges) == ds.judges and m.beverages == [b.id for b in ds.beverages]
            expected = oracle_score_matrix(ds.judges, m.beverages, review_rows(ds))
            assert np.array_equal(m.cells, np.array(expected).reshape(m.cells.shape), equal_nan=True)

    def test_matches_per_review_oracle_without_duplicates(self, rng, monkeypatch):
        # no cell is reviewed twice, so the matrix is filled without np.unique
        monkeypatch.setattr(scoring.np, "unique", None)
        for _ in range(40):
            ds = random_dataset(rng, int(rng.integers(1, 8)), int(rng.integers(1, 30)), rng.uniform(0.0, 0.6))
            reviews = review_rows(ds)
            ds = with_reviews(ds, [reviews[i] for i in rng.permutation(len(reviews))])
            m = build_score_matrix(ds)
            expected = oracle_score_matrix(ds.judges, m.beverages, review_rows(ds))
            assert np.array_equal(m.cells, np.array(expected).reshape(m.cells.shape), equal_nan=True)

    def test_empty_dataset(self):
        assert build_score_matrix(dataset_of([], [], [])).cells.shape == (0, 0)


class TestNormalize:
    def test_endpoints_map_to_zero_and_one(self):
        m = matrix_from_rows([[1.0, 5.0, 3.8]])
        n = normalize(m)
        assert n.cells[0, 0] == 0.0
        assert n.cells[0, 1] == 1.0

    def test_known_value_is_exact(self):
        m = matrix_from_rows([[1.0, 5.0, 3.8]])
        assert normalize(m).cells[0, 2] == 0.7

    def test_uses_each_judges_own_scale(self):
        m = matrix_from_rows([[2.0, 4.0], [1.0, 5.0]])
        n = normalize(m)
        assert n.cells[0].tolist() == [0.0, 1.0]
        assert n.cells[1].tolist() == [0.0, 1.0]

    def test_degenerate_row_raises(self):
        m = matrix_from_rows([[4.0, 4.0, 4.0]])
        with pytest.raises(DegenerateRowError) as exc:
            normalize(m)
        assert exc.value.judges == ["J0"]

    def test_degenerate_row_lenient_maps_to_half(self):
        m = matrix_from_rows([[4.0, 4.0, 4.0]])
        n = normalize(m, lenient=True)
        assert n.cells[0].tolist() == [0.5, 0.5, 0.5]

    def test_missing_cells_stay_missing(self):
        m = matrix_from_rows([[1.0, nan, 5.0]])
        n = normalize(m)
        assert np.isnan(n.cells[0, 1])

    def test_zscore_variant(self):
        m = matrix_from_rows([[3.0, 4.0, 5.0]])
        n = normalize(m, method="zscore")
        assert n.cells[0].tolist() == [-1.0, 0.0, 1.0]

    def test_zscore_of_off_grid_scores_is_not_degenerate(self):
        # 1.01, 1.02 and 1.04 all round to 1.0, but they are three scores
        m = matrix_from_rows([[1.01, 1.02, 1.04], [3.0, 4.0, 5.0]])
        expected = oracle_normalize(judge_rows(m), method="zscore")
        assert judge_rows(normalize(m, method="zscore")) == {j: pytest.approx(row, rel=1e-12) for j, row in expected.items()}

    @pytest.mark.parametrize("lenient", [False, True])
    def test_minmax_rejects_a_score_off_the_grid_naming_its_judge(self, lenient):
        m = matrix_from_rows([[3.0, 4.0, 5.0], [1.01, 1.02, 1.04]], judges=["on grid", "off grid"])
        with pytest.raises(ValueError, match="'off grid'.*0.1 grid") as exc:
            normalize(m, lenient=lenient)
        assert not isinstance(exc.value, DegenerateRowError)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(10, 49).flatmap(lambda tenths: st.lists(
        st.integers(0, 4).map(lambda d: (10 * tenths + d) / 100) | st.just(nan), min_size=3, max_size=3)),
        max_size=5), st.booleans())
    def test_zscore_of_hundredths_within_a_tenth_matches_the_oracle(self, rows, lenient):
        # each row's scores round to one tenth, yet differ unless equal
        m = matrix_from_rows(rows or np.empty((0, 3)))
        try:
            expected = oracle_normalize(judge_rows(m), lenient, "zscore")
        except ValueError as exc:
            with pytest.raises(DegenerateRowError) as err:
                normalize(m, lenient, "zscore")
            assert err.value.judges == exc.args[0]
            return
        got = judge_rows(normalize(m, lenient, "zscore"))
        assert got == {j: pytest.approx(row, rel=1e-9, abs=1e-12) for j, row in expected.items()}

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            normalize(matrix_from_rows([[1.0, 2.0]]), method="robust")

    @given(
        st.lists(
            st.integers(min_value=10, max_value=50), min_size=2, max_size=12
        ).filter(lambda xs: len(set(xs)) >= 2)
    )
    def test_order_preserved_and_range_attained(self, tenths):
        raw = [t / 10 for t in tenths]
        m = matrix_from_rows([raw])
        n = normalize(m)
        out = n.cells[0]
        for i in range(len(raw)):
            for j in range(len(raw)):
                assert np.sign(raw[i] - raw[j]) == np.sign(out[i] - out[j])
        assert out.min() == 0.0
        assert out.max() == 1.0
        assert ((0.0 <= out) & (out <= 1.0)).all()


class TestColumnStats:
    @pytest.mark.parametrize("values", ["raw", "minmax", "zscore"])
    def test_grouped_reductions_equal_the_per_column_loop(self, rng, values):
        for trial in range(61):
            n_judges = 300 if trial == 0 else int(rng.integers(1, 40))  # 300 reaches pairwise blocks
            cells = rng.integers(10, 51, size=(n_judges, int(rng.integers(1, 30)))) / 10
            cells[rng.random(cells.shape) < rng.uniform(0.0, 0.9)] = nan
            m = many_judge_matrix(rng) if trial == 60 else matrix_from_rows(cells)
            if values == "raw":  # judge_stats: the per-column loop over the judges
                per_judge = oracle_column_stats(m.cells.T)
                expected = [(j, mean, sd, n) for j, (n, mean, sd, _) in zip(m.judges, per_judge) if n >= 2]
                assert judge_stats(m, lenient=True) == expected
                short = [j for j, (n, *_) in zip(m.judges, per_judge) if n < 2]
                if short:
                    with pytest.raises(InsufficientDataError, match=f"^judge {short[0]!r} has"):
                        judge_stats(m)
                else:
                    assert judge_stats(m) == expected
            else:
                m = normalize(m, lenient=True, method=values)
            grouped = zip(*(a.tolist() for a in scoring._column_stats(m.cells)))
            got = [
                (n, *(None if np.isnan(v) else v for v in stats)) for n, *stats in grouped
            ]
            assert got == oracle_column_stats(m.cells)


class TestAggregate:
    def test_unanimous_top_score(self):
        m = matrix_from_rows([[1.0], [1.0], [1.0]])
        # on a normalized matrix 1.0 everywhere stays 1.0
        agg = aggregate(matrix_from_rows([[1.0, 0.2], [1.0, 0.4]]))
        assert agg[0].score == 1.0

    def test_unnormalised_mean_matches_hand_arithmetic(self):
        m = matrix_from_rows([[4.0], [4.1], [2.5]], beverages=["parfait"])
        agg = aggregate(m)
        assert agg[0].score == pytest.approx(10.6 / 3, abs=1e-12)

    def test_missing_cell_means_over_remaining(self):
        m = matrix_from_rows([[0.5, 0.2], [nan, 0.4], [0.7, 0.9]])
        agg = aggregate(m)
        by_id = {e.beverage_id: e for e in agg}
        assert by_id["b0"].score == pytest.approx(0.6)
        assert by_id["b0"].review_count == 2

    def test_ties_break_by_name_ascending(self):
        m = matrix_from_rows([[0.5, 0.5, 0.1]], beverages=["x", "a", "m"])
        names = {"x": "Zephyr", "a": "Anthem", "m": "Mirage"}
        agg = aggregate(m, names)
        assert [e.name for e in agg] == ["Anthem", "Zephyr", "Mirage"]

    def test_aggregate_within_judge_bounds(self, rng):
        ds = random_dataset(rng, n_judges=4, n_beverages=10, missing_rate=0.2)
        m = build_score_matrix(ds)
        n = normalize(m, lenient=True)
        for e in aggregate(n):
            col = n.cells[:, n.beverages.index(e.beverage_id)]
            vals = col[~np.isnan(col)]
            assert vals.min() - 1e-12 <= e.score <= vals.max() + 1e-12


class TestJudgeStats:
    def test_hand_case(self):
        m = matrix_from_rows([[3.0, 4.0, 5.0]])
        (s,) = judge_stats(m)
        assert s.mean == 4.0
        assert s.sd == 1.0

    def test_constant_row_has_zero_sd(self):
        m = matrix_from_rows([[4.0, 4.0, 4.0]])
        (s,) = judge_stats(m)
        assert (s.mean, s.sd) == (4.0, 0.0)

    def test_insufficient_data_raises(self):
        m = matrix_from_rows([[4.0, nan, nan]])
        with pytest.raises(InsufficientDataError):
            judge_stats(m)
        assert judge_stats(m, lenient=True) == []


class TestAgreement:
    def test_unit_diagonal(self):
        m = matrix_from_rows([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        a = agreement(m)
        assert a.values[0, 0] == 1.0 and a.values[1, 1] == 1.0

    def test_reversed_rankings_give_minus_one(self):
        m = matrix_from_rows([[1.0, 2.0, 3.0, 4.0, 5.0], [5.0, 4.0, 3.0, 2.0, 1.0]])
        assert agreement(m).values[0, 1] == pytest.approx(-1.0)

    def test_one_swap_gives_point_nine(self):
        m = matrix_from_rows([[1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 5.0, 4.0]])
        assert agreement(m).values[0, 1] == pytest.approx(0.9, abs=1e-12)

    def test_matches_independent_formula_with_ties(self, rng):
        for _ in range(20):
            x = [int(v) / 10 for v in rng.integers(10, 51, size=9)]
            y = [int(v) / 10 for v in rng.integers(10, 51, size=9)]
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            m = matrix_from_rows([x, y])
            assert agreement(m).values[0, 1] == pytest.approx(
                oracle_spearman(x, y), abs=1e-12
            )

    def test_too_few_common_beverages_undefined(self):
        m = matrix_from_rows([[1.0, 2.0, nan, nan], [nan, nan, 3.0, 4.0]])
        assert np.isnan(agreement(m).values[0, 1])

    def test_symmetric_and_permutation_invariant(self, rng):
        ds = random_dataset(rng, n_judges=4, n_beverages=9)
        m = build_score_matrix(ds)
        a = agreement(m)
        assert np.allclose(a.values, a.values.T, equal_nan=True)
        perm = rng.permutation(len(m.beverages))
        shuffled = ScoreMatrix(m.judges, [m.beverages[i] for i in perm], m.cells[:, perm])
        assert np.allclose(agreement(shuffled).values, a.values, equal_nan=True)

    def test_kendall_flag(self):
        m = matrix_from_rows([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]])
        assert agreement(m, method="kendall").values[0, 1] == pytest.approx(1.0)


def random_tied_matrix(rng, n_judges, n_beverages, missing_rate):
    """Scores on a narrow stretch of the 0.1 grid (many ties), with missing
    cells and now and then a judge who gives one score to everything."""
    lo = int(rng.integers(10, 46))
    cells = rng.integers(lo, lo + int(rng.integers(1, 6)), size=(n_judges, n_beverages)) / 10
    if rng.random() < 0.2:
        cells[int(rng.integers(n_judges))] = lo / 10
    cells[rng.random(cells.shape) < missing_rate] = nan
    return matrix_from_rows(cells)


def festival_matrix(rng, n_judges, n_beverages):
    """Many judges who each score 1 to 5 of a few beverages, with ties."""
    cells = random_tied_matrix(rng, n_judges, n_beverages, 0.0).cells
    return matrix_from_rows(keep_cells(rng, cells, rng.integers(1, 6, size=n_judges)))


def mixed_matrix(rng, n_judges, n_beverages):
    """Judges who scored every beverage next to judges with missing cells,
    so the correlation matrix and the pair tables fill one matrix."""
    cells = random_tied_matrix(rng, n_judges, n_beverages, 0.0).cells
    cells[(rng.random((n_judges, 1)) < 0.5) & (rng.random(cells.shape) < 0.4)] = nan
    return matrix_from_rows(cells)


ORACLES = {"spearman": oracle_spearman, "kendall": oracle_kendall_tau_b}


def expected_pair(m, i, j, method):
    """The oracle's value for judges i, j over their common beverages, NaN
    where agreement is undefined."""
    common = ~np.isnan(m.cells[i]) & ~np.isnan(m.cells[j])
    x, y = m.cells[i, common].tolist(), m.cells[j, common].tolist()
    if len(x) < MIN_COMMON_BEVERAGES or len(set(x)) < 2 or len(set(y)) < 2:
        return nan
    return ORACLES[method](x, y)


class TestAgreementKernels:
    """Exactness of the level-count kernels: independent oracles, values
    frozen from scipy.stats, and no warnings on undefined pairs."""

    # computed with scipy 1.17.1 spearmanr / kendalltau on MIXED_ROWS
    MIXED_ROWS = [
        [3.8, 4.2, 2.9, 4.2, 3.1, 4.8, 2.9, 3.5, 4.0, 1.7],
        [3.5, 4.0, 3.0, 4.4, 3.0, 4.6, 3.2, 3.9, 4.0, 2.2],
        [4.1, nan, 2.5, 3.9, nan, 5.0, 2.5, 3.3, 3.3, nan],
    ]
    FROZEN = {
        "spearman": {(0, 1): 0.9509202453987731, (0, 2): 0.8624216160156493,
                     (1, 2): 0.7637626158259735},
        "kendall": {(0, 1): 0.8604651162790699, (0, 2): 0.7694837640638654,
                    (1, 2): 0.6508140266182865},
    }

    @pytest.mark.parametrize("method", ["spearman", "kendall"])
    def test_frozen_scipy_values(self, method):
        a = agreement(matrix_from_rows(self.MIXED_ROWS), method=method)
        for (i, j), value in self.FROZEN[method].items():
            assert a.values[i, j] == value
            assert a.values[j, i] == value

    def test_full_rows_take_scipy_division_order(self):
        # spearmanr(x, y) divides by the y deviation first; here that is
        # one ulp away from dividing by the x deviation first
        m = matrix_from_rows([
            [4.0, 3.5, 4.5, 5.0, 2.0, 3.3, 1.5, 1.4, 3.7, 1.1, 3.9],
            [4.3, 1.6, 3.7, 2.6, 4.6, 4.7, 3.3, 3.3, 3.9, 3.3, 4.0],
        ])
        a = agreement(m)
        assert a.values[0, 1] == a.values[1, 0] == 0.04587349021359835

    @pytest.mark.parametrize("method", ["spearman", "kendall"])
    def test_matches_oracle_on_tied_matrices_with_missing_cells(self, rng, method):
        for _ in range(40):
            m = random_tied_matrix(
                rng, int(rng.integers(2, 6)), int(rng.integers(1, 16)), rng.uniform(0.0, 0.4)
            )
            got = agreement(m, method=method).values
            for i in range(len(m.judges)):
                for j in range(i + 1, len(m.judges)):
                    expected = expected_pair(m, i, j, method)
                    if np.isnan(expected):
                        assert np.isnan(got[i, j]) and np.isnan(got[j, i])
                    else:
                        assert got[i, j] == got[j, i] == pytest.approx(expected, abs=1e-12)

    @staticmethod
    def count_tables(monkeypatch):
        """Wrap both table kernels: the returned list gets the number of
        pair tables each call receives."""
        received = []
        for name in ("_spearman_rho", "_kendall_tau_b"):
            kernel = getattr(scoring, name)
            monkeypatch.setattr(scoring, name, lambda tables, kernel=kernel: received.append(len(tables)) or kernel(tables))
        return received

    def test_chunked_kendall_tables_give_the_same_values(self, rng, monkeypatch):
        # many levels per judge (off the 0.1 grid), and a table budget that
        # splits each judge's later judges over bincount calls of three
        # pairs; both methods share the tables
        cells = rng.integers(0, 60, size=(9, 40)) / 7.0
        cells[rng.random(cells.shape) < 0.2] = nan
        m = matrix_from_rows(cells)
        whole = {method: agreement(m, method=method).values for method in ORACLES}
        levels = max(np.unique(row[~np.isnan(row)]).size for row in cells)
        monkeypatch.setattr(scoring, "_PAIR_TABLE_CELLS", 3 * (levels * levels + 40))
        received = self.count_tables(monkeypatch)
        for method, values in whole.items():
            assert np.array_equal(agreement(m, method=method).values, values, equal_nan=True)
            for i in range(9):
                for j in range(i + 1, 9):
                    assert values[i, j] == pytest.approx(expected_pair(m, i, j, method), abs=1e-12, nan_ok=True)
        assert sum(received) == 2 * 36 and max(received) == 3

    def test_bit_identical_to_scipy_per_pair(self, rng):
        stats = pytest.importorskip("scipy.stats")
        matrices = [
            random_tied_matrix(
                rng, int(rng.integers(2, 7)), int(rng.integers(3, 40)),
                rng.choice([0.0, rng.uniform(0.0, 0.4)]),
            )
            for _ in range(60)
        ]
        matrices += [festival_matrix(rng, 40, int(rng.integers(5, 10))) for _ in range(3)]
        matrices += [mixed_matrix(rng, int(rng.integers(4, 10)), int(rng.integers(3, 20))) for _ in range(10)]
        for m in matrices:
            filled = ~np.isnan(m.cells)
            for method, reference in (("spearman", stats.spearmanr), ("kendall", stats.kendalltau)):
                got = agreement(m, method=method).values
                for i in range(len(m.judges)):
                    for j in range(i + 1, len(m.judges)):
                        common = filled[i] & filled[j]
                        if common.sum() < MIN_COMMON_BEVERAGES:
                            assert np.isnan(got[i, j])
                            continue
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore")  # constant input
                            expected = reference(m.cells[i, common], m.cells[j, common])[0]
                        assert np.array_equal(got[i, j], expected, equal_nan=True)
                        assert np.array_equal(got[j, i], expected, equal_nan=True)

    def test_tables_only_for_pairs_with_enough_common_cells(self, rng, monkeypatch, tmp_path):
        received = self.count_tables(monkeypatch)
        cards, pool = festival_files(tmp_path, 300, 12, 5)
        matrices = [build_score_matrix(load_dataset(str(pool), str(cards)))]
        matrices += [festival_matrix(rng, 60, int(rng.integers(5, 12))) for _ in range(5)]
        matrices += [mixed_matrix(rng, int(rng.integers(2, 20)), int(rng.integers(1, 30))) for _ in range(20)]
        for m in matrices:
            filled = ~np.isnan(m.cells)
            common = filled.astype(int) @ filled.T.astype(int)
            pairs = int(np.triu(common >= MIN_COMMON_BEVERAGES, 1).sum())
            # judges who scored every beverage and not all alike take corrcoef
            dense = sum(row.all() and len(set(m.cells[i].tolist())) > 1 for i, row in enumerate(filled))
            dense_pairs = dense * (dense - 1) // 2 if len(m.beverages) >= MIN_COMMON_BEVERAGES else 0
            for method, skipped in (("kendall", 0), ("spearman", dense_pairs)):
                received.clear()
                agreement(m, method=method)
                assert sum(received) == pairs - skipped
        received.clear()
        agreement(matrix_from_rows(rng.integers(10, 51, size=(100, 1440)) / 10))  # the stress shape
        assert received == []

    @pytest.mark.parametrize("method", ["spearman", "kendall"])
    @pytest.mark.parametrize(
        "rows",
        [
            [[3.0, 3.0, 3.0, 3.0], [1.0, 2.0, 3.0, 4.0]],
            [[1.0, 2.0, 3.0, nan], [nan, 2.0, 1.0, 4.0]],
            [[nan, nan, nan, nan], [1.0, 2.0, 3.0, 4.0]],
            [[1.0], [2.0]],
        ],
        ids=["constant-judge", "two-common", "all-nan-row", "one-column"],
    )
    def test_undefined_pairs_are_nan_without_warnings(self, method, rows):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = agreement(matrix_from_rows(rows), method=method).values
        assert values[0, 0] == values[1, 1] == 1.0
        assert np.isnan(values[0, 1]) and np.isnan(values[1, 0])


class TestPerStyleDistribution:
    def test_grouping_and_order(self, tiny_dataset):
        m = build_score_matrix(tiny_dataset)
        n = normalize(m)
        groups = per_style_distribution(aggregate(n), tiny_dataset, FAMILY_ORDER)
        assert len(groups["Stout & porter"]) == 2
        assert groups["Stout & porter"] == sorted(groups["Stout & porter"], reverse=True)
        assert groups["Gose"] == []
        assert len(groups["Saison & farmhouse"]) == 1

    def test_stouts_rank_first_in_fixture(self, tiny_dataset):
        # cross-checked with an independent group-by over the oracle pipeline
        m = build_score_matrix(tiny_dataset)
        o_agg = oracle_aggregate(oracle_normalize(judge_rows(m)))
        fam = {b.id: b.style_family for b in tiny_dataset.beverages}
        fam_means = {}
        for b, v in o_agg.items():
            fam_means.setdefault(fam[b], []).append(v)
        fam_means = {f: sum(v) / len(v) for f, v in fam_means.items()}
        assert max(fam_means, key=fam_means.get) == "Stout & porter"

        groups = per_style_distribution(aggregate(normalize(m)), tiny_dataset, FAMILY_ORDER)
        means = {f: sum(v) / len(v) for f, v in groups.items() if v}
        assert max(means, key=means.get) == "Stout & porter"


class TestDivisiveness:
    def test_hand_values(self):
        m = matrix_from_rows([[4.0, 1.0], [4.1, 5.0], [2.5, nan]])
        entries = divisiveness(m)
        by_id = {e.beverage_id: e for e in entries}
        assert by_id["b0"].sd == pytest.approx(0.8963, abs=5e-4)
        assert by_id["b0"].sd == pytest.approx(oracle_sample_sd([4.0, 4.1, 2.5]), abs=1e-12)
        assert by_id["b1"].sd == pytest.approx(2.8284, abs=5e-4)
        assert entries[0].beverage_id == "b1"  # max spread ranks first
        assert by_id["b1"].score_range == pytest.approx(4.0)

    def test_identical_scores_rank_last(self):
        m = matrix_from_rows([[4.0, 3.0], [4.0, 5.0]])
        entries = divisiveness(m)
        assert entries[-1].beverage_id == "b0"
        assert entries[-1].sd == 0.0

    def test_permutation_invariant(self, rng):
        ds = random_dataset(rng, n_judges=3, n_beverages=8)
        m = build_score_matrix(ds)
        base = divisiveness(m)
        perm = rng.permutation(len(m.beverages))
        shuffled = ScoreMatrix(m.judges, [m.beverages[i] for i in perm], m.cells[:, perm])
        assert divisiveness(shuffled) == base


class TestTagReport:
    def test_empty_without_tags(self):
        ds = dataset_of([Beverage("b", "P", "B", "IPA", "Pale ale & IPA", 5.0)],
                        [("A", "b", 3.0), ("B", "b", 4.0)], ["A", "B"])
        assert tag_report(ds) == []

    def test_real_vs_artificial_flag(self, tiny_dataset):
        report = tag_report(tiny_dataset)
        by_family = {t.family: t for t in report}
        sour = by_family["Sour & wild ale"]
        assert sour.real_mean == pytest.approx(4.8)
        assert sour.artificial_mean == pytest.approx(2.9)
        assert sour.comparable
        assert sour.real_at_least_artificial is True

    def test_equal_means_flag_true(self):
        ds = dataset_of([Beverage("b", "P", "B", "Sour", "Sour & wild ale", 5.0)], [
            Row("A", "b", 4.0, note_tags=frozenset({NoteTag.REAL_FLAVOUR})),
            Row("B", "b", 4.0, note_tags=frozenset({NoteTag.ARTIFICIAL_FLAVOUR})),
        ], ["A", "B"])
        (row,) = tag_report(ds)
        assert row.real_at_least_artificial is True

    def test_one_sided_family_not_comparable(self):
        ds = dataset_of([Beverage("b", "P", "B", "Gose", "Gose", 4.5)], [
            Row("A", "b", 4.0, note_tags=frozenset({NoteTag.REAL_FLAVOUR})),
            Row("B", "b", 3.0),
        ], ["A", "B"])
        (row,) = tag_report(ds)
        assert not row.comparable
        assert row.real_at_least_artificial is None
        assert row.artificial_mean is None


class TestSmallInstanceOracle:
    def test_normalize_aggregate_matches_brute_force(self, rng):
        for _ in range(50):
            ds = random_dataset(
                rng,
                n_judges=int(rng.integers(2, 6)),
                n_beverages=int(rng.integers(2, 9)),
                missing_rate=0.25,
            )
            m = build_score_matrix(ds)
            try:
                expected = oracle_aggregate(oracle_normalize(judge_rows(m)))
            except ValueError:
                with pytest.raises(DegenerateRowError):
                    normalize(m)
                continue
            got = {e.beverage_id: e.score for e in aggregate(normalize(m))}
            assert got.keys() == expected.keys()
            for b in expected:
                assert got[b] == pytest.approx(expected[b], abs=1e-12)

        # many judges: every fill count, empty, single-score and flat rows
        m = many_judge_matrix(rng)
        for method in ("minmax", "zscore"):
            for lenient in (False, True):
                try:
                    expected = oracle_normalize(judge_rows(m), lenient, method)
                except ValueError as exc:
                    with pytest.raises(DegenerateRowError) as err:
                        normalize(m, lenient, method)
                    assert err.value.judges == exc.args[0]
                    continue
                got = normalize(m, lenient, method)
                assert judge_rows(got).keys() == expected.keys()
                for judge, row in judge_rows(got).items():
                    assert row == pytest.approx(expected[judge], abs=1e-12)
