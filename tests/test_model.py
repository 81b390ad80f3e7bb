import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beerfed.errors import ConfigurationError
from beerfed.model import (
    ABV_BAND_EDGES,
    DEFAULT_STYLE_FAMILIES,
    FALLBACK_FAMILY_NAME,
    AbvBand,
    Beverage,
    Dataset,
    NoteTag,
    ReviewTable,
    StyleFamily,
    Violation,
    classify_abv,
    derive_note_tags,
    load_style_families,
    style_bucketer,
    validate_dataset,
)
from beerfed.scoring import build_score_matrix
from genutil import Row, dataset_of, random_dataset, review_rows, review_table, tenths, with_reviews
from oracles import (
    oracle_bucket,
    oracle_classify_band,
    oracle_dataset_faults,
    oracle_score_matrix,
    oracle_validate_dataset,
)


class TestClassifyAbv:
    @pytest.mark.parametrize(
        "abv,band",
        [
            (0.5, AbvBand.LOW),
            (12.5, AbvBand.VERY_HIGH),
            (4.55, AbvBand.MEDIUM),
            (4.5, AbvBand.LOW),
            (6.5, AbvBand.MEDIUM),
            (6.6, AbvBand.HIGH),
            (9.0, AbvBand.HIGH),
            (9.01, AbvBand.VERY_HIGH),
            (100.0, AbvBand.VERY_HIGH),
        ],
    )
    def test_band_boundaries(self, abv, band):
        assert classify_abv(abv) is band

    @pytest.mark.parametrize("abv", [0.0, -1.0, 100.1, float("nan"), float("inf")])
    def test_domain_errors(self, abv):
        with pytest.raises(ValueError):
            classify_abv(abv)

    @given(st.floats(min_value=0.0, max_value=100.0, exclude_min=True, allow_nan=False))
    def test_total_and_exclusive_on_domain(self, abv):
        band = classify_abv(abv)
        matching = [b for b, lo, hi in ABV_BAND_EDGES if lo < abv <= hi]
        assert matching == [band]
        assert band.value == oracle_classify_band(abv)


class TestBucketStyle:
    def test_ipa_lands_in_pale_ale_family(self):
        assert style_bucketer()("West Coast IPA").name == "Pale ale & IPA"

    def test_unknown_style_falls_back(self):
        assert style_bucketer()("Iron Brew").name == FALLBACK_FAMILY_NAME

    def test_empty_style_falls_back(self):
        assert style_bucketer()("").name == FALLBACK_FAMILY_NAME

    def test_fruited_sour_is_sour_not_fruit(self):
        assert style_bucketer()("Fruited Sour").name == "Sour & wild ale"

    def test_match_is_case_insensitive(self):
        assert style_bucketer()("HAZY ipa").name == "Pale ale & IPA"

    def test_deterministic_given_config(self):
        results = {style_bucketer()("Raspberry Saison").name for _ in range(5)}
        assert results == {"Saison & farmhouse"}

    def test_default_config_shape(self):
        assert len(DEFAULT_STYLE_FAMILIES) == 10
        fallbacks = [f for f in DEFAULT_STYLE_FAMILIES if f.fallback]
        assert len(fallbacks) == 1
        assert fallbacks[0].name == FALLBACK_FAMILY_NAME

    def test_families_without_fallback_rejected(self):
        families = [StyleFamily("Only", ("x",))]
        with pytest.raises(ConfigurationError):
            style_bucketer(families)

    def test_bucketer_matches_per_call_reference(self, rng):
        # a small alphabet with case pairs and a casefold expansion (SS), so
        # patterns overlap, repeat across families and match case-insensitively
        alphabet = list("abAB ß")

        def text(low, high):
            return "".join(rng.choice(alphabet, size=int(rng.integers(low, high))))

        def patterns(most):
            return tuple(p for p in (text(1, 4) for _ in range(int(rng.integers(0, most + 1)))) if p.strip())

        for _ in range(60):
            families = [StyleFamily(f"F{i}", patterns(2)) for i in range(int(rng.integers(1, 6)))]
            families.insert(int(rng.integers(len(families) + 1)),
                            StyleFamily(FALLBACK_FAMILY_NAME, patterns(1), fallback=True))
            bucket = style_bucketer(families)
            styles = [text(0, 7) for _ in range(30)]
            for style in styles + styles[::-1]:  # each distinct style again, from the memo
                assert bucket(style) is oracle_bucket(families, style)

    def test_two_fallbacks_rejected(self):
        families = [
            StyleFamily(FALLBACK_FAMILY_NAME, (), fallback=True),
            StyleFamily("Other", (), fallback=True),
        ]
        with pytest.raises(ConfigurationError):
            style_bucketer(families)


class TestFamilyConfigFile:
    def test_load_roundtrip(self, tmp_path):
        path = tmp_path / "families.json"
        path.write_text(
            '[{"name": "Dark", "patterns": ["stout"]},'
            f' {{"name": "{FALLBACK_FAMILY_NAME}", "patterns": [], "fallback": true}}]'
        )
        families = load_style_families(path)
        assert [f.name for f in families] == ["Dark", FALLBACK_FAMILY_NAME]
        assert style_bucketer(families)("Imperial Stout").name == "Dark"
        assert style_bucketer(families)("Kviek IPA").name == FALLBACK_FAMILY_NAME

    def test_misnamed_fallback_rejected(self, tmp_path):
        path = tmp_path / "families.json"
        path.write_text('[{"name": "Misc", "patterns": [], "fallback": true}]')
        with pytest.raises(ConfigurationError):
            load_style_families(path)

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "families.json"
        path.write_text(
            '[{"name": "X", "patterns": []},'
            ' {"name": "X", "patterns": []},'
            f' {{"name": "{FALLBACK_FAMILY_NAME}", "patterns": [], "fallback": true}}]'
        )
        with pytest.raises(ConfigurationError):
            load_style_families(path)


def one_score(column):
    """The score in points of a one-review table whose score column is ``column``."""
    codes = np.zeros(len(column), np.intp)
    return float(ReviewTable((), (frozenset(),), (None,), codes, codes, codes, codes, column).score[0]) / 10


class TestReviewInvariants:
    """A ReviewTable checks every score, whoever builds it: a uint8 column
    of tenths in [10, 50], so no score can sit off the 0.1 grid."""

    def test_score_range_enforced(self):
        for t in (0, 9, 51, 255):
            with pytest.raises(ValueError, match=rf"^row 0: raw score {t} tenths must lie in \[10, 50\]$"):
                one_score(np.array([t], np.uint8))

    def test_score_grid_enforced(self):
        # a column of points is refused, on the grid or off it
        for column in ([3.85], [3.8]):
            with pytest.raises(ValueError, match=r"^row 0: raw score column is float64, must be uint8 tenths$"):
                one_score(np.array(column))
        assert one_score(np.array([38], np.uint8)) == 3.8

    @pytest.mark.parametrize("score", [3.65, 0.95, 5.1, 0.0, float("nan"), float("inf")])
    def test_off_grid_out_of_range_and_nan_rejected(self, score):
        with pytest.raises(ValueError, match=r"^row 0: raw score column is float64, "):
            one_score(np.array([score]))
        if math.isfinite(score) and round(score * 10) / 10 == score:  # 5.1 and 0.0 have tenths, out of range
            with pytest.raises(ValueError, match=rf"^row 0: raw score {round(score * 10)} tenths must lie in "):
                one_score(tenths([score]))

    def test_grid_scores_accepted_and_near_grid_values_refused(self):
        for t in range(10, 51):
            score = float(f"{t // 10}.{t % 10}")  # as the scorecard parser reads it
            assert one_score(np.array([t], np.uint8)) == score == t / 10
        with pytest.raises(ValueError, match=r"^row 0: raw score column is float64, "):
            one_score(np.array([3.8 + 1e-9]))  # once within the float column's grid tolerance
        with pytest.raises(AssertionError):  # the test helper has no tenths for it either
            tenths([3.8 + 1e-9])

    def test_error_names_the_first_bad_row(self):
        with pytest.raises(ValueError, match=r"^row 2: raw score 55 tenths "):
            review_table([("A", "b", 3.0), ("B", "b", 4.0), ("C", "b", 5.5), ("D", "b", 0.2)], [], "ABCD")

    @pytest.mark.parametrize("column", ["tags", "notes"])
    def test_tag_or_note_code_outside_its_list_fails_loudly(self, column):
        # a tags code 3 with one tag set used to end tag_report in numpy's IndexError, and
        # write_scorecards_csv dropped the column (zip cut its bincount short)
        table = review_table([("A", "b", 3.0), ("A", "b", 4.0)], ["b"], "A")
        for code, fault in ((3, "must lie below 1"), (-1, "is negative")):
            with pytest.raises(ValueError, match=rf"^row 1: {column} code {code} {fault}$"):
                dataclasses.replace(table, **{column: np.array([0, code])})

    @pytest.mark.parametrize("column", ["judge", "beverage", "tags", "notes", "score"])
    def test_columns_of_unequal_length_fail_loudly(self, column):
        # a 2-row judge column beside 3-row others used to build: validate_dataset then raised
        # numpy's broadcast error, build_score_matrix an IndexError, and tag_report returned []
        table = review_table([("A", "b", 3.0), ("A", "b", 4.0), ("B", "b", 5.0)], ["b"], "AB")
        # a cut score column leaves judge, the first column checked, the longer one
        named, rows, scores = (column, 2, 3) if column != "score" else ("judge", 3, 2)
        with pytest.raises(ValueError, match=rf"^{named} column has {rows} rows, score column has {scores}$"):
            dataclasses.replace(table, **{column: getattr(table, column)[:2]})


class TestDeriveNoteTags:
    def test_real_keyword(self):
        assert derive_note_tags("smells like a real mango") == {NoteTag.REAL_FLAVOUR}

    def test_artificial_keyword(self):
        assert derive_note_tags("tastes too artificial") == {NoteTag.ARTIFICIAL_FLAVOUR}

    def test_word_boundary_not_substring(self):
        assert derive_note_tags("really unreal cereal") == {NoteTag.OTHER}

    def test_no_note_no_tags(self):
        assert derive_note_tags(None) == frozenset()
        assert derive_note_tags("   ") == frozenset()


def _codes(violations):
    return [v.code for v in violations]


class TestValidateDataset:
    def test_clean_dataset(self, tiny_dataset):
        assert validate_dataset(tiny_dataset) == []

    def test_single_review_flagged(self, tiny_dataset):
        kept = [r for r in review_rows(tiny_dataset) if not (r.beverage_id == "b5" and r.judge_id != "A")]
        codes = _codes(validate_dataset(with_reviews(tiny_dataset, kept)))
        assert codes == ["MISSING_REVIEWS"]

    def test_duplicate_review_flagged(self, tiny_dataset):
        dataset = with_reviews(tiny_dataset, [*review_rows(tiny_dataset), Row("A", "b0", 4.0)])
        codes = _codes(validate_dataset(dataset))
        assert codes == ["DUP_REVIEW"]

    def test_dangling_references_flagged(self, tiny_dataset):
        extra = [Row("A", "ghost", 3.0), Row("B", "phantom", 3.0)]
        codes = _codes(validate_dataset(with_reviews(tiny_dataset, [*review_rows(tiny_dataset), *extra])))
        assert codes.count("DANGLING_REF") == 2

    def test_code_outside_the_lists_fails_loudly(self, tiny_dataset):
        # a review names a judge or beverage by its place in the dataset's lists: no code may wrap or pass
        # the end, and no list may hold a judge or a beverage id twice; building the Dataset checks both
        dataset = with_reviews(tiny_dataset, [*review_rows(tiny_dataset), Row("A", "ghost", 3.0)])
        table = dataset.reviews
        for column in ("judge", "beverage"):
            with pytest.raises(ValueError, match=rf"^row 5: {column} code -1 is negative$"):
                dataclasses.replace(dataset, reviews=dataclasses.replace(
                    table, **{column: np.where(np.arange(len(table)) == 5, -1, getattr(table, column))}))
        for column, end in (("judge", 3), ("beverage", 7)):  # three judges; six beverages and one unknown name
            with pytest.raises(ValueError, match=rf"^row 5: {column} code {end} must lie below {end}$"):
                dataclasses.replace(dataset, reviews=dataclasses.replace(table, **{column: np.where(
                    np.arange(len(table)) >= 5, end, getattr(table, column))}))
        b = tiny_dataset.beverages[0]
        for judges, repeated in ((["A", "B", "A"], "judge 'A'"), (["A", "B"], "beverage id 'b0'")):
            # [b, b] and A, B, A used to validate as MISSING_REVIEWS b0 alone, and give two rows named A
            with pytest.raises(ValueError, match=rf"^duplicate {repeated}$"):
                dataset_of([b, b], [Row("A", b.id, 3.0), Row("B", b.id, 4.0)], judges)
        assert _codes(validate_dataset(dataset)) == ["DANGLING_REF"]  # the unchanged codes pass
        assert build_score_matrix(dataset).judges == ["A", "B", "C"]

    def test_abv_warning_outside_observed_range(self, tiny_dataset):
        beverages = [
            *tiny_dataset.beverages, Beverage("b9", "Alpha Brewing", "Thin Air", "Pale Ale", "Pale ale & IPA", 0.4)
        ]
        extra = [Row("A", "b9", 3.0), Row("B", "b9", 3.2)]
        violations = validate_dataset(dataset_of(beverages, [*review_rows(tiny_dataset), *extra], tiny_dataset.judges))
        assert _codes(violations) == ["ABV_RANGE_WARN"]
        assert violations[0].severity.value == "warning"

    def test_producer_limit_warning(self, tiny_dataset):
        reviews, beverages = review_rows(tiny_dataset), list(tiny_dataset.beverages)
        for i in range(3):
            bid = f"extra{i}"
            beverages.append(
                Beverage(bid, "Alpha Brewing", f"Extra {i}", "Pilsner", "Lager & pils", 5.0)
            )
            reviews.extend([Row("A", bid, 3.0), Row("B", bid, 3.1)])
        violations = validate_dataset(dataset_of(beverages, reviews, tiny_dataset.judges))
        assert _codes(violations) == ["PRODUCER_LIMIT_WARN"]
        assert violations[0].subject == "Alpha Brewing"

    def test_order_independent_and_idempotent(self, tiny_dataset, rng):
        reviews = [*review_rows(tiny_dataset), Row("A", "ghost", 3.0)]
        beverages = [*tiny_dataset.beverages, Beverage("b9", "Solo Works", "Lone Star", "Gose", "Gose", 20.0)]
        dataset = dataset_of(beverages, reviews, tiny_dataset.judges)
        baseline = validate_dataset(dataset)
        assert baseline == validate_dataset(dataset)
        for _ in range(5):
            rng.shuffle(reviews)
            rng.shuffle(beverages)
            assert validate_dataset(dataset_of(beverages, reviews, tiny_dataset.judges)) == baseline

    def test_matches_per_review_oracle_on_hand_built_datasets(self, rng):
        for _ in range(60):
            ds = random_dataset(rng, int(rng.integers(1, 5)), int(rng.integers(0, 9)), rng.uniform(0.0, 0.6))
            reviews = review_rows(ds)
            for _ in range(int(rng.integers(0, 8))):  # duplicates and unknown beverages
                r = reviews[int(rng.integers(len(reviews)))] if reviews else Row("J0", "ghost", 3.0)
                beverage = r.beverage_id if rng.random() < 0.5 else f"ghost{int(rng.integers(2))}"
                reviews.insert(int(rng.integers(len(reviews) + 1)), Row(r.judge_id, beverage, 2.0))
            found = [(v.code, v.subject, v.message) for v in validate_dataset(with_reviews(ds, reviews))]
            tuples = [(r.judge_id, r.beverage_id) for r in reviews]
            assert found == oracle_validate_dataset(ds.beverages, tuples)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_dataset_refuses_exactly_what_the_oracle_faults(self, data):
        # one part, or none, is drawn loosely: its list may repeat, its codes run from two below to two past it
        loose = data.draw(st.sampled_from([None, "judge", "beverage", "tags", "notes"]))
        judges = data.draw(st.lists(st.sampled_from("ABCD"), max_size=4, unique=loose != "judge"))
        beverages = [Beverage(f"b{i}", f"P{i % 2}", f"Beer {i}", "Gose", "Gose", abv) for i, abv in data.draw(
            st.lists(st.tuples(st.integers(0, 3), st.sampled_from([0.4, 5.0, 13.0])), max_size=5,
                     unique_by=None if loose == "beverage" else (lambda pair: pair[0])))]
        unknown = ("ghost0", "ghost1")[:data.draw(st.integers(0, 2))]
        tag_sets, note_texts = (frozenset(), frozenset({NoteTag.REAL_FLAVOUR})), (None, "real")
        sizes = {"judge": len(judges), "beverage": len(beverages) + len(unknown), "tags": 2, "notes": 2}
        n = data.draw(st.integers(0, 8))
        columns = {name: (data.draw(st.lists(st.integers(-2, size + 1) if name == loose or not size
                                             else st.integers(0, size - 1), min_size=n, max_size=n)), size)
                   for name, size in sizes.items()}
        codes = {name: np.array(column, dtype=np.intp) for name, (column, _) in columns.items()}
        faults = oracle_dataset_faults(judges, [b.id for b in beverages], columns)
        try:
            table = ReviewTable(unknown, tag_sets, note_texts, codes["judge"], codes["beverage"], codes["tags"],
                                codes["notes"], np.full(n, 30, np.uint8))
            dataset = Dataset(beverages, table, judges)
        except ValueError as exc:
            assert str(exc) in faults
            return
        assert not faults
        ids = [*(b.id for b in beverages), *unknown]
        reviews = [Row(judges[j], ids[b], 3.0) for j, b in zip(columns["judge"][0], columns["beverage"][0])]
        found = [(v.code, v.subject, v.message) for v in validate_dataset(dataset)]
        assert found == oracle_validate_dataset(beverages, reviews)
        expected = oracle_score_matrix(judges, ids[:len(beverages)], reviews)
        assert np.array_equal(build_score_matrix(dataset).cells,
                              np.array(expected).reshape(len(judges), len(beverages)), equal_nan=True)

    @pytest.mark.parametrize("abv", [0.0, -1.0, 100.1, float("nan"), float("inf")])
    def test_beverage_takes_only_an_abv_classify_abv_bands(self, abv):
        # abv 0 used to construct, then end the lenient report in classify_abv's ValueError
        with pytest.raises(ValueError, match=r"^beverage 'b': abv must lie in \(0, 100\], got "):
            Beverage("b", "Alpha Brewing", "Zero", "Pale Ale", "Pale ale & IPA", abv)

    def test_violations_sort_deterministically(self):
        a = Violation("DUP_REVIEW", "x", "m")
        b = Violation("ABV_RANGE_WARN", "y", "m")
        assert sorted([a, b]) == [b, a]
