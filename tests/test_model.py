import pytest
from hypothesis import given, strategies as st

from beerfed.errors import ConfigurationError
from beerfed.model import (
    ABV_BAND_EDGES,
    DEFAULT_STYLE_FAMILIES,
    FALLBACK_FAMILY_NAME,
    AbvBand,
    Beverage,
    Dataset,
    NoteTag,
    Review,
    StyleFamily,
    Violation,
    classify_abv,
    derive_note_tags,
    load_style_families,
    style_bucketer,
    validate_dataset,
)
from genutil import random_dataset, with_reviews
from oracles import oracle_bucket, oracle_classify_band, oracle_validate_dataset


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


class TestReviewInvariants:
    def test_score_range_enforced(self):
        with pytest.raises(ValueError):
            Review("A", "b", 0.9)
        with pytest.raises(ValueError):
            Review("A", "b", 5.1)

    def test_score_grid_enforced(self):
        with pytest.raises(ValueError):
            Review("A", "b", 3.85)
        assert Review("A", "b", 3.8).raw_score == 3.8

    @pytest.mark.parametrize("score", [3.65, 0.95, 5.1, 0.0, float("nan"), float("inf")])
    def test_off_grid_out_of_range_and_nan_rejected(self, score):
        with pytest.raises(ValueError):
            Review("A", "b", score)

    def test_grid_scores_and_near_grid_values_accepted(self):
        for t in range(10, 51):
            score = float(f"{t // 10}.{t % 10}")  # as the scorecard parser reads it
            assert Review("A", "b", score).raw_score == score
        assert Review("A", "b", 3.8 + 1e-9).raw_score == 3.8 + 1e-9  # within the grid tolerance


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
        kept = [r for r in tiny_dataset.reviews if not (r.beverage_id == "b5" and r.judge_id != "A")]
        codes = _codes(validate_dataset(with_reviews(tiny_dataset, kept)))
        assert codes == ["MISSING_REVIEWS"]

    def test_duplicate_review_flagged(self, tiny_dataset):
        dataset = with_reviews(tiny_dataset, [*tiny_dataset.reviews, Review("A", "b0", 4.0)])
        codes = _codes(validate_dataset(dataset))
        assert codes == ["DUP_REVIEW"]

    def test_dangling_references_flagged(self, tiny_dataset):
        extra = [Review("A", "ghost", 3.0), Review("Z", "b0", 3.0)]
        codes = _codes(validate_dataset(with_reviews(tiny_dataset, [*tiny_dataset.reviews, *extra])))
        assert codes.count("DANGLING_REF") == 2

    def test_abv_warning_outside_observed_range(self, tiny_dataset):
        tiny_dataset.beverages.append(
            Beverage("b9", "Alpha Brewing", "Thin Air", "Pale Ale", "Pale ale & IPA", 0.4)
        )
        extra = [Review("A", "b9", 3.0), Review("B", "b9", 3.2)]
        violations = validate_dataset(with_reviews(tiny_dataset, [*tiny_dataset.reviews, *extra]))
        assert _codes(violations) == ["ABV_RANGE_WARN"]
        assert violations[0].severity.value == "warning"

    def test_producer_limit_warning(self, tiny_dataset):
        reviews = list(tiny_dataset.reviews)
        for i in range(3):
            bid = f"extra{i}"
            tiny_dataset.beverages.append(
                Beverage(bid, "Alpha Brewing", f"Extra {i}", "Pilsner", "Lager & pils", 5.0)
            )
            reviews.extend([Review("A", bid, 3.0), Review("B", bid, 3.1)])
        violations = validate_dataset(with_reviews(tiny_dataset, reviews))
        assert _codes(violations) == ["PRODUCER_LIMIT_WARN"]
        assert violations[0].subject == "Alpha Brewing"

    def test_order_independent_and_idempotent(self, tiny_dataset, rng):
        reviews = [*tiny_dataset.reviews, Review("A", "ghost", 3.0)]
        tiny_dataset.beverages.append(
            Beverage("b9", "Solo Works", "Lone Star", "Gose", "Gose", 20.0)
        )
        dataset = with_reviews(tiny_dataset, reviews)
        baseline = validate_dataset(dataset)
        assert baseline == validate_dataset(dataset)
        for _ in range(5):
            rng.shuffle(reviews)
            rng.shuffle(tiny_dataset.beverages)
            assert validate_dataset(with_reviews(tiny_dataset, reviews)) == baseline

    def test_matches_per_review_oracle_on_hand_built_datasets(self, rng):
        for _ in range(60):
            ds = random_dataset(rng, int(rng.integers(1, 5)), int(rng.integers(0, 9)), rng.uniform(0.0, 0.6))
            reviews = list(ds.reviews)
            for _ in range(int(rng.integers(0, 8))):  # duplicates, unknown judges and beverages
                r = reviews[int(rng.integers(len(reviews)))] if reviews else Review("J0", "ghost", 3.0)
                judge = r.judge_id if rng.random() < 0.5 else f"stranger{int(rng.integers(2))}"
                beverage = r.beverage_id if rng.random() < 0.5 else f"ghost{int(rng.integers(2))}"
                reviews.insert(int(rng.integers(len(reviews) + 1)), Review(judge, beverage, 2.0))
            judges = [j for j in ds.judges if rng.random() < 0.8]  # judges with reviews left off the list
            found = [(v.code, v.subject, v.message) for v in validate_dataset(Dataset(ds.beverages, reviews, judges))]
            tuples = [(r.judge_id, r.beverage_id) for r in reviews]
            assert found == oracle_validate_dataset(ds.beverages, judges, tuples)

    def test_violations_sort_deterministically(self):
        a = Violation("DUP_REVIEW", "x", "m")
        b = Violation("ABV_RANGE_WARN", "y", "m")
        assert sorted([a, b]) == [b, a]
