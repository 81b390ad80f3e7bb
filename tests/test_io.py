import json

import numpy as np
import pytest

from beerfed import model
from beerfed.errors import ConfigurationError, IngestError
from beerfed.io import (
    build_dataset,
    load_dataset,
    load_session_config,
    parse_beverages_csv,
    parse_profiles_json,
    parse_scorecards_csv,
    write_beverages_csv,
    write_scorecards_csv,
)
from beerfed.model import AbvBand, Dataset, NoteTag, Review, validate_dataset
from beerfed.scoring import build_score_matrix, tag_report
from oracles import (
    oracle_load_dataset,
    oracle_scorecards_csv,
    oracle_score_matrix,
    oracle_tag_report,
    oracle_validate_dataset,
)

BEVERAGES = """brewery,beer_name,beer_style,abv_percent
Brewery52,Mango Sour,Fruited Sour,4.5
The Works,Night Shift,Imperial Stout,11.5
The Works,Morning Shift,Session IPA,3.4
"""

SCORECARDS = """judge_id,beer_name,raw_score,tags,note
A,Mango Sour,4.8,,smells like a real mango
A,Night Shift,4.5,,
A,Morning Shift,3.1,,
B,Mango Sour,2.9,artificial_flavour,too artificial
B,Night Shift,4.9,,
B,Morning Shift,3.0,,
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestIngestBeverages:
    def test_example_row_buckets_and_bands(self, tmp_path):
        beverages = parse_beverages_csv(write(tmp_path, "b.csv", BEVERAGES))
        sour = beverages[0]
        assert sour.producer == "Brewery52"
        assert sour.style_family == "Sour & wild ale"
        assert sour.abv_band is AbvBand.LOW
        assert beverages[1].abv_band is AbvBand.VERY_HIGH

    def test_header_order_insensitive(self, tmp_path):
        text = "abv_percent,beer_style,brewery,beer_name\n5.0,Pilsner,P,Quiet Field\n"
        (bev,) = parse_beverages_csv(write(tmp_path, "b.csv", text))
        assert bev.name == "Quiet Field"
        assert bev.style_family == "Lager & pils"

    def test_bad_abv_names_row_and_column(self, tmp_path):
        text = BEVERAGES.replace("4.5", "abc")
        with pytest.raises(IngestError) as exc:
            parse_beverages_csv(write(tmp_path, "b.csv", text))
        assert exc.value.row == 2
        assert exc.value.column == "abv_percent"

    def test_empty_file_with_header_is_empty_fragment(self, tmp_path):
        path = write(tmp_path, "b.csv", "brewery,beer_name,beer_style,abv_percent\n")
        assert parse_beverages_csv(path) == []

    def test_headerless_file_rejected(self, tmp_path):
        with pytest.raises(IngestError):
            parse_beverages_csv(write(tmp_path, "b.csv", ""))

    def test_unknown_column_rejected(self, tmp_path):
        text = "brewery,beer_name,beer_style,abv_percent,color\nP,X,IPA,5.0,amber\n"
        with pytest.raises(IngestError):
            parse_beverages_csv(write(tmp_path, "b.csv", text))

    def test_duplicate_brewery_name_pair_rejected(self, tmp_path):
        text = BEVERAGES + "Brewery52,Mango Sour,Gose,4.0\n"
        with pytest.raises(IngestError) as exc:
            parse_beverages_csv(write(tmp_path, "b.csv", text))
        assert exc.value.row == 5

    def test_ingredients_and_tags_columns(self, tmp_path):
        text = (
            "brewery,beer_name,beer_style,abv_percent,ingredients,tags\n"
            "P,Pure One,Helles Lager,4.8,water;yeast;malt;hops,\n"
            "P,Tagged One,Fruited Sour,4.0,,real_flavour\n"
        )
        beverages = parse_beverages_csv(write(tmp_path, "b.csv", text))
        assert beverages[0].ingredients == {"water", "yeast", "malt", "hops"}
        assert beverages[1].ingredients is None
        assert beverages[1].note_tags == {NoteTag.REAL_FLAVOUR}

    def test_unknown_tag_rejected(self, tmp_path):
        text = (
            "brewery,beer_name,beer_style,abv_percent,tags\n"
            "P,X,IPA,5.0,synthetic_flavour\n"
        )
        with pytest.raises(IngestError) as exc:
            parse_beverages_csv(write(tmp_path, "b.csv", text))
        assert exc.value.column == "tags"

    def test_abv_zero_rejected(self, tmp_path):
        text = "brewery,beer_name,beer_style,abv_percent\nP,X,IPA,0.0\n"
        with pytest.raises(IngestError):
            parse_beverages_csv(write(tmp_path, "b.csv", text))


class TestScorecards:
    def test_parse_rows(self, tmp_path):
        rows, _ = parse_scorecards_csv(write(tmp_path, "s.csv", SCORECARDS))
        assert len(rows) == 6
        assert rows[0].raw_score == 4.8
        assert rows[3].note_tags == {NoteTag.ARTIFICIAL_FLAVOUR}

    def test_two_decimal_score_rejected(self, tmp_path):
        text = "judge_id,beer_name,raw_score\nA,X,4.25\n"
        with pytest.raises(IngestError) as exc:
            parse_scorecards_csv(write(tmp_path, "s.csv", text))
        assert exc.value.column == "raw_score"

    def test_out_of_range_score_rejected(self, tmp_path):
        text = "judge_id,beer_name,raw_score\nA,X,5.1\n"
        with pytest.raises(IngestError):
            parse_scorecards_csv(write(tmp_path, "s.csv", text))

    @pytest.mark.parametrize(
        "bad_row,column",
        [
            ("B,Night Shift,4.25,,", "raw_score"),
            ("B,Night Shift,5.5,,", "raw_score"),
            ("B,  ,4.0,,", "beer_name"),
            ("B,Night Shift,4.0,fake_tag,", "tags"),
        ],
    )
    def test_repeated_bad_cell_names_its_first_row(self, tmp_path, bad_row, column):
        # rows 2-3 are good, the bad cell first appears on line 4 and again on line 6
        text = "\n".join(
            ["judge_id,beer_name,raw_score,tags,note", "A,Night Shift,4.0,,", "A,Mango Sour,4.0,,",
             bad_row, "A,Morning Shift,4.0,,", bad_row, ""]
        )
        with pytest.raises(IngestError) as exc:
            parse_scorecards_csv(write(tmp_path, "s.csv", text))
        assert (exc.value.row, exc.value.column) == (4, column)

    def test_repeated_cells_parse_like_distinct_ones(self, tmp_path):
        text = ("judge_id,beer_name,raw_score,tags\nA, Night  Shift ,4.0,real_flavour\n , ,\t, \n"
                "B, Night  Shift , 4.0 ,real_flavour\nB,Dark Star,4.0,real_flavour\n")
        table, first_lines = parse_scorecards_csv(write(tmp_path, "s.csv", text))
        # before the join a review names its beverage by display name
        assert [(r.judge_id, r.beverage_id, r.raw_score, r.note_tags, r.note_text) for r in table] == [
            ("A", "Night Shift", 4.0, {NoteTag.REAL_FLAVOUR}, None),
            ("B", "Night Shift", 4.0, {NoteTag.REAL_FLAVOUR}, None),  # the blank line 3 is skipped
            ("B", "Dark Star", 4.0, {NoteTag.REAL_FLAVOUR}, None),
        ]
        assert first_lines == (2, 5)  # lines are physical: the blank line 3 still counts

    def test_note_derives_tags_when_tags_absent(self, tmp_path):
        beverages = parse_beverages_csv(write(tmp_path, "b.csv", BEVERAGES))
        rows = parse_scorecards_csv(write(tmp_path, "s.csv", SCORECARDS))
        dataset = build_dataset(beverages, rows)
        mango_reviews = [r for r in dataset.reviews if r.beverage_id == beverages[0].id]
        assert mango_reviews[0].note_tags == {NoteTag.REAL_FLAVOUR}  # derived
        assert mango_reviews[1].note_tags == {NoteTag.ARTIFICIAL_FLAVOUR}  # explicit


class TestDatasetJoin:
    def test_join_and_validate_clean(self, tmp_path):
        dataset = load_dataset(
            write(tmp_path, "b.csv", BEVERAGES), write(tmp_path, "s.csv", SCORECARDS)
        )
        assert validate_dataset(dataset) == []
        assert dataset.judges == ["A", "B"]

    def test_unknown_name_becomes_dangling_ref(self, tmp_path):
        scorecards = SCORECARDS + "B,Ghost Brew,3.0,,\n"
        dataset = load_dataset(
            write(tmp_path, "b.csv", BEVERAGES), write(tmp_path, "s.csv", scorecards)
        )
        codes = [v.code for v in validate_dataset(dataset)]
        assert "DANGLING_REF" in codes

    def test_join_is_case_and_space_insensitive(self, tmp_path):
        scorecards = SCORECARDS.replace("A,Mango Sour,4.8", "A,  MANGO   sour ,4.8")
        dataset = load_dataset(
            write(tmp_path, "b.csv", BEVERAGES), write(tmp_path, "s.csv", scorecards)
        )
        assert validate_dataset(dataset) == []

    def test_ambiguous_name_rejected(self, tmp_path):
        beverages = BEVERAGES + "Other Brewing,Mango Sour,Gose,4.0\n"
        with pytest.raises(IngestError) as exc:
            load_dataset(
                write(tmp_path, "b.csv", beverages), write(tmp_path, "s.csv", SCORECARDS)
            )
        assert "ambiguous" in str(exc.value)

    def test_ambiguous_name_names_its_first_row(self, tmp_path):
        beverages = BEVERAGES + "Other Brewing,Night Shift,Gose,4.0\n"
        scorecards = "judge_id,beer_name,raw_score\nA,Mango Sour,4.0\nA,night shift,4.0\nB,Night Shift,3.0\n"
        with pytest.raises(IngestError) as exc:
            load_dataset(write(tmp_path, "b.csv", beverages), write(tmp_path, "s.csv", scorecards))
        assert (exc.value.row, exc.value.column) == (3, "beer_name")
        assert exc.value.path == tmp_path / "s.csv"


def review_tuples(dataset):
    return [
        (r.judge_id, r.beverage_id, r.raw_score, {t.value for t in r.note_tags}, r.note_text)
        for r in dataset.reviews
    ]


def random_scorecards(rng):
    """Scorecard text with repeated and differently spelled judges and
    names (some naming no beverage), duplicate pairs, tags and notes in
    any column order, blank rows and sometimes a byte-order mark."""
    cells = {
        "judge_id": ["A", " A", "B ", "C", "dana"],
        "beer_name": ["Mango Sour", "  mango   SOUR ", "Night Shift", "NIGHT SHIFT", "Morning Shift",
                      "Ghost Brew", "ghost  brew"],
        "raw_score": ["1", "1.0", "2.5", " 3.7 ", "4", "4.9", "5.0"],
        "tags": ["", "", "real_flavour", "artificial_flavour;other", " other ", "real_flavour;artificial_flavour"],
        "note": ["", "", "a real treat", "Artificial!", "  ", "plain", "really artificial"],
    }
    columns = ["judge_id", "beer_name", "raw_score"] + [c for c in ("tags", "note") if rng.random() < 0.6]
    columns = [columns[i] for i in rng.permutation(len(columns))]
    lines = [",".join(columns)]
    for _ in range(int(rng.integers(0, 40))):
        if rng.random() < 0.1:
            lines.append(str(rng.choice(["", ",,", "  "])))
        lines.append(",".join(cells[c][int(rng.integers(len(cells[c])))] for c in columns))
    return ("\ufeff" if rng.random() < 0.3 else "") + "\n".join(lines) + "\n"


class TestColumnarIngestOracle:
    """The one-pass table ingest against a row-by-row oracle."""

    def test_random_scorecards_match_row_by_row_ingest(self, tmp_path, rng):
        beverages_path = write(tmp_path, "b.csv", BEVERAGES)
        beverages = parse_beverages_csv(beverages_path)
        ids = [b.id for b in beverages]
        for _ in range(150):
            cards = write(tmp_path, "s.csv", random_scorecards(rng))
            dataset = load_dataset(beverages_path, cards)
            judges, reviews = oracle_load_dataset(beverages, cards)
            assert review_tuples(dataset) == reviews
            assert dataset.judges == judges and len(dataset.reviews) == len(reviews)
            found = [(v.code, v.subject, v.message) for v in validate_dataset(dataset)]
            assert found == oracle_validate_dataset(beverages, judges, reviews)
            expected = oracle_score_matrix(judges, ids, [Review(*r[:3]) for r in reviews])
            assert np.array_equal(build_score_matrix(dataset).cells, np.array(expected).reshape(len(judges), len(ids)), equal_nan=True)
            write_scorecards_csv(dataset, tmp_path / "out.csv")
            assert (tmp_path / "out.csv").read_text(encoding="utf-8") == oracle_scorecards_csv(beverages, reviews)
            means = {t.family: (t.real_mean, t.artificial_mean, t.real_count, t.artificial_count)
                     for t in tag_report(dataset)}
            assert means == {
                family: (*(float(np.mean(s)) if s else None for s in pair), *map(len, pair))
                for family, pair in oracle_tag_report(beverages, reviews).items()
            }

    def test_reviews_view_is_read_only_and_rebuilds_reviews(self, tiny_dataset):
        reviews = tiny_dataset.reviews
        assert len(reviews) == 18 and reviews[-1] == reviews[17] and list(reviews)[:2] == [reviews[0], reviews[1]]
        rebuilt = Dataset(tiny_dataset.beverages, list(reviews), tiny_dataset.judges)
        assert rebuilt.reviews == reviews and rebuilt == tiny_dataset
        assert Dataset(tiny_dataset.beverages, list(reviews)[1:], tiny_dataset.judges) != tiny_dataset
        with pytest.raises(IndexError):
            reviews[18]
        with pytest.raises(ValueError):
            tiny_dataset.reviews.score[0] = 1.0
        assert not hasattr(reviews, "append")


class TestRoundTrips:
    def test_beverages_roundtrip_byte_identical(self, tmp_path):
        src = write(tmp_path, "b.csv", BEVERAGES)
        beverages = parse_beverages_csv(src)
        out = tmp_path / "b_out.csv"
        write_beverages_csv(beverages, out)
        canonical = out.read_text(encoding="utf-8")
        again = tmp_path / "b_again.csv"
        write_beverages_csv(parse_beverages_csv(out), again)
        assert again.read_text(encoding="utf-8") == canonical
        assert canonical == BEVERAGES  # the fixture is already canonical

    def test_scorecards_roundtrip_byte_identical(self, tmp_path):
        dataset = load_dataset(
            write(tmp_path, "b.csv", BEVERAGES), write(tmp_path, "s.csv", SCORECARDS)
        )
        out = tmp_path / "s_out.csv"
        write_scorecards_csv(dataset, out)
        canonical = out.read_text(encoding="utf-8")
        rows = parse_scorecards_csv(out)
        dataset2 = build_dataset(dataset.beverages, rows)
        again = tmp_path / "s_again.csv"
        write_scorecards_csv(dataset2, again)
        assert again.read_text(encoding="utf-8") == canonical


class TestProfilesFile:
    def test_parse(self, tmp_path):
        path = write(
            tmp_path,
            "p.json",
            json.dumps([{"profile_id": "A", "preferences": "malt-driven"}]),
        )
        profiles = parse_profiles_json(path)
        assert profiles[0]["profile_id"] == "A"

    def test_duplicate_id_rejected(self, tmp_path):
        path = write(
            tmp_path, "p.json", json.dumps([{"profile_id": "A"}, {"profile_id": "A"}])
        )
        with pytest.raises(IngestError):
            parse_profiles_json(path)

    def test_non_string_id_rejected(self, tmp_path):
        # 7 and "7" were once the same profile
        path = write(tmp_path, "p.json", json.dumps([{"profile_id": 7}, {"profile_id": "8"}]))
        with pytest.raises(IngestError, match="profile entry 0: profile_id must be a string, got 7"):
            parse_profiles_json(path)


class TestSessionConfigFile:
    def config_body(self, **overrides):
        body = {
            "seed": 9,
            "clock_start": 600,
            "clock_end": 800,
            "round_duration": 10,
            "federation": [
                {"id": "A", "is_expert": True, "leader_probability": 1.0},
                {"id": "D", "availability_probability": 1.0},
            ],
            "pool": [
                {"brewery": "P", "beer_name": "One", "beer_style": "IPA", "abv_percent": 5.0},
                {"brewery": "P", "beer_name": "Two", "beer_style": "Gose", "abv_percent": 4.2},
            ],
        }
        body.update(overrides)
        return body

    @pytest.mark.parametrize("inline", [True, False], ids=["pool", "pool_csv"])
    def test_families_validated_once_per_load(self, tmp_path, monkeypatch, inline):
        calls = []
        validate = model.validate_families
        monkeypatch.setattr(model, "validate_families", lambda families: calls.append(1) or validate(families))
        body = self.config_body()
        if not inline:
            write(tmp_path, "pool.csv", BEVERAGES)
            del body["pool"]
            body["pool_csv"] = "pool.csv"
        config = load_session_config(write(tmp_path, "c.json", json.dumps(body)))
        assert len(config.pool) == (2 if inline else 3) and len(calls) == 1

    def test_inline_pool(self, tmp_path):
        path = write(tmp_path, "c.json", json.dumps(self.config_body()))
        config = load_session_config(path)
        assert [b.name for b in config.pool] == ["One", "Two"]
        assert config.pool[1].style_family == "Gose"

    def test_pool_csv_resolved_relative_to_config(self, tmp_path):
        write(tmp_path, "pool.csv", BEVERAGES)
        body = self.config_body()
        del body["pool"]
        body["pool_csv"] = "pool.csv"
        config = load_session_config(write(tmp_path, "c.json", json.dumps(body)))
        assert len(config.pool) == 3

    def test_bad_probability_sum_rejected(self, tmp_path):
        body = self.config_body()
        body["federation"][0]["leader_probability"] = 0.5
        with pytest.raises(ConfigurationError):
            load_session_config(write(tmp_path, "c.json", json.dumps(body)))

    def test_unknown_key_rejected(self, tmp_path):
        body = self.config_body(rounds_per_hour=4)
        with pytest.raises(ConfigurationError):
            load_session_config(write(tmp_path, "c.json", json.dumps(body)))

    def test_unknown_profile_key_rejected(self, tmp_path):
        body = self.config_body()
        body["federation"][0]["chattiness"] = 1.0
        with pytest.raises(ConfigurationError):
            load_session_config(write(tmp_path, "c.json", json.dumps(body)))

    def test_json_booleans_load(self, tmp_path):
        body = self.config_body(include_amateurs=True)
        body["federation"][1]["is_expert"] = False
        config = load_session_config(write(tmp_path, "c.json", json.dumps(body)))
        assert config.include_amateurs is True
        assert [p.is_expert for p in config.federation] == [True, False]

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_non_boolean_flag_rejected(self, tmp_path, value):
        body = self.config_body()
        body["federation"][1]["is_expert"] = value
        with pytest.raises(ConfigurationError, match="is_expert must be true or false"):
            load_session_config(write(tmp_path, "c.json", json.dumps(body)))
        with pytest.raises(ConfigurationError, match="include_amateurs must be true or false"):
            load_session_config(write(tmp_path, "c.json", json.dumps(self.config_body(include_amateurs=value))))

    def test_pool_and_pool_csv_mutually_exclusive(self, tmp_path):
        body = self.config_body(pool_csv="pool.csv")
        with pytest.raises(ConfigurationError):
            load_session_config(write(tmp_path, "c.json", json.dumps(body)))
