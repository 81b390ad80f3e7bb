import json

import pytest

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
from beerfed.model import AbvBand, NoteTag, validate_dataset

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
        rows = parse_scorecards_csv(write(tmp_path, "s.csv", SCORECARDS))
        assert len(rows) == 6
        assert rows[0].raw_score == 4.8
        assert rows[3].tags == {NoteTag.ARTIFICIAL_FLAVOUR}

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
        text = "judge_id,beer_name,raw_score,tags\nA, Night  Shift ,4.0,real_flavour\n , ,\t, \nB, Night  Shift , 4.0 ,real_flavour\n"
        rows = parse_scorecards_csv(write(tmp_path, "s.csv", text))
        assert [(r.judge_id, r.beer_name, r.raw_score, r.tags, r.note, r.line) for r in rows] == [
            ("A", "Night Shift", 4.0, {NoteTag.REAL_FLAVOUR}, None, 2),
            ("B", "Night Shift", 4.0, {NoteTag.REAL_FLAVOUR}, None, 4),  # the blank line 3 is skipped
        ]

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
