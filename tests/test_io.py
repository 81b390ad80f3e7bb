import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import beerfed.io
from beerfed import model
from beerfed.errors import ConfigurationError, IngestError
from beerfed.io import (
    beverage_id_for,
    build_dataset,
    canonical_json,
    load_dataset,
    load_session_config,
    parse_beverages_csv,
    parse_scorecards_csv,
    write_beverages_csv,
    write_scorecards_csv,
)
from beerfed.model import AbvBand, Beverage, Dataset, NoteTag, Review, derive_note_tags, style_bucketer, validate_dataset
from beerfed.scoring import build_score_matrix, tag_report
from oracles import (
    oracle_load_dataset,
    oracle_parse_scorecards,
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


SCORECARD_STYLES = ("plain", "quote_all", "crlf", "bom")


def random_scorecards(rng, style="plain", faults=0):
    """Scorecard text with repeated and differently spelled judges and
    names (some naming no beverage), duplicate pairs, tags and notes (some
    holding commas, quotes or line breaks) in any column order, and blank
    rows. ``style`` writes it through ``csv.writer``: "plain" (cells quoted
    only where needed, LF lines, sometimes a byte-order mark), "quote_all"
    (every cell quoted), "crlf" (CRLF lines) or "bom" (always a byte-order
    mark). Each of ``faults`` rows gets a bad score, a blank judge or
    name, a name with a bare carriage return (which csv.writer leaves
    unquoted), an unknown tag, or a missing or extra cell."""
    cells = {
        "judge_id": ["A", " A", "B ", "C", "dana"],
        "beer_name": ["Mango Sour", "  mango   SOUR ", "Night Shift", "NIGHT SHIFT", "Morning Shift",
                      "Ghost Brew", "ghost  brew"],
        "raw_score": ["1", "1.0", "2.5", " 3.7 ", "4", "4.9", "5.0"],
        "tags": ["", "", "real_flavour", "artificial_flavour;other", " other ", "real_flavour;artificial_flavour"],
        "note": ["", "", "a real treat", "Artificial!", "  ", "plain", "really artificial",
                 'tart, "real" mango', "two\nlines", "crlf\r\nreal"],
    }
    columns = ["judge_id", "beer_name", "raw_score"] + [c for c in ("tags", "note") if rng.random() < 0.6]
    columns = [columns[i] for i in rng.permutation(len(columns))]
    rows, data = [columns], []
    for _ in range(int(rng.integers(0, 40))):
        if rng.random() < 0.1:
            rows.append([[], ["  "], [""] * len(columns), [" ", "\t"] + [""] * (len(columns) - 2)][int(rng.integers(4))])
        data.append([cells[c][int(rng.integers(len(cells[c])))] for c in columns])
        rows.append(data[-1])
    bad = {"raw_score": ["4.25", "0.9", "five", " "], "judge_id": ["", "  "], "beer_name": [" ", "bare\rreturn"],
           "tags": ["fake_tag", "other;nope"]}
    for _ in range(faults if data else 0):
        row = data[int(rng.integers(len(data)))]
        kinds = [c for c in columns if c in bad] + ["short", "long"]
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "short":
            row.pop()
        elif kind == "long":
            row.append("extra")
        elif columns.index(kind) < len(row):  # the cell is still there
            row[columns.index(kind)] = bad[kind][int(rng.integers(len(bad[kind])))]
    out = io.StringIO()
    quoting = csv.QUOTE_ALL if style == "quote_all" else csv.QUOTE_MINIMAL
    csv.writer(out, lineterminator="\r\n" if style == "crlf" else "\n", quoting=quoting).writerows(rows)
    bom = style == "bom" or (style == "plain" and rng.random() < 0.3)
    return "\ufeff" * bom + out.getvalue()


def ingest_outcome(parse, path):
    """What a scorecard parser makes of a file: the error text, or every
    review with the judge, name and note vocabularies in order, the set of
    tag sets and each name's first line."""
    try:
        table, first_lines = parse(path)
    except IngestError as exc:
        return str(exc)
    return list(table), table.judge_ids, table.beverage_ids, table.note_texts, set(table.tag_sets), first_lines


class TestBlockIngestOracle:
    """The block-and-column scorecard ingest against the row-by-row
    reference, on files written four ways and read in blocks of a line or a
    few lines as well as the real size."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), style=st.sampled_from(SCORECARD_STYLES),
           faults=st.sampled_from([0, 0, 1, 2]), block=st.sampled_from([1, 40, beerfed.io._BLOCK]),
           csv_rows=st.sampled_from([1, 3, beerfed.io._CSV_BLOCK_ROWS]))
    def test_matches_row_by_row_reference(self, tmp_path, seed, style, faults, block, csv_rows):
        path = write(tmp_path, "s.csv", random_scorecards(np.random.default_rng(seed), style, faults))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(beerfed.io, "_BLOCK", block)
            patch.setattr(beerfed.io, "_CSV_BLOCK_ROWS", csv_rows)
            assert ingest_outcome(parse_scorecards_csv, path) == ingest_outcome(oracle_parse_scorecards, path)

    @pytest.mark.parametrize(
        "faults",
        [[], [(20_000, "judge_id")], [(35_000, "raw_score"), (36_000, "short")],
         [(33_000, "short"), (35_000, "raw_score")], [(20_000, "tags"), (20_000, "raw_score")]],
        ids=["clean", "plain-block-fault", "csv-fault-first", "field-count-first", "column-order"],
    )
    def test_multi_block_file_matches_reference(self, tmp_path, faults):
        rows = [["judge_id", "beer_name", "raw_score", "tags"]]
        rows += [[f"J{i % 97}", f"Beverage {i % 1440:04d}", f"{1 + i % 41 / 10:.1f}", ""] for i in range(40_000)]
        rows[15_000] = [" ", "", "", ""]  # the first blank row, in a later plain block
        rows[30_000][1] = 'Beverage "0000"'  # the first quoted cell: csv.reader from here
        for row, kind in faults:
            if kind == "short":
                rows[row].pop()
            else:
                rows[row][rows[0].index(kind)] = {"judge_id": " ", "raw_score": "6.0", "tags": "fake"}[kind]
        path = tmp_path / "s.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        text = path.read_text(encoding="utf-8")
        assert min(text.index('"'), text.index("\n ,,,\n")) > beerfed.io._BLOCK
        assert all(text.index("\n" + ",".join(rows[row]) + "\n") > beerfed.io._BLOCK for row, _ in faults)
        outcome = ingest_outcome(parse_scorecards_csv, path)
        assert outcome == ingest_outcome(oracle_parse_scorecards, path)
        assert isinstance(outcome, str) == bool(faults)

    @staticmethod
    def no_records(*args):
        raise AssertionError("a CRLF block went through csv.reader")

    @pytest.mark.parametrize("block", [40, beerfed.io._BLOCK])
    @pytest.mark.parametrize("fault", [None, "raw_score", "tags"])
    def test_crlf_file_stays_on_the_block_path(self, tmp_path, monkeypatch, fault, block):
        rows = [["judge_id", "beer_name", "raw_score", "tags"]]
        rows += [[f"J{i % 97}", f"Beverage {i % 1440:04d}", f"{1 + i % 41 / 10:.1f}", ""] for i in range(12_000)]
        if fault:
            rows[11_000][rows[0].index(fault)] = {"raw_score": "6.0", "tags": "fake"}[fault]
        path = tmp_path / "s.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\r\n").writerows(rows)
        assert path.stat().st_size > beerfed.io._BLOCK
        expected = ingest_outcome(oracle_parse_scorecards, path)
        monkeypatch.setattr(beerfed.io, "_BLOCK", block)
        monkeypatch.setattr(beerfed.io, "_records", self.no_records)
        outcome = ingest_outcome(parse_scorecards_csv, path)
        assert outcome == expected
        assert isinstance(outcome, str) == bool(fault)


class TestColumnarIngestOracle:
    """The one-pass table ingest against a row-by-row oracle."""

    def test_random_scorecards_match_row_by_row_ingest(self, tmp_path, rng):
        beverages_path = write(tmp_path, "b.csv", BEVERAGES)
        beverages = parse_beverages_csv(beverages_path)
        ids = [b.id for b in beverages]
        for i in range(150):
            cards = write(tmp_path, "s.csv", random_scorecards(rng, SCORECARD_STYLES[i % 4]))
            dataset = load_dataset(beverages_path, cards)
            judges, reviews = oracle_load_dataset(beverages, cards)
            assert review_tuples(dataset) == reviews
            assert dataset.judges == judges and len(dataset.reviews) == len(reviews)
            found = [(v.code, v.subject, v.message) for v in validate_dataset(dataset)]
            assert found == oracle_validate_dataset(beverages, judges, reviews)
            expected = oracle_score_matrix(judges, ids, [Review(*r[:3]) for r in reviews])
            assert np.array_equal(build_score_matrix(dataset).cells, np.array(expected).reshape(len(judges), len(ids)), equal_nan=True)
            write_scorecards_csv(dataset, tmp_path / "out.csv")
            assert (tmp_path / "out.csv").read_bytes().decode("utf-8") == oracle_scorecards_csv(beverages, reviews)
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


TEXT_PIECES = ["Stout", "ale", " ", ",", '"', "\n", "\r\n", "\r", ";", "é", "Ærø", "日本", "🍺", "x"]


def random_text(rng, pieces=TEXT_PIECES):
    return "".join(pieces[int(i)] for i in rng.integers(len(pieces), size=int(rng.integers(1, 8))))


def random_text_dataset(rng):
    """Beverages and reviews already in the form ingest gives them, whose
    producers, names, styles, judges and notes hold commas, quotes, LF and
    CRLF line breaks, bare carriage returns, semicolons and non-ASCII
    text."""
    bucket = style_bucketer(None)
    tags = list(NoteTag)
    beverages = {}
    for i in range(int(rng.integers(1, 8))):
        producer, style = random_text(rng).strip() or "P", random_text(rng).strip()
        name = " ".join(f"{random_text(rng)} {i}".split())
        if name.casefold() not in beverages:  # every name joins one beverage
            ingredients = frozenset(filter(None, (random_text(rng, TEXT_PIECES[:-1]).replace(";", "").strip()
                                                  for _ in range(int(rng.integers(3))))))
            beverages[name.casefold()] = Beverage(
                id=beverage_id_for(producer, name), producer=producer, name=name, raw_style=style,
                style_family=bucket(style).name, abv=float(rng.uniform(0.1, 100.0)), ingredients=ingredients or None,
                note_tags=frozenset(t for t in tags if rng.random() < 0.3),
            )
    beverages = list(beverages.values())
    judges = [j for j in (random_text(rng).strip() for _ in range(3)) if j] or ["J"]
    reviews = []
    for _ in range(int(rng.integers(0, 12))):
        note = random_text(rng).strip() if rng.random() < 0.5 else None
        tagged = frozenset(t for t in tags if rng.random() < 0.3)
        reviews.append(Review(judges[int(rng.integers(len(judges)))], beverages[int(rng.integers(len(beverages)))].id,
                              int(rng.integers(10, 51)) / 10, tagged or derive_note_tags(note), note or None))
    return Dataset(beverages, reviews, sorted({r.judge_id for r in reviews}))


class TestWriterReaderRoundTrip:
    """Written, then read back by the other side: the beverage and
    scorecard writers quote what the readers, csv.reader included, need."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1))
    def test_parse_of_written_dataset_is_the_dataset(self, tmp_path, seed):
        dataset = random_text_dataset(np.random.default_rng(seed))
        write_beverages_csv(dataset.beverages, tmp_path / "b.csv")
        write_scorecards_csv(dataset, tmp_path / "s.csv")
        assert parse_beverages_csv(tmp_path / "b.csv") == dataset.beverages
        assert build_dataset(dataset.beverages, parse_scorecards_csv(tmp_path / "s.csv")) == dataset


JSON_KEYS = st.text(st.sampled_from(['a', 'Z', 'é', '日', '🍺', '"', '\\', '\n', '\x00', '\x1f', '\u2028', ' ']), max_size=4)
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(10**40), 10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e16, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf]),
    JSON_KEYS,
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children, max_size=5) | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(JSON_KEYS, children, max_size=5),
    max_leaves=25,
)


class TestCanonicalJson:
    @settings(max_examples=300, deadline=None)
    @given(value=JSON_VALUES)
    def test_bytes_equal_json_dumps(self, value):
        assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n"

    def test_enum_values_encode_as_json_does(self):
        value = {"tags": [NoteTag.REAL_FLAVOUR, {"band": AbvBand.LOW}], NoteTag.OTHER: 1.5}
        assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        assert '"real_flavour"' in canonical_json(value)

    @pytest.mark.parametrize("value", [object(), {"a": [1, {2, 3}]}, {"a": {"b": object()}}])
    def test_unserializable_value_raises_type_error(self, value):
        with pytest.raises(TypeError, match="not JSON serializable"):
            canonical_json(value)


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
