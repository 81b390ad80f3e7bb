import csv
import dataclasses
import io
import json
import math
import os
import re
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import beerfed.canonical
import beerfed.io
from beerfed import cli, model
from beerfed.errors import ConfigurationError, IngestError
from beerfed.io import (
    BEVERAGE_COLUMNS,
    canonical_json,
    load_dataset,
    load_session_config,
    parse_beverages_csv,
    parse_scorecards_csv,
    write_beverages_csv,
    write_scorecards_csv,
)
from beerfed.model import (AbvBand, Beverage, NoteTag, classify_abv, derive_note_tags, style_bucketer,
                           validate_dataset)
from beerfed.scoring import build_score_matrix, tag_report
from genutil import HOSTILE_CELLS, Row, dataset_content, dataset_of, review_rows
from oracles import (
    _oracle_csv,
    oracle_beverage_id,
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
        assert classify_abv(sour.abv) is AbvBand.LOW
        assert classify_abv(beverages[1].abv) is AbvBand.VERY_HIGH

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


class TestScoreTenths:
    """A score cell becomes its tenths without loss, and each of the 41
    tenths has one text, the one both writers take from ``io._GRID``."""

    @settings(max_examples=500, deadline=None)
    @given(zeros=st.integers(0, 30), whole=st.integers(0, 9), tenth=st.none() | st.integers(0, 9),
           pad=st.sampled_from(["", " ", "\t "]))
    def test_every_accepted_text_parses_to_its_tenths(self, zeros, whole, tenth, pad):
        text = "0" * zeros + str(whole) + ("" if tenth is None else f".{tenth}")
        assert beerfed.io._SCORE_RE.match(text)  # leading zeros and no-decimal forms included
        if 1 <= float(text) <= 5:
            t = beerfed.io._parse_score(pad + text + pad, 2)
            assert type(t) is int and 10 <= t <= 50 and t / 10 == float(text)
        else:
            with pytest.raises(IngestError, match=r"raw_score must lie in \[1, 5\], got "):
                beerfed.io._parse_score(pad + text + pad, 2)

    def test_each_of_the_41_tenths_has_one_text(self):
        for t in range(10, 51):
            assert repr(t / 10) == f"{t / 10:.1f}" == f"{t // 10}.{t % 10}" == json.dumps(t / 10) == beerfed.io._GRID[t - 10]
        assert len(beerfed.io._GRID) == 41


class TestScorecards:
    def test_parse_rows(self, tmp_path):
        beverages = parse_beverages_csv(write(tmp_path, "b.csv", BEVERAGES))
        dataset = parse_scorecards_csv(write(tmp_path, "s.csv", SCORECARDS), beverages)
        rows = review_rows(dataset)
        assert len(dataset.reviews) == len(rows) == 6 and dataset.beverages == tuple(beverages)
        assert dataset.judges == ("A", "B")
        assert rows[0].raw_score == 4.8
        assert rows[3].note_tags == {NoteTag.ARTIFICIAL_FLAVOUR}

    def test_two_decimal_score_rejected(self, tmp_path):
        text = "judge_id,beer_name,raw_score\nA,X,4.25\n"
        with pytest.raises(IngestError) as exc:
            parse_scorecards_csv(write(tmp_path, "s.csv", text), [])
        assert exc.value.column == "raw_score"

    def test_out_of_range_score_rejected(self, tmp_path):
        text = "judge_id,beer_name,raw_score\nA,X,5.1\n"
        with pytest.raises(IngestError):
            parse_scorecards_csv(write(tmp_path, "s.csv", text), [])

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
            parse_scorecards_csv(write(tmp_path, "s.csv", text), [])
        assert (exc.value.row, exc.value.column) == (4, column)

    def test_repeated_cells_parse_like_distinct_ones(self, tmp_path):
        text = ("judge_id,beer_name,raw_score,tags\nA, Night  Shift ,4.0,real_flavour\n , ,\t, \n"
                "B, Night  Shift , 4.0 ,real_flavour\nB,Dark Star,4.0,real_flavour\n")
        beverages = parse_beverages_csv(write(tmp_path, "b.csv", BEVERAGES))
        dataset = parse_scorecards_csv(write(tmp_path, "s.csv", text), beverages)
        # a joined name reads as its beverage's id, a dangling one as its normalized name
        assert [(r.judge_id, r.beverage_id, r.raw_score, r.note_tags, r.note_text) for r in review_rows(dataset)] == [
            ("A", "the works::night shift", 4.0, {NoteTag.REAL_FLAVOUR}, None),
            ("B", "the works::night shift", 4.0, {NoteTag.REAL_FLAVOUR}, None),  # the blank line 3 is skipped
            ("B", "dark star", 4.0, {NoteTag.REAL_FLAVOUR}, None),
        ]
        # a joined name codes its place in the list, a dangling one the place past the list of its name
        assert dataset.reviews.beverage.tolist() == [1, 1, 3] and dataset.reviews.unknown == ("dark star",)

    def test_note_derives_tags_when_tags_absent(self, tmp_path):
        beverages = parse_beverages_csv(write(tmp_path, "b.csv", BEVERAGES))
        dataset = parse_scorecards_csv(write(tmp_path, "s.csv", SCORECARDS), beverages)
        mango_reviews = [r for r in review_rows(dataset) if r.beverage_id == beverages[0].id]
        assert mango_reviews[0].note_tags == {NoteTag.REAL_FLAVOUR}  # derived
        assert mango_reviews[1].note_tags == {NoteTag.ARTIFICIAL_FLAVOUR}  # explicit


class TestDatasetJoin:
    def test_join_and_validate_clean(self, tmp_path):
        dataset = load_dataset(
            write(tmp_path, "b.csv", BEVERAGES), write(tmp_path, "s.csv", SCORECARDS)
        )
        assert validate_dataset(dataset) == []
        assert dataset.judges == ("A", "B")

    def test_unknown_name_becomes_dangling_ref(self, tmp_path):
        scorecards = SCORECARDS + "B,Ghost Brew,3.0,,\n"
        dataset = load_dataset(
            write(tmp_path, "b.csv", BEVERAGES), write(tmp_path, "s.csv", scorecards)
        )
        codes = [v.code for v in validate_dataset(dataset)]
        assert "DANGLING_REF" in codes
        # a name that normalizes to a beverage's id still names no beverage
        dataset = load_dataset(write(tmp_path, "b.csv", "brewery,beer_name,beer_style,abv_percent\nP,Ale,IPA,5.0\n"),
                               write(tmp_path, "s.csv", "judge_id,beer_name,raw_score\nA,Ale,3.0\nB,P::Ale,2.0\n"))
        assert [(v.code, v.subject) for v in validate_dataset(dataset)] == [
            ("DANGLING_REF", "B:p::ale"), ("MISSING_REVIEWS", "p::ale")]

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
        # the later bad score does not hide the ambiguous name two rows before it
        scorecards = "judge_id,beer_name,raw_score\nA,Mango Sour,4.0\nA,night shift,4.0\nB,Night Shift,3.0\n" \
                     "B,Mango Sour,9.9\n"
        with pytest.raises(IngestError) as exc:
            load_dataset(write(tmp_path, "b.csv", beverages), write(tmp_path, "s.csv", scorecards))
        assert (exc.value.row, exc.value.column) == (3, "beer_name")
        assert exc.value.path == tmp_path / "s.csv"

    def test_scores_are_checked_once_per_load(self, tmp_path, monkeypatch):
        checks = []
        check = model.ReviewTable.__post_init__
        monkeypatch.setattr(model.ReviewTable, "__post_init__", lambda table: checks.append(table) or check(table))
        dataset = load_dataset(write(tmp_path, "b.csv", BEVERAGES), write(tmp_path, "s.csv", SCORECARDS))
        assert len(checks) == 1
        assert not dataset.reviews.beverage.flags.writeable
        assert dataset.reviews.score.dtype == np.uint8 and not dataset.reviews.score.flags.writeable
        with pytest.raises(ValueError, match=r"^row 1: raw score 60 tenths must lie in \[10, 50\]$"):
            dataclasses.replace(dataset.reviews, score=np.array([30, 60, 40, 10, 20, 30], np.uint8))
        assert len(checks) == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.9, 5.1, 3.0000011])
    def test_score_check_names_the_first_bad_row_of_a_long_column(self, bad):
        # a column of points is refused whatever it holds: every row of it is bad, so row 0 is named
        score = np.full(50_000, 3.0)
        score[[20_000, 45_000]] = bad, 2.05
        codes = np.zeros(len(score), np.intp)
        with pytest.raises(ValueError, match=r"^row 0: raw score column is float64, must be uint8 tenths$"):
            model.ReviewTable((), (frozenset(),), (None,), codes, codes, codes, codes, score)

    @pytest.mark.parametrize("row", [0, 20_000])
    @pytest.mark.parametrize("bad", [0, 9, 51, 255])
    def test_tenths_check_names_the_first_bad_row_of_a_long_column(self, bad, row):
        score = np.full(50_000, 30, np.uint8)
        score[[row, 45_000]] = bad, 8  # the first past 16,384 rows too
        codes = np.zeros(len(score), np.intp)
        with pytest.raises(ValueError, match=rf"^row {row}: raw score {bad} tenths must lie in \[10, 50\]$"):
            model.ReviewTable((), (frozenset(),), (None,), codes, codes, codes, codes, score)

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.int8, np.uint16])
    def test_a_score_column_of_another_dtype_fails_at_row_0(self, dtype):
        score = np.full(50_000, 30, dtype)  # every value a score's tenths
        codes = np.zeros(len(score), np.intp)
        with pytest.raises(ValueError, match=rf"^row 0: raw score column is {np.dtype(dtype)}, must be uint8 tenths$"):
            model.ReviewTable((), (frozenset(),), (None,), codes, codes, codes, codes, score)


def review_tuples(dataset):
    return [
        (r.judge_id, r.beverage_id, r.raw_score, {t.value for t in r.note_tags}, r.note_text)
        for r in review_rows(dataset)
    ]


SCORECARD_STYLES = ("plain", "quote_all", "crlf", "bom")


def random_scorecards(rng, style="plain", faults=0):
    """Scorecard text with repeated and differently spelled judges and
    names (some naming no beverage, one spelled as the id of producer P's
    beverage of that name), duplicate pairs, tags and notes (some
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
                      "Ghost Brew", "ghost  brew", "P::Mango Sour"],  # the last normalizes to a beverage id
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


def random_beverages(rng):
    """A beverage list for the names ``random_scorecards`` draws: each name
    joins one beverage or, left out, dangles, and on one list in four a
    name is shared by two producers (ambiguous)."""
    names = [name for name in ("Mango Sour", "Night Shift", "Morning Shift", "Ghost Brew") if rng.random() < 0.7]
    shared = names[int(rng.integers(len(names)))] if names and rng.random() < 0.25 else None
    return beverage_list(names, [shared] if shared else [])


def beverage_list(names, shared=()):
    """One beverage from producer P per name, and one from Q per shared name."""
    return [Beverage(oracle_beverage_id(producer, name), producer, name, "Ale", model.FALLBACK_FAMILY_NAME, 5.0)
            for producer, group in (("P", names), ("Q", shared)) for name in group]


# for the names "Beverage 0000" to "Beverage 1439" of the large test files:
# the even ones join and the odd ones dangle; "Shared Ale" is ambiguous
LARGE_FILE_BEVERAGES = beverage_list([f"Beverage {i:04d}" for i in range(0, 1440, 2)] + ["Shared Ale"], ["Shared Ale"])


def ingest_outcome(parse, path, beverages):
    """What a scorecard parser makes of a file joined to ``beverages``: the
    error text, or every review with the judge, beverage and note
    unknown names and note vocabulary in order, the judge and beverage
    codes and the set of tag sets."""
    try:
        dataset = parse(path, beverages)
    except IngestError as exc:
        return str(exc)
    table = dataset.reviews
    return (review_rows(dataset), dataset.judges, table.unknown, table.note_texts, table.judge.tolist(),
            table.beverage.tolist(), set(table.tag_sets))


class TestBlockIngestOracle:
    """The block-and-column scorecard ingest against the row-by-row
    reference, on files written four ways and read in blocks of a line or a
    few lines as well as the real size."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), style=st.sampled_from(SCORECARD_STYLES),
           faults=st.sampled_from([0, 0, 1, 2]), block=st.sampled_from([1, 40, beerfed.io._BLOCK]),
           csv_rows=st.sampled_from([1, 3, beerfed.io._CSV_BLOCK_ROWS]))
    def test_matches_row_by_row_reference(self, tmp_path, seed, style, faults, block, csv_rows):
        rng = np.random.default_rng(seed)
        path = write(tmp_path, "s.csv", random_scorecards(rng, style, faults))
        beverages = random_beverages(rng)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(beerfed.io, "_BLOCK", block)
            patch.setattr(beerfed.io, "_CSV_BLOCK_ROWS", csv_rows)
            outcome = ingest_outcome(parse_scorecards_csv, path, beverages)
        assert outcome == ingest_outcome(oracle_parse_scorecards, path, beverages)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
    def test_pipe_grows_the_row_arrays(self, tmp_path):
        # a pipe's size reads 0, so the arrays sized from it grow as rows arrive
        rows = [f"J{i % 7},Beverage {i % 300:03d},{1 + i % 41 / 10:.1f}" for i in range(3_000)]
        path = write(tmp_path, "s.csv", "judge_id,beer_name,raw_score\n" + "\n".join(rows) + "\n")
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),))
        writer.start()
        beverages = beverage_list([f"Beverage {i:03d}" for i in range(0, 300, 3)])
        try:
            piped = ingest_outcome(parse_scorecards_csv, fifo, beverages)
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()
        assert piped == ingest_outcome(parse_scorecards_csv, path, beverages) \
            == ingest_outcome(oracle_parse_scorecards, path, beverages)

    @pytest.mark.parametrize(
        "faults",
        [[], [(12_000, "raw_score")], [(20_000, "judge_id")], [(35_000, "raw_score"), (36_000, "short")],
         [(33_000, "short"), (35_000, "raw_score")], [(20_000, "tags"), (20_000, "raw_score")],
         [(20_000, "short"), (20_001, "long")], [(20_000, "beer_name"), (20_000, "raw_score")],
         [(35_000, "beer_name"), (36_000, "short")]],
        ids=["clean", "second-block-fault", "plain-block-fault", "csv-fault-first", "field-count-first",
             "column-order", "comma-moved", "ambiguous-name-plain-block", "ambiguous-name-csv-block"],
    )
    def test_multi_block_file_matches_reference(self, tmp_path, faults):
        rows = [["judge_id", "beer_name", "raw_score", "tags"]]
        rows += [[f"J{i % 97}", f"Beverage {i % 1440:04d}", f"{1 + i % 41 / 10:.1f}", ""] for i in range(40_000)]
        rows[15_000] = [" ", "", "", ""]  # the first blank row, in a later plain block
        rows[30_000][1] = 'Beverage "0000"'  # the first quoted cell: csv.reader from here
        for row, kind in faults:
            if kind == "short":
                rows[row].pop()
            elif kind == "long":  # with the short row before it, the block's comma count is right
                rows[row].append("")
            else:
                rows[row][rows[0].index(kind)] = {"judge_id": " ", "beer_name": " shared  ALE", "raw_score": "6.0",
                                                  "tags": "fake"}[kind]
        path = tmp_path / "s.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        text = path.read_text(encoding="utf-8")
        assert min(text.index('"'), text.index("\n ,,,\n")) > beerfed.io._BLOCK
        assert all(text.index("\n" + ",".join(rows[row]) + "\n") > beerfed.io._BLOCK for row, _ in faults)
        outcome = ingest_outcome(parse_scorecards_csv, path, LARGE_FILE_BEVERAGES)
        assert outcome == ingest_outcome(oracle_parse_scorecards, path, LARGE_FILE_BEVERAGES)
        assert isinstance(outcome, str) == bool(faults)
        if faults:  # the first faulty row's file line (the header is line 1)
            assert re.search(rf": row {faults[0][0] + 1}[,:] ", outcome)
            assert ("is ambiguous (produced by P, Q)" in outcome) == (faults[0][1] == "beer_name")
        if faults == [(12_000, "raw_score")]:
            assert text.index("\n" + ",".join(rows[12_000]) + "\n") < 2 * beerfed.io._BLOCK

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
        expected = ingest_outcome(oracle_parse_scorecards, path, LARGE_FILE_BEVERAGES)
        monkeypatch.setattr(beerfed.io, "_BLOCK", block)
        monkeypatch.setattr(beerfed.io, "_records", self.no_records)
        outcome = ingest_outcome(parse_scorecards_csv, path, LARGE_FILE_BEVERAGES)
        assert outcome == expected
        assert isinstance(outcome, str) == bool(fault)

    @staticmethod
    def block_starts(text):
        """Where each block of the block reader starts: it reads ``_BLOCK``
        characters after the header, then to the end of the line."""
        starts, at = [], text.index("\n") + 1
        while at < len(text):
            starts.append(at)
            at = text.find("\n", at + beerfed.io._BLOCK) + 1 or len(text)
        return starts

    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("case", ["optional-edges", "judge-is-score-first", "judge-is-score-last",
                                      "empty-first", "empty-last", "comma-moved"])
    def test_joined_cells_match_reference(self, tmp_path, monkeypatch, case, eol):
        header = {"optional-edges": ["tags", "judge_id", "beer_name", "raw_score", "note"],
                  "judge-is-score-last": ["raw_score", "beer_name", "judge_id"]}.get(
            case, ["judge_id", "beer_name", "raw_score"])
        cell = {"judge_id": lambda i: "4.5" if i % 7 == 0 else f"J{i % 97}",  # a judge spelled as a score
                "beer_name": lambda i: f"Beverage {i % 1440:04d}", "raw_score": lambda i: f"{1 + i % 41 / 10:.1f}",
                "tags": lambda i: "real_flavour" if i % 13 == 0 else "",
                "note": lambda i: "real" if i % 11 == 0 else ""}
        rows = [header] + [[cell[c](i) for c in header] for i in range(12_000)]
        if case == "empty-first":
            rows[11_000][0] = ""
        elif case == "empty-last":
            rows[11_000][-1] = ""
        elif case == "comma-moved":  # one line a comma short, the next one over: the block's total is right
            rows[11_000][1:3] = ["".join(rows[11_000][1:3])]
            rows[11_001][1] += ","
        path = tmp_path / "s.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(",".join(row) + eol for row in rows)  # unquoted, as a plain block holds it
        assert path.stat().st_size > beerfed.io._BLOCK
        expected = ingest_outcome(oracle_parse_scorecards, path, LARGE_FILE_BEVERAGES)
        calls, records = [], beerfed.io._records
        monkeypatch.setattr(beerfed.io, "_records", lambda *args: calls.append(args) or records(*args))
        assert ingest_outcome(parse_scorecards_csv, path, LARGE_FILE_BEVERAGES) == expected
        assert isinstance(expected, str) == case.startswith(("empty", "comma"))
        assert bool(calls) == (case == "comma-moved")  # only that block needs csv.reader

    @pytest.mark.parametrize("where", ["middle-field", "first-field", "long-line"])
    def test_field_limit_matches_reference(self, tmp_path, monkeypatch, where):
        rows = [["judge_id", "beer_name", "raw_score"]]
        rows += [[f"J{i % 97}", f"Beverage {i % 1440:04d}", f"{1 + i % 41 / 10:.1f}"] for i in range(20_000)]
        limit = 64
        rows[15_000] = {"middle-field": ["J1", "B" * (limit + 1), "3.0"],
                        "first-field": ["J" * (limit + 1), "B", "3.0"],
                        "long-line": ["J" * limit, "B" * limit, "3.0"]}[where]
        path = tmp_path / "s.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        text = path.read_text(encoding="utf-8")
        at = text.index("\n" + ",".join(rows[15_000]) + "\n") + 1
        assert at > beerfed.io._BLOCK and at not in self.block_starts(text)  # in a later block, after a line end
        old = csv.field_size_limit(limit)
        try:
            expected = ingest_outcome(oracle_parse_scorecards, path, LARGE_FILE_BEVERAGES)
            if where == "long-line":
                monkeypatch.setattr(beerfed.io, "_records", self.no_records)
            outcome = ingest_outcome(parse_scorecards_csv, path, LARGE_FILE_BEVERAGES)
        finally:
            csv.field_size_limit(old)
        assert outcome == expected
        assert isinstance(outcome, str) == (where != "long-line")
        if where != "long-line":
            assert "field larger than field limit" in outcome

    def test_each_joined_cell_split_once_per_file(self, tmp_path, monkeypatch):
        experts = [{"id": f"E{i:02d}", "is_expert": True, "leader_probability": 0.04, "score_noise_sd": 0.6}
                   for i in range(25)]
        pool = [{"brewery": "B", "beer_name": f"Beer {i:03d}", "beer_style": "Stout", "abv_percent": 5.0}
                for i in range(400)]
        config = write(tmp_path, "c.json", json.dumps({"seed": 3, "federation": experts, "pool": pool,
                                                       "clock_start": 0, "clock_end": 400, "round_duration": 1}))
        assert cli.main(["simulate", str(config), "--out", str(tmp_path / "sim")]) == 0
        path = tmp_path / "sim" / "scorecards.csv"
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        joined = [a.rsplit(",", 1)[1] + "\n" + b.split(",", 1)[0] for a, b in zip(lines, lines[1:])]
        monkeypatch.setattr(beerfed.io, "_BLOCK", 1 << 14)
        assert path.stat().st_size > 8 * beerfed.io._BLOCK and 10 * len(set(joined)) < len(joined)
        beverages = parse_beverages_csv(tmp_path / "sim" / "beverages.csv")
        expected = ingest_outcome(oracle_parse_scorecards, path, beverages)
        monkeypatch.setattr(beerfed.io, "_records", self.no_records)
        splits = []

        def count_splits(frame, event, arg):  # str.split on joined cells: line ends, no comma
            text = getattr(arg, "__self__", None)
            if event == "c_call" and getattr(arg, "__name__", "") == "split" and isinstance(text, str) \
                    and "\n" in text and "," not in text:
                fields = text.split("\n")  # each cell's last field, then the next line's first
                splits.extend(map("\n".join, zip(fields[::2], fields[1::2])))

        sys.setprofile(count_splits)
        try:
            outcome = ingest_outcome(parse_scorecards_csv, path, beverages)
        finally:
            sys.setprofile(None)
        assert outcome == expected
        assert sorted(splits) == sorted(set(joined))


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
            assert dataset.judges == tuple(judges) and len(dataset.reviews) == len(reviews)
            found = [(v.code, v.subject, v.message) for v in validate_dataset(dataset)]
            assert found == oracle_validate_dataset(beverages, reviews)
            expected = oracle_score_matrix(judges, ids, [Row(*r[:3]) for r in reviews])
            assert np.array_equal(build_score_matrix(dataset).cells, np.array(expected).reshape(len(judges), len(ids)), equal_nan=True)
            write_scorecards_csv(dataset, tmp_path / "out.csv")
            assert (tmp_path / "out.csv").read_bytes().decode("utf-8") == oracle_scorecards_csv(beverages, reviews)
            means = {t.family: (t.real_mean, t.artificial_mean, t.real_count, t.artificial_count)
                     for t in tag_report(dataset)}
            assert means == {  # each mean exact, then rounded once
                family: (*(float(sum(map(Fraction, map(str, s))) / len(s)) if s else None for s in pair),
                         *map(len, pair))
                for family, pair in oracle_tag_report(beverages, reviews).items()
            }

    def test_reviews_view_is_read_only_and_rebuilds_reviews(self, tiny_dataset):
        reviews = tiny_dataset.reviews
        rows = review_rows(tiny_dataset)
        assert len(reviews) == len(rows) == 18 and rows[-1] == rows[17] and rows[:2] == [rows[0], rows[1]]
        rebuilt = dataset_of(tiny_dataset.beverages, rows, tiny_dataset.judges)
        assert review_rows(rebuilt) == rows and dataset_content(rebuilt) == dataset_content(tiny_dataset)
        truncated = dataset_of(tiny_dataset.beverages, rows[1:], tiny_dataset.judges)
        assert dataset_content(truncated) != dataset_content(tiny_dataset)
        with pytest.raises(TypeError):  # a table holds columns, not review objects
            reviews[17]
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

    def test_scorecards_of_every_score_keep_their_cells(self, tmp_path):
        # each of the 41 scores, from a table's tenths, is written as "%.1f" writes it and parses back
        scores = [t / 10 for t in range(50, 9, -1)]
        beverages = [Beverage(f"p::b{i}", "P", f"B{i}", "Ale", model.FALLBACK_FAMILY_NAME, 5.0) for i in range(len(scores))]
        reviews = [(f"J{i:02d}", b.id, score, frozenset(), None) for i, (b, score) in enumerate(zip(beverages, scores))]
        dataset = dataset_of(beverages, reviews, [r[0] for r in reviews])
        write_scorecards_csv(dataset, tmp_path / "s.csv")
        text = (tmp_path / "s.csv").read_text(encoding="utf-8")
        assert text == oracle_scorecards_csv(beverages, reviews)
        assert [line.split(",")[2] for line in text.splitlines()[1:]] == [f"{t // 10}.{t % 10}" for t in range(50, 9, -1)]
        assert np.array_equal(parse_scorecards_csv(tmp_path / "s.csv", beverages).reviews.score, dataset.reviews.score)

    def test_scorecards_roundtrip_byte_identical(self, tmp_path):
        dataset = load_dataset(
            write(tmp_path, "b.csv", BEVERAGES), write(tmp_path, "s.csv", SCORECARDS)
        )
        out = tmp_path / "s_out.csv"
        write_scorecards_csv(dataset, out)
        canonical = out.read_text(encoding="utf-8")
        dataset2 = parse_scorecards_csv(out, dataset.beverages)
        assert dataset_content(dataset2) == dataset_content(dataset)
        again = tmp_path / "s_again.csv"
        write_scorecards_csv(dataset2, again)
        assert again.read_text(encoding="utf-8") == canonical


class TestWritersEqualTheCsvOracle:
    def test_beverages_csv_with_hostile_cells(self, tmp_path):
        # each hostile cell as a producer, in a name, as a style and as an ingredient
        tags = frozenset({NoteTag.OTHER, NoteTag.REAL_FLAVOUR})
        beverages = [Beverage(f"p{i}::b{i}", cell, f"B{i}{cell}", cell, model.FALLBACK_FAMILY_NAME, 4.5 + i,
                              frozenset({cell, "hops"}), tags if i % 2 else frozenset())
                     for i, cell in enumerate(HOSTILE_CELLS)]
        for listed, header in ((beverages, [*BEVERAGE_COLUMNS, "ingredients", "tags"]),
                               ([dataclasses.replace(b, ingredients=None, note_tags=frozenset()) for b in beverages],
                                list(BEVERAGE_COLUMNS))):
            write_beverages_csv(listed, tmp_path / "b.csv")
            rows = [[b.producer, b.name, b.raw_style, b.abv, ";".join(sorted(b.ingredients or ())),
                     ";".join(sorted(t.value for t in b.note_tags))][:len(header)] for b in listed]
            assert (tmp_path / "b.csv").read_bytes().decode("utf-8") == _oracle_csv(header, rows)


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
                id=oracle_beverage_id(producer, name), producer=producer, name=name, raw_style=style,
                style_family=bucket(style).name, abv=float(rng.uniform(0.1, 100.0)), ingredients=ingredients or None,
                note_tags=frozenset(t for t in tags if rng.random() < 0.3),
            )
    beverages = list(beverages.values())
    judges = [j for j in (random_text(rng).strip() for _ in range(3)) if j] or ["J"]
    reviews = []
    for _ in range(int(rng.integers(0, 12))):
        note = random_text(rng).strip() if rng.random() < 0.5 else None
        tagged = frozenset(t for t in tags if rng.random() < 0.3)
        reviews.append(Row(judges[int(rng.integers(len(judges)))], beverages[int(rng.integers(len(beverages)))].id,
                           int(rng.integers(10, 51)) / 10, tagged or derive_note_tags(note), note or None))
    return dataset_of(beverages, reviews, sorted({r.judge_id for r in reviews}))


class TestWriterReaderRoundTrip:
    """Written, then read back by the other side: the beverage and
    scorecard writers quote what the readers, csv.reader included, need."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1))
    def test_parse_of_written_dataset_is_the_dataset(self, tmp_path, seed):
        dataset = random_text_dataset(np.random.default_rng(seed))
        write_beverages_csv(dataset.beverages, tmp_path / "b.csv")
        write_scorecards_csv(dataset, tmp_path / "s.csv")
        assert tuple(parse_beverages_csv(tmp_path / "b.csv")) == dataset.beverages
        assert dataset_content(parse_scorecards_csv(tmp_path / "s.csv", dataset.beverages)) == dataset_content(dataset)


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

    def test_null_and_booleans_never_reach_json_dumps(self, monkeypatch):
        # null, true and false are written directly; json.dumps encodes only
        # what the hand encoder leaves to it, here the one NaN
        value = {"a": [None, True, False, {"b": None}], "c": (False,), "d": [1.5, "x", float("nan")]}
        expected = [json.dumps(v, sort_keys=True, indent=2, ensure_ascii=False) + "\n" for v in (value, None, True)]
        dumps, leaves = json.dumps, []
        monkeypatch.setattr(beerfed.canonical.json, "dumps", lambda obj, **kw: leaves.append(obj) or dumps(obj, **kw))
        assert [canonical_json(v) for v in (value, None, True)] == expected
        assert len(leaves) == 1 and math.isnan(leaves[0])

    def test_enum_values_encode_as_json_does(self):
        value = {"tags": [NoteTag.REAL_FLAVOUR, {"band": AbvBand.LOW}], NoteTag.OTHER: 1.5}
        assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        assert '"real_flavour"' in canonical_json(value)

    @pytest.mark.parametrize("value", [object(), {"a": [1, {2, 3}]}, {"a": {"b": object()}}])
    def test_unserializable_value_raises_type_error(self, value):
        with pytest.raises(TypeError, match="not JSON serializable"):
            canonical_json(value)


# report-shaped values: records whose every column holds one kind of leaf,
# flat lists, dicts of lists and 2-D float arrays (written with NaN as null)
REPORT_NAMES = st.text(st.sampled_from(['a', 'é', '日', '🍺', '"', '\\', ',', ' ', '\r', '\n', '%', '\x00']), max_size=5)
REPORT_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 0.0, 5e-324, 1e16, 1.7976931348623157e308, math.nan, math.inf, -math.inf])
REPORT_LEAVES = [REPORT_NAMES, REPORT_FLOATS, st.integers(-(10**20), 10**20), st.none(), st.booleans(),
                 REPORT_FLOATS | st.none()]


@st.composite
def report_records(draw):
    keys = draw(st.lists(REPORT_NAMES, min_size=1, max_size=4, unique=True))
    columns = {key: draw(st.sampled_from(REPORT_LEAVES)) for key in keys}
    return draw(st.lists(st.fixed_dictionaries(columns), max_size=8))


@st.composite
def float_grids(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    return np.array(draw(st.lists(REPORT_FLOATS, min_size=rows * cols, max_size=rows * cols)), float).reshape(rows, cols)


REPORT_VALUES = st.dictionaries(REPORT_NAMES, st.one_of(
    report_records(), st.lists(REPORT_FLOATS, max_size=6), st.lists(REPORT_NAMES, max_size=6), float_grids(),
    st.dictionaries(REPORT_NAMES, st.lists(REPORT_FLOATS, max_size=4), max_size=3)), max_size=5)


def as_json_dumps_gets_it(value):
    """``value`` with each 2-D float array as nested lists, None for NaN."""
    if isinstance(value, np.ndarray):
        return [[None if v != v else v for v in row] for row in value.tolist()]
    if isinstance(value, dict):
        return {key: as_json_dumps_gets_it(v) for key, v in value.items()}
    return value


class TestReportShapedJson:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=REPORT_VALUES)
    def test_column_paths_and_the_stream_equal_json_dumps(self, value, tmp_path):
        # records and flat lists go column-wise, grids a block of rows at a
        # time; non-finite floats outside a grid still reach json.dumps
        expected = json.dumps(as_json_dumps_gets_it(value), sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        assert canonical_json(value) == expected
        beerfed.canonical.write_json(tmp_path / "v.json", value)
        assert (tmp_path / "v.json").read_bytes().decode("utf-8") == expected

    def test_grids_of_many_blocks_equal_json_dumps(self, rng, monkeypatch):
        monkeypatch.setattr(beerfed.canonical, "_GRID_CELLS", 7)  # blocks of one row
        values = rng.normal(size=(9, 5)) ** 5
        values[rng.random(values.shape) < 0.4] = math.nan
        upper = np.triu(rng.normal(size=(6, 6)), 1)
        upper[rng.random(upper.shape) < 0.3] = math.nan
        symmetric = upper + upper.T  # NaN on both sides of the diagonal
        np.fill_diagonal(symmetric, 1.0)
        for grid in (values, symmetric, np.zeros((0, 0)), np.zeros((3, 0))):
            assert canonical_json({"v": grid}) == json.dumps({"v": as_json_dumps_gets_it(grid)}, indent=2) + "\n"
        assert (beerfed.canonical.json_cells(symmetric, symmetric=True) == beerfed.canonical.json_cells(symmetric)).all()


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
        # cost_params once passed its keys to CostParams: a typo ended in a
        # TypeError's text, an unknown key with a string value in a number check
        for overrides, message in [
            ({"rounds_per_hour": 4, "seed": "x"}, "unknown key(s) ['rounds_per_hour']"),
            ({"cost_params": {"politness_decay": 0.8}}, "cost_params: unknown key(s) ['politness_decay']"),
            ({"cost_params": {"bogus": "x", "politeness_decay": "y"}}, "cost_params: unknown key(s) ['bogus']"),
        ]:
            path = write(tmp_path, "c.json", json.dumps(self.config_body(**overrides)))
            with pytest.raises(ConfigurationError) as info:
                load_session_config(path)
            assert str(info.value) == f"{path}: {message}"

    def test_unknown_profile_key_rejected(self, tmp_path):
        body = self.config_body()
        body["federation"][0].update(chattiness=1.0, is_expert=1)
        path = write(tmp_path, "c.json", json.dumps(body))
        with pytest.raises(ConfigurationError) as info:
            load_session_config(path)
        assert str(info.value) == f"{path}: participant 'A': unknown key(s) ['chattiness']"

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

    # every field of each record with a default, set to another value
    # the session check accepts when any one of them is left out
    PROFILE = {"id": "X", "is_expert": True, "leader_probability": 0.0, "freeload_probability": 0.5,
               "availability_probability": 0.5, "score_bias": {"Gose": 0.5}, "score_noise_sd": 0.5,
               "score_floor_affinity": 0.5}
    SESSION = {"clock_start": 600, "clock_end": 1400, "round_duration": 10, "blackout_windows": [[1100, 1110]],
               "cost_params": {"politeness_initial": 0.2}, "base_quality_range": [3.0, 4.0], "include_amateurs": True}

    @staticmethod
    def defaults(record):
        if hasattr(record, "_field_defaults"):  # a NamedTuple
            return dict(record._field_defaults)
        return {f.name: f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
                for f in dataclasses.fields(record)
                if (f.default, f.default_factory) != (dataclasses.MISSING, dataclasses.MISSING)}

    def test_every_field_the_loader_reads_has_a_json_reader(self):
        # a field without one ended a config that set it in a KeyError traceback
        from beerfed.protocol import CostParams, ParticipantProfile, SessionConfig
        passed = {ParticipantProfile: {"id"}, CostParams: set(), SessionConfig: {"federation", "pool", "cost_params"}}
        read = {(record.__name__, name): getattr(annotation, "__forward_arg__", annotation)
                for record, given in passed.items() for name, annotation in record.__annotations__.items()
                if name not in given}
        assert {key: text for key, text in read.items() if text not in beerfed.io._JSON_READERS} == {}
        assert set(read.values()) == set(beerfed.io._JSON_READERS)  # and every reader is in use

    def test_a_left_out_profile_key_takes_the_records_default(self, tmp_path):
        from beerfed.protocol import ParticipantProfile
        defaults = self.defaults(ParticipantProfile)
        assert set(defaults) == set(self.PROFILE) - {"id"}
        for key, default in defaults.items():
            # an expert with a leader probability would break the sum, so X leads as an amateur
            full = dict(self.PROFILE, is_expert=False, leader_probability=0.5) if key == "leader_probability" \
                else self.PROFILE
            present, absent = (self.load_profile(tmp_path, entry)
                               for entry in (full, {k: v for k, v in full.items() if k != key}))
            assert getattr(absent, key) == default != getattr(present, key)

    def load_profile(self, tmp_path, entry):
        body = self.config_body()
        body["federation"].append(entry)
        return load_session_config(write(tmp_path, "c.json", json.dumps(body))).federation[-1]

    def test_a_left_out_session_key_takes_the_records_default(self, tmp_path):
        from beerfed.protocol import SessionConfig
        defaults = self.defaults(SessionConfig)
        assert set(defaults) == set(self.SESSION)
        full = load_session_config(write(tmp_path, "c.json", json.dumps(self.config_body(**self.SESSION))))
        for key, default in defaults.items():
            body = self.config_body(**self.SESSION)
            del body[key]
            config = load_session_config(write(tmp_path, "c.json", json.dumps(body)))
            assert getattr(config, key) == default != getattr(full, key)

    @pytest.mark.parametrize("entry, message", [
        ({"id": "X", "leader_probability": "0.5", "is_expert": "yes"},
         "participant 'X': is_expert must be true or false, got 'yes'"),
        ({"id": "X", "score_noise_sd": "a", "score_bias": {"Gose": "x"}},
         "participant 'X': score_bias: Gose must be a finite number, got 'x'"),
        ({"id": "X", "is_expert": 1, "score_bias": []}, "participant 'X': score_bias must be an object, got []"),
    ], ids=["flag-before-number", "bias-before-noise", "bias-object-first"])
    def test_entry_with_two_faults_reports_the_first_field(self, tmp_path, entry, message):
        body = self.config_body()
        body["federation"].append(entry)
        path = write(tmp_path, "c.json", json.dumps(body))
        with pytest.raises(ConfigurationError) as info:
            load_session_config(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("overrides, message", [
        ({"include_amateurs": "no", "seed": "x", "clock_start": 1.5}, "seed must be an integer, got 'x'"),
        ({"base_quality_range": [1, "a"], "blackout_windows": [[1, "b"]], "round_duration": "z"},
         "round_duration must be an integer, got 'z'"),
        ({"cost_params": {"politeness_decay": "x"}, "seed": "x"},
         "cost_params: politeness_decay must be a finite number, got 'x'"),
    ], ids=["seed-first", "duration-before-windows", "cost-params-first"])
    def test_session_with_two_faults_reports_the_first_field(self, tmp_path, overrides, message):
        path = write(tmp_path, "c.json", json.dumps(self.config_body(**overrides)))
        with pytest.raises(ConfigurationError) as info:
            load_session_config(path)
        assert str(info.value) == f"{path}: {message}"

    def test_pool_and_pool_csv_mutually_exclusive(self, tmp_path):
        body = self.config_body(pool_csv="pool.csv")
        with pytest.raises(ConfigurationError):
            load_session_config(write(tmp_path, "c.json", json.dumps(body)))
