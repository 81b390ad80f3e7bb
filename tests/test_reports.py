import csv
import dataclasses
import importlib.resources
import json
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import beerfed.canonical
from beerfed import cli
from beerfed.io import load_dataset
from beerfed.model import Violation, validate_dataset
from beerfed.reports import analyze_dataset, build_analysis_report, write_report_tables
from genutil import dataset_of, festival_files, review_rows, with_reviews
from oracles import _oracle_csv, oracle_report_files


@pytest.fixture
def report(tiny_dataset):
    return build_analysis_report(tiny_dataset)


class TestBuildReport:
    def test_style_counts_cover_all_families(self, report):
        counts = {r["family"]: r["count"] for r in report["style_counts"]}
        assert len(counts) == 10
        assert counts["Stout & porter"] == 2
        assert counts["Gose"] == 0

    def test_abv_bands_cover_all_bands(self, report):
        bands = {r["band"]: r["count"] for r in report["abv_bands"]}
        assert set(bands) == {"low", "medium", "high", "very_high"}
        assert sum(bands.values()) == 6

    def test_ranking_is_full_and_sliced(self, report):
        assert len(report["ranking"]) == 6
        assert [r["rank"] for r in report["ranking"]] == list(range(1, 7))
        assert report["top10"] == report["ranking"]  # fewer than ten beverages
        assert report["bottom10"][0]["rank"] == 6  # worst first

    def test_per_style_rows_are_tidy(self, report):
        rows = report["per_style_rows"]
        stout_rows = [r for r in rows if r["family"] == "Stout & porter"]
        assert len(stout_rows) == 2

    def test_tag_report_included(self, report):
        families = [t["family"] for t in report["tag_report"]]
        assert "Sour & wild ale" in families


class TestWriteTables:
    def test_files_and_content(self, tiny_dataset, tmp_path):
        violations = validate_dataset(tiny_dataset)
        paths = analyze_dataset(tiny_dataset, tmp_path, violations)
        assert violations == []
        assert len(paths) == 9

        with open(paths["agreement"], encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["judge", "A", "B", "C"]
        assert rows[1][1] == "1.0"

        with open(paths["top10"], encoding="utf-8", newline="") as fh:
            top = list(csv.reader(fh))
        assert top[0] == ["rank", "beverage", "score", "reviews"]
        assert top[1][1] == "Night Ledger"  # the imperial stout leads

        report = json.loads(paths["report"].read_text(encoding="utf-8"))
        assert report["violations"] == []
        assert report["meta"]["beverages"] == 6

    def test_violations_recorded_in_report_json(self, tiny_dataset, tmp_path):
        # drop two of b5's three reviews so it falls below the minimum
        kept = [r for r in review_rows(tiny_dataset) if r.beverage_id != "b5" or r.judge_id == "A"]
        dataset = with_reviews(tiny_dataset, kept)
        violations = validate_dataset(dataset)
        paths = analyze_dataset(dataset, tmp_path, violations, lenient=True)
        assert [v.code for v in violations] == ["MISSING_REVIEWS"]
        report = json.loads(paths["report"].read_text(encoding="utf-8"))
        assert [v["code"] for v in report["violations"]] == ["MISSING_REVIEWS"]

    def test_undefined_agreement_cell_is_empty_string(self, tiny_dataset, tmp_path):
        # judges sharing fewer than three beverages have no defined agreement
        dataset = with_reviews(tiny_dataset, [
            r for r in review_rows(tiny_dataset)
            if not (r.judge_id == "C" and r.beverage_id in ("b0", "b1", "b2", "b3"))
        ])
        paths = analyze_dataset(dataset, tmp_path, validate_dataset(dataset), lenient=True)
        with open(paths["agreement"], encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][3] == ""  # A vs C undefined


# CSV cells csv.writer quotes (",", '"', a bare "\r", "\n") or treats with
# care (a leading space, the empty string), beside plain and non-ASCII text
CELLS = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "é", "\\"]), max_size=4)
NUMBERS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-0.0, 5e-324, 1e16, math.nan, math.inf])
AGREEMENT = st.floats(-1.0, 1.0) | st.sampled_from([-0.0, 5e-324, -1.0, math.nan])
COUNTS = st.integers(0, 10**6)


@st.composite
def report_dicts(draw):
    """Report-shaped dicts as ``build_analysis_report`` lays them out, with
    odd names and numbers; every table drawn on its own, so top10, bottom10,
    per_style and per_style_rows need not be what the builder derives from
    the ranking or from each other, and a symmetric agreement with a unit
    diagonal."""
    def rows(**columns):
        return draw(st.lists(st.fixed_dictionaries(columns), max_size=14))

    def ranked():
        return rows(rank=COUNTS, beverage=CELLS, score=NUMBERS, reviews=COUNTS)

    judges = draw(st.lists(CELLS, max_size=5, unique=True))
    values = np.ones((len(judges), len(judges)))
    for i in range(len(judges)):
        for j in range(i):
            values[i, j] = values[j, i] = draw(AGREEMENT)
    return {
        "meta": {"judges": judges, "lenient": draw(st.booleans())},
        "style_counts": rows(family=CELLS, count=COUNTS),
        "abv_bands": rows(band=CELLS, count=COUNTS),
        "judge_stats": rows(judge=CELLS, mean=NUMBERS, sd=NUMBERS, count=COUNTS),
        "agreement": {"judges": judges, "values": values},
        "ranking": ranked(),
        "top10": ranked(),
        "bottom10": ranked(),
        "per_style": draw(st.dictionaries(CELLS, st.lists(NUMBERS, max_size=4), max_size=4)),
        "per_style_rows": rows(family=CELLS, score=NUMBERS),
        "divisive": rows(beverage=CELLS, sd=NUMBERS, range=NUMBERS, reviews=COUNTS),
        "raw_ranking": ranked(),
        "tag_report": rows(family=CELLS, real_mean=NUMBERS | st.none(), real_count=COUNTS,
                           comparable=st.booleans(), real_at_least_artificial=st.booleans() | st.none()),
    }


def written(paths):
    return {p.name: p.read_bytes().decode("utf-8") for p in paths.values()}


class TestReportBytes:
    """Every file equals what json.dumps and csv.writer write for the same
    report (``oracle_report_files``)."""

    @settings(max_examples=100, deadline=None)
    @given(report=report_dicts(), violations=st.lists(
        st.builds(Violation, st.sampled_from(["MISSING_REVIEWS", "ABV_RANGE_WARN"]), CELLS, CELLS), max_size=3))
    def test_tables_and_report_json_equal_the_oracle(self, report, violations):
        with tempfile.TemporaryDirectory() as out:
            paths = write_report_tables(report, out, violations)
            assert written(paths) == oracle_report_files(report, violations)

    def test_a_cut_paper_report_is_written_as_given(self, tmp_path):
        # the calibration session's report with top10 cut to 3 rows and one
        # family's per_style list cut by its first score: top10.csv keeps 3
        # rows, and every other family keeps its own scores in report.json
        config = importlib.resources.files("beerfed.data") / "calibration_session.json"
        assert cli.main(["simulate", str(config), "--out", str(tmp_path / "sim")]) == 0
        report = build_analysis_report(load_dataset(tmp_path / "sim" / "beverages.csv", tmp_path / "sim" / "scorecards.csv"))
        cut = next(family for family, scores in report["per_style"].items() if scores)
        report["top10"] = report["top10"][:3]
        report["per_style"] = {**report["per_style"], cut: report["per_style"][cut][1:]}
        files = written(write_report_tables(report, tmp_path / "out"))
        assert files == oracle_report_files(report)
        assert len(files["top10.csv"].splitlines()) == 1 + 3
        assert json.loads(files["report.json"])["per_style"] == report["per_style"]

    def test_csv_tables_equal_write_csv(self, tiny_dataset, tmp_path):
        names = [",x", 'a"b', "c\rd", "e\nf", " g", ""]
        beverages = [dataclasses.replace(b, name=name) for b, name in zip(tiny_dataset.beverages, names)]
        dataset = dataset_of(beverages, review_rows(tiny_dataset), tiny_dataset.judges)
        report = build_analysis_report(dataset)
        paths = write_report_tables(report, tmp_path / "out")
        for name, columns in (("top10", ["rank", "beverage", "score", "reviews"]),
                              ("divisive", ["beverage", "sd", "range", "reviews"])):
            rows = report[name]
            assert paths[name].read_bytes().decode("utf-8") == _oracle_csv(columns, [[r[c] for c in columns] for r in rows])
            assert '"c\rd"' in paths[name].read_bytes().decode("utf-8")

    def test_zero_judge_lenient_run_writes_a_0x0_agreement(self, tmp_path, capsys):
        beverages = tmp_path / "b.csv"
        beverages.write_text("brewery,beer_name,beer_style,abv_percent\nP,Ale,IPA,5.0\n", encoding="utf-8")
        scorecards = tmp_path / "s.csv"
        scorecards.write_text("judge_id,beer_name,raw_score\n", encoding="utf-8")
        out = tmp_path / "rep"
        argv = ["analyze", str(scorecards), str(beverages), "--out-dir", str(out), "--lenient"]
        assert cli.main(argv) == 0
        dataset = load_dataset(beverages, scorecards)
        report = build_analysis_report(dataset, lenient=True)
        assert report["agreement"]["values"].shape == (0, 0)
        files = {p.name: p.read_bytes().decode("utf-8") for p in out.iterdir()}
        assert files == oracle_report_files(report, validate_dataset(dataset))
        assert json.loads(files["report.json"])["agreement"] == {"judges": [], "values": []}


class TestFestivalReport:
    @pytest.mark.parametrize("method", ["spearman", "kendall"])
    @pytest.mark.parametrize("norm", ["minmax", "zscore"])
    def test_no_encoder_call_per_cell_or_row(self, tmp_path, monkeypatch, method, norm):
        # 300 judges (90,000 agreement cells) and 150 beverages, 3 each: the
        # encoder's recursion runs per container, never per cell or row
        cards, pool = festival_files(tmp_path, 300, 150, 3)
        dataset = load_dataset(pool, cards)
        report = build_analysis_report(dataset, lenient=True, agreement_method=method, norm_method=norm)
        violations = validate_dataset(dataset)
        chunks, calls = beerfed.canonical._chunks, []
        monkeypatch.setattr(beerfed.canonical, "_chunks", lambda obj, newline: calls.append(obj) or chunks(obj, newline))
        paths = write_report_tables(report, tmp_path / "out", violations)
        assert len(calls) < 100
        assert written(paths) == oracle_report_files(report, violations)
