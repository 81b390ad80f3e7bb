import csv
import json

import pytest

from beerfed.model import validate_dataset
from beerfed.reports import analyze_dataset, build_analysis_report
from genutil import with_reviews


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
        kept = [r for r in tiny_dataset.reviews if r.beverage_id != "b5" or r.judge_id == "A"]
        dataset = with_reviews(tiny_dataset, kept)
        violations = validate_dataset(dataset)
        paths = analyze_dataset(dataset, tmp_path, violations, lenient=True)
        assert [v.code for v in violations] == ["MISSING_REVIEWS"]
        report = json.loads(paths["report"].read_text(encoding="utf-8"))
        assert [v["code"] for v in report["violations"]] == ["MISSING_REVIEWS"]

    def test_undefined_agreement_cell_is_empty_string(self, tiny_dataset, tmp_path):
        # judges sharing fewer than three beverages have no defined agreement
        dataset = with_reviews(tiny_dataset, [
            r for r in tiny_dataset.reviews
            if not (r.judge_id == "C" and r.beverage_id in ("b0", "b1", "b2", "b3"))
        ])
        paths = analyze_dataset(dataset, tmp_path, validate_dataset(dataset), lenient=True)
        with open(paths["agreement"], encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][3] == ""  # A vs C undefined
