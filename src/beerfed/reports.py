"""Plot-ready report tables derived from a validated dataset.

Eight CSV tables (style_counts, abv_bands, judge_stats, agreement, top10,
bottom10, per_style, divisive) plus a combined report.json carrying the
same content at full precision together with the complete ranking, the
real-vs-artificial tag comparison and any validation findings.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from pathlib import Path

from .canonical import Encoded, csv_lines, csv_texts, grid_rows, json_cells, json_grid, json_records, json_texts, write_json
from .io import staged_outputs, write_csv
from .model import (
    ABV_BAND_EDGES,
    DEFAULT_STYLE_FAMILIES,
    Dataset,
    StyleFamily,
    Violation,
    classify_abv,
)
from .scoring import (
    RankedBeverage,
    agreement,
    aggregate,
    build_score_matrix,
    divisiveness,
    judge_stats,
    normalize,
    per_style_distribution,
    tag_report,
)

TOP_N = 10  # rows in the top10 and bottom10 tables


def _ranking_rows(ranking: list[RankedBeverage]) -> list[dict]:
    return [
        {"rank": i + 1, "beverage": e.name, "score": e.score, "reviews": e.review_count}
        for i, e in enumerate(ranking)
    ]


def build_analysis_report(
    dataset: Dataset,
    families: list[StyleFamily] | None = None,
    lenient: bool = False,
    agreement_method: str = "spearman",
    norm_method: str = "minmax",
) -> dict:
    """Compute every report table from a dataset.

    ``lenient`` maps degenerate judge rows to 0.5 during normalization and
    drops judges with fewer than two scores from the stats table instead
    of failing.
    """
    families = families if families is not None else DEFAULT_STYLE_FAMILIES
    family_order = [f.name for f in families]
    names = {b.id: b.name for b in dataset.beverages}

    matrix = build_score_matrix(dataset)
    raw_ranking = aggregate(matrix, names)
    norm_ranking = aggregate(normalize(matrix, lenient=lenient, method=norm_method), names)  # then freed

    stats_rows = judge_stats(matrix, lenient=lenient)
    agree = agreement(matrix, method=agreement_method)

    style_counter = Counter(b.style_family for b in dataset.beverages)
    style_counts = [
        {"family": name, "count": style_counter.get(name, 0)} for name in family_order
    ]
    for extra in sorted(set(style_counter) - set(family_order)):
        style_counts.append({"family": extra, "count": style_counter[extra]})

    band_counter = Counter()
    for abv, n in Counter(b.abv for b in dataset.beverages).items():  # each distinct ABV banded once
        band_counter[classify_abv(abv)] += n
    abv_bands = [{"band": band.value, "count": band_counter[band]} for band, _, _ in ABV_BAND_EDGES]

    per_style = per_style_distribution(norm_ranking, dataset, family_order)
    divisive = divisiveness(matrix, names=names)
    tags = tag_report(dataset)

    ranking_rows = _ranking_rows(norm_ranking)

    return {
        "meta": {
            "beverages": len(dataset.beverages),
            "reviews": len(dataset.reviews),
            "judges": list(dataset.judges),
            "agreement_method": agreement_method,
            "norm_method": norm_method,
            "lenient": lenient,
        },
        "style_counts": style_counts,
        "abv_bands": abv_bands,
        "judge_stats": [
            {"judge": s.judge_id, "mean": s.mean, "sd": s.sd, "count": s.count}
            for s in stats_rows
        ],
        "agreement": {
            "judges": agree.judges,
            "values": agree.values,
        },
        "ranking": ranking_rows,
        "top10": ranking_rows[:TOP_N],
        "bottom10": ranking_rows[-TOP_N:][::-1],
        "per_style": per_style,
        "per_style_rows": [
            {"family": family, "score": score}
            for family, scores in per_style.items()
            for score in scores
        ],
        "divisive": [
            {
                "beverage": d.name,
                "sd": d.sd,
                "range": d.score_range,
                "reviews": d.review_count,
            }
            for d in divisive
        ],
        "raw_ranking": _ranking_rows(raw_ranking),
        "tag_report": [t._asdict() for t in tags],
    }


# each CSV table: its name, the report table its rows come from, its columns
RANK_COLUMNS = ("rank", "beverage", "score", "reviews")
CSV_TABLES = (("style_counts", "style_counts", ("family", "count")), ("abv_bands", "abv_bands", ("band", "count")),
              ("judge_stats", "judge_stats", ("judge", "mean", "sd", "count")), ("top10", "top10", RANK_COLUMNS),
              ("bottom10", "bottom10", RANK_COLUMNS), ("per_style", "per_style_rows", ("family", "score")),
              ("divisive", "divisive", ("beverage", "sd", "range", "reviews")))
REPORT_FILES = (*(f"{name}.csv" for name, _, _ in CSV_TABLES), "agreement.csv", "report.json")


def write_report_tables(
    report: dict, out_dir: str | Path, violations: list[Violation] | None = None
) -> dict[str, Path]:
    """Write the eight CSV tables plus report.json, all or none of them;
    returns paths by name.

    Each table is written as given; only ``build_analysis_report`` derives
    one table from another. Each number is formatted once. A record table's
    values become one JSON text column per key (``canonical.json_texts``),
    which report.json's records and the CSV table holding the same numbers
    both join. The agreement's upper triangle is formatted once and
    mirrored, NaN written as null in JSON and as an empty cell in CSV.
    report.json is streamed a block of rows at a time.
    """
    payload = dict(report, violations=[
        {"code": v.code, "severity": v.severity.value, "subject": v.subject, "message": v.message}
        for v in (violations or [])])
    values = {name: {key: [r[key] for r in rows] for key in rows[0]} for name, rows in payload.items()
              if type(rows) is list and rows and type(rows[0]) is dict}
    texts = {name: {key: json_texts(column) for key, column in columns.items()} for name, columns in values.items()}
    agree = report["agreement"]
    cells = json_cells(agree["values"], symmetric=True)
    payload.update({name: Encoded(partial(json_records, columns)) for name, columns in texts.items()},
                   agreement={"judges": agree["judges"], "values": Encoded(partial(json_grid, cells))})
    with staged_outputs(out_dir) as out:
        paths: dict[str, Path] = {}
        for name, source, header in CSV_TABLES:
            columns = [csv_texts(values[source][key], texts[source][key]) for key in header] if source in values else ()
            paths[name] = out / f"{name}.csv"
            write_csv(paths[name], header, csv_lines(columns))
        # judge ids are data, so the agreement matrix is written by position; its
        # cells' JSON texts are CSV's too, as its values are NaN or in [-1, 1]
        heads = [judge + "," for judge in csv_texts(agree["judges"])]
        paths["agreement"] = out / "agreement.csv"
        write_csv(paths["agreement"], ["judge", *agree["judges"]], grid_rows(cells, "", ",", heads, "\n"))
        paths["report"] = out / "report.json"
        write_json(paths["report"], payload)
    return {name: Path(out_dir) / p.name for name, p in paths.items()}


def analyze_dataset(
    dataset: Dataset,
    out_dir: str | Path,
    violations: list[Violation],
    families: list[StyleFamily] | None = None,
    lenient: bool = False,
    agreement_method: str = "spearman",
    norm_method: str = "minmax",
) -> dict[str, Path]:
    """Build and write the full report, recording the caller's validation
    findings in report.json; returns the paths by name."""
    report = build_analysis_report(
        dataset,
        families=families,
        lenient=lenient,
        agreement_method=agreement_method,
        norm_method=norm_method,
    )
    return write_report_tables(report, out_dir, violations)
