"""Plot-ready report tables derived from a validated dataset.

Eight CSV tables (style_counts, abv_bands, judge_stats, agreement, top10,
bottom10, per_style, divisive) plus a combined report.json carrying the
same content at full precision together with the complete ranking, the
real-vs-artificial tag comparison and any validation findings.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from .io import canonical_json, staged_outputs, write_csv
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
    norm = normalize(matrix, lenient=lenient, method=norm_method)

    raw_ranking = aggregate(matrix, names)
    norm_ranking = aggregate(norm, names)

    stats_rows = judge_stats(matrix, lenient=lenient)
    agree = agreement(matrix, method=agreement_method)

    style_counter = Counter(b.style_family for b in dataset.beverages)
    style_counts = [
        {"family": name, "count": style_counter.get(name, 0)} for name in family_order
    ]
    for extra in sorted(set(style_counter) - set(family_order)):
        style_counts.append({"family": extra, "count": style_counter[extra]})

    band_counter = Counter(classify_abv(b.abv).value for b in dataset.beverages)
    abv_bands = [
        {"band": band.value, "count": band_counter.get(band.value, 0)}
        for band, _, _ in ABV_BAND_EDGES
    ]

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
            "values": [[None if v != v else v for v in row] for row in agree.values.tolist()],
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


def write_report_tables(
    report: dict, out_dir: str | Path, violations: list[Violation] | None = None
) -> dict[str, Path]:
    """Write the eight CSV tables plus report.json, all or none of them;
    returns paths by name."""
    with staged_outputs(out_dir) as out:
        paths: dict[str, Path] = {}
        rank_header = ["rank", "beverage", "score", "reviews"]
        for name, header, rows in (
            ("style_counts", ["family", "count"], report["style_counts"]),
            ("abv_bands", ["band", "count"], report["abv_bands"]),
            ("judge_stats", ["judge", "mean", "sd", "count"], report["judge_stats"]),
            ("top10", rank_header, report["top10"]),
            ("bottom10", rank_header, report["bottom10"]),
            ("per_style", ["family", "score"], report["per_style_rows"]),
            ("divisive", ["beverage", "sd", "range", "reviews"], report["divisive"]),
        ):
            paths[name] = out / f"{name}.csv"
            write_csv(paths[name], header, [[r[c] for c in header] for r in rows])
        # judge ids are data, so the agreement matrix is written by position
        judges = report["agreement"]["judges"]
        paths["agreement"] = out / "agreement.csv"
        write_csv(
            paths["agreement"],
            ["judge", *judges],
            [[judge, *row] for judge, row in zip(judges, report["agreement"]["values"])],
        )

        payload = dict(report)
        payload["violations"] = [
            {"code": v.code, "severity": v.severity.value, "subject": v.subject, "message": v.message}
            for v in (violations or [])
        ]
        paths["report"] = out / "report.json"
        paths["report"].write_text(canonical_json(payload), encoding="utf-8")
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
