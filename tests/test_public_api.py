"""The package's public surface: ``beerfed.__all__`` is pinned, and it
names exactly what ``beerfed/__init__`` binds, so removing a name from one
and not the other fails here."""

import inspect

import beerfed

PUBLIC = [
    "AbvBand",
    "AggregateRanking",
    "Beverage",
    "CostParams",
    "Dataset",
    "JudgeIndex",
    "MetricReport",
    "NoteTag",
    "ParticipantProfile",
    "RecommendationSet",
    "RecommendationSlot",
    "Review",
    "RoundRecord",
    "ScoreMatrix",
    "SessionConfig",
    "SlotVerdict",
    "StyleFamily",
    "Violation",
    "__version__",
    "aggregate",
    "agreement",
    "build_score_matrix",
    "classify_abv",
    "communication_costs",
    "divisiveness",
    "evaluate_model",
    "judge_stats",
    "normalize",
    "per_style_distribution",
    "run_session",
    "tag_report",
    "validate_dataset",
    "validate_recs",
]


def test_all_is_the_pinned_sorted_list():
    assert beerfed.__all__ == PUBLIC == sorted(PUBLIC)
    assert [name for name in PUBLIC if not hasattr(beerfed, name)] == []


def test_all_names_every_public_binding():
    bound = {
        name for name, value in vars(beerfed).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert bound | {"__version__"} == set(beerfed.__all__)
