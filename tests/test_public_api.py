"""The package's public surface: ``beerfed.__all__`` is pinned, and it
names exactly what ``beerfed`` provides, so removing a name from one and
not the other fails here. The names resolve on first use, so ``import
beerfed`` itself binds no submodule. The recommendation evaluators'
signatures are pinned too, so each keeps one input form."""

import dataclasses
import inspect
import pkgutil
from collections.abc import Mapping
from importlib import import_module
import os
import subprocess
import sys
from pathlib import Path

import beerfed

PUBLIC = [
    "AbvBand",
    "Beverage",
    "CostParams",
    "Dataset",
    "JudgeIndex",
    "MetricReport",
    "NoteTag",
    "ParticipantProfile",
    "RecommendationSet",
    "RoundRecord",
    "ScoreMatrix",
    "SessionConfig",
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
]


# the one way to evaluate recommendations: build the index from a score
# matrix, then score each model against it
SIGNATURES = {
    "JudgeIndex": "(matrix: 'ScoreMatrix', names: 'Sequence[str]', k: 'int')",
    "evaluate_model": "(recs_by_profile: 'RecsByProfile', index: 'JudgeIndex', *, model_id: 'str',"
                      " tie_mode: 'str' = 'fixed') -> 'MetricReport'",
}


def test_all_is_the_pinned_sorted_list():
    assert beerfed.__all__ == PUBLIC == sorted(PUBLIC)
    assert set(PUBLIC) <= set(dir(beerfed))
    # the per-row records are gone: reviews live in a ReviewTable, slots in a RecommendationSet
    assert not any(hasattr(beerfed, name) for name in ("Review", "RecommendationSlot", "ModelRecommendations"))


def test_every_name_is_the_object_its_module_defines():
    for name in [name for name in PUBLIC if name != "__version__"]:
        value = getattr(beerfed, name)
        assert value.__module__.startswith("beerfed.") and getattr(sys.modules[value.__module__], name) is value


def test_all_names_every_public_binding():
    for name in PUBLIC:
        getattr(beerfed, name)
    bound = {
        name for name, value in vars(beerfed).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert bound | {"__version__"} == set(beerfed.__all__)
    for module in [m for name, m in sys.modules.items() if name.startswith("beerfed.")]:
        for name in set(vars(module)) - set(PUBLIC):  # no other name the modules define, submodules aside
            value = getattr(beerfed, name, None)
            assert name.startswith("_") or value is None or inspect.ismodule(value), name


def test_import_binds_no_submodule():
    script = (
        "import inspect, sys, beerfed\n"
        "print(sorted(m for m in sys.modules if m.startswith('beerfed.')),\n"
        "      [n for n, v in vars(beerfed).items() if inspect.ismodule(v) and v.__name__.startswith('beerfed')],\n"
        "      sorted(set(beerfed.__all__) - set(dir(beerfed))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(beerfed.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.split() == ["[]", "[]", "[]"]


def test_evaluation_signatures_are_pinned():
    assert {name: str(inspect.signature(getattr(beerfed, name))) for name in SIGNATURES} == SIGNATURES
    assert not issubclass(beerfed.JudgeIndex, Mapping)


def test_only_records_that_check_their_fields_are_dataclasses():
    """A record stays a dataclass only if its ``__post_init__`` checks or
    converts its fields; every other record is a ``NamedTuple``, which
    costs a fraction of a dataclass to define."""
    unchecked = [
        f"{module.__name__}.{name}"
        for module in (import_module(f"beerfed.{m.name}") for m in pkgutil.iter_modules(beerfed.__path__))
        for name, value in vars(module).items()
        if isinstance(value, type) and dataclasses.is_dataclass(value) and value.__module__ == module.__name__
        and "__post_init__" not in vars(value)
    ]
    assert unchecked == []
