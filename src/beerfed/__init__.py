"""beerfed: a seeded simulator for collaborative beer-tasting sessions plus
the analytics and recommendation-evaluation pipeline built on top of it."""

__version__ = "0.1.0"

import os as _os
import sys as _sys
from importlib import import_module as _import_module

# OpenBLAS starts a thread pool when numpy loads, sized from these
# variables, and reads them only then. beerfed's two BLAS calls are a small
# corrcoef and the float32 product that counts common beverages in the
# agreement, so unless the user chose a size (or numpy is already loaded),
# numpy loads single-threaded and the variable is taken away again: child
# processes and later code see the environment as the user left it.
if "numpy" not in _sys.modules and not any(
    name in _os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]
import numpy as _numpy  # noqa: E402, F401  (every module needs it, so `import beerfed` loads it)


def _resolver(namespace: dict, sources: dict[str, str]):
    """A PEP 562 module ``__getattr__`` for ``namespace``: a name in
    ``sources`` imports the beerfed module ``sources[name]`` on first use
    and is then bound in ``namespace``, so later lookups (and callers that
    replace it) never reach the hook."""

    def __getattr__(name: str):
        if name not in sources:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(_import_module(f"beerfed.{sources[name]}"), name)
        return value

    return __getattr__


# each public name -> the module defining it; `import beerfed` loads none
# of them, only numpy
_SOURCES = {
    **dict.fromkeys(("AbvBand", "Beverage", "Dataset", "NoteTag", "StyleFamily", "Violation",
                     "classify_abv", "validate_dataset"), "model"),
    **dict.fromkeys(("CostParams", "ParticipantProfile", "RoundRecord", "SessionConfig",
                     "communication_costs", "run_session"), "protocol"),
    **dict.fromkeys(("JudgeIndex", "MetricReport", "RecommendationSet", "evaluate_model"), "receval"),
    **dict.fromkeys(("ScoreMatrix", "agreement", "aggregate", "build_score_matrix", "divisiveness",
                     "judge_stats", "normalize", "per_style_distribution", "tag_report"), "scoring"),
}
__getattr__ = _resolver(globals(), _SOURCES)
__all__ = sorted(["__version__", *_SOURCES])


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
