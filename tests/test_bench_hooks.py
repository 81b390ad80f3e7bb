"""The benchmark's trace hooks stay attached to the functions they wrap.

bench/spans.py (imported, never edited) replaces each stage function by
module and attribute name for a traced run, and a name that no longer
resolves drops that stage's span without an error. This check keeps every
hook resolving, so a reshaped module cannot silently lose the spans the
per-layer timings are read from.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402


def test_bench_trace_hooks_still_resolve():
    # stages gone from the program: reports no longer validates, and no
    # pipeline path judged slots through validate_recs, which was deleted
    gone = {("beerfed.reports", "validate_dataset"), ("beerfed.receval", "validate_recs")}
    hooks = [(module, attr) for module, attr, *_ in spans.STAGES if (module, attr) not in gone]
    assert len(hooks) == 18
    missing = [f"{m}.{a}" for m, a in hooks if not callable(getattr(importlib.import_module(m), a, None))]
    assert missing == []
