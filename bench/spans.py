"""In-process span tracing of beerfed's stage functions, from outside the
package.

Each stage function is replaced, for the length of a traced run, by a
wrapper bound under the name its caller module imports it by (for example
``beerfed.cli.evaluate_model`` or ``beerfed.reports.agreement``), so spans
nest cli -> reports -> scoring without any change to the package. Per-row
leaf functions (``normalize_name``, ``generate_score``, ``classify_abv``)
are never wrapped. Spans stay in memory until ``write_jsonl``.
"""

from __future__ import annotations

import functools
import json
import re
import statistics
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "protocol", "io", "model", "scoring", "reports", "receval")


def _size(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths.values())


def _agreement_counts(result, args, kwargs):
    n = len(result.judges)
    values = result.values
    defined = sum(1 for i in range(n) for j in range(i + 1, n) if values[i, j] == values[i, j])
    return {"pairs": n * (n - 1) // 2, "pairs_defined": defined}


def _matrix_counts(result, args, kwargs):
    cells = result.cells
    return {"fill_ratio": float((cells == cells).sum() / cells.size) if cells.size else 0.0}


def _verdict_counts(result, args, kwargs):
    recs = args[0] if args else kwargs["recs"]
    return {"slots": len(result), "slots_valid": sum(1 for v in result if v.valid), "set_id": id(recs)}


# (module, attribute, span name, counts from (result, args, kwargs))
STAGES = (
    ("beerfed.cli", "load_session_config", "io.load_session_config", None),
    ("beerfed.cli", "run_session", "protocol.run_session",
     lambda r, a, k: {"rounds": len(r.rounds), "skips": len(r.skips), "reviews": len(r.dataset.reviews)}),
    ("beerfed.cli", "write_session_outputs", "io.write_session_outputs",
     lambda r, a, k: {"bytes": _size(r)}),
    ("beerfed.cli", "load_dataset", "io.load_dataset", lambda r, a, k: {"rows": len(r.reviews)}),
    ("beerfed.cli", "validate_dataset", "model.validate_dataset", lambda r, a, k: {"violations": len(r)}),
    ("beerfed.cli", "analyze_dataset", "reports.analyze_dataset", None),
    ("beerfed.cli", "load_recommendations", "receval.load_recommendations", None),
    ("beerfed.cli", "evaluate_model", "receval.evaluate_model", None),
    ("beerfed.reports", "validate_dataset", "model.validate_dataset", lambda r, a, k: {"violations": len(r)}),
    ("beerfed.reports", "build_analysis_report", "reports.build_analysis_report", None),
    ("beerfed.reports", "write_report_tables", "reports.write_report_tables",
     lambda r, a, k: {"bytes": _size(r)}),
    ("beerfed.reports", "build_score_matrix", "scoring.build_score_matrix", _matrix_counts),
    ("beerfed.reports", "normalize", "scoring.normalize", None),
    ("beerfed.reports", "agreement", "scoring.agreement", _agreement_counts),
    ("beerfed.reports", "aggregate", "scoring.aggregate", None),
    ("beerfed.reports", "judge_stats", "scoring.judge_stats", None),
    ("beerfed.reports", "divisiveness", "scoring.divisiveness", None),
    ("beerfed.reports", "per_style_distribution", "scoring.per_style_distribution", None),
    ("beerfed.reports", "tag_report", "scoring.tag_report", None),
    ("beerfed.receval", "validate_recs", "receval.validate_recs", _verdict_counts),
)


class Tracer:
    """Spans as [name, start, end, parent index, subcommand, pipeline, counts]."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []  # the current pipeline's
        self.finished: list[list] = []
        self.stack: list[int] = []
        self.subcommand = ""
        self.pipeline = 0
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent, self.subcommand, self.pipeline, None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counts is not None:
                self.spans[idx][6] = counts(result, args, kwargs)
            return result

        return traced

    def install(self, modules: dict) -> list[str]:
        """Wrap every stage; returns the ones the program no longer has."""
        missing = []
        for module, attr, name, counts in STAGES:
            mod = modules[module]
            fn = getattr(mod, attr, None)
            if fn is None:
                missing.append(f"{module}.{attr}")
                continue
            self._patched.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, counts))
        return missing

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, fn = self._patched.pop()
            setattr(mod, attr, fn)

    def call(self, subcommand: str, fn, *args):
        """Run one top-level CLI call as a ``cli.<subcommand>`` span."""
        self.subcommand = subcommand
        idx = self.open(f"cli.{subcommand}")
        try:
            return fn(*args)
        finally:
            self.close(idx)

    def take(self) -> list[list]:
        """The current pipeline's spans; parent indices are local to them."""
        done, self.spans = self.spans, []
        self.finished += done
        return done

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, sub, pipeline, counts in self.finished:
                record = {"name": name, "start": start, "end": end, "parent": parent,
                          "workload": self.workload, "subcommand": sub, "pipeline": pipeline}
                if counts:
                    record["counts"] = counts
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def pipeline_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one pipeline's spans (simulate, analyze, eval).

    A stage the program no longer calls reads as 0 time, 0 calls.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += dur[i]
    self_time = [d - c for d, c in zip(dur, child)]

    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    first: dict[str, dict] = {}
    for i, (name, _, _, _, _, _, counts) in enumerate(spans):
        m[f"{name.split('.')[0]}.self_s"] += self_time[i]
        total[name] = total.get(name, 0.0) + dur[i]
        own[name] = own.get(name, 0.0) + self_time[i]
        calls[name] = calls.get(name, 0) + 1
        if counts and name not in first:
            first[name] = counts

    def count(stage: str, key: str):
        return first.get(stage, {}).get(key, 0)

    m.update({
        "cli.simulate_self_s": own.get("cli.simulate", 0.0),
        "cli.analyze_self_s": own.get("cli.analyze", 0.0),
        "cli.eval_self_s": own.get("cli.eval", 0.0),
        "protocol.rounds": count("protocol.run_session", "rounds"),
        "protocol.skips": count("protocol.run_session", "skips"),
        "protocol.reviews": count("protocol.run_session", "reviews"),
        "io.session_bytes": count("io.write_session_outputs", "bytes"),
        "io.load_dataset_calls": calls.get("io.load_dataset", 0),
        "io.scorecard_rows": count("io.load_dataset", "rows"),
        "model.validate_dataset_calls": calls.get("model.validate_dataset", 0),
        "model.violations": count("model.validate_dataset", "violations"),
        "scoring.fill_ratio": count("scoring.build_score_matrix", "fill_ratio"),
        "scoring.agreement_pairs": count("scoring.agreement", "pairs"),
        "scoring.agreement_pairs_defined": count("scoring.agreement", "pairs_defined"),
        "reports.build_analysis_report_self_s": own.get("reports.build_analysis_report", 0.0),
        "reports.report_bytes": count("reports.write_report_tables", "bytes"),
        "receval.models": calls.get("receval.evaluate_model", 0),
        "receval.validate_recs_calls": calls.get("receval.validate_recs", 0),
    })
    for stage in ("protocol.run_session", "io.load_session_config", "io.write_session_outputs",
                  "io.load_dataset", "model.validate_dataset", "scoring.build_score_matrix",
                  "scoring.normalize", "scoring.agreement", "scoring.aggregate",
                  "scoring.judge_stats", "scoring.divisiveness", "scoring.per_style_distribution",
                  "scoring.tag_report", "reports.write_report_tables",
                  "receval.load_recommendations", "receval.evaluate_model"):
        m[f"{stage}_s"] = total.get(stage, 0.0)

    # evaluate_model validates each set once per metric: count a set's slots
    # once per model, keyed by the set object (alive for the whole call)
    seen = set()
    m["receval.slots"] = m["receval.slots_valid"] = 0
    for i, s in enumerate(spans):
        if s[0] != "receval.validate_recs":
            continue
        model = s[3]
        while model is not None and spans[model][0] != "receval.evaluate_model":
            model = spans[model][3]
        if (model, s[6]["set_id"]) not in seen:
            seen.add((model, s[6]["set_id"]))
            m["receval.slots"] += s[6]["slots"]
            m["receval.slots_valid"] += s[6]["slots_valid"]
    return m


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Split ``python -X importtime -c "import beerfed"`` into numpy, scipy
    and beerfed's own share, in seconds.

    Lines arrive children first, indented two spaces per level. numpy and
    scipy are each the cumulative time of their outermost entries, wherever
    they nest (scipy sits under ``beerfed.scoring``, which imports
    ``scipy`` and then ``scipy.stats`` as two entries).
    """
    pending: list[tuple[int, str, int, list]] = []
    for line in stderr.splitlines():
        hit = _IMPORTTIME.match(line)
        if not hit:
            continue
        depth = (len(hit.group(3)) - 1) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        pending.append((depth, hit.group(4), int(hit.group(2)), children[::-1]))

    beerfed = next((n for n in pending if n[1] == "beerfed"), None)
    if beerfed is None:
        raise ValueError("no top-level beerfed entry in the -X importtime output")
    found = {"numpy": 0, "scipy": 0}

    def walk(node):
        root = node[1].split(".")[0]
        if root in found:
            found[root] += node[2]
            return
        for c in node[3]:
            walk(c)

    walk(beerfed)
    return {
        "import.numpy_s": found["numpy"] / 1e6,
        "import.scipy_s": found["scipy"] / 1e6,
        "import.beerfed_self_s": (beerfed[2] - found["numpy"] - found["scipy"]) / 1e6,
    }


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}
