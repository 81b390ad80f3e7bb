"""Command-line surface: simulate / analyze / eval-recs.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 data
validation error, 5 strict-mode evaluation error. ``main`` turns every
failure into its exit code and diagnostic code through ``EXIT_TABLE``;
only eval-recs' --strict handler returns 5 itself.

Every command runs ``io`` and ``model``; the modules only some commands
run (``protocol``, ``reports``, ``scoring``, ``receval``, ``decimal``) are
imported on first use. Their stage functions stay attributes of this
module, and the commands call them through it, so a caller that replaces
``cli.<stage>`` replaces what runs.
"""

from __future__ import annotations

import argparse
import gc
import glob as globmod
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__, _resolver
from .errors import (
    ConfigurationError,
    DatasetValidationError,
    DegenerateRowError,
    IngestError,
    InsufficientDataError,
)
from .io import (
    SESSION_FILES,
    canonical_json,
    csv_lines,
    csv_texts,
    load_dataset,
    load_session_config,
    staged_outputs,
    write_csv,
    write_session_outputs,
)
from .model import DEFAULT_K, Severity, load_style_families, validate_dataset

__getattr__ = _resolver(globals(), {
    "run_session": "protocol", "analyze_dataset": "reports", "build_score_matrix": "scoring",
    "normalize": "scoring", "JudgeIndex": "receval", "evaluate_model": "receval",
    "load_recommendations": "receval", "REPORT_FILES": "reports",
})
_cli = sys.modules[__name__]  # stage lookups go through the module, see the docstring

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VALIDATION = 4
EXIT_STRICT_EVAL = 5

# the most bytes a run's judge arrays may hold at once, counted before any
# is allocated; a larger dataset exits 4. Per judge x beverage cell,
# eval-recs counts its score matrix (8) and analyze 36: the raw matrix and
# beside it at most a normalization's or the agreement's working arrays,
# such as the tenths, the normalized rows, a per-column statistic's copies
# or the level codes and mid-ranks (8 each), and masks (1 each). Per judge
# pair analyze counts 45: the agreement (8), a mask (1) and each pair's
# JSON text of at most 24 bytes, as formatted (half the pairs, 12) and in
# report.json's grid (24). The pair tables (at most 32 MiB of cells) and
# the loaded dataset are not counted.
SCORE_BYTES_BUDGET = 1 << 30
ANALYZE_BYTES = (36, 45)  # per judge x beverage cell, per judge pair

# main() reports the first entry the raised exception is an instance of
EXIT_TABLE: dict[type[Exception], tuple[int, str]] = {
    ConfigurationError: (EXIT_CONFIG, "CONFIG"),
    IngestError: (EXIT_VALIDATION, "INGEST"),
    DatasetValidationError: (EXIT_VALIDATION, "VALIDATION"),
    DegenerateRowError: (EXIT_VALIDATION, "DEGENERATE"),
    InsufficientDataError: (EXIT_VALIDATION, "DEGENERATE"),
    OSError: (EXIT_IO, "IO"),
}


# the eval-recs table after its model column, as (CSV header, JSON key,
# MetricReport field); {k} stands for --k
METRIC_COLUMNS = (
    ("Mean rating", "mean_rating", "mean_rating"),
    ("Mean percentile", "mean_percentile", "mean_percentile"),
    ("Hit@{k}", "hit_at_{k}", "hit_rate"),
    ("nDCG@{k}", "ndcg_at_{k}", "ndcg"),
    ("Coverage", "coverage", "coverage"),
)


class Diagnostics:
    """Stderr reporter; emits JSON lines instead of text when requested."""

    def __init__(self, json_mode: bool):
        self.json_mode = json_mode

    def emit(self, level: str, message: str, code: str | None = None) -> None:
        if self.json_mode:
            record = {"level": level, "message": message}
            if code is not None:
                record["code"] = code
            print(json.dumps(record, sort_keys=True), file=sys.stderr)
        else:
            prefix = f"{level}: " if level != "info" else ""
            print(f"{prefix}{message}", file=sys.stderr)

    def error(self, message: str, code: str | None = None) -> None:
        self.emit("error", message, code)

    def warning(self, message: str, code: str | None = None) -> None:
        self.emit("warning", message, code)


def _load_families(path: str | None):
    return load_style_families(path) if path else None


def _checked_dataset(args, diag: Diagnostics, lenient: bool = False, cell_bytes: int = 8, pair_bytes: int = 0):
    """Load the families and the dataset, validate the dataset once and
    report every finding; error-severity findings raise
    DatasetValidationError unless ``lenient``, and so does a dataset whose
    ``cell_bytes`` per judge x beverage cell and ``pair_bytes`` per judge
    pair exceed ``SCORE_BYTES_BUDGET``. Returns (families, dataset,
    violations)."""
    families = _load_families(args.families)
    dataset = load_dataset(args.beverages, args.scorecards, families)
    violations = validate_dataset(dataset)
    for v in violations:
        level = "warning" if (lenient or v.severity is Severity.WARNING) else "error"
        diag.emit(level, f"{v.subject}: {v.message}", code=v.code)
    blocking = sorted({v.code for v in violations if v.severity is Severity.ERROR})
    if blocking and not lenient:
        raise DatasetValidationError(f"dataset validation failed: {', '.join(blocking)}")
    judges, beverages = len(dataset.judges), len(dataset.beverages)
    need = cell_bytes * judges * beverages + pair_bytes * judges * judges
    if need > SCORE_BYTES_BUDGET:
        raise DatasetValidationError(f"{judges} judges x {beverages} beverages need {need} bytes of score "
                                     f"arrays, over the budget of {SCORE_BYTES_BUDGET}", path=args.scorecards)
    return families, dataset, violations


def _refuse_clash(outputs, inputs) -> None:
    """Raise ConfigurationError, before anything is written, if an output path is one of the input files."""
    inputs = [path for path in inputs if path and os.path.exists(path)]
    for out in filter(os.path.isfile, outputs):
        if clash := next((path for path in inputs if os.path.samefile(out, path)), None):
            raise ConfigurationError(f"output {out} would replace the input file {clash}")


def cmd_simulate(args, diag: Diagnostics) -> int:
    config = load_session_config(args.config, _load_families(args.families))
    pool = json.loads(Path(args.config).read_text(encoding="utf-8")).get("pool_csv")  # an input too, if named
    _refuse_clash([Path(args.out) / name for name in SESSION_FILES],
                  [args.config, args.families, pool and Path(args.config).parent / pool])
    if args.seed is not None:
        config = replace(config, seed=args.seed)  # checked again, as a new config
    result = _cli.run_session(config)
    paths = write_session_outputs(result, args.out)
    diag.emit(
        "info",
        f"simulated {len(result.rounds)} rounds "
        f"({len(result.skips)} skipped), outputs in {Path(args.out)}",
    )
    for p in paths.values():
        diag.emit("info", f"wrote {p}")
    return EXIT_OK


def cmd_analyze(args, diag: Diagnostics) -> int:
    families, dataset, violations = _checked_dataset(args, diag, args.lenient, *ANALYZE_BYTES)
    if not dataset.judges and not args.lenient:
        raise InsufficientDataError("no judge has a scorecard to analyze", path=args.scorecards)
    _refuse_clash([Path(args.out_dir) / name for name in _cli.REPORT_FILES],
                  [args.scorecards, args.beverages, args.families])
    paths = _cli.analyze_dataset(
        dataset,
        args.out_dir,
        violations,
        families=families,
        lenient=args.lenient,
        agreement_method=args.agreement,
        norm_method=args.norm,
    )
    diag.emit("info", f"wrote {len(paths)} report files to {Path(args.out_dir)}")
    return EXIT_OK


def _display(value: float | None) -> str:
    from decimal import ROUND_HALF_EVEN, Decimal
    if value is None:
        return "NA"
    return str(Decimal(repr(value)).quantize(Decimal("0.001"), rounding=ROUND_HALF_EVEN))


def cmd_eval_recs(args, diag: Diagnostics) -> int:
    out_path = Path(args.out)
    json_path = out_path.with_suffix(".json")
    if json_path == out_path:
        raise ConfigurationError(f"--out {out_path}: the JSON table would overwrite the CSV table there")
    _, dataset, _ = _checked_dataset(args, diag)

    matrix = _cli.build_score_matrix(dataset)
    if not matrix.judges:
        raise InsufficientDataError("no judge has a scorecard to evaluate recommendations against",
                                    path=args.scorecards)
    if args.normalized:
        try:
            matrix = _cli.normalize(matrix)
        except DegenerateRowError as exc:
            diag.warning(f"{exc}; their scores map to 0.5", code="DEGENERATE")
            matrix = _cli.normalize(matrix, lenient=True)
    index = _cli.JudgeIndex(matrix, [b.name for b in dataset.beverages], args.k)
    known = set(index.judges)

    paths = sorted(globmod.glob(args.recs_glob))
    if not paths:
        diag.warning(f"no recommendation files match {args.recs_glob!r}")
    rows, read = [], []  # the rows, and the files they were read from
    files_of: dict[str, str] = {}  # model id -> the first readable file that holds it
    for path in paths:
        try:
            model_id, sets = _cli.load_recommendations(path)
        except (IngestError, OSError) as exc:  # an IngestError's message names the file
            reason = str(exc) if isinstance(exc, IngestError) else f"{path}: {exc.strerror or exc}"
            if args.strict:
                diag.error(reason, code="EVAL")
                return EXIT_STRICT_EVAL
            diag.warning(f"skipping {reason}", code="EVAL")
            continue
        read.append(path)
        first = files_of.setdefault(model_id, path)
        if first != path:
            diag.warning(f"{path}: model_id {model_id!r} is also in {first}; both rows are kept",
                         code="EVAL")
        for extra in sorted(set(sets) - known):
            diag.warning(
                f"{path}: profile {extra!r} has no scorecard; ignored", code="EVAL"
            )
        rows.append(_cli.evaluate_model(sets, index, model_id=model_id, tie_mode=args.hit_ties))

    rows.sort(
        key=lambda r: (
            -(r.mean_rating if r.mean_rating is not None else float("-inf")),
            r.model_id,
        )
    )

    _refuse_clash([out_path, json_path], [*read, args.scorecards, args.beverages, args.families])
    columns = [(h.format(k=args.k), key.format(k=args.k), field) for h, key, field in METRIC_COLUMNS]
    table = [{"model": r.model_id, **{key: getattr(r, field) for _, key, field in columns}} for r in rows]
    cells = [[r.model_id for r in rows], *([_display(getattr(r, field)) for r in rows] for _, _, field in columns)]
    with staged_outputs(out_path.parent) as staging:
        write_csv(staging / out_path.name, ["Model", *(header for header, _, _ in columns)],
                  csv_lines(list(map(csv_texts, cells))))
        (staging / json_path.name).write_text(canonical_json(table), encoding="utf-8")
    diag.emit("info", f"evaluated {len(rows)} model(s) -> {out_path}, {json_path}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beerfed",
        description=(
            "Simulate collaborative tasting sessions, analyze scorecards, "
            "and evaluate recommendation lists."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--json-errors",
        action="store_true",
        help="emit machine-readable diagnostics on stderr as JSON lines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a seeded tasting session")
    p_sim.add_argument("config", help="session config JSON")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed (64-bit unsigned)")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--families", default=None, help="style family config JSON")
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="build the report tables from scorecards")
    p_an.add_argument("scorecards", help="scorecard CSV")
    p_an.add_argument("beverages", help="beverage list CSV")
    p_an.add_argument("--out-dir", required=True, help="directory for the report tables")
    p_an.add_argument("--lenient", action="store_true",
                      help="downgrade validation errors and degenerate rows to warnings")
    p_an.add_argument("--families", default=None, help="style family config JSON")
    p_an.add_argument("--agreement", choices=("spearman", "kendall"), default="spearman")
    p_an.add_argument("--norm", choices=("minmax", "zscore"), default="minmax")
    p_an.set_defaults(func=cmd_analyze)

    p_ev = sub.add_parser("eval-recs", help="score recommendation files against scorecards")
    p_ev.add_argument("recs_glob", help="glob for recommendation JSON files")
    p_ev.add_argument("scorecards", help="scorecard CSV")
    p_ev.add_argument("beverages", help="beverage list CSV")
    p_ev.add_argument("--out", required=True, help="metric table CSV path (JSON written alongside)")
    p_ev.add_argument("--k", type=_positive_int, default=DEFAULT_K, help="recommendation list size")
    p_ev.add_argument("--strict", action="store_true",
                      help="fail (exit 5) on unreadable recommendation files")
    p_ev.add_argument("--families", default=None, help="style family config JSON")
    p_ev.add_argument("--normalized", action="store_true",
                      help="evaluate against per-judge min-max normalized scores")
    p_ev.add_argument("--hit-ties", choices=("fixed", "threshold"), default="fixed",
                      help="top-k tie handling for Hit@k")
    p_ev.set_defaults(func=cmd_eval_recs)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    diag = Diagnostics(args.json_errors)
    try:
        return args.func(args, diag)
    except tuple(EXIT_TABLE) as exc:
        exit_code, code = next(v for kind, v in EXIT_TABLE.items() if isinstance(exc, kind))
        diag.error(str(exc), code=code)
        return exit_code


def run() -> int:
    """The program entry: ``main``, then ``gc.freeze()``, so shutdown skips collecting the heap again."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
