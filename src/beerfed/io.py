"""File ingestion and canonical serialization.

Formats:

* beverage list CSV: brewery, beer_name, beer_style, abv_percent plus
  optional ingredients / tags columns (semicolon-joined values);
* scorecard CSV: judge_id, beer_name, raw_score plus optional tags / note;
* session config JSON (pool inline or referenced as a CSV path);
* session outputs: beverages.csv, scorecards.csv, session_log.jsonl (one
  round record per line) and session_summary.json.

Beverage name is the join key between scorecards and beverage lists,
matched case-insensitively with collapsed whitespace. Serializers emit a
canonical form (fixed column order, LF line endings, trailing newline,
sorted JSON keys) so parse -> serialize round-trips byte-identically.

A scorecard file repeats few distinct values (a 100-judge session has
1,440 names and 41 scores over 144,000 rows), so ingest reads it in one
pass into a columnar ``ReviewTable``: each distinct raw judge, name, score,
tags and note cell is validated and coded once, and each distinct name is
joined to its beverage once. Only successes are remembered: a bad or
ambiguous value is never cached, so its error still names the first row
and column that carry it. Output directories are written through
``staged_outputs``, all files or none.
"""

from __future__ import annotations

import csv
import json
import os
import re
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, IngestError
from .model import (
    Beverage,
    Dataset,
    NoteTag,
    ReviewTable,
    StyleFamily,
    _json_bool,
    _json_number,
    _json_str,
    _read_json,
    derive_note_tags,
    style_bucketer,
)
from .protocol import CostParams, ParticipantProfile, SessionConfig, SessionResult
from .receval import normalize_name

BEVERAGE_COLUMNS = ("brewery", "beer_name", "beer_style", "abv_percent")
BEVERAGE_OPTIONAL = ("ingredients", "tags")
SCORECARD_COLUMNS = ("judge_id", "beer_name", "raw_score")
SCORECARD_OPTIONAL = ("tags", "note")

_SCORE_RE = re.compile(r"^[0-9]+(\.[0-9])?$")


def beverage_id_for(producer: str, name: str) -> str:
    return f"{normalize_name(producer)}::{normalize_name(name)}"


def _parse_tags(raw: str, row: int | None, column: str) -> frozenset[NoteTag]:
    tags = set()
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            tags.add(NoteTag(part))
        except ValueError:
            valid = ", ".join(t.value for t in NoteTag)
            raise IngestError(
                f"unknown tag {part!r} (expected one of: {valid})",
                row=row,
                column=column,
            ) from None
    return frozenset(tags)


def _check_header(
    header: Sequence[str], required: Sequence[str], optional: Sequence[str]
) -> None:
    seen = [h.strip() for h in header]
    if len(set(seen)) != len(seen):
        raise IngestError("duplicate column names in header", row=1)
    missing = [c for c in required if c not in seen]
    if missing:
        raise IngestError(f"missing required column(s): {', '.join(missing)}", row=1)
    unknown = [c for c in seen if c not in required and c not in optional]
    if unknown:
        raise IngestError(f"unknown column(s): {', '.join(unknown)}", row=1)


@contextmanager
def _csv_records(path: str | Path, required: Sequence[str], optional: Sequence[str]):
    """Open a UTF-8 CSV file (a leading byte-order mark is accepted), check
    its header and give an iterator of ``(line, fields)`` over the non-blank
    rows, where ``fields`` holds the row's cells in ``required`` then
    ``optional`` order ("" for an optional column the file lacks). Column
    positions are resolved once per file. A row with the wrong field count,
    undecodable bytes and every other IngestError raised inside the
    ``with`` block name the file."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise IngestError("file is empty (expected a header row)", row=1)
            _check_header(header, required, optional)
            width = len(header)
            idx = {h.strip(): i for i, h in enumerate(header)}
            # a column the file lacks reads the "" appended after the last field
            pick = itemgetter(*(idx.get(c, width) for c in (*required, *optional)))

            def records():
                for record in reader:
                    if not "".join(record).strip():
                        continue
                    if len(record) != width:
                        raise IngestError(
                            f"expected {width} fields, found {len(record)}",
                            row=reader.line_num,
                        )
                    record.append("")
                    yield reader.line_num, pick(record)

            yield records()
    except UnicodeDecodeError as exc:
        reason = f"{exc.reason} (byte 0x{exc.object[exc.start]:02x})"
        raise IngestError(f"not UTF-8 text: {reason}", path=path) from None
    except csv.Error as exc:
        raise IngestError(f"malformed CSV: {exc}", path=path) from None
    except IngestError as exc:
        exc.path = path
        raise


def _beverage_from_fields(
    producer: str,
    name: str,
    raw_style: str,
    abv_raw,
    ingredients_raw: str,
    tags_raw: str,
    bucket: Callable[[str], StyleFamily],
    row: int | None,
) -> Beverage:
    if not producer.strip():
        raise IngestError("brewery must not be empty", row=row, column="brewery")
    if not name.strip():
        raise IngestError("beer_name must not be empty", row=row, column="beer_name")
    try:
        abv = float(abv_raw)
    except (TypeError, ValueError):
        raise IngestError(
            f"abv_percent {abv_raw!r} is not a decimal", row=row, column="abv_percent"
        ) from None
    if not (0.0 < abv <= 100.0):
        raise IngestError(
            f"abv_percent must lie in (0, 100], got {abv!r}", row=row, column="abv_percent"
        )
    ingredients = frozenset(
        p.strip() for p in ingredients_raw.split(";") if p.strip()
    ) or None
    return Beverage(
        id=beverage_id_for(producer, name),
        producer=producer.strip(),
        name=" ".join(name.split()),
        raw_style=raw_style.strip(),
        style_family=bucket(raw_style).name,
        abv=abv,
        ingredients=ingredients,
        note_tags=_parse_tags(tags_raw, row, "tags"),
    )


def parse_beverages_csv(
    path: str | Path, families: list[StyleFamily] | None = None
) -> list[Beverage]:
    """Ingest a beverage list: rows come back style-bucketed and ready to
    band, with errors reported by file line and column."""
    bucket = style_bucketer(families)
    beverages = []
    seen: set[tuple[str, str]] = set()
    with _csv_records(path, BEVERAGE_COLUMNS, BEVERAGE_OPTIONAL) as records:
        for row, fields in records:
            beverage = _beverage_from_fields(*fields, bucket, row)
            key = (normalize_name(beverage.producer), normalize_name(beverage.name))
            if key in seen:
                raise IngestError(
                    f"duplicate beverage {beverage.name!r} for {beverage.producer!r}",
                    row=row,
                    column="beer_name",
                )
            seen.add(key)
            beverages.append(beverage)
    return beverages


def write_csv(path: str | Path, header: list[str], rows: Iterable[list]) -> None:
    """The one CSV writer: UTF-8, LF line endings and a header row; the csv
    module writes None as an empty cell, floats by repr and other values
    by str()."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@contextmanager
def staged_outputs(out_dir: str | Path) -> Iterator[Path]:
    """Write a set of files into ``out_dir`` all-or-nothing.

    Creates ``out_dir`` if needed and yields a fresh temporary directory
    inside it (so every move stays on one file system) for the block to
    write into. Only when the block finishes are the files moved into
    ``out_dir``, each with ``os.replace``; the temporary directory is
    removed either way, so a failed write adds no file to ``out_dir``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
    try:
        yield staging
        for path in sorted(staging.iterdir()):
            try:
                os.replace(path, out / path.name)
            except OSError as exc:  # name the caller's path, not the staging one
                raise OSError(exc.errno, exc.strerror, str(out / path.name)) from None
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def write_beverages_csv(beverages: Iterable[Beverage], path: str | Path) -> None:
    beverages = list(beverages)
    with_ingredients = any(b.ingredients for b in beverages)
    with_tags = any(b.note_tags for b in beverages)
    header = list(BEVERAGE_COLUMNS)
    if with_ingredients:
        header.append("ingredients")
    if with_tags:
        header.append("tags")

    def record(b: Beverage) -> list:
        cells = [b.producer, b.name, b.raw_style, float(b.abv)]
        if with_ingredients:
            cells.append(";".join(sorted(b.ingredients or ())))
        if with_tags:
            cells.append(";".join(sorted(t.value for t in b.note_tags)))
        return cells

    write_csv(path, header, map(record, beverages))


def parse_scorecards_csv(path: str | Path) -> tuple[ReviewTable, tuple[int, ...]]:
    """Ingest a scorecard file in one pass, validating and coding each
    distinct raw judge, name, score and tags cell once (errors still name
    their first row); a row with a note but no tags takes the tags its note
    implies. Returns the reviews, naming each beverage by its display name
    until ``build_dataset`` joins it, and the line where each display name
    first appears."""
    judge_of, name_of, score_of, tags_of, note_of = {}, {}, {}, {}, {}  # raw cell -> code (score: value)
    judge_ids, names = {}, {}  # vocabulary -> code
    tag_sets: dict[frozenset[NoteTag], int] = {frozenset(): 0}
    note_texts: dict[str | None, int] = {None: 0}
    first_lines: list[int] = []
    judge, beverage, score, tags, notes = [], [], [], [], []
    with _csv_records(path, SCORECARD_COLUMNS, SCORECARD_OPTIONAL) as records:
        for line, (judge_raw, name_raw, score_cell, tags_raw, note_raw) in records:
            j = judge_of.get(judge_raw)
            if j is None:
                if not judge_raw.strip():
                    raise IngestError("judge_id must not be empty", row=line, column="judge_id")
                j = judge_of[judge_raw] = judge_ids.setdefault(judge_raw.strip(), len(judge_ids))
            b = name_of.get(name_raw)
            if b is None:
                if not name_raw.strip():
                    raise IngestError("beer_name must not be empty", row=line, column="beer_name")
                name = " ".join(name_raw.split())
                if name not in names:
                    first_lines.append(line)
                b = name_of[name_raw] = names.setdefault(name, len(names))
            value = score_of.get(score_cell)
            if value is None:
                value = score_of[score_cell] = _parse_score(score_cell, line)
            t = tags_of.get(tags_raw)
            if t is None:
                t = tags_of[tags_raw] = tag_sets.setdefault(_parse_tags(tags_raw, line, "tags"), len(tag_sets))
            n = note_of.get(note_raw)
            if n is None:
                n = note_of[note_raw] = note_texts.setdefault(note_raw.strip() or None, len(note_texts))
            if n and not t:  # a note without tags: derive them from the note
                t = tag_sets.setdefault(derive_note_tags(note_raw), len(tag_sets))
            judge.append(j)
            beverage.append(b)
            score.append(value)
            tags.append(t)
            notes.append(n)
    table = ReviewTable(
        tuple(judge_ids), tuple(names), tuple(tag_sets), tuple(note_texts),
        *(np.array(codes, dtype=np.intp) for codes in (judge, beverage, tags, notes)), np.array(score),
    )
    return table, tuple(first_lines)


def _parse_score(cell: str, line: int) -> float:
    score_raw = cell.strip()
    if not _SCORE_RE.match(score_raw):
        raise IngestError(
            f"raw_score {score_raw!r} must be a number with at most one decimal",
            row=line,
            column="raw_score",
        )
    score = float(score_raw)
    if not (1.0 <= score <= 5.0):
        raise IngestError(
            f"raw_score must lie in [1, 5], got {score_raw}",
            row=line,
            column="raw_score",
        )
    return score


def write_scorecards_csv(dataset: Dataset, path: str | Path) -> None:
    table = dataset.reviews
    by_id = dataset.beverage_index()
    values, score_codes = np.unique(table.score, return_inverse=True)  # the 41 grid scores
    header = list(SCORECARD_COLUMNS)
    columns = [  # (cell text per vocabulary entry, per-row codes)
        (table.judge_ids, table.judge),
        ([by_id[b].name if b in by_id else b for b in table.beverage_ids], table.beverage),
        ([f"{v:.1f}" for v in values.tolist()], score_codes),
    ]
    for column, cells, codes in (
        ("tags", [";".join(sorted(t.value for t in tags)) for tags in table.tag_sets], table.tags),
        ("note", [note or "" for note in table.note_texts], table.notes),
    ):
        if any(cell for cell, n in zip(cells, np.bincount(codes, minlength=len(cells))) if n):
            header.append(column)
            columns.append((cells, codes))
    write_csv(path, header, zip(*(map(cells.__getitem__, codes.tolist()) for cells, codes in columns)))


def build_dataset(beverages: list[Beverage], scorecards: tuple[ReviewTable, tuple[int, ...]]) -> Dataset:
    """Join parsed scorecards onto a beverage list by normalized name, once
    per distinct name.

    Rows naming a beverage that is not on the list keep the unmatched name
    as their reference so validation can flag them (DANGLING_REF) instead
    of dropping data silently. Ambiguous names (same normalized name from
    two producers) are a hard ingest error at the name's first row.
    """
    by_name: dict[str, list[Beverage]] = {}
    for b in beverages:
        by_name.setdefault(normalize_name(b.name), []).append(b)

    table, first_lines = scorecards
    ids: dict[str, int] = {}  # beverage id -> code; names differing in case share one
    codes = []
    for name, line in zip(table.beverage_ids, first_lines):
        key = normalize_name(name)
        matches = by_name.get(key, [])
        if len(matches) > 1:
            producers = ", ".join(sorted(b.producer for b in matches))
            raise IngestError(f"beverage name {name!r} is ambiguous (produced by {producers})",
                              row=line, column="beer_name")
        codes.append(ids.setdefault(matches[0].id if matches else key, len(ids)))
    table = replace(table, beverage_ids=tuple(ids), beverage=np.array(codes, dtype=np.intp)[table.beverage])
    return Dataset(beverages, table, sorted(table.judge_ids))


def load_dataset(
    beverages_path: str | Path,
    scorecards_path: str | Path,
    families: list[StyleFamily] | None = None,
) -> Dataset:
    beverages = parse_beverages_csv(beverages_path, families)
    scorecards = parse_scorecards_csv(scorecards_path)
    try:
        return build_dataset(beverages, scorecards)
    except IngestError as exc:  # an ambiguous name, at a scorecard row
        exc.path = scorecards_path
        raise


def parse_profiles_json(path: str | Path) -> list[dict]:
    """Consumer profile file: a JSON array of objects with unique
    profile_id; the remaining fields are free-form description."""
    raw = _read_json(path, IngestError)
    if not isinstance(raw, list):
        raise IngestError("profile file must be a JSON array")
    seen = set()
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "profile_id" not in entry:
            raise IngestError(f"profile entry {i} must be an object with a profile_id")
        pid = _json_str(entry, "profile_id", f"profile entry {i}", IngestError)
        if pid in seen:
            raise IngestError(f"duplicate profile_id {pid!r}")
        seen.add(pid)
    return raw


_PROFILE_KEYS = {
    "id",
    "is_expert",
    "leader_probability",
    "freeload_probability",
    "availability_probability",
    "score_bias",
    "score_noise_sd",
    "score_floor_affinity",
}

_CONFIG_KEYS = {
    "seed",
    "federation",
    "pool",
    "pool_csv",
    "clock_start",
    "clock_end",
    "round_duration",
    "blackout_windows",
    "cost_params",
    "base_quality_range",
    "include_amateurs",
}


def _profile_from_dict(entry: dict) -> ParticipantProfile:
    if not isinstance(entry, dict) or "id" not in entry:
        raise ConfigurationError("each federation entry must be an object with an id")
    pid = _json_str(entry, "id", "federation entry")
    where = f"participant {pid!r}"
    unknown = set(entry) - _PROFILE_KEYS
    if unknown:
        raise ConfigurationError(f"{where}: unknown key(s) {sorted(unknown)}")
    bias = entry.get("score_bias", {})
    if not isinstance(bias, dict):
        raise ConfigurationError(f"{where}: score_bias must be an object, got {bias!r}")
    return ParticipantProfile(
        id=pid,
        is_expert=_json_bool(entry, "is_expert", where),
        leader_probability=_json_number(entry, "leader_probability", where, 0.0),
        freeload_probability=_json_number(entry, "freeload_probability", where, 0.0),
        availability_probability=_json_number(entry, "availability_probability", where, 1.0),
        score_bias={family: _json_number(bias, family, f"{where}: score_bias") for family in bias},
        score_noise_sd=_json_number(entry, "score_noise_sd", where, 0.0),
        score_floor_affinity=_json_number(entry, "score_floor_affinity", where, 0.0),
    )


def _json_pair(value, where: str, *, integer: bool = False) -> tuple:
    """A [low, high] JSON list of two numbers."""
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigurationError(f"{where} must be a [low, high] pair, got {value!r}")
    pair = dict(zip(("low", "high"), value))
    return tuple(_json_number(pair, key, where, integer=integer) for key in ("low", "high"))


def load_session_config(
    path: str | Path, families: list[StyleFamily] | None = None
) -> SessionConfig:
    """Load a session config file; a pool_csv path is resolved relative to
    the config file's directory."""
    path = Path(path)
    raw = _read_json(path, ConfigurationError)
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: session config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigurationError(f"{path}: unknown key(s) {sorted(unknown)}")
    if "seed" not in raw or "federation" not in raw:
        raise ConfigurationError(f"{path}: seed and federation are required")
    for key in ("federation", "pool", "blackout_windows"):
        if not isinstance(raw.get(key, []), list):
            raise ConfigurationError(f"{path}: {key} must be a list, got {raw[key]!r}")

    federation = [_profile_from_dict(e) for e in raw["federation"]]

    if ("pool" in raw) == ("pool_csv" in raw):
        raise ConfigurationError(f"{path}: exactly one of pool / pool_csv is required")
    if "pool_csv" in raw:
        pool_csv = raw["pool_csv"]
        if not isinstance(pool_csv, str) or "\0" in pool_csv:
            raise ConfigurationError(f"{path}: pool_csv must be a file path string, got {pool_csv!r}")
        try:
            pool = parse_beverages_csv((path.parent / pool_csv).resolve(), families)
        except IngestError as exc:
            raise ConfigurationError(f"{path}: pool_csv: {exc}") from None
    else:
        bucket = style_bucketer(families)
        pool = []
        for i, entry in enumerate(raw["pool"]):
            if not isinstance(entry, dict):
                raise ConfigurationError(f"{path}: pool entry {i} must be an object")
            try:
                pool.append(
                    _beverage_from_fields(
                        str(entry.get("brewery", "")),
                        str(entry.get("beer_name", "")),
                        str(entry.get("beer_style", "")),
                        _json_number(entry, "abv_percent", f"{path}: pool entry {i}"),
                        str(entry.get("ingredients", "") or ""),
                        str(entry.get("tags", "") or ""),
                        bucket,
                        None,
                    )
                )
            except IngestError as exc:
                raise ConfigurationError(f"{path}: pool entry {i}: {exc}") from None

    cost = raw.get("cost_params", {})
    if not isinstance(cost, dict):
        raise ConfigurationError(f"{path}: cost_params must be an object, got {cost!r}")
    try:
        cost_params = CostParams(
            **{key: _json_number(cost, key, f"{path}: cost_params") for key in cost}
        )
    except TypeError as exc:
        raise ConfigurationError(f"{path}: cost_params: {exc}") from None

    where = str(path)
    config = SessionConfig(
        federation=federation,
        pool=pool,
        seed=_json_number(raw, "seed", where, integer=True),
        clock_start=_json_number(raw, "clock_start", where, 17 * 60, integer=True),
        clock_end=_json_number(raw, "clock_end", where, 23 * 60, integer=True),
        round_duration=_json_number(raw, "round_duration", where, 5, integer=True),
        blackout_windows=[
            _json_pair(w, f"{path}: blackout_windows[{i}]", integer=True)
            for i, w in enumerate(raw.get("blackout_windows", []))
        ],
        cost_params=cost_params,
        base_quality_range=_json_pair(
            raw.get("base_quality_range", [2.5, 4.8]), f"{path}: base_quality_range"
        ),
        include_amateurs=_json_bool(raw, "include_amateurs", where),
    )
    config.validate()
    return config


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


class _ReviewSuffixes(dict):
    """(judge, score) -> that review's encoded ``"judge", "raw_score": score}``
    tail, each encoded once."""

    def __missing__(self, review: tuple[str, float]) -> str:
        text = self[review] = f'{json.dumps(review[0])}, "raw_score": {json.dumps(review[1])}}}'
        return text


def round_log_lines(result: SessionResult) -> list[str]:
    """One line per round, the bytes of ``json.dumps(record.to_json_dict(),
    sort_keys=True)``. The round-level fields go through ``json.dumps``;
    each review is the round's ``{"beverage_id": ..., "judge_id": `` prefix
    and its memoised ``(judge, score)`` suffix."""
    suffix = _ReviewSuffixes().__getitem__
    lines = []
    for r in result.rounds:
        head = json.dumps({
            "index": r.index,
            "clock": r.clock,
            "leader_id": r.leader_id,
            "beverage_id": r.beverage_id,
            "procurers": sorted(r.procurers),
            "reviewers": sorted(r.reviewers),
            "broadcast_cost": r.broadcast_cost,
            "comprehension_cost": r.comprehension_cost,
        }, sort_keys=True)
        prefix = f'{{"beverage_id": {json.dumps(r.beverage_id)}, "judge_id": '
        reviews = ", ".join(map(prefix.__add__, map(suffix, zip(r.review_judges, r.review_scores))))
        lines.append(f'{head[:-1]}, "reviews": [{reviews}]}}')  # "reviews" sorts after every other key
    return lines


def write_session_outputs(result: SessionResult, out_dir: str | Path) -> dict[str, Path]:
    """Write beverages.csv, scorecards.csv, session_log.jsonl and
    session_summary.json into out_dir, all or none of them; returns the
    paths by name."""
    with staged_outputs(out_dir) as out:
        paths = {
            "beverages": out / "beverages.csv",
            "scorecards": out / "scorecards.csv",
            "session_log": out / "session_log.jsonl",
            "session_summary": out / "session_summary.json",
        }
        write_beverages_csv(result.sampled_beverages(), paths["beverages"])
        write_scorecards_csv(result.dataset, paths["scorecards"])
        with open(paths["session_log"], "w", encoding="utf-8") as fh:  # line by line: no copy of the log
            fh.writelines(line + "\n" for line in round_log_lines(result))
        # per-round total cost over time: the two costs move in opposite
        # directions, whether they balance is left for the reader to judge
        per_round_total = [r.broadcast_cost + r.comprehension_cost for r in result.rounds]
        summary = {
            "seed": result.config.seed,
            "clock_start": result.config.clock_start,
            "clock_end": result.config.clock_end,
            "round_duration": result.config.round_duration,
            "rounds": len(result.rounds),
            "beverages_sampled": len(result.rounds),
            "skips": [{"clock": s.clock, "reason": s.reason} for s in result.skips],
            "judges": result.dataset.judges,
            "costs": {
                "broadcast_total": sum(r.broadcast_cost for r in result.rounds),
                "comprehension_total": sum(r.comprehension_cost for r in result.rounds),
                "per_round_total": per_round_total,
            },
        }
        paths["session_summary"].write_text(canonical_json(summary), encoding="utf-8")
    return {name: Path(out_dir) / p.name for name, p in paths.items()}
