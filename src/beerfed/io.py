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
canonical form (fixed column order, LF line endings, a cell holding "\\r"
or "\\n" quoted, trailing newline, sorted JSON keys) so parse -> serialize
round-trips byte-identically.

A scorecard file repeats few distinct values (a 100-judge session has
1,440 names and 41 scores over 144,000 rows), so ingest reads it in
bounded blocks of whole lines, a column at a time (split by ``str.split``,
LF or CRLF lines alike, while no line needs csv quoting rules), into a
columnar ``ReviewTable``: each distinct raw cell is validated and coded
once, an error naming the first non-blank row that holds it, and each
distinct name is joined to its beverage once. Output directories are
written through ``staged_outputs``, all files or none. Only
``load_session_config`` imports ``protocol``, so analyze and eval-recs
never load it.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from io import StringIO
from itertools import chain, count, islice, repeat
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

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
    _json_pair,
    _json_str,
    _read_json,
    derive_note_tags,
    normalize_name,
    style_bucketer,
)

if TYPE_CHECKING:
    from .protocol import ParticipantProfile, SessionConfig, SessionResult

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
def _csv_file(path: str | Path, required: Sequence[str], optional: Sequence[str]):
    """Open a UTF-8 CSV file (a leading byte-order mark is accepted) and
    check its header. Yields the open file, the ``csv.reader`` that read the
    header, the header's field count and the position of each ``required``
    then ``optional`` column (the field count for an optional column the
    file lacks). Undecodable bytes, malformed CSV and every IngestError
    raised inside the ``with`` block name the file."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise IngestError("file is empty (expected a header row)", row=1)
            _check_header(header, required, optional)
            idx = {h.strip(): i for i, h in enumerate(header)}
            yield fh, reader, len(header), [idx.get(c, len(header)) for c in (*required, *optional)]
    except UnicodeDecodeError as exc:
        reason = f"{exc.reason} (byte 0x{exc.object[exc.start]:02x})"
        raise IngestError(f"not UTF-8 text: {reason}", path=path) from None
    except csv.Error as exc:
        raise IngestError(f"malformed CSV: {exc}", path=path) from None
    except IngestError as exc:
        exc.path = path
        raise


def _records(reader, width: int, positions: Sequence[int], before: int = 0) -> Iterator[tuple[int, tuple]]:
    """``(line, the cells at positions)`` per non-blank record of a reader
    that starts after line ``before``; a position past the last cell reads
    "". A record without ``width`` fields is an IngestError."""
    pick = itemgetter(*positions)
    for record in reader:
        if not "".join(record).strip():
            continue
        if len(record) != width:
            raise IngestError(f"expected {width} fields, found {len(record)}", row=before + reader.line_num)
        record.append("")
        yield before + reader.line_num, pick(record)


def _nonblank(cell: str, row: int | None, column: str) -> str:
    if not cell.strip():
        raise IngestError(f"{column} must not be empty", row=row, column=column)
    return cell


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
    _nonblank(producer, row, "brewery")
    _nonblank(name, row, "beer_name")
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
    # beverage id -> its first row and beverage: two (brewery, beer_name)
    # pairs can share an id, as "a::b","c" and "a","b::c" do
    seen: dict[str, tuple[int, Beverage]] = {}
    with _csv_file(path, BEVERAGE_COLUMNS, BEVERAGE_OPTIONAL) as (_, reader, width, positions):
        for row, fields in _records(reader, width, positions):
            beverage = _beverage_from_fields(*fields, bucket, row)
            first, other = seen.setdefault(beverage.id, (row, beverage))
            if other is not beverage:
                raise IngestError(
                    f"duplicate beverage id {beverage.id!r}: {beverage.name!r} for {beverage.producer!r}"
                    f" and, at row {first}, {other.name!r} for {other.producer!r}",
                    row=row,
                    column="beer_name",
                )
            beverages.append(beverage)
    return beverages


def _csv_writer(fh):
    """``csv.writer`` with LF line endings that quotes a cell holding a
    carriage return as it quotes one holding "\\n" (ending rows with "\\n"
    alone, it leaves "\\r" bare and a reader ends the row there): it ends
    each row with "\\r\\n", in one write that drops the "\\r"."""
    return csv.writer(SimpleNamespace(write=lambda row: fh.write(row[:-2] + "\n")), lineterminator="\r\n")


def write_csv(path: str | Path, header: list[str], rows: Iterable[list]) -> None:
    """The one CSV writer: UTF-8, LF line endings and a header row; the csv
    module writes None as an empty cell, floats by repr and other values
    by str()."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = _csv_writer(fh)
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


_BLOCK = 1 << 18  # characters per scorecard block: a 144,000-row file read whole costs ~30 MB more
_CSV_BLOCK_ROWS = 8192  # records per block once csv.reader reads the file


def _scorecard_blocks(fh, reader, width: int, positions: Sequence[int]) -> Iterator[tuple[list, Sequence]]:
    """The rest of a scorecard file, a block at a time, as each column's
    cells (None for a column the file lacks) and each row's line. A block
    with no quote, no line over csv's field limit, ``width - 1`` commas on
    every line and either no carriage return or one ending every line
    (CRLF, no other "\\r") is split as ``csv.reader`` would split it. The
    first block that is not, and all after it, are read by ``csv.reader``;
    a fault it raises comes after the rows before it."""
    limit, line = csv.field_size_limit(), reader.line_num + 1
    while block := fh.read(_BLOCK):
        block += fh.readline()
        eol = "\r\n" if "\r" in block else "\n"
        text = block.removesuffix(eol)
        rows = text.split(eol)
        if ('"' in block or (eol == "\r\n" and not text.count("\r") == text.count("\n") == len(rows) - 1)
                or max(map(len, rows)) > limit or set(map(str.count, rows, repeat(","))) != {width - 1}):
            break
        n = len(rows)
        del rows  # before the cells exist: the two together would be the memory peak
        cells = text.replace(eol, ",").split(",")
        yield [cells[p::width] if p < width else None for p in positions], range(line, line + n)
        line += n
    else:
        return
    records = _records(csv.reader(chain(StringIO(block, newline=""), fh)), width, positions, line - 1)
    while True:
        cells, lines, fault = [], [], None
        try:
            for row, fields in islice(records, _CSV_BLOCK_ROWS):
                cells += fields
                lines.append(row)
        except (csv.Error, UnicodeDecodeError, IngestError) as exc:
            fault = exc
        yield [cells[c::len(positions)] for c in range(len(positions))], lines
        if fault:
            raise fault
        if len(lines) < _CSV_BLOCK_ROWS:
            return


def parse_scorecards_csv(path: str | Path) -> tuple[ReviewTable, tuple[int, ...]]:
    """Ingest a scorecard file a block and a column at a time (errors name
    the earliest faulty row, then column); blank rows are skipped and a row
    with a note but no tags takes the tags its note implies. Returns the
    reviews, naming each beverage by its display name until
    ``build_dataset`` joins it, and the line where each display name first
    appears."""
    parsers = (lambda cell, line: _nonblank(cell, line, "judge_id").strip(),
               lambda cell, line: " ".join(_nonblank(cell, line, "beer_name").split()),
               _parse_score, partial(_parse_tags, column="tags"), lambda cell, line: cell.strip() or None)
    vocabs = judge_ids, names, _, tag_sets, note_texts = {}, {}, None, {frozenset(): 0}, {None: 0}  # value -> code
    firsts = [{} for _ in parsers]  # raw cell -> its raw code, the row it first appears on
    raws = [[np.empty(0, np.int32)] for _ in parsers]  # each block's raw codes
    line_blocks, start, fault = [np.empty(0, np.int32)], 0, None
    with _csv_file(path, SCORECARD_COLUMNS, SCORECARD_OPTIONAL) as (fh, reader, width, positions):
        try:
            for cells, lines in _scorecard_blocks(fh, reader, width, positions):
                for first, raw, col in zip(firsts, raws, cells):
                    raw.append(np.full(len(lines), first.setdefault("", start), np.int32) if col is None
                               else np.fromiter(map(first.setdefault, col, count(start)), np.int32, len(col)))
                line_blocks.append(np.asarray(lines, np.int32))
                start += len(lines)
        except (csv.Error, UnicodeDecodeError, IngestError) as exc:  # reported unless a faulty cell comes first
            fault = exc
        lines = np.concatenate(line_blocks)
        for k, raw in enumerate(raws):  # one column's blocks at a time: memory is the bound here
            raws[k] = np.concatenate(raw)
        kept = ~np.logical_and.reduce([np.isin(raw, [code for cell, code in first.items() if not cell.strip()])
                                       for first, raw in zip(firsts, raws)])  # not a blank row
        codes, faults, first_lines = [], [], []
        for k, (parse, vocab, first, raw) in enumerate(zip(parsers, vocabs, firsts, raws)):
            lookup, bad = np.zeros(start, np.intp if vocab is not None else float), {}  # a score is its own code
            for cell, code in first.items():  # in the order of first rows
                try:
                    value = parse(cell, int(lines[code]))
                except IngestError as exc:
                    bad[code] = exc
                    continue
                lookup[code] = value if vocab is None else vocab.setdefault(value, len(vocab))
                if vocab is names and len(names) > len(first_lines):
                    first_lines.append(int(lines[code]))
            hit = np.flatnonzero(np.isin(raw, list(bad)) & kept)  # bad cells on non-blank rows
            if hit.size:
                faults.append((int(hit[0]), k, bad[int(raw[hit[0]])]))
            codes.append(lookup[raw if kept.all() else raw[kept]])
            raws[k] = None
        if faults:
            row, _, exc = min(faults, key=itemgetter(0, 1))
            exc.row = int(lines[row])
            raise exc
        if fault:
            raise fault
    judge, name, score, tags, notes = codes
    derive, texts = (tags == 0) & (notes != 0), tuple(note_texts)  # a note without tags: the tags it implies
    if derive.any():
        derived = np.zeros(len(texts), np.intp)
        for n in np.unique(notes[derive]).tolist():
            derived[n] = tag_sets.setdefault(derive_note_tags(texts[n]), len(tag_sets))
        tags = np.where(derive, derived[notes], tags)
    table = ReviewTable(tuple(judge_ids), tuple(names), tuple(tag_sets), texts, judge, name, tags, notes, score)
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


def _csv_cell(cell: str) -> str:
    """``cell`` as ``csv.writer`` writes it beside another (alone, "" is quoted)."""
    out = StringIO()
    _csv_writer(out).writerow((cell, ""))
    return out.getvalue()[:-2]


def write_scorecards_csv(dataset: Dataset, path: str | Path) -> None:
    """``write_csv``'s bytes, streamed from each distinct cell quoted once."""
    table = dataset.reviews
    by_id = {b.id: b for b in dataset.beverages}
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _csv_writer(fh).writerow(header)
        ends = [","] * (len(columns) - 1) + ["\n"]  # each cell carries the separator after it
        pieces = [np.array([_csv_cell(cell) + end for cell in cells], dtype=object)[codes]  # by reference
                  for (cells, codes), end in zip(columns, ends)]
        fh.writelines(map("".join, zip(*pieces)))


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

# the inline pool's text fields, in _beverage_from_fields order
_POOL_TEXT = ("brewery", "beer_name", "beer_style", "ingredients", "tags")

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
    from .protocol import ParticipantProfile
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


def load_session_config(
    path: str | Path, families: list[StyleFamily] | None = None
) -> SessionConfig:
    """Load a session config file; a pool_csv path is resolved relative to
    the config file's directory."""
    from .protocol import CostParams, SessionConfig
    path = Path(path)
    with _read_json(path, ConfigurationError) as raw:
        if not isinstance(raw, dict):
            raise ConfigurationError("session config must be a JSON object")
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ConfigurationError(f"unknown key(s) {sorted(unknown)}")
        if "seed" not in raw or "federation" not in raw:
            raise ConfigurationError("seed and federation are required")
        for key in ("federation", "pool", "blackout_windows"):
            if not isinstance(raw.get(key, []), list):
                raise ConfigurationError(f"{key} must be a list, got {raw[key]!r}")

        federation = [_profile_from_dict(e) for e in raw["federation"]]

        if ("pool" in raw) == ("pool_csv" in raw):
            raise ConfigurationError("exactly one of pool / pool_csv is required")
        if "pool_csv" in raw:
            pool_csv = raw["pool_csv"]
            if not isinstance(pool_csv, str) or "\0" in pool_csv:
                raise ConfigurationError(f"pool_csv must be a file path string, got {pool_csv!r}")
            try:
                pool = parse_beverages_csv((path.parent / pool_csv).resolve(), families)
            except IngestError as exc:
                raise ConfigurationError(f"pool_csv: {exc}") from None
        else:
            bucket = style_bucketer(families)
            pool = []
            for i, entry in enumerate(raw["pool"]):
                where = f"pool entry {i}"
                if not isinstance(entry, dict):
                    raise ConfigurationError(f"{where} must be an object")
                unknown = set(entry) - {*_POOL_TEXT, "abv_percent"}
                if unknown:
                    raise ConfigurationError(f"{where}: unknown key(s) {sorted(unknown)}")
                text = {key: "" for key in _POOL_TEXT} | entry  # an absent text field reads ""
                brewery, name, style, ingredients, tags = (_json_str(text, key, where) for key in _POOL_TEXT)
                abv = _json_number(entry, "abv_percent", where)
                try:
                    beverage = _beverage_from_fields(brewery, name, style, abv, ingredients, tags, bucket, None)
                except IngestError as exc:
                    raise ConfigurationError(f"{where}: {exc}") from None
                pool.append(beverage)

        cost = raw.get("cost_params", {})
        if not isinstance(cost, dict):
            raise ConfigurationError(f"cost_params must be an object, got {cost!r}")
        try:
            cost_params = CostParams(**{key: _json_number(cost, key, "cost_params") for key in cost})
        except TypeError as exc:
            raise ConfigurationError(f"cost_params: {exc}") from None

        config = SessionConfig(
            federation=federation,
            pool=pool,
            seed=_json_number(raw, "seed", "", integer=True),
            clock_start=_json_number(raw, "clock_start", "", 17 * 60, integer=True),
            clock_end=_json_number(raw, "clock_end", "", 23 * 60, integer=True),
            round_duration=_json_number(raw, "round_duration", "", 5, integer=True),
            blackout_windows=[
                _json_pair(w, f"blackout_windows[{i}]", integer=True)
                for i, w in enumerate(raw.get("blackout_windows", []))
            ],
            cost_params=cost_params,
            base_quality_range=_json_pair(raw.get("base_quality_range", [2.5, 4.8]), "base_quality_range"),
            include_amateurs=_json_bool(raw, "include_amateurs", ""),
        )
        config.validate()
    return config


def canonical_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) +
    "\\n"``, without the pure-Python encoder ``indent`` forces on it."""
    return _encode(obj, "\n") + "\n"


def _encode(obj, newline: str) -> str:
    """Containers indented by hand around C-encoded leaves."""
    kind = type(obj)
    if kind is str:
        return encode_basestring(obj)
    if kind is int or (kind is float and math.isfinite(obj)):
        return kind.__repr__(obj)
    inner = newline + "  "
    if kind is dict and obj and all(type(key) is str for key in obj):
        items, brackets = [f"{encode_basestring(key)}: {_encode(obj[key], inner)}" for key in sorted(obj)], "{}"
    elif kind in (list, tuple) and obj:
        items, brackets = [_encode(item, inner) for item in obj], "[]"
    else:  # enums, non-finite floats, empty containers, other keys; a JSON string holds no raw newline
        return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False).replace("\n", newline)
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


class _ReviewSuffixes(dict):
    """(judge, score) -> that review's encoded ``"judge", "raw_score": score}``
    tail, each encoded once."""

    def __missing__(self, review: tuple[str, float]) -> str:
        text = self[review] = f'{json.dumps(review[0])}, "raw_score": {json.dumps(review[1])}}}'
        return text


def round_log_lines(result: SessionResult) -> list[str]:
    """One line per round, the bytes ``json.dumps(..., sort_keys=True)``
    gives for the round as a dict (``round_dict`` in ``tests/oracles.py`` is
    that reference). The round-level fields go through ``json.dumps``;
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
        write_beverages_csv(result.dataset.beverages, paths["beverages"])
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
