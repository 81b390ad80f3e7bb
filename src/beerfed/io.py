"""File ingestion and canonical serialization.

Formats:

* beverage list CSV: brewery, beer_name, beer_style, abv_percent plus
  optional ingredients / tags columns (semicolon-joined values);
* scorecard CSV: judge_id, beer_name, raw_score plus optional tags / note;
* session config JSON (pool inline or referenced as a CSV path);
* session outputs: beverages.csv, scorecards.csv, session_log.jsonl (one
  round record per line) and session_summary.json.

Beverage name is the join key between scorecards and beverage lists,
matched case-insensitively with collapsed whitespace. Every CSV file is
written by one writer, ``write_csv`` (UTF-8, LF line endings, a header
row, then rows joined a block at a time by ``canonical.csv_lines``), and
every cell's text, header cells included, comes from one quoting rule,
``canonical.csv_texts`` (the csv module's minimal quoting, which also
quotes a cell holding "\\r"), so parse -> serialize round-trips
byte-identically.

A scorecard file repeats few distinct values (a 100-judge session has
1,440 names and 41 scores over 144,000 rows), so ingest reads it in
bounded blocks of whole lines, LF or CRLF, split on commas alone until a
block has a quote or a field over csv's limit, a column at a time, into
a columnar ``ReviewTable``: each distinct raw cell is validated and
coded once, an error naming the first non-blank row that holds it; a
name cell codes its beverage's place in the list, so an ambiguous name
is one such error, and a score cell its tenths. The session log is
written a block of lines at a time, each line encoded from its round's
member codes through tables built once per session (each member's JSON
id, the members in sorted-id order, a review tail per member and
score); scorecard rows, from their codes into each distinct cell, quoted
once. Both take a score's text from one table of 41, by its tenths.
Every other JSON file goes through the one encoder (sorted keys),
``canonical.canonical_json``. Output directories are written through
``staged_outputs``, all files or none. Only ``load_session_config``
imports ``protocol``, so analyze and eval-recs never load it.
"""

from __future__ import annotations

import csv
import errno
import os
import re
import shutil
import tempfile
from contextlib import contextmanager
from functools import lru_cache, partial
from io import StringIO
from itertools import chain, count, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from .canonical import canonical_json, csv_lines, csv_texts, json_texts
from .errors import ConfigurationError, IngestError
from .model import (
    Beverage,
    Dataset,
    NoteTag,
    ReviewTable,
    StyleFamily,
    _clash,
    _json_bool,
    _json_number,
    _json_pair,
    _json_str,
    _known_keys,
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
SESSION_FILES = ("beverages.csv", "scorecards.csv", "session_log.jsonl", "session_summary.json")

_SCORE_RE = re.compile(r"^[0-9]+(\.[0-9])?$")


def _parse_tags(raw: str, row: int | None, column: str) -> frozenset[NoteTag]:
    tags = set()
    for part in filter(None, map(str.strip, raw.split(";"))):
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
    name = _nonblank(" ".join(name.split()), row, "beer_name")  # collapsed once; normalize_name(name) is its casefold
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
    ingredients = frozenset(filter(None, map(str.strip, ingredients_raw.split(";")))) or None
    return Beverage(
        id=f"{normalize_name(producer)}::{name.casefold()}",
        producer=producer.strip(),
        name=name,
        raw_style=raw_style.strip(),
        style_family=bucket(raw_style).name,
        abv=abv,
        ingredients=ingredients,
        note_tags=_parse_tags(tags_raw, row, "tags"),
    )


def parse_beverages_csv(
    path: str | Path, families: list[StyleFamily] | None = None, unique_names: bool = False
) -> list[Beverage]:
    """Ingest a beverage list: rows come back style-bucketed and ready to
    band, with errors reported by file line and column. Two rows may share
    a normalized name unless ``unique_names``."""
    bucket = style_bucketer(families)
    beverages, seen, names = [], {}, {} if unique_names else None
    with _csv_file(path, BEVERAGE_COLUMNS, BEVERAGE_OPTIONAL) as (_, reader, width, positions):
        for row, fields in _records(reader, width, positions):
            beverage = _beverage_from_fields(*fields, bucket, row)
            if clash := _clash(seen, names, beverage, f"row {row}"):
                raise IngestError(clash, row=row, column="beer_name")
            beverages.append(beverage)
    return beverages


def write_csv(path: str | Path, header: Sequence[str], lines: Iterable[str]) -> None:
    """The one CSV writer: UTF-8, LF line endings, the header's cells
    (``csv_texts``) and then ``lines``, the rows' text (``csv_lines``)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(csv_texts(header)) + "\n")
        fh.writelines(lines)


@contextmanager
def staged_outputs(out_dir: str | Path) -> Iterator[Path]:
    """Write a set of files into ``out_dir`` all-or-nothing.

    Creates ``out_dir`` if needed and yields a fresh temporary directory
    inside it (so every move stays on one file system) for the block to
    write into. Only when the block finishes are the files moved into
    ``out_dir``: first every target is checked (one that is a directory
    raises IsADirectoryError naming it, before anything moves), then each
    existing target is saved inside the temporary directory and the new
    files replace the targets, each with ``os.replace``. If a move fails,
    the moves made are undone in reverse, which puts the saved files back,
    and the OSError names the caller's path. The temporary directory is
    removed either way, so a failed run leaves ``out_dir`` as it found it.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except FileExistsError:  # a file holds the name
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(out)) from None
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
    try:
        yield staging
        names = sorted(path.name for path in staging.iterdir())
        for target in (out / name for name in names):  # so no directory is saved, then removed with the staging one
            if target.is_dir() and not target.is_symlink():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        saved = Path(tempfile.mkdtemp(dir=staging))
        moves = [(out / name, saved / name) for name in names if os.path.lexists(out / name)]
        moves += [(staging / name, out / name) for name in names]
        for done, (source, target) in enumerate(moves):
            try:
                os.replace(source, target)
            except OSError as exc:
                for moved_from, moved_to in reversed(moves[:done]):
                    os.replace(moved_to, moved_from)
                raise OSError(exc.errno, exc.strerror, str(out / target.name)) from None
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def write_beverages_csv(beverages: Iterable[Beverage], path: str | Path) -> None:
    beverages = list(beverages)
    columns = dict(zip(BEVERAGE_COLUMNS, ([b.producer for b in beverages], [b.name for b in beverages],
                                          [b.raw_style for b in beverages], [float(b.abv) for b in beverages])))
    if any(b.ingredients for b in beverages):
        columns["ingredients"] = [";".join(sorted(b.ingredients or ())) for b in beverages]
    if any(b.note_tags for b in beverages):
        columns["tags"] = [";".join(sorted(t.value for t in b.note_tags)) for b in beverages]
    write_csv(path, list(columns), csv_lines(list(map(csv_texts, columns.values()))))


_BLOCK = 1 << 18  # characters per scorecard block: a 144,000-row file read whole costs ~30 MB more
_CSV_BLOCK_ROWS = 8192  # records per block once csv.reader reads the file
_LOG_LINES = 64  # session log lines per write
_GRID = [repr(t / 10) for t in range(10, 51)]  # each score's text, as csv and json write t / 10, at t - 10


def _room(arrays: Sequence[np.ndarray], rows: int) -> None:
    """Grow each array in place to hold ``rows`` (a pipe's size reads 0)."""
    if rows > len(arrays[0]):
        for array in arrays:
            array.resize(2 * rows, refcheck=False)


def _scorecard_blocks(fh, reader, width: int, positions: Sequence[int], firsts: list[dict],
                      raws: list[np.ndarray], lines: np.ndarray) -> Iterator[int]:
    """Code the rest of a scorecard file a block at a time into ``firsts``
    (per column, each raw cell -> its raw code: the row, from 0, where it
    first appears) and, per row, ``raws`` and ``lines``; yields the rows
    coded so far. A plain block (no quote; no "\\r", or CRLF lines) is split
    on commas alone: each line end sits in a joined cell holding a line's
    last field and the next line's first, split once per file, and a line's
    first and last codes are read at the row where its joined cell first
    appears. It is read as ``csv.reader`` would read it when it splits into
    ``width - 1`` cells per line plus one, every new joined cell holds a
    line end and no field exceeds csv's field limit (a longer line may).
    The first block that is not, and all after it, go to ``csv.reader``; a
    fault it raises comes after the rows before it."""
    limit, line, start, step = csv.field_size_limit(), reader.line_num + 1, 0, width - 1
    head, tail = positions.index(0), positions.index(width - 1)  # the columns a joined cell holds
    joined, arrays = {}, (*raws, lines)  # joined cell -> the first row whose first field it holds
    while block := fh.read(_BLOCK):
        block += fh.readline()
        eol = "\r\n" if "\r" in block else "\n"
        text = block.removesuffix(eol)
        n, cells, sizes = text.count(eol) + 1, text.split(","), list(map(len, firsts))
        if ('"' in block or (eol == "\r\n" and not text.count("\r") == text.count("\n") == n - 1)
                or len(cells) != n * step + 1):
            break
        _room(arrays, start + n)
        if len(joined) > _CSV_BLOCK_ROWS:  # cells that rarely repeat: keep no more than a block's worth
            joined.clear()
        old = len(joined)
        rows = np.fromiter(map(joined.setdefault, cells[step:-1:step], count(start + 1)), np.int32, n - 1)
        if ok := set(map(str.count, islice(joined, old, None), repeat(eol))) <= {1}:  # before any code is recorded
            raws[head][start] = firsts[head].setdefault(cells[0], start)
            at = np.fromiter(islice(joined.values(), old, None), np.int32)  # the row of each new joined cell
            parts = eol.join(islice(joined, old, None)).split(eol)  # its last field, then the next line's first
            raws[tail][at - 1] = np.fromiter(map(firsts[tail].setdefault, parts[::2], (at - 1).tolist()), np.int32)
            raws[head][at] = np.fromiter(map(firsts[head].setdefault, parts[1::2], at.tolist()), np.int32)
            raws[head][start + 1:start + n] = raws[head][rows]
            raws[tail][start:start + n - 1] = raws[tail][rows - 1]
            raws[tail][start + n - 1] = firsts[tail].setdefault(cells[-1], start + n - 1)
            for first, raw, p in zip(firsts, raws, positions):
                if 0 < p < step:
                    raw[start:start + n] = np.fromiter(map(first.setdefault, cells[p::step], count(start)), np.int32, n)
                elif p == width:
                    raw[start:start + n] = first.setdefault("", start)
            ok = all(len(cell) <= limit for first, size in zip(firsts, sizes) for cell in islice(first, size, None))
        if not ok:  # csv.reader codes this block afresh
            firsts[:] = [dict(islice(first.items(), size)) for first, size in zip(firsts, sizes)]
            break
        lines[start:start + n] = np.arange(line, line + n, dtype=np.int32)
        start, line = start + n, line + n
        yield start
    else:
        return
    records = _records(csv.reader(chain(StringIO(block, newline=""), fh)), width, positions, line - 1)
    while True:
        cells, rows, fault = [], [], None
        try:
            for row, fields in islice(records, _CSV_BLOCK_ROWS):
                cells += fields
                rows.append(row)
        except (csv.Error, UnicodeDecodeError, IngestError) as exc:
            fault = exc
        n = len(rows)
        _room(arrays, start + n)
        for k, (first, raw) in enumerate(zip(firsts, raws)):
            raw[start:start + n] = np.fromiter(map(first.setdefault, cells[k::len(firsts)], count(start)), np.int32, n)
        lines[start:start + n] = rows
        start += n
        yield start
        if fault:
            raise fault
        if n < _CSV_BLOCK_ROWS:
            return


def parse_scorecards_csv(path: str | Path, beverages: Sequence[Beverage]) -> Dataset:
    """Ingest a scorecard file a block and a column at a time (errors name
    the earliest faulty row, then column) into the ``Dataset`` of
    ``beverages`` and the judges it names, sorted; blank rows are skipped
    and a row with a note but no tags takes the tags its note implies. A
    name cell codes the list place of the beverage whose normalized name
    it shares, or else its normalized name's place past the list's end
    (``ReviewTable.unknown``), which validation flags (DANGLING_REF)
    instead of dropping data silently; a name two producers share is an
    error at its row."""
    by_name: dict[str, list[int]] = {}
    for i, b in enumerate(beverages):
        by_name.setdefault(normalize_name(b.name), []).append(i)

    def join(cell: str, line: int) -> int | str:
        key = normalize_name(_nonblank(cell, line, "beer_name"))
        matches = by_name.get(key, ())
        if len(matches) > 1:
            producers = ", ".join(sorted(beverages[i].producer for i in matches))
            raise IngestError(f"beverage name {' '.join(cell.split())!r} is ambiguous (produced by {producers})",
                              row=line, column="beer_name")
        return matches[0] if matches else key  # a list place, or a name no beverage has

    parsers = (lambda cell, line: _nonblank(cell, line, "judge_id").strip(), join,
               _parse_score, partial(_parse_tags, column="tags"), lambda cell, line: cell.strip() or None)
    vocabs = judge_ids, places, _, tag_sets, note_texts = (  # value -> code; a beverage's list place codes itself
        {}, dict(zip(range(len(beverages)), count())), None, {frozenset(): 0}, {None: 0})
    firsts = [{} for _ in parsers]  # raw cell -> its raw code, the row it first appears on
    start, fault = 0, None
    with _csv_file(path, SCORECARD_COLUMNS, SCORECARD_OPTIONAL) as (fh, reader, width, positions):
        size = os.fstat(fh.fileno()).st_size // width + 1  # the most rows a file this size holds
        raws, lines = [np.empty(size, np.int32) for _ in parsers], np.empty(size, np.int32)  # filled in place
        try:
            for start in _scorecard_blocks(fh, reader, width, positions, firsts, raws, lines):
                pass
        except (csv.Error, UnicodeDecodeError, IngestError) as exc:  # reported unless a faulty cell comes first
            fault = exc
        for array in (*raws, lines):  # in place: freeing the unused rows too would raise malloc's mmap threshold
            array.resize(start, refcheck=False)
        blanks = [[code for cell, code in first.items() if not cell.strip()] for first in firsts]
        kept = (~np.logical_and.reduce([np.isin(raw, blank) for raw, blank in zip(raws, blanks)]) if all(blanks)
                else np.ones(start, bool))  # not a blank row: none is while some column has no blank cell
        codes, faults = [], []
        for k, (parse, vocab, first, raw) in enumerate(zip(parsers, vocabs, firsts, raws)):
            lookup, bad = np.zeros(start, np.intp if vocab is not None else np.uint8), {}  # a score is its own code
            for cell, code in first.items():  # in the order of first rows
                try:
                    value = parse(cell, int(lines[code]))
                except IngestError as exc:
                    bad[code] = exc
                    continue
                lookup[code] = value if vocab is None else vocab.setdefault(value, len(vocab))
            hit = np.flatnonzero(np.isin(raw, list(bad)) & kept) if bad else ()  # bad cells on non-blank rows
            if len(hit):
                faults.append((int(hit[0]), k, bad[int(raw[hit[0]])]))
            codes.append(lookup[raw if kept.all() else raw[kept]])
            raws[k] = None
        if faults:
            row, _, exc = min(faults, key=itemgetter(0, 1))
            exc.row = int(lines[row])
            raise exc
        if fault:
            raise fault
    judge, beverage, score, tags, notes = codes
    judges = sorted(judge_ids)  # a judge's first-seen code becomes its place in this list
    judge = np.array(list(map(dict(zip(judges, count())).get, judge_ids)), np.intp)[judge]
    derive, texts = (tags == 0) & (notes != 0), tuple(note_texts)  # a note without tags: the tags it implies
    if derive.any():
        derived = np.zeros(len(texts), np.intp)
        for n in np.unique(notes[derive]).tolist():
            derived[n] = tag_sets.setdefault(derive_note_tags(texts[n]), len(tag_sets))
        tags = np.where(derive, derived[notes], tags)
    table = ReviewTable(tuple(islice(places, len(beverages), None)), tuple(tag_sets), texts, judge, beverage,
                        tags, notes, score)
    return Dataset(beverages, table, judges)


def _parse_score(cell: str, line: int) -> int:
    """The score's tenths, 10 to 50."""
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
    return round(score * 10)


def write_scorecards_csv(dataset: Dataset, path: str | Path) -> None:
    """``write_csv`` of the reviews, rows joined from their codes into each
    distinct cell, quoted once; a score's cell is ``_GRID``'s, by its tenths."""
    table = dataset.reviews
    columns = dict(zip(SCORECARD_COLUMNS, (  # column -> (cell text per code, per-row codes)
        (dataset.judges, table.judge),
        ([*(b.name for b in dataset.beverages), *table.unknown], table.beverage),
        (_GRID, table.score - 10),
    )))
    for column, cells, codes in (
        ("tags", [";".join(sorted(t.value for t in tags)) for tags in table.tag_sets], table.tags),
        ("note", [note or "" for note in table.note_texts], table.notes),
    ):
        if any(cell for cell, n in zip(cells, np.bincount(codes, minlength=len(cells))) if n):
            columns[column] = (cells, codes)
    cells, codes = zip(*columns.values())
    write_csv(path, list(columns), csv_lines(list(map(csv_texts, cells)), codes))


def load_dataset(
    beverages_path: str | Path,
    scorecards_path: str | Path,
    families: list[StyleFamily] | None = None,
) -> Dataset:
    return parse_scorecards_csv(scorecards_path, parse_beverages_csv(beverages_path, families))


# the inline pool's text fields, in _beverage_from_fields order
_POOL_TEXT = ("brewery", "beer_name", "beer_style", "ingredients", "tags")

# the reader of a protocol record's field from a JSON object, by its annotation's text (a str or ForwardRef)
_JSON_READERS = {
    "bool": _json_bool,
    "float": _json_number,
    "int": partial(_json_number, integer=True),
    "Mapping[str, float]": lambda entry, key, where: {
        name: _json_number(entry[key], name, f"{where}: {key}") for name in entry[key]},
    "tuple[float, float]": lambda entry, key, where: _json_pair(entry[key], key),
    "tuple[tuple[int, int], ...]": lambda entry, key, where: tuple(
        _json_pair(w, f"{key}[{i}]", integer=True) for i, w in enumerate(entry[key])),
}


def _json_fields(record: type, entry: dict, where: str, **given) -> dict:
    """``given`` plus each other field of the protocol record ``record``
    that ``entry`` holds, read in field order, so of two faulty fields the
    first is reported; a field the entry leaves out takes the record's default."""
    for name, annotation in record.__annotations__.items():
        if name in entry and name not in given:
            given[name] = _JSON_READERS[getattr(annotation, "__forward_arg__", annotation)](entry, name, where)
    return given


def _profile_from_dict(entry: dict) -> ParticipantProfile:
    from .protocol import ParticipantProfile
    if not isinstance(entry, dict) or "id" not in entry:
        raise ConfigurationError("each federation entry must be an object with an id")
    pid = _json_str(entry, "id", "federation entry")
    where = f"participant {pid!r}"
    _known_keys(entry, ParticipantProfile.__annotations__, where)
    bias = entry.get("score_bias", {})
    if not isinstance(bias, dict):
        raise ConfigurationError(f"{where}: score_bias must be an object, got {bias!r}")
    return ParticipantProfile(**_json_fields(ParticipantProfile, entry, where, id=pid))


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
        _known_keys(raw, ("pool_csv", *SessionConfig.__annotations__), "")
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
                pool = parse_beverages_csv((path.parent / pool_csv).resolve(), families, unique_names=True)
            except IngestError as exc:
                raise ConfigurationError(f"pool_csv: {exc}") from None
        else:
            bucket = style_bucketer(families)
            pool = []
            for i, entry in enumerate(raw["pool"]):
                where = f"pool entry {i}"
                if not isinstance(entry, dict):
                    raise ConfigurationError(f"{where} must be an object")
                _known_keys(entry, (*_POOL_TEXT, "abv_percent"), where)
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
        _known_keys(cost, CostParams.__annotations__, "cost_params")
        cost_params = CostParams(**_json_fields(CostParams, cost, "cost_params"))

        return SessionConfig(**_json_fields(SessionConfig, raw, "", federation=federation, pool=pool,
                                            cost_params=cost_params))


def round_log_lines(result: SessionResult) -> Iterator[str]:
    """Yield one line per round, the bytes ``json.dumps(..., sort_keys=True)``
    gives for the round as a dict (``round_dict`` in ``tests/oracles.py`` is
    that reference), encoded from the rounds' codes through tables built
    once per federation: each member's JSON id, the members in sorted-id
    order (a round's procurers and reviewers are listed in that order, each
    distinct set joined once) and one ``judge, "raw_score": score}`` review
    tail per member and score, by its tenths. Its numbers are ``json_texts``',
    a column per field: json's own texts, NaN and infinities included."""
    rounds = result.rounds
    fields = ("broadcast_cost", "clock", "comprehension_cost", "index")
    numbers = zip(*(json_texts([getattr(r, field) for r in rounds]) for field in fields))
    members = None
    for r, (broadcast, clock, comprehension, index) in zip(rounds, numbers):
        if r.members is not members:  # every round of a session shares one tuple
            members = r.members
            ids = list(map(encode_basestring_ascii, members))  # as json.dumps encodes a str
            by_id = sorted(range(len(ids)), key=members.__getitem__)
            rank = np.empty(len(ids), np.intp)
            rank[by_id] = np.arange(len(ids))
            sorted_ids = np.array(ids, dtype=object)[by_id]
            tails = np.array([[f'{i}, "raw_score": {v}}}' for v in _GRID] for i in ids], dtype=object)
            listed = lru_cache(1024)(  # a set of positions, by its bytes and dtype -> its sorted JSON ids
                lambda key, dtype: ", ".join(sorted_ids[np.sort(rank[np.frombuffer(key, dtype)])].tolist()))
        procurers, reviewers = [listed(p.tobytes(), p.dtype) for p in (r.procurer_positions, r.reviewer_positions)]
        beverage = encode_basestring_ascii(r.beverage_id)
        prefix = f'{{"beverage_id": {beverage}, "judge_id": '
        reviews = (", " + prefix).join(tails[r.reviewer_positions, r.scores - 10].tolist())
        yield (f'{{"beverage_id": {beverage}, "broadcast_cost": {broadcast}, "clock": {clock}, '
               f'"comprehension_cost": {comprehension}, "index": {index}, "leader_id": {ids[r.leader_position]}, '
               f'"procurers": [{procurers}], "reviewers": [{reviewers}], '
               f'"reviews": [{prefix + reviews if reviews else ""}]}}')


def write_session_outputs(result: SessionResult, out_dir: str | Path) -> dict[str, Path]:
    """Write beverages.csv, scorecards.csv, session_log.jsonl and
    session_summary.json into out_dir, all or none of them; returns the
    paths by name."""
    with staged_outputs(out_dir) as out:
        paths = {Path(name).stem: out / name for name in SESSION_FILES}
        write_beverages_csv(result.dataset.beverages, paths["beverages"])
        write_scorecards_csv(result.dataset, paths["scorecards"])
        with open(paths["session_log"], "w", encoding="utf-8") as fh:  # a block of lines at a time: no copy of the log
            lines = round_log_lines(result)
            while block := list(islice(lines, _LOG_LINES)):
                fh.write("\n".join(block) + "\n")
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
