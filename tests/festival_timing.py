#!/usr/bin/env python3
"""Time ``analyze --lenient`` on festival-shaped files: many judges, each
scoring a few beverages (``genutil.festival_files``, 3 per judge unless a
size says otherwise). Not a test, so pytest does not collect it. Run from
the repository root:

    python3 tests/festival_timing.py [--src SRC ...] [--sizes 2000x1000,4000x2000,1500x60x60]
                                     [--repeat N] [--work DIR] [-- ANALYZE_ARGS]

A size is JUDGESxBEVERAGES or JUDGESxBEVERAGESxPER_JUDGE: ``1500x60x60``
is a dense file, every judge scoring every beverage.

Each run is a fresh ``python -m beerfed.cli analyze --lenient`` child of
this launcher, which never imports numpy or beerfed: Linux carries a
parent's high-water RSS across fork and exec into the child's
``ru_maxrss``, so the launcher keeps its own small. Wall time and peak RSS
come from ``os.wait4``. With two or more ``--src`` trees (each a checkout's
``src``) the runs alternate between them, and every tree's outputs must be
byte-identical to the first tree's. The files are written once per size
under ``--work`` by a separate child. Prints one JSON line per tree and
size with the median wall time and peak RSS, and every run's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent


def festival(work: Path, judges: int, beverages: int, per_judge: int, src: str) -> tuple[Path, Path]:
    """The (scorecards, beverages) paths of one size, written on first use."""
    where = work / f"{judges}x{beverages}x{per_judge}"
    cards, pool = where / "festival_scorecards.csv", where / "festival_beverages.csv"
    if not cards.exists():
        where.mkdir(parents=True, exist_ok=True)
        code = (f"import sys; sys.path[:0] = [{str(TESTS)!r}, {src!r}]; from pathlib import Path; "
                f"from genutil import festival_files; festival_files(Path({str(where)!r}), {judges}, {beverages}, {per_judge})")
        subprocess.run([sys.executable, "-c", code], check=True)
    return cards, pool


def digest(out: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted(out.iterdir()):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def run(src: str, cards: Path, pool: Path, out: Path, extra: list[str]) -> tuple[float, float]:
    """One child's wall time in seconds and peak RSS in MB."""
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "beerfed.cli", "analyze", str(cards), str(pool), "--out-dir", str(out),
            "--lenient", *extra]
    start = time.perf_counter()
    child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"{' '.join(argv)}: exit {os.waitstatus_to_exitcode(status)}")
    return wall, usage.ru_maxrss / 1024


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", help="a tree's src directory (default: this checkout's)")
    parser.add_argument("--sizes", default="2000x1000,4000x2000", help="JUDGESxBEVERAGES[xPER_JUDGE], comma-separated")
    parser.add_argument("--repeat", type=int, default=3, help="runs per tree and size")
    parser.add_argument("--work", default=None, help="directory for the files (default: a temporary one)")
    parser.add_argument("extra", nargs="*", help="more analyze arguments, after --")
    args = parser.parse_args()
    srcs = [str(Path(s).resolve()) for s in args.src or [ROOT / "src"]]
    work = Path(args.work) if args.work else Path(tempfile.mkdtemp(prefix="festival-"))
    try:
        for size in args.sizes.split(","):
            judges, beverages, per_judge = [*map(int, size.split("x")), 3][:3]
            cards, pool = festival(work, judges, beverages, per_judge, srcs[0])
            runs: dict[str, list[tuple[float, float]]] = {src: [] for src in srcs}
            digests: dict[str, set[str]] = {src: set() for src in srcs}
            for i in range(args.repeat):
                for k, src in enumerate(srcs if i % 2 == 0 else srcs[::-1]):
                    out = work / f"out{srcs.index(src)}"
                    shutil.rmtree(out, ignore_errors=True)
                    runs[src].append(run(src, cards, pool, out, args.extra))
                    digests[src].add(digest(out))
            for src in srcs:
                walls, peaks = zip(*runs[src])
                print(json.dumps({
                    "src": src, "judges": judges, "beverages": beverages, "per_judge": per_judge, "args": args.extra,
                    "wall_s": statistics.median(walls), "peak_rss_mb": statistics.median(peaks),
                    "same_outputs_as_first": digests[src] == digests[srcs[0]] and len(digests[src]) == 1,
                    "runs": [[round(w, 3), round(p, 1)] for w, p in runs[src]],
                }), flush=True)
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
