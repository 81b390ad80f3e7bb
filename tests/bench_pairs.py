#!/usr/bin/env python3
"""Time alternating parent/change pairs of the benchmark, for ROADMAP's
pairing rule. Not a test, so pytest does not collect it. Run from the
repository root:

    python3 tests/bench_pairs.py PARENT CHANGE [--workload paper|stress|sparse] [--pairs N] [--work DIR]

PARENT and CHANGE are two checkouts, each with its own ``src/`` and
``bench/``. Each tree's ``src/`` is compiled with ``compileall`` into its
own ``PYTHONPYCACHEPREFIX`` under ``--work``. One untimed run of the tree's
bench follows, with bytecode writing on, so that the same cache also holds
the standard library and numpy modules the pipeline imports: with a cache
prefix set, Python reads bytecode only from there. Then N pairs of each
tree's unchanged ``bench/run.py --workload W --seconds S`` run one at a
time, where S is ``run_seconds`` from the change's ``BENCHMARK.json``, the
same on both sides: the parent first in even pairs and the change first in
odd ones, with bytecode writing as the caller's environment sets it. Every
run must print ``correct: true``.

For each end-to-end metric in the change's ``BENCHMARK.json`` it prints
each side's median and quartiles, the pairs in which the change is
better, whether the gap between the medians exceeds the parent's
interquartile range, and the change's relative move against the metric's
bound. A claimed gain needs at least 9 wins in 10 and a gap beyond the
IQR; a change that claims none must stay within each bound. It also
prints each tree's ``src/`` line count (``wc -l`` of its ``.py`` files),
so the line-count rule is read from the same run. The last line is one
JSON object with every run's metrics and both line counts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def bench(tree: Path, prefix: Path, workload: str, seconds: float, write_bytecode: bool = False) -> dict:
    """One ``bench/run.py`` run of ``tree``: its end-to-end metrics by name."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(prefix))
    if write_bytecode:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
    if not result.get("correct"):
        raise SystemExit(f"{tree}: {' '.join(argv[1:])} exited {done.returncode} without correct: true\n"
                         + "\n".join(lines[-5:]) + done.stderr[-2000:])
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def src_lines(tree: Path) -> int:
    """The lines of the ``.py`` files under ``tree/src``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src").rglob("*.py"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent checkout")
    parser.add_argument("change", type=Path, help="the changed checkout")
    parser.add_argument("--workload", default="paper", help="the bench workload")
    parser.add_argument("--pairs", type=int, default=10, help="alternating parent/change pairs")
    parser.add_argument("--work", type=Path, default=None, help="directory for the bytecode caches")
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    work = args.work.resolve() if args.work else Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    prefixes = {side: work / f"pycache-{side}" for side in trees}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    for side, tree in trees.items():
        env = dict(os.environ, PYTHONPYCACHEPREFIX=str(prefixes[side]))
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src")], env=env, check=True)
        bench(tree, prefixes[side], args.workload, 1.0, write_bytecode=True)  # the warm-up run

    runs: dict[str, list[dict]] = {side: [] for side in trees}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(bench(trees[side], prefixes[side], args.workload, spec["run_seconds"]))
        print(f"pair {i + 1}/{args.pairs}: " + "  ".join(
            f"{side} " + " ".join(f"{v:.4g}" for v in runs[side][-1].values()) for side in trees), flush=True)

    print(f"{'metric':12s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s} "
          f"{'wins':>6s} {'gap>IQR':>7s} {'move':>7s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        if not all(name in run for side in trees for run in runs[side]):
            print(f"{name:12s} not reported")
            continue
        parent, change = ([run[name] for run in runs[side]] for side in trees)
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        move = sign * (cm - pm) / pm if pm else 0.0  # > 0 is worse
        print(f"{name:12s} {pm:12.4f} [{p1:.4f}, {p3:.4f}] {cm:12.4f} [{c1:.4f}, {c3:.4f}] "
              f"{wins:3d}/{len(parent):<2d} {'yes' if abs(cm - pm) > p3 - p1 else 'no':>7s} "
              f"{move:+7.1%} {'worse' if move > metric['bound'] else 'within':>6s}")
    lines = {side: src_lines(tree) for side, tree in trees.items()}
    print(f"src lines: parent {lines['parent']}, change {lines['change']} ({lines['change'] - lines['parent']:+d})")
    print(json.dumps({"workload": args.workload, "pairs": args.pairs, "seconds": spec["run_seconds"],
                      "trees": {side: str(tree) for side, tree in trees.items()}, "src_lines": lines, "runs": runs}))


if __name__ == "__main__":
    main()
