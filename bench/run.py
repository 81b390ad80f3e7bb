#!/usr/bin/env python3
"""beerfed benchmark: fresh-process CLI timings, plus a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload paper|stress|sparse [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` generates the workload's inputs from the seed, then repeats
``import beerfed`` -> ``simulate`` -> ``analyze`` -> ``eval-recs`` as fresh
``python -m beerfed.cli`` processes against this checkout's ``src/``, one
child at a time, round-robin and time-fair, for about ``--seconds`` (see
``MIN_SAMPLES`` and ``STRETCH``). It reports the median wall time
of each subcommand and of a bare import (``setup_s``), and the peak RSS of
the CLI children. ``--trace 1`` runs the same pipeline in this process with
and without the stage spans of ``spans.py``, and reports per-layer times
and counts plus an ``-X importtime`` split of the import.

Every call's outputs are checked: exit code, file set, scorecard rows
against the reviews logged, one table row per readable model, coverage on
the 1/(J*K) grid, identical digests across repetitions, and for a
workload's default seed the sha256 digests in ``golden.json``. The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"
PY = sys.executable
RUN_LIMIT_S = 170.0  # a child still running this long after the start is killed
SETUP_PROBES = 2  # import probes before and again after the timed subcommands
# Subcommands are timed round-robin, time-fair: once each has MIN_SAMPLES,
# a round skips whichever has used the most time, so a 2 s simulate gets
# more samples than a 15 s eval-recs. A run lasts --seconds, or three
# first pipelines when those are longer, capped at STRETCH x --seconds; a
# subcommand short of MIN_SAMPLES may run past the first limit, not the cap.
MIN_SAMPLES = 2
STRETCH = 2.5
IMPORTTIME_PROBES = 3

STAGES = {
    "simulate": ("sim", ("beverages.csv", "scorecards.csv", "session_log.jsonl", "session_summary.json")),
    "analyze": ("rep", ("abv_bands.csv", "agreement.csv", "bottom10.csv", "divisive.csv",
                        "judge_stats.csv", "per_style.csv", "report.json", "style_counts.csv",
                        "top10.csv")),
    "eval": ("eval", ("metrics.csv", "metrics.json")),
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here at all (no result is printed)."""


def cli_args(stage: str, inputs: workloads.Inputs, out: Path) -> list[str]:
    sim = out / "sim"
    if stage == "simulate":
        return ["simulate", str(inputs.config), "--out", str(sim)]
    tables = [str(sim / "scorecards.csv"), str(sim / "beverages.csv")]
    if stage == "analyze":
        return ["analyze", *tables, "--out-dir", str(out / "rep"), *inputs.analyze_flags]
    return ["eval-recs", str(inputs.recs_dir / "*.json"), *tables,
            "--out", str(out / "eval" / "metrics.csv"), *inputs.eval_flags]


class Children:
    """Starts one child at a time and reaps it with its resource usage."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def run(self, argv: list[str], log: Path) -> tuple[int, float, int]:
        """Returns exit code, wall seconds and peak RSS in KiB."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return -9, 0.0, 0
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=fh, stderr=subprocess.STDOUT)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss

    def output(self, argv: list[str]) -> str:
        done = subprocess.run(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise BenchError(f"{argv[1:]} exited {done.returncode}: {done.stderr.strip()[-400:]}")
        return done.stdout + done.stderr


def provenance(children: Children) -> dict:
    probe = ("import json, sys, importlib.metadata as md, beerfed\n"
             "def version(name):\n"
             "    try:\n"
             "        return md.version(name)\n"
             "    except md.PackageNotFoundError:\n"
             "        return None\n"
             "print(json.dumps({'python': sys.version, 'numpy': version('numpy'), "
             "'scipy': version('scipy'), 'beerfed_file': beerfed.__file__}))")
    info = json.loads(children.output([PY, "-c", probe]).strip().splitlines()[-1])
    if not Path(info["beerfed_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"beerfed resolves to {info['beerfed_file']}, not under {SRC}")
    commit = dirty = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            git = ["git", "-C", str(ROOT)]
            commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
            dirty = bool(subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                        capture_output=True, text=True, timeout=30).stdout.strip())
    info.update(git_commit=commit, git_dirty=dirty, nproc=os.cpu_count(),
                cpus_usable=len(os.sched_getaffinity(0)),
                thread_env={v: os.environ.get(v) for v in THREAD_VARS})
    return info


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _judges_and_rows(scorecards: Path) -> tuple[set[str], int]:
    with open(scorecards, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        judges, rows = set(), 0
        for record in reader:
            judges.add(record[0])
            rows += 1
    return judges, rows


def check_stage(stage: str, out: Path, inputs: workloads.Inputs,
                reviews: int | None = None) -> tuple[list[str], dict[str, str]]:
    """Structural checks of one call's outputs; returns errors and digests.

    ``reviews`` is the protocol's review count when traced; a fresh
    process is checked against the reviews in its own round log instead.
    """
    sub, expected = STAGES[stage]
    d = out / sub
    found = sorted(p.name for p in d.iterdir()) if d.is_dir() else []
    if found != sorted(expected):
        return [f"{stage}: wrote {found}, expected {sorted(expected)}"], {}
    errors = []
    if stage == "simulate":
        judges = set(json.loads((d / "session_summary.json").read_text(encoding="utf-8"))["judges"])
        with open(d / "session_log.jsonl", encoding="utf-8") as fh:
            logged = sum(1 for line in fh for r in json.loads(line)["reviews"] if r["judge_id"] in judges)
        _, rows = _judges_and_rows(d / "scorecards.csv")
        if rows != logged or (reviews is not None and rows != reviews):
            errors.append(f"simulate: {rows} scorecard rows, {logged} reviews logged, {reviews} traced")
    elif stage == "eval":
        judges, _ = _judges_and_rows(out / "sim" / "scorecards.csv")
        with open(d / "metrics.csv", encoding="utf-8", newline="") as fh:
            table = list(csv.reader(fh))
        full = json.loads((d / "metrics.json").read_text(encoding="utf-8"))
        if len(table) - 1 != inputs.models or len(full) != inputs.models:
            errors.append(f"eval: {len(table) - 1} table rows, {len(full)} JSON rows, "
                          f"{inputs.models} readable models")
        for row in full:
            slots = row["coverage"] * len(judges) * workloads.K
            if abs(slots - round(slots)) > 1e-9:
                errors.append(f"eval: {row['model']} coverage {row['coverage']!r} is off the 1/(J*K) grid")
    return errors, {f"{sub}/{name}": sha256(d / name) for name in expected}


class Reference:
    """Digests every repetition must reproduce: the committed golden ones
    for a default seed, else those of the run's first pipeline."""

    def __init__(self, workload: str, seed: int, record: bool):
        self.digests: dict[str, str] = {}
        golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
        self.golden = seed == workloads.DEFAULT_SEEDS[workload] and not record
        if self.golden:
            if workload not in golden:
                raise BenchError(f"no golden digests for {workload} in {GOLDEN}")
            self.digests = dict(golden[workload]["sha256"])

    def compare(self, stage: str, digests: dict[str, str]) -> list[str]:
        errors = []
        for name, digest in digests.items():
            want = self.digests.setdefault(name, digest)
            if digest != want:
                source = "golden" if self.golden else "first repetition"
                errors.append(f"{stage}: {name} sha256 {digest[:12]} differs from the {source} {want[:12]}")
        return errors


class Tally:
    """CLI calls attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, errors: list[str]) -> bool:
        self.attempted += 1
        self.failed += bool(errors)
        self.errors += errors
        return not errors


def _fresh_call(children: Children, stage: str, inputs, out: Path, ref: Reference,
                tally: Tally) -> tuple[bool, float, int]:
    """One subcommand as a fresh process, into a fresh output directory."""
    shutil.rmtree(out / STAGES[stage][0], ignore_errors=True)
    log = out / f"{stage}.log"
    rc, wall, kib = children.run([PY, "-m", "beerfed.cli", *cli_args(stage, inputs, out)], log)
    if rc != 0:
        errors = [f"{stage}: exit {rc}: {log.read_text(errors='replace')[-300:].strip()}"]
    else:
        errors, digests = check_stage(stage, out, inputs)
        errors = errors or ref.compare(stage, digests)
    return tally.call(errors), wall, kib


def run_fresh(args, inputs, work: Path, children: Children, ref: Reference, tally: Tally, t0: float):
    samples: dict[str, list[float]] = {"setup_s": [], "simulate_s": [], "analyze_s": [], "eval_s": []}
    rss: list[int] = []

    def probe():
        rc, wall, _ = children.run([PY, "-c", "import beerfed"], work / "import.log")
        if rc != 0:
            raise BenchError(f"import beerfed exited {rc}")
        samples["setup_s"].append(wall)

    for _ in range(SETUP_PROBES):
        probe()
    out = work / "out"
    out.mkdir()
    spent = dict.fromkeys(STAGES, 0.0)
    cap = STRETCH * args.seconds
    window = cap  # until the first pipeline has been timed
    start = time.monotonic()
    ok = ran = True
    while ok and ran:
        top = max(spent.values())
        ran = False
        for stage in STAGES:
            n = len(samples[f"{stage}_s"])
            if n >= MIN_SAMPLES and spent[stage] >= top:
                continue
            end = time.monotonic() - start + (spent[stage] / n if n else 0.0)
            if end > (window if n >= MIN_SAMPLES else cap) or time.monotonic() - t0 > RUN_LIMIT_S - 30:
                continue
            ok, wall, kib = _fresh_call(children, stage, inputs, out, ref, tally)
            samples[f"{stage}_s"].append(wall)
            rss.append(kib)
            spent[stage] += wall
            ran = True
            if not ok:
                break
        if window == cap and all(samples[f"{s}_s"] for s in STAGES):
            window = min(cap, max(args.seconds, 3 * sum(spent.values())))
    for _ in range(SETUP_PROBES):
        probe()
    for name, values in samples.items():
        if values:
            print(f"{name:12s} median {statistics.median(values):9.4f} s   min {min(values):9.4f}   "
                  f"max {max(values):9.4f}   n={len(values)}")
    print(f"peak_rss_mb  {max(rss) / 1024:9.1f} MB over {len(rss)} CLI children")
    metrics = {name: {"value": statistics.median(v), "unit": "s"} for name, v in samples.items() if v}
    metrics["peak_rss_mb"] = {"value": max(rss) / 1024, "unit": "MB"}
    return metrics, {name: len(v) for name, v in samples.items()}


def _inprocess_pipeline(inputs, out: Path, tally: Tally, ref: Reference,
                        tracer: spans.Tracer | None) -> tuple[float, dict[str, str]]:
    """One in-process simulate -> analyze -> eval-recs; returns the wall
    time and the digests of everything written."""
    from beerfed import cli

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    digests: dict[str, str] = {}
    wall = 0.0
    with open(out / "stderr.log", "w", encoding="utf-8") as log, contextlib.redirect_stderr(log):
        for i, stage in enumerate(STAGES):
            argv = cli_args(stage, inputs, out)
            t = time.perf_counter()
            try:
                rc = cli.main(argv) if tracer is None else tracer.call(stage, cli.main, argv)
            except Exception as exc:  # a traceback is a failed call, not a benchmark crash
                rc = repr(exc)
            wall += time.perf_counter() - t
            reviews = None
            if tracer is not None and stage == "simulate":
                run = [s for s in tracer.spans if s[0] == "protocol.run_session"]
                reviews = run[-1][6]["reviews"] if run else None
            errors, d = check_stage(stage, out, inputs, reviews) if rc == 0 else ([f"{stage}: exit {rc}"], {})
            errors = errors or ref.compare(stage, d)
            digests.update(d)
            if not tally.call(errors):
                for _ in list(STAGES)[i + 1:]:
                    tally.call([f"{stage} failed first"])
                break
    return wall, digests


def run_traced(args, inputs, work: Path, children: Children, ref: Reference, tally: Tally, t0: float):
    imports = [spans.parse_importtime(children.output([PY, "-X", "importtime", "-c", "import beerfed"]))
               for _ in range(IMPORTTIME_PROBES)]
    sys.path.insert(0, str(SRC))
    import beerfed
    import beerfed.cli
    import beerfed.receval
    import beerfed.reports

    if not Path(beerfed.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"beerfed resolves to {beerfed.__file__}, not under {SRC}")
    modules = {m.__name__: m for m in (beerfed.cli, beerfed.reports, beerfed.receval)}
    tracer = spans.Tracer(args.workload)
    missing: list[str] = []
    rows = []
    start = time.monotonic()
    pair = 0
    while True:
        now = time.monotonic()
        if pair:
            per_pair = (now - start) / pair
            if now - start + per_pair > args.seconds or now - t0 + per_pair > RUN_LIMIT_S - 5:
                break
        walls, digests = {}, {}
        # alternate which side runs first, so warm caches favour neither
        for side in (("plain", "traced") if pair % 2 == 0 else ("traced", "plain")):
            if side == "traced":
                tracer.pipeline = pair
                missing = tracer.install(modules)
                try:
                    walls[side], digests[side] = _inprocess_pipeline(
                        inputs, work / side, tally, ref, tracer)
                finally:
                    tracer.uninstall()
            else:
                walls[side], digests[side] = _inprocess_pipeline(inputs, work / side, tally, ref, None)
        if digests["traced"] != digests["plain"]:
            tally.call(["traced outputs differ from untraced ones"])
        if tally.failed:
            break
        m = spans.pipeline_metrics(tracer.take())
        m["trace.total_s"] = walls["traced"]
        m["trace.overhead_s"] = walls["traced"] - walls["plain"]
        rows.append(m)
        pair += 1
    tracer.write_jsonl(work / "spans.jsonl")
    if not rows:
        return {}, {}
    result = {**spans.medians(imports), **spans.medians(rows)}
    for name, value in result.items():
        print(f"{name:40s} {value:14.6f}")
    if missing:
        print(f"not wrapped, no longer in the program: {', '.join(missing)}")
    print(f"{pair} traced/untraced pipeline pairs, {IMPORTTIME_PROBES} importtime probes; "
          f"spans in {work / 'spans.jsonl'}")
    metrics = {name: {"value": value, "unit": _unit(name)} for name, value in result.items()}
    return metrics, {"pairs": pair, "importtime_probes": IMPORTTIME_PROBES}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("ratio"):
        return "1"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=None, help="input seed (default: the workload's)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json digests for this workload's default seed")
    args = parser.parse_args(argv)
    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    if args.record_golden and seed != workloads.DEFAULT_SEEDS[args.workload]:
        parser.error("--record-golden needs the workload's default seed")

    t0 = time.monotonic()
    if not (SRC / "beerfed" / "__init__.py").is_file():
        print(f"error: no beerfed package under {SRC}", file=sys.stderr)
        return 2
    children = Children(t0 + RUN_LIMIT_S)
    try:
        load_before = os.getloadavg()
        prov = provenance(children)  # also compiles src/ so no timed call pays for it
        work = WORK / args.workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        tally = Tally()
        problem = workloads.self_check(args.workload, seed, work)
        if problem:
            tally.errors.append(problem)
        inputs = workloads.generate(args.workload, seed, work / "inputs")
        ref = Reference(args.workload, seed, args.record_golden)
        if args.workload == "paper":
            seed_run = work / "inputs" / "seed_run"
            rc, _, _ = children.run([PY, "-m", "beerfed.cli", *cli_args("simulate", inputs, seed_run)],
                                    work / "seed_run.log")
            if rc != 0:
                raise BenchError(f"simulate for the paper models exited {rc}")
            workloads.write_paper_models(inputs.recs_dir, seed_run / "sim" / "scorecards.csv")
        run = run_traced if args.trace else run_fresh
        metrics, counts = run(args, inputs, work, children, ref, tally, t0)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    prov.update(workload=args.workload, seed=seed, seconds=args.seconds, trace=args.trace,
                samples=counts, loadavg_before=load_before, loadavg_after=os.getloadavg(),
                elapsed_s=time.monotonic() - t0, golden=ref.golden)
    print("provenance " + json.dumps(prov, sort_keys=True))
    for error in tally.errors[:20]:
        print(f"FAILED {error}")
    if args.record_golden and not tally.errors:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
        golden[args.workload] = {"seed": seed, "sha256": dict(sorted(ref.digests.items()))}
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {len(ref.digests)} digests for {args.workload} in {GOLDEN}")
    print(json.dumps({
        "correct": not tally.errors and bool(metrics),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
