"""Byte-identity guard: the paper workload's simulate -> analyze -> eval-recs
outputs must hash to the digests committed in bench/golden.json.

The inputs and the command lines come from the benchmark's own
bench/workloads.py and bench/run.py (imported, never edited), so this test
and the benchmark check the same 15 files.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from beerfed import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))  # run.py imports its siblings by bare name

import workloads  # noqa: E402

_spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)


def test_paper_pipeline_matches_golden_digests(tmp_path):
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))["paper"]
    assert golden["seed"] == workloads.DEFAULT_SEEDS["paper"]
    inputs = workloads.generate("paper", golden["seed"], tmp_path / "inputs")
    out = tmp_path / "out"

    assert cli.main(bench_run.cli_args("simulate", inputs, out)) == 0
    workloads.write_paper_models(inputs.recs_dir, out / "sim" / "scorecards.csv")
    assert cli.main(bench_run.cli_args("analyze", inputs, out)) == 0
    assert cli.main(bench_run.cli_args("eval", inputs, out)) == 0

    digests = {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.rglob("*")
        if p.is_file()
    }
    assert digests == golden["sha256"]
