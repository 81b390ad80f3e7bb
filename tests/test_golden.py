"""Byte-identity guard: the simulate -> analyze -> eval-recs outputs of the
paper and sparse workloads must hash to the digests committed in
bench/golden.json.

The inputs and the command lines come from the benchmark's own
bench/workloads.py and bench/run.py (imported, never edited), so this test
and the benchmark check the same 15 files per workload. Sparse covers the
paths the timed workloads skip: Kendall agreement with missing cells,
z-score normalization, eval-recs --normalized and --hit-ties threshold,
and a malformed recommendation file.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from beerfed import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))  # run.py imports its siblings by bare name

import workloads  # noqa: E402

_spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)


@pytest.mark.parametrize("workload", ["paper", "stress", "sparse"])
def test_pipeline_matches_golden_digests(tmp_path, workload):
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))[workload]
    assert golden["seed"] == workloads.DEFAULT_SEEDS[workload]
    inputs = workloads.generate(workload, golden["seed"], tmp_path / "inputs")
    out = tmp_path / "out"

    assert cli.main(bench_run.cli_args("simulate", inputs, out)) == 0
    if workload == "paper":  # its models are built from the simulated scorecards
        workloads.write_paper_models(inputs.recs_dir, out / "sim" / "scorecards.csv")
    assert cli.main(bench_run.cli_args("analyze", inputs, out)) == 0
    assert cli.main(bench_run.cli_args("eval", inputs, out)) == 0

    digests = {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.rglob("*")
        if p.is_file()
    }
    assert digests == golden["sha256"]
