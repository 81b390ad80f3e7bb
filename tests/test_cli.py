import argparse
import csv
import importlib.resources
import json
import os
import re
import shutil
import stat
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import beerfed
from beerfed import cli, errors, receval
from genutil import write_rec_file

CONFIG = {
    "seed": 42,
    "clock_start": 600,
    "clock_end": 1200,
    "round_duration": 5,
    "federation": [
        {"id": "A", "is_expert": True, "leader_probability": 0.1, "score_noise_sd": 0.4},
        {"id": "B", "is_expert": True, "leader_probability": 0.8, "score_noise_sd": 0.9},
        {"id": "C", "is_expert": True, "leader_probability": 0.1, "score_noise_sd": 0.5},
    ],
    "pool": [
        {
            "brewery": f"Producer {i % 6}",
            "beer_name": f"Batch {i:02d}",
            "beer_style": style,
            "abv_percent": abv,
        }
        for i, (style, abv) in enumerate(
            [
                ("West Coast IPA", 6.5),
                ("Hazy IPA", 6.0),
                ("Fruited Sour", 4.4),
                ("Gose", 4.2),
                ("Imperial Stout", 11.0),
                ("Dry Stout", 4.3),
                ("Pilsner", 4.9),
                ("Saison", 5.9),
                ("Witbier", 5.1),
                ("Belgian Tripel", 9.0),
                ("Iron Brew", 6.6),
                ("Raspberry Saison", 5.2),
                ("Pastry Stout", 10.2),
                ("Helles Lager", 4.8),
                ("Wild Ale", 6.1),
                ("Double IPA", 8.2),
                ("Cherry Ale", 5.0),
                ("Barrel Aged", 9.8),
                ("Berliner Weisse", 3.4),
                ("Oatmeal Stout", 5.4),
            ]
        )
    ],
}


def write_config(tmp_path, **overrides):
    body = dict(CONFIG)
    body.update(overrides)
    path = tmp_path / "session.json"
    path.write_text(json.dumps(body), encoding="utf-8")
    return path


def read_all(path):
    return path.read_bytes()


@pytest.fixture
def sim_outputs(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "sim"
    assert cli.main(["simulate", str(config), "--out", str(out)]) == 0
    return out


class TestSimulate:
    def test_exit_zero_and_files_present(self, sim_outputs):
        for name in ("beverages.csv", "scorecards.csv", "session_log.jsonl", "session_summary.json"):
            assert (sim_outputs / name).exists()

    def test_summary_reports_costs_over_time(self, sim_outputs):
        summary = json.loads((sim_outputs / "session_summary.json").read_text(encoding="utf-8"))
        totals = summary["costs"]["per_round_total"]
        assert len(totals) == summary["rounds"]
        assert summary["costs"]["broadcast_total"] > 0

    def test_seed_makes_runs_identical(self, tmp_path):
        config = write_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.main(["simulate", str(config), "--seed", "7", "--out", str(out1)]) == 0
        assert cli.main(["simulate", str(config), "--seed", "7", "--out", str(out2)]) == 0
        for name in ("beverages.csv", "scorecards.csv", "session_log.jsonl", "session_summary.json"):
            assert read_all(out1 / name) == read_all(out2 / name)

    def test_seed_flag_overrides_config_seed(self, tmp_path):
        config = write_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        cli.main(["simulate", str(config), "--out", str(out1)])
        cli.main(["simulate", str(config), "--seed", "99", "--out", str(out2)])
        assert read_all(out1 / "session_log.jsonl") != read_all(out2 / "session_log.jsonl")

    def test_bad_probability_sum_exits_2(self, tmp_path, capsys):
        cfg = dict(CONFIG)
        cfg["federation"] = [
            {"id": "A", "is_expert": True, "leader_probability": 0.5},
            {"id": "B", "is_expert": True, "leader_probability": 0.6},
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["simulate", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "sum to 1" in capsys.readouterr().err

    def test_missing_config_exits_3(self, tmp_path):
        assert cli.main(["simulate", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")]) == 3

    def test_unwritable_out_exits_3(self, tmp_path):
        config = write_config(tmp_path)
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        blocked.chmod(stat.S_IRUSR | stat.S_IXUSR)
        try:
            rc = cli.main(["simulate", str(config), "--out", str(blocked / "sub")])
        finally:
            blocked.chmod(0o755)
        if os.geteuid() == 0:
            pytest.skip("running as root, permission bits are not enforced")
        assert rc == 3

    @pytest.mark.parametrize(
        "override",
        [
            {"federation": [dict(CONFIG["federation"][0], is_expert="false"), *CONFIG["federation"][1:]]},
            {"include_amateurs": "false"},
        ],
    )
    def test_string_boolean_exits_2(self, tmp_path, capsys, override):
        config = write_config(tmp_path, **override)
        assert cli.main(["simulate", str(config), "--out", str(tmp_path / "x")]) == 2
        assert "must be true or false" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_string_fallback_flag_exits_2(self, tmp_path, capsys):
        families = tmp_path / "families.json"
        families.write_text(
            json.dumps([{"name": "Specialty and hybrid styles", "patterns": [], "fallback": "true"}]),
            encoding="utf-8",
        )
        config = write_config(tmp_path)
        rc = cli.main(["simulate", str(config), "--out", str(tmp_path / "x"), "--families", str(families)])
        assert rc == 2
        assert "fallback must be true or false" in capsys.readouterr().err

    def test_non_string_family_name_exits_2(self, tmp_path, capsys):
        families = tmp_path / "families.json"
        families.write_text(json.dumps([{"name": 5, "patterns": []}]), encoding="utf-8")
        config = write_config(tmp_path)
        rc = cli.main(["simulate", str(config), "--out", str(tmp_path / "x"), "--families", str(families)])
        assert rc == 2
        assert "family entry 0: name must be a string, got 5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("federation", 0, "score_bias"), {"Stout & porter": "high"},
             "score_bias: Stout & porter must be a finite number, got 'high'"),
            (("federation", 0, "score_noise_sd"), float("nan"),
             "score_noise_sd must be a finite number, got nan"),
            (("seed",), True, "seed must be an integer, got True"),
            (("clock_start",), 660.9, "clock_start must be an integer, got 660.9"),
            (("round_duration",), "5", "round_duration must be an integer, got '5'"),
            (("federation", 0, "leader_probability"), "0.5",
             "leader_probability must be a finite number, got '0.5'"),
            (("federation", 0, "id"), None, "id must be a string, got None"),
            (("federation", 0, "id"), 7, "id must be a string, got 7"),
        ],
        ids=["bias-string", "noise-nan", "seed-bool", "clock-fraction", "duration-string", "leader-string",
             "id-null", "id-number"],
    )
    def test_untyped_number_in_calibration_config_exits_2(self, tmp_path, capsys, path, value, message):
        data = Path(beerfed.__file__).parent / "data"
        shutil.copy(data / "calibration_beverages.csv", tmp_path)
        body = json.loads((data / "calibration_session.json").read_text(encoding="utf-8"))
        *parents, key = path
        target = body
        for step in parents:
            target = target[step]
        target[key] = value
        config = tmp_path / "session.json"
        config.write_text(json.dumps(body), encoding="utf-8")
        assert cli.main(["simulate", str(config), "--out", str(tmp_path / "x")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_json_errors_mode(self, tmp_path, capsys):
        cfg = dict(CONFIG)
        cfg["federation"] = [{"id": "A", "is_expert": True, "leader_probability": 0.9}]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["--json-errors", "simulate", str(path), "--out", str(tmp_path / "x")]) == 2
        line = capsys.readouterr().err.strip().splitlines()[0]
        record = json.loads(line)
        assert record["level"] == "error"
        assert record["code"] == "CONFIG"


class TestAnalyze:
    def test_eight_tables_and_report(self, sim_outputs, tmp_path):
        out = tmp_path / "rep"
        rc = cli.main(
            ["analyze", str(sim_outputs / "scorecards.csv"), str(sim_outputs / "beverages.csv"), "--out-dir", str(out)]
        )
        assert rc == 0
        expected = {
            "style_counts.csv", "abv_bands.csv", "judge_stats.csv", "agreement.csv",
            "top10.csv", "bottom10.csv", "per_style.csv", "divisive.csv", "report.json",
        }
        assert {p.name for p in out.iterdir()} == expected

    def test_single_review_beverage_exits_4(self, sim_outputs, tmp_path, capsys):
        scorecards = (sim_outputs / "scorecards.csv").read_text(encoding="utf-8")
        lines = scorecards.strip().splitlines()
        victim = lines[1].split(",")[1]
        kept = [lines[0]] + [l for l in lines[1:] if l.split(",")[1] != victim]
        kept.append(f"A,{victim},3.5")
        trimmed = tmp_path / "trimmed.csv"
        trimmed.write_text("\n".join(kept) + "\n", encoding="utf-8")
        rc = cli.main(
            ["analyze", str(trimmed), str(sim_outputs / "beverages.csv"), "--out-dir", str(tmp_path / "rep")]
        )
        assert rc == 4
        assert "MISSING_REVIEWS" in capsys.readouterr().err

    def test_lenient_downgrades_to_exit_zero(self, sim_outputs, tmp_path):
        scorecards = (sim_outputs / "scorecards.csv").read_text(encoding="utf-8")
        lines = scorecards.strip().splitlines()
        victim = lines[1].split(",")[1]
        kept = [lines[0]] + [l for l in lines[1:] if l.split(",")[1] != victim]
        kept.append(f"A,{victim},3.5")
        trimmed = tmp_path / "trimmed.csv"
        trimmed.write_text("\n".join(kept) + "\n", encoding="utf-8")
        rc = cli.main(
            [
                "analyze", str(trimmed), str(sim_outputs / "beverages.csv"),
                "--out-dir", str(tmp_path / "rep"), "--lenient",
            ]
        )
        assert rc == 0
        assert (tmp_path / "rep" / "report.json").exists()

    def test_utf8_bom_inputs_match_plain_run(self, sim_outputs, tmp_path):
        bom = tmp_path / "bom"
        bom.mkdir()
        for name in ("scorecards.csv", "beverages.csv"):
            (bom / name).write_bytes(b"\xef\xbb\xbf" + (sim_outputs / name).read_bytes())
        for src, out in ((sim_outputs, tmp_path / "plain"), (bom, tmp_path / "from_bom")):
            rc = cli.main(
                ["analyze", str(src / "scorecards.csv"), str(src / "beverages.csv"), "--out-dir", str(out)]
            )
            assert rc == 0
        plain = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert plain == sorted(p.name for p in (tmp_path / "from_bom").iterdir())
        for name in plain:
            assert read_all(tmp_path / "from_bom" / name) == read_all(tmp_path / "plain" / name)

    def test_analyze_deterministic(self, sim_outputs, tmp_path):
        a, b = tmp_path / "rep_a", tmp_path / "rep_b"
        for out in (a, b):
            assert cli.main(
                ["analyze", str(sim_outputs / "scorecards.csv"), str(sim_outputs / "beverages.csv"), "--out-dir", str(out)]
            ) == 0
        for name in ("report.json", "top10.csv", "agreement.csv"):
            assert read_all(a / name) == read_all(b / name)

    def test_kendall_flag(self, sim_outputs, tmp_path):
        rc = cli.main(
            [
                "analyze", str(sim_outputs / "scorecards.csv"), str(sim_outputs / "beverages.csv"),
                "--out-dir", str(tmp_path / "rep"), "--agreement", "kendall",
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "rep" / "report.json").read_text(encoding="utf-8"))
        assert report["meta"]["agreement_method"] == "kendall"


def make_rec_file(tmp_path, model_id, picks_by_judge):
    return write_rec_file(tmp_path / f"{model_id}.json", model_id, picks_by_judge)


def top_names(scorecards_csv, judge, n=5):
    rows = [r for r in csv.DictReader(scorecards_csv.read_text(encoding="utf-8").splitlines()) if r["judge_id"] == judge]
    rows.sort(key=lambda r: (-float(r["raw_score"]), r["beer_name"]))
    return [r["beer_name"] for r in rows[:n]]


class TestEvalRecs:
    @pytest.fixture
    def eval_env(self, sim_outputs, tmp_path):
        recdir = tmp_path / "recs"
        recdir.mkdir()
        judges = ["A", "B", "C"]
        tops = {j: top_names(sim_outputs / "scorecards.csv", j) for j in judges}
        make_rec_file(recdir, "model-perfect", tops)
        make_rec_file(recdir, "model-short", {j: tops[j][:4] for j in judges})
        make_rec_file(
            recdir,
            "model-dupe",
            {j: tops[j][:4] + [tops[j][0]] for j in judges},
        )
        make_rec_file(
            recdir,
            "model-offlist",
            {j: tops[j][:4] + ["Imaginary Pils"] for j in judges},
        )
        return recdir

    def test_table_shape_and_order(self, sim_outputs, tmp_path, eval_env):
        out = tmp_path / "table.csv"
        rc = cli.main(
            [
                "eval-recs", str(eval_env / "*.json"),
                str(sim_outputs / "scorecards.csv"), str(sim_outputs / "beverages.csv"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))
        assert rows[0] == ["Model", "Mean rating", "Mean percentile", "Hit@5", "nDCG@5", "Coverage"]
        assert len(rows) == 5
        ratings = [float(r[1]) for r in rows[1:]]
        assert ratings == sorted(ratings, reverse=True)
        by_model = {r[0]: r for r in rows[1:]}
        assert by_model["model-perfect"][5] == "1.000"
        assert by_model["model-perfect"][3] == "1.000"
        assert by_model["model-short"][5] == "0.800"
        json_rows = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
        perfect = next(r for r in json_rows if r["model"] == "model-perfect")
        assert perfect["coverage"] == 1.0

    def test_empty_glob_warns_and_exits_zero(self, sim_outputs, tmp_path, capsys):
        out = tmp_path / "table.csv"
        rc = cli.main(
            [
                "eval-recs", str(tmp_path / "nothing" / "*.json"),
                str(sim_outputs / "scorecards.csv"), str(sim_outputs / "beverages.csv"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert "no recommendation files match" in capsys.readouterr().err
        rows = out.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 1  # header only

    def test_unreadable_file_skipped_unless_strict(self, sim_outputs, tmp_path, eval_env, capsys):
        (eval_env / "broken.json").write_text("{nope", encoding="utf-8")
        out = tmp_path / "table.csv"
        rc = cli.main(
            [
                "eval-recs", str(eval_env / "*.json"),
                str(sim_outputs / "scorecards.csv"), str(sim_outputs / "beverages.csv"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert "skipping" in capsys.readouterr().err
        assert len(out.read_text(encoding="utf-8").splitlines()) == 5

        rc = cli.main(
            [
                "eval-recs", str(eval_env / "*.json"),
                str(sim_outputs / "scorecards.csv"), str(sim_outputs / "beverages.csv"),
                "--out", str(out), "--strict",
            ]
        )
        assert rc == 5

    def test_normalized_flag_changes_rating_scale(self, sim_outputs, tmp_path, eval_env):
        out = tmp_path / "table.csv"
        rc = cli.main(
            [
                "eval-recs", str(eval_env / "model-perfect.json"),
                str(sim_outputs / "scorecards.csv"), str(sim_outputs / "beverages.csv"),
                "--out", str(out), "--normalized",
            ]
        )
        assert rc == 0
        row = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))[1]
        assert float(row[1]) <= 1.0  # ratings now on the normalized scale

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_is_a_usage_error(self, sim_outputs, tmp_path, eval_env, capsys, k):
        out = tmp_path / "table.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(
                [
                    "eval-recs", str(eval_env / "*.json"),
                    str(sim_outputs / "scorecards.csv"), str(sim_outputs / "beverages.csv"),
                    "--out", str(out), "--k", k,
                ]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "must be a positive integer" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "body",
        [
            '{"model_id": "caf\xe9", "profiles": []}'.encode("latin-1"),
            b'{"model_id": "m", "profiles": [{"profile_id": "A", "recommendations": 5}]}',
            b'{"model_id": "m\\ud800", "profiles": []}',
            b'{"model_id": 5, "profiles": []}',
            b'{"model_id": "m", "profiles": [{"profile_id": ["A"], "recommendations": []}]}',
        ],
        ids=["latin-1", "recommendations-not-a-list", "lone-surrogate", "model-id-number", "profile-id-list"],
    )
    def test_unparseable_rec_file_skipped_or_strict_5(self, sim_outputs, tmp_path, eval_env, capsys, body):
        bad = eval_env / "bad.json"
        bad.write_bytes(body)
        argv = [
            "--json-errors", "eval-recs", str(eval_env / "*.json"),
            str(sim_outputs / "scorecards.csv"), str(sim_outputs / "beverages.csv"),
            "--out", str(tmp_path / "table.csv"),
        ]
        assert cli.main(argv) == 0
        (skip,) = [r for r in error_records(capsys) if r.get("code") == "EVAL"]
        assert skip["level"] == "warning" and str(bad) in skip["message"]
        assert len((tmp_path / "table.csv").read_text(encoding="utf-8").splitlines()) == 5

        assert cli.main([*argv, "--strict"]) == 5
        (failure,) = [r for r in error_records(capsys) if r.get("code") == "EVAL"]
        assert failure["level"] == "error" and str(bad) in failure["message"]


    def test_non_string_beverage_name_is_not_in_list(self, tmp_path):
        # 5 must never match the beverage named "5": it is a NOT_IN_LIST slot
        config = write_config(tmp_path, pool=[dict(CONFIG["pool"][0], beer_name="5"), *CONFIG["pool"][1:]])
        sim = tmp_path / "sim"
        assert cli.main(["simulate", str(config), "--out", str(sim)]) == 0
        recs = tmp_path / "recs"
        recs.mkdir()
        for model_id, name in (("as-string", "5"), ("as-number", 5)):
            body = {"model_id": model_id,
                    "profiles": [{"profile_id": "A", "recommendations": [{"beverage_name": name, "rank": 1}]}]}
            (recs / f"{model_id}.json").write_text(json.dumps(body), encoding="utf-8")
        out = tmp_path / "table.csv"
        argv = ["eval-recs", str(recs / "*.json"), str(sim / "scorecards.csv"), str(sim / "beverages.csv")]
        assert cli.main([*argv, "--out", str(out)]) == 0
        rows = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
        assert {r["model"]: r["coverage"] for r in rows} == {"as-string": 1 / 15, "as-number": 0.0}

    @pytest.mark.parametrize("k", [10**9, 10**400], ids=["1e9", "1e400"])
    def test_huge_k_runs_in_bounded_memory(self, sim_outputs, tmp_path, eval_env, k):
        # unused slots must cost nothing: the child's address space is
        # capped, so a regression fails here instead of exhausting memory
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
            "from beerfed import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        out = tmp_path / "table.csv"
        env = dict(os.environ, PYTHONPATH=str(Path(beerfed.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script, "eval-recs", str(eval_env / "*.json"),
             str(sim_outputs / "scorecards.csv"), str(sim_outputs / "beverages.csv"),
             "--out", str(out), "--k", str(k)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))
        assert rows[0][3] == f"Hit@{k}" and len(rows) == 5

    def test_out_ending_in_json_is_rejected(self, sim_outputs, tmp_path, eval_env, capsys):
        # the JSON table goes to --out with a .json suffix: here the CSV itself
        out = tmp_path / "metrics.json"
        rc = cli.main(
            [
                "eval-recs", str(eval_env / "*.json"),
                str(sim_outputs / "scorecards.csv"), str(sim_outputs / "beverages.csv"),
                "--out", str(out),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"--out {out}: the JSON table would overwrite the CSV table" in err
        assert not out.exists()

    @pytest.mark.parametrize("strict", [False, True])
    def test_rec_file_errors_name_the_file_once(self, sim_outputs, tmp_path, eval_env, capsys, strict):
        bad = eval_env / "bad.json"
        bad.write_text('{"model_id": "m", "profiles": 5}', encoding="utf-8")
        (eval_env / "dir.json").mkdir()
        argv = [
            "--json-errors", "eval-recs", str(eval_env / "*.json"),
            str(sim_outputs / "scorecards.csv"), str(sim_outputs / "beverages.csv"),
            "--out", str(tmp_path / "table.csv"), *(["--strict"] if strict else []),
        ]
        rc = cli.main(argv)
        messages = [r["message"] for r in error_records(capsys) if r.get("code") == "EVAL"]
        if strict:
            assert rc == 5 and messages == [f"{bad}: profiles must be a list"]
        else:
            assert rc == 0 and messages == [
                f"skipping {bad}: profiles must be a list",
                f"skipping {eval_env / 'dir.json'}: Is a directory",
            ]

    def test_out_that_is_a_directory_names_it(self, sim_outputs, tmp_path, eval_env, capsys):
        out = tmp_path / "table.csv"
        out.mkdir()
        rc = cli.main(
            [
                "eval-recs", str(eval_env / "*.json"),
                str(sim_outputs / "scorecards.csv"), str(sim_outputs / "beverages.csv"),
                "--out", str(out),
            ]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert f"Is a directory: '{out}'" in err and ".staging" not in err

    def test_each_scorecard_ranked_once_per_run(self, sim_outputs, tmp_path, eval_env, monkeypatch):
        built = []  # the judges of each index construction
        init = receval.JudgeIndex.__init__
        monkeypatch.setattr(receval.JudgeIndex, "__init__",
                            lambda self, matrix, *rest: built.append(list(matrix.judges)) or init(self, matrix, *rest))
        (eval_env / "model-offlist.json").unlink()  # three models left
        rc = cli.main(
            [
                "eval-recs", str(eval_env / "*.json"),
                str(sim_outputs / "scorecards.csv"), str(sim_outputs / "beverages.csv"),
                "--out", str(tmp_path / "table.csv"),
            ]
        )
        assert rc == 0
        assert len((tmp_path / "table.csv").read_text(encoding="utf-8").splitlines()) == 4
        assert built == [["A", "B", "C"]]  # once per run, not once per model

    def test_each_name_normalized_once_per_run(self, sim_outputs, tmp_path, eval_env, monkeypatch):
        (eval_env / "model-offlist.json").unlink()
        (eval_env / "model-dupe.json").unlink()
        tops = {j: top_names(sim_outputs / "scorecards.csv", j) for j in "ABC"}
        # the third model spells its picks differently and adds one off the list
        recased = {j: [f"  {n.upper()} " for n in picks[:4]] + ["Imaginary Pils"] for j, picks in tops.items()}
        make_rec_file(eval_env, "model-recased", recased)
        calls = []
        normalize = receval.normalize_name
        monkeypatch.setattr(receval, "normalize_name", lambda name: calls.append(name) or normalize(name))
        rc = cli.main(
            [
                "eval-recs", str(eval_env / "*.json"),
                str(sim_outputs / "scorecards.csv"), str(sim_outputs / "beverages.csv"),
                "--out", str(tmp_path / "table.csv"),
            ]
        )
        assert rc == 0 and not hasattr(cli, "normalize_name")
        master = {r["beer_name"] for r in csv.DictReader(open(sim_outputs / "beverages.csv", encoding="utf-8"))}
        recommended = {n for picks in [*tops.values(), *recased.values()] for n in picks}
        assert sorted(calls) == sorted(master | recommended)  # each distinct name once, not once per model

    def test_shared_model_id_warns_naming_both_files(self, sim_outputs, tmp_path, eval_env, capsys):
        tops = {j: top_names(sim_outputs / "scorecards.csv", j) for j in "ABC"}
        copy = write_rec_file(eval_env / "zz-copy.json", "model-perfect", tops)
        out = tmp_path / "table.csv"
        rc = cli.main(
            [
                "--json-errors", "eval-recs", str(eval_env / "*.json"),
                str(sim_outputs / "scorecards.csv"), str(sim_outputs / "beverages.csv"), "--out", str(out),
            ]
        )
        assert rc == 0
        messages = [r["message"] for r in error_records(capsys) if r.get("code") == "EVAL"]
        assert messages == [f"{copy}: model_id 'model-perfect' is also in {eval_env / 'model-perfect.json'}; "
                            "both rows are kept"]
        table = out.read_text(encoding="utf-8").splitlines()
        perfect = [row for row in table if row.startswith("model-perfect,")]
        assert len(table) == 6 and len(perfect) == 2 and perfect[0] == perfect[1]


class TestEvalRecsDegenerateJudge:
    BEVERAGES = (
        "brewery,beer_name,beer_style,abv_percent\n"
        "P,Alpha Ale,Pale Ale,5.0\n"
        "P,Beta Bock,Bock,6.5\n"
        "P,Gamma Gose,Gose,4.2\n"
        "P,Delta Dunkel,Dunkel,5.1\n"
    )
    # judge A rates everything 3.0; B spans 1.0..5.0
    SCORECARDS = (
        "judge_id,beer_name,raw_score\n"
        "A,Alpha Ale,3.0\nA,Beta Bock,3.0\nA,Gamma Gose,3.0\nA,Delta Dunkel,3.0\n"
        "B,Alpha Ale,1.0\nB,Beta Bock,2.0\nB,Gamma Gose,3.0\nB,Delta Dunkel,5.0\n"
    )

    def run(self, tmp_path, *flags):
        (tmp_path / "beverages.csv").write_text(self.BEVERAGES, encoding="utf-8")
        (tmp_path / "scorecards.csv").write_text(self.SCORECARDS, encoding="utf-8")
        recs = make_rec_file(
            tmp_path, "model-x", {"A": ["Alpha Ale", "Beta Bock"], "B": ["Delta Dunkel", "Gamma Gose"]}
        )
        out = tmp_path / "table.csv"
        rc = cli.main(
            [
                "--json-errors", "eval-recs", str(recs),
                str(tmp_path / "scorecards.csv"), str(tmp_path / "beverages.csv"),
                "--out", str(out), *flags,
            ]
        )
        assert rc == 0
        return json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))[0]

    def warnings(self, capsys):
        records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        return [r for r in records if r.get("code") == "DEGENERATE"]

    def test_normalized_warns_and_maps_to_half(self, tmp_path, capsys):
        row = self.run(tmp_path, "--normalized")
        (warning,) = self.warnings(capsys)
        assert warning["level"] == "warning"
        assert "judge(s): A;" in warning["message"]
        # A's four cells map to 0.5; B normalizes to 0, 0.25, 0.5, 1
        assert row["mean_rating"] == (0.5 + 0.5 + 1.0 + 0.5) / 4
        assert row["coverage"] == 4 / 10

    def test_raw_scores_do_not_warn(self, tmp_path, capsys):
        row = self.run(tmp_path)
        assert self.warnings(capsys) == []
        assert row["mean_rating"] == (3.0 + 3.0 + 5.0 + 3.0) / 4


def test_cli_runs_without_scipy(sim_outputs, tmp_path):
    """Start-up stays numpy-only: analyze with either agreement method
    leaves no scipy module behind."""
    script = (
        "import sys, beerfed\n"
        "from beerfed import cli\n"
        "scorecards, beverages, out = sys.argv[1:]\n"
        "for method in ('spearman', 'kendall'):\n"
        "    argv = ['analyze', scorecards, beverages, '--out-dir', out + method, '--agreement', method]\n"
        "    assert cli.main(argv) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(beerfed.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script, str(sim_outputs / "scorecards.csv"),
         str(sim_outputs / "beverages.csv"), str(tmp_path / "rep-")],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout.splitlines()[-1] == "[]"


def test_each_subcommand_imports_only_the_modules_it_runs(sim_outputs, tmp_path):
    """``import beerfed`` loads no beerfed module, and each subcommand only
    the ones it runs, in a fresh process."""
    make_rec_file(tmp_path, "model-x", {"A": ["Batch 00"]})
    tables = (sim_outputs / "scorecards.csv", sim_outputs / "beverages.csv")
    calls = [  # (argv, the beerfed modules it loads); no argv: a bare `import beerfed`
        ([], []),
        (["simulate", str(write_config(tmp_path)), "--out", str(tmp_path / "sim")],
         ["cli", "errors", "io", "model", "protocol"]),
        (analyze_argv(*tables, tmp_path / "rep"), ["cli", "errors", "io", "model", "reports", "scoring"]),
        (eval_argv(*tables, tmp_path), ["cli", "errors", "io", "model", "receval", "scoring"]),
    ]
    script = (
        "import sys, beerfed\n"
        "if sys.argv[1:]:\n"
        "    from beerfed import cli\n"
        "    assert cli.main(sys.argv[1:]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('beerfed.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(beerfed.__file__).resolve().parents[1]))
    for argv, modules in calls:
        done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, check=True)
        assert done.stdout.splitlines()[-1] == str([f"beerfed.{m}" for m in modules]), argv


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc/self/task")
@pytest.mark.parametrize("setting", [None, "2"])
def test_import_loads_blas_single_threaded_unless_the_user_chose(setting):
    if setting and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a 2-thread BLAS pool needs 2 CPUs")
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = str(Path(beerfed.__file__).resolve().parents[1])
    if setting:
        env["OPENBLAS_NUM_THREADS"] = setting
    script = "import os, beerfed; print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    threads, variable = done.stdout.split()
    if setting is None:  # one thread, and the environment as the user left it
        assert (int(threads), variable) == (1, "None")
    else:
        assert int(threads) > 1 and variable == setting


def error_records(capsys):
    return [json.loads(line) for line in capsys.readouterr().err.splitlines()]


def analyze_argv(scorecards, beverages, out):
    return ["analyze", str(scorecards), str(beverages), "--out-dir", str(out)]


def eval_argv(scorecards, beverages, out):
    return ["eval-recs", str(out / "*.json"), str(scorecards), str(beverages), "--out", str(out / "t.csv")]


class TestInputBoundary:
    """Inputs that ended in a traceback, or that analyze and eval-recs
    judged differently, now exit through the one exit table."""

    @pytest.mark.parametrize("command", ["simulate", "analyze", "eval-recs"])
    def test_invalid_families_json_exits_2(self, sim_outputs, tmp_path, capsys, command):
        families = tmp_path / "families.json"
        families.write_text('[{"name": ', encoding="utf-8")
        tables = (sim_outputs / "scorecards.csv", sim_outputs / "beverages.csv", tmp_path / "out")
        argv = {
            "simulate": ["simulate", str(tmp_path / "session.json"), "--out", str(tmp_path / "out")],
            "analyze": analyze_argv(*tables),
            "eval-recs": eval_argv(*tables),
        }[command]
        assert cli.main(["--json-errors", *argv, "--families", str(families)]) == 2
        (record,) = error_records(capsys)
        assert record["code"] == "CONFIG"
        assert f"{families}: invalid JSON" in record["message"]

    @pytest.mark.parametrize("argv", [analyze_argv, eval_argv])
    def test_latin1_scorecard_exits_4_naming_the_file(self, sim_outputs, tmp_path, capsys, argv):
        cards = tmp_path / "latin1.csv"
        cards.write_bytes(
            (sim_outputs / "scorecards.csv").read_bytes() + "A,Caf\xe9 Cr\xe8me,3.5\n".encode("latin-1")
        )
        assert cli.main(["--json-errors", *argv(cards, sim_outputs / "beverages.csv", tmp_path / "out")]) == 4
        (record,) = error_records(capsys)
        assert record["code"] == "INGEST"
        assert record["message"].startswith(f"{cards}: not UTF-8 text")

    @pytest.mark.parametrize(
        "extra_beverage, bad_file, where",
        [
            ("P,Odd One,Gose,strong", "beverages", "row 22, column abv_percent: abv_percent 'strong'"),
            ("Q,Batch 00,Gose,4.0", "scorecards", "column beer_name: beverage name 'Batch 00' is ambiguous"),
        ],
        ids=["bad-abv", "ambiguous-name"],
    )
    def test_every_csv_ingest_error_names_its_file(self, sim_outputs, tmp_path, capsys, extra_beverage, bad_file, where):
        beverages = tmp_path / "beverages.csv"
        beverages.write_text(
            (sim_outputs / "beverages.csv").read_text(encoding="utf-8") + extra_beverage + "\n",
            encoding="utf-8",
        )
        cards = sim_outputs / "scorecards.csv"
        argv = ["--json-errors", *analyze_argv(cards, beverages, tmp_path / "out")]
        assert cli.main(argv) == 4
        (record,) = error_records(capsys)
        path = {"beverages": beverages, "scorecards": cards}[bad_file]
        assert record["message"].startswith(f"{path}: ") and where in record["message"]

    def test_oversized_csv_field_exits_4(self, sim_outputs, tmp_path, capsys):
        cards = tmp_path / "huge.csv"
        cards.write_text('judge_id,beer_name,raw_score\nA,"' + "x" * 200_000 + '",3.0\n', encoding="utf-8")
        argv = analyze_argv(cards, sim_outputs / "beverages.csv", tmp_path / "out")
        assert cli.main(["--json-errors", *argv]) == 4
        (record,) = error_records(capsys)
        assert record["code"] == "INGEST" and record["message"].startswith(f"{cards}: malformed CSV")

    def test_unquoted_oversized_csv_field_exits_4(self, sim_outputs, tmp_path, capsys):
        cards = tmp_path / "huge.csv"
        cards.write_text("judge_id,beer_name,raw_score\nA," + "x" * 200_000 + ",3.0\n", encoding="utf-8")
        argv = analyze_argv(cards, sim_outputs / "beverages.csv", tmp_path / "out")
        assert cli.main(["--json-errors", *argv]) == 4
        (record,) = error_records(capsys)
        assert record["code"] == "INGEST"
        assert record["message"].startswith(f"{cards}: malformed CSV: field larger than field limit")

    @pytest.mark.parametrize("argv", [analyze_argv, eval_argv])
    @pytest.mark.parametrize(
        "extra_row, code",
        [(None, "DUP_REVIEW"), ("A,Imaginary Pils,3.0", "DANGLING_REF")],
        ids=["duplicate", "unknown-beverage"],
    )
    def test_both_commands_block_the_same_dataset(self, sim_outputs, tmp_path, capsys, argv, extra_row, code):
        lines = (sim_outputs / "scorecards.csv").read_text(encoding="utf-8").splitlines()
        cards = tmp_path / "cards.csv"
        cards.write_text("\n".join([*lines, extra_row or lines[1]]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        make_rec_file(out, "model-x", {"A": ["Batch 00"]})
        assert cli.main(["--json-errors", *argv(cards, sim_outputs / "beverages.csv", out)]) == 4
        records = error_records(capsys)
        assert [r["code"] for r in records if r["level"] == "error"] == [code, "VALIDATION"]
        assert sorted(p.name for p in out.iterdir()) == ["model-x.json"]  # nothing written

    # "a::b","c" and "a","b::c" both join to the beverage id "a::b::c"
    ID_COLLISION = "brewery,beer_name,beer_style,abv_percent\na::b,c,IPA,5.0\na,b::c,Stout,6.0\n"
    ID_COLLISION_MESSAGE = ("row 3, column beer_name: duplicate beverage id 'a::b::c': 'b::c' for 'a'"
                            " and, at row 2, 'c' for 'a::b'")

    @pytest.mark.parametrize("argv", [analyze_argv, lambda *paths: [*analyze_argv(*paths), "--lenient"], eval_argv],
                             ids=["analyze", "analyze-lenient", "eval-recs"])
    def test_beverages_sharing_an_id_exit_4_naming_both(self, sim_outputs, tmp_path, capsys, argv):
        beverages = write_text(tmp_path / "beverages.csv", self.ID_COLLISION)
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(["--json-errors", *argv(sim_outputs / "scorecards.csv", beverages, out)]) == 4
        (record,) = error_records(capsys)
        assert record["code"] == "INGEST" and record["message"] == f"{beverages}: {self.ID_COLLISION_MESSAGE}"
        assert list(out.iterdir()) == []

    def test_pool_csv_beverages_sharing_an_id_exit_2_naming_both(self, tmp_path, capsys):
        pool = write_text(tmp_path / "pool.csv", self.ID_COLLISION)
        body = {key: value for key, value in CONFIG.items() if key != "pool"}
        config = write_text(tmp_path / "session.json", json.dumps({**body, "pool_csv": "pool.csv"}))
        assert cli.main(["--json-errors", "simulate", str(config), "--out", str(tmp_path / "sim")]) == 2
        (record,) = error_records(capsys)
        assert record["code"] == "CONFIG"
        assert record["message"] == f"{config}: pool_csv: {pool}: {self.ID_COLLISION_MESSAGE}"
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("argv", [analyze_argv, eval_argv])
    def test_validate_dataset_runs_once_per_call(self, sim_outputs, tmp_path, monkeypatch, argv):
        calls = []
        validate = cli.validate_dataset
        for module in [m for name, m in sys.modules.items() if name.startswith("beerfed")]:
            if getattr(module, "validate_dataset", None) is validate:
                monkeypatch.setattr(module, "validate_dataset", lambda d: calls.append(1) or validate(d))
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(argv(sim_outputs / "scorecards.csv", sim_outputs / "beverages.csv", out)) == 0
        assert len(calls) == 1

    def test_lone_surrogate_in_config_exits_2_before_writing(self, tmp_path, capsys):
        federation = [dict(CONFIG["federation"][0], id="\ud800x"), *CONFIG["federation"][1:]]
        config = write_config(tmp_path, federation=federation)
        assert "\\ud800x" in config.read_text(encoding="utf-8")
        out = tmp_path / "sim"
        assert cli.main(["--json-errors", "simulate", str(config), "--out", str(out)]) == 2
        (record,) = error_records(capsys)
        assert record["code"] == "CONFIG" and record["message"].startswith(f"{config}: ")
        assert "surrogate" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("value", [5, None, "pool\u0000.csv"], ids=["number", "null", "nul-byte"])
    def test_pool_csv_must_be_a_path_string(self, tmp_path, capsys, value):
        body = {k: v for k, v in CONFIG.items() if k != "pool"}
        body["pool_csv"] = value
        config = tmp_path / "session.json"
        config.write_text(json.dumps(body), encoding="utf-8")
        assert cli.main(["--json-errors", "simulate", str(config), "--out", str(tmp_path / "x")]) == 2
        (record,) = error_records(capsys)
        assert record["code"] == "CONFIG"
        assert f"pool_csv must be a file path string, got {value!r}" in record["message"]

    @pytest.mark.parametrize("key, value", [("score_bias", {"Stout & porter": 1.7e308}), ("score_noise_sd", 1e308)])
    def test_huge_score_offsets_clamp_instead_of_overflowing(self, tmp_path, capsys, key, value):
        # on both ways of drawing a round's noise: one block, and blocks
        # that end at each floor-affinity reviewer's uniform; 120 rounds of
        # three reviewers make a draw past the overflow point all but certain
        pool = [dict(CONFIG["pool"][i % 2 + 4], beer_name=f"Stout {i}") for i in range(120)]
        for affinity in (0.0, 0.5):
            federation = [dict(p, **{key: value}, score_floor_affinity=affinity) for p in CONFIG["federation"]]
            config = write_config(tmp_path, federation=federation, pool=pool)
            out = tmp_path / f"affinity-{affinity}"
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an overflow warning fails the run
                assert cli.main(["--json-errors", "simulate", str(config), "--out", str(out)]) == 0
            assert {record["level"] for record in error_records(capsys)} == {"info"}  # nothing but progress
            log = (out / "session_log.jsonl").read_text(encoding="utf-8")
            assert '"raw_score": 5.0' in log or '"raw_score": 1.0' in log

    def test_inline_pool_error_names_entry_not_a_row(self, tmp_path, capsys):
        pool = [dict(CONFIG["pool"][0], tags="bogus"), *CONFIG["pool"][1:]]
        config = write_config(tmp_path, pool=pool)
        assert cli.main(["--json-errors", "simulate", str(config), "--out", str(tmp_path / "x")]) == 2
        (record,) = error_records(capsys)
        assert record["message"].startswith(f"{config}: pool entry 0: column tags: unknown tag 'bogus'")

    @pytest.mark.parametrize(
        "key, value", [("brewery", 5), ("beer_name", None), ("beer_style", ["IPA"]), ("ingredients", 7), ("tags", False)]
    )
    def test_inline_pool_text_must_be_a_string(self, tmp_path, capsys, key, value):
        # each was once written out through str(): a beer named None, of style ['IPA']
        pool = [dict(CONFIG["pool"][0], **{key: value}), *CONFIG["pool"][1:]]
        config = write_config(tmp_path, pool=pool)
        assert cli.main(["--json-errors", "simulate", str(config), "--out", str(tmp_path / "x")]) == 2
        (record,) = error_records(capsys)
        assert record["code"] == "CONFIG"
        assert record["message"] == f"{config}: pool entry 0: {key} must be a string, got {value!r}"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key, value", [("ingredient", "water;malt"), ("tag", "real_flavour")])
    def test_inline_pool_unknown_key_names_the_entry(self, tmp_path, capsys, key, value):
        # typos of ingredients / tags, once dropped without a word
        pool = [*CONFIG["pool"][:3], dict(CONFIG["pool"][3], **{key: value}), *CONFIG["pool"][4:]]
        config = write_config(tmp_path, pool=pool)
        assert cli.main(["--json-errors", "simulate", str(config), "--out", str(tmp_path / "x")]) == 2
        (record,) = error_records(capsys)
        assert record["code"] == "CONFIG"
        assert record["message"] == f"{config}: pool entry 3: unknown key(s) ['{key}']"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "federation",
        [
            [{"id": "A", "is_expert": True, "leader_probability": 1.0}],
            [{"id": "A", "is_expert": True, "leader_probability": 1.0}, {"id": "D", "availability_probability": 0.0}],
        ],
        ids=["lone-expert", "companion-never-available"],
    )
    def test_federation_in_which_no_round_can_take_place(self, tmp_path, capsys, federation):
        # a round needs a present non-leader: these once skipped every round and exited 0
        config = write_config(tmp_path, federation=federation)
        assert cli.main(["--json-errors", "simulate", str(config), "--out", str(tmp_path / "x")]) == 2
        (record,) = error_records(capsys)
        assert record["code"] == "CONFIG"
        assert record["message"].startswith(f"{config}: no round can take place")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"bogus": 1}, "participant 'A': unknown key(s) ['bogus']"),
            ({"score_bias": 5}, "participant 'A': score_bias must be an object, got 5"),
        ],
        ids=["unknown-key", "score-bias-number"],
    )
    def test_federation_errors_name_the_config(self, tmp_path, capsys, entry, message):
        config = write_config(tmp_path, federation=[dict(CONFIG["federation"][0], **entry), *CONFIG["federation"][1:]])
        assert cli.main(["--json-errors", "simulate", str(config), "--out", str(tmp_path / "x")]) == 2
        (record,) = error_records(capsys)
        assert record["code"] == "CONFIG" and record["message"] == f"{config}: {message}"

    FALLBACK = {"name": "Specialty and hybrid styles", "patterns": [], "fallback": True}

    @pytest.mark.parametrize(
        "body, message",
        [
            ({"name": "Dark"}, "family configuration must be a JSON list"),
            ([{"name": "Dark", "patterns": ["stout"]}], "exactly one family must be flagged as fallback, found 0"),
            # "" and " " are substrings of every (multi-word) style
            ([{"name": "All", "patterns": ["stout", ""]}, FALLBACK], "family 'All': patterns must not be empty or blank"),
            ([{"name": "All", "patterns": [" "]}, FALLBACK], "family 'All': patterns must not be empty or blank"),
            # a typo of patterns, once dropped without a word
            ([{"name": "Dark", "pattern": ["x"]}, FALLBACK], "family 'Dark': unknown key(s) ['pattern']"),
        ],
        ids=["not-a-list", "no-fallback", "empty-pattern", "blank-pattern", "unknown-key"],
    )
    def test_family_file_errors_name_the_file(self, tmp_path, capsys, body, message):
        families = write_text(tmp_path / "families.json", json.dumps(body))
        argv = ["simulate", str(write_config(tmp_path)), "--out", str(tmp_path / "x"), "--families", str(families)]
        assert cli.main(["--json-errors", *argv]) == 2
        (record,) = error_records(capsys)
        assert record["code"] == "CONFIG" and record["message"] == f"{families}: {message}"

    def test_eval_recs_without_scorecards_exits_4_before_reading_recs(self, tmp_path, capsys, monkeypatch):
        # header-only files pass the dataset gate, but no judge has a scorecard
        beverages = write_text(tmp_path / "beverages.csv", "brewery,beer_name,beer_style,abv_percent\n")
        scorecards = write_text(tmp_path / "scorecards.csv", "judge_id,beer_name,raw_score\n")
        make_rec_file(tmp_path, "model-x", {"A": ["Alpha Ale"]})
        read = []
        monkeypatch.setattr(cli, "load_recommendations", read.append)
        out = tmp_path / "eval" / "t.csv"
        argv = ["eval-recs", str(tmp_path / "*.json"), str(scorecards), str(beverages), "--out", str(out)]
        assert cli.main(["--json-errors", *argv]) == 4
        (record,) = error_records(capsys)
        assert record["code"] == "DEGENERATE" and record["message"].startswith(f"{scorecards}: ")
        assert read == [] and not (tmp_path / "eval").exists()
        assert cli.main(analyze_argv(scorecards, beverages, tmp_path / "rep")) == 0


class TestShortSessionsNeedLenient:
    """A session can simulate cleanly and still leave every judge with a
    single score level: plain analyze then stops on DEGENERATE rows, while
    analyze --lenient and eval-recs run."""

    def check(self, tmp_path, capsys, config):
        sim = tmp_path / "sim"
        assert cli.main(["simulate", str(config), "--out", str(sim)]) == 0
        tables = (sim / "scorecards.csv", sim / "beverages.csv")
        capsys.readouterr()
        assert cli.main(["--json-errors", *analyze_argv(*tables, tmp_path / "rep")]) == 4
        findings = {(r["level"], r.get("code")) for r in error_records(capsys) if r["level"] != "info"}
        assert findings == {("error", "DEGENERATE")}
        assert cli.main([*analyze_argv(*tables, tmp_path / "rep"), "--lenient"]) == 0
        recs = tmp_path / "recs"
        recs.mkdir()
        name = next(csv.DictReader(tables[0].read_text(encoding="utf-8").splitlines()))["beer_name"]
        make_rec_file(recs, "model-x", {"A": [name]})
        assert cli.main([*eval_argv(*tables, recs)]) == 0

    def test_one_round_calibration_session(self, tmp_path, capsys):
        data = importlib.resources.files("beerfed.data")
        body = json.loads((data / "calibration_session.json").read_text(encoding="utf-8"))
        body.update(clock_start=660, clock_end=668, blackout_windows=[])
        write_text(tmp_path / body["pool_csv"], (data / body["pool_csv"]).read_text(encoding="utf-8"))
        config = write_text(tmp_path / "session.json", json.dumps(body))
        self.check(tmp_path, capsys, config)
        log = (tmp_path / "sim" / "session_log.jsonl").read_text(encoding="utf-8")
        assert len(log.splitlines()) == 1

    def test_zero_noise_flat_quality_session(self, tmp_path, capsys):
        federation = [{**judge, "score_noise_sd": 0.0} for judge in CONFIG["federation"]]
        config = write_config(tmp_path, federation=federation, base_quality_range=[3.5, 3.5])
        self.check(tmp_path, capsys, config)


def test_pool_text_with_a_bare_carriage_return_simulates_then_analyzes(tmp_path):
    pool = [dict(CONFIG["pool"][0], brewery="a\rb"), *CONFIG["pool"][1:]]
    sim = tmp_path / "sim"
    assert cli.main(["simulate", str(write_config(tmp_path, pool=pool)), "--out", str(sim)]) == 0
    assert b'"a\rb"' in (sim / "beverages.csv").read_bytes()
    assert cli.main([*analyze_argv(sim / "scorecards.csv", sim / "beverages.csv", tmp_path / "rep"), "--lenient"]) == 0


class TestAllOrNothingOutputs:
    """Each command moves its files into place only once all are written."""

    @staticmethod
    def disk_full(*args, **kwargs):
        raise OSError(28, "No space left on device")

    @staticmethod
    def eval_argv(sim_outputs, tmp_path):
        recs = tmp_path / "recs"
        recs.mkdir()
        make_rec_file(recs, "model-x", {"A": ["Batch 00"]})
        return ["eval-recs", str(recs / "*.json"), str(sim_outputs / "scorecards.csv"),
                str(sim_outputs / "beverages.csv"), "--out", str(tmp_path / "eval" / "metrics.csv")]

    def test_simulate_failing_mid_write_leaves_no_file(self, tmp_path, monkeypatch):
        out = tmp_path / "sim"
        out.mkdir()
        (out / "keep.txt").write_text("earlier run", encoding="utf-8")
        monkeypatch.setattr(beerfed.io, "write_scorecards_csv", self.disk_full)  # after beverages.csv
        assert cli.main(["simulate", str(write_config(tmp_path)), "--out", str(out)]) == 3
        assert [p.name for p in out.iterdir()] == ["keep.txt"]

    def test_analyze_failing_mid_write_leaves_no_file(self, sim_outputs, tmp_path, monkeypatch):
        write_csv, calls = beerfed.reports.write_csv, []

        def third_fails(*args):
            calls.append(1)
            return self.disk_full() if len(calls) == 3 else write_csv(*args)

        monkeypatch.setattr(beerfed.reports, "write_csv", third_fails)
        out = tmp_path / "rep"
        assert cli.main(analyze_argv(sim_outputs / "scorecards.csv", sim_outputs / "beverages.csv", out)) == 3
        assert list(out.iterdir()) == []

    def test_eval_recs_failing_before_the_json_leaves_no_csv(self, sim_outputs, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "canonical_json", self.disk_full)  # the CSV is already written
        assert cli.main(self.eval_argv(sim_outputs, tmp_path)) == 3
        assert list((tmp_path / "eval").iterdir()) == []

    def test_successful_runs_leave_no_staging_entry(self, sim_outputs, tmp_path):
        assert sorted(p.name for p in sim_outputs.iterdir()) == [
            "beverages.csv", "scorecards.csv", "session_log.jsonl", "session_summary.json",
        ]
        assert cli.main(self.eval_argv(sim_outputs, tmp_path)) == 0
        assert sorted(p.name for p in (tmp_path / "eval").iterdir()) == ["metrics.csv", "metrics.json"]


def parser_flags(parser):
    """Every --flag of ``parser`` and of its subcommands but argparse's --help."""
    flags = set()
    for action in parser._actions:
        flags.update(o for o in action.option_strings if o.startswith("--") and o != "--help")
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= parser_flags(sub)
    return flags


def test_readme_documents_exactly_the_parser_flags():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    flags = parser_flags(cli.build_parser())
    assert sorted(f for f in flags if not re.search(rf"(?<![\w-]){f}(?![\w-])", readme)) == []
    prose = re.sub(r"```.*?```", "", readme, flags=re.S)  # code blocks may hold other tools' flags
    backticked = {f for span in re.findall(r"`([^`]+)`", prose) for f in re.findall(r"--[a-z][\w-]*", span)}
    assert sorted(backticked - flags) == []


class TestExitTable:
    def test_every_package_error_has_a_row(self):
        kinds = [
            v for v in vars(errors).values()
            if isinstance(v, type) and issubclass(v, errors.BeerfedError) and v is not errors.BeerfedError
        ]
        assert kinds and all(kind in cli.EXIT_TABLE for kind in kinds)

    CODES = (0, 2, 3, 4, 5)

    @staticmethod
    def argv_for(code, tmp):
        """One way to reach each documented exit code."""
        assert cli.main(["simulate", str(write_config(tmp)), "--out", str(tmp / "sim")]) == 0
        tables = (tmp / "sim" / "scorecards.csv", tmp / "sim" / "beverages.csv")
        write_text(tmp / "recs" / "broken.json", "{")
        return {
            0: analyze_argv(*tables, tmp / "rep"),
            2: ["simulate", str(write_config(tmp, seed=-1)), "--out", str(tmp / "x")],
            3: ["simulate", str(tmp / "missing.json"), "--out", str(tmp / "x")],
            4: analyze_argv(tables[1], tables[1], tmp / "rep"),  # a beverage list as scorecards
            5: [*eval_argv(*tables, tmp / "recs"), "--strict"],
        }[code]

    def test_docstring_lists_the_codes_tested_and_tabled(self):
        documented = {int(c) for c in re.findall(r"\b(\d) [A-Za-z]", cli.__doc__)}
        assert documented == set(self.CODES)
        assert {code for code, _ in cli.EXIT_TABLE.values()} <= documented

    @pytest.mark.parametrize("code", CODES)
    def test_each_documented_exit_code_is_produced(self, tmp_path, code):
        assert cli.main(self.argv_for(code, tmp_path)) == code


def write_text(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


PROPERTY_BEVERAGES = (
    "brewery,beer_name,beer_style,abv_percent\n"
    "P,Alpha Ale,Pale Ale,5.0\nQ,Beta Bock,Bock,6.5\nR,Gamma Gose,Gose,4.2\n"
)

# scorecard-shaped text, mostly valid cells, so examples get past the
# parser and reach validation and the analysis itself
scorecard_rows = st.lists(
    st.tuples(
        st.sampled_from(["A", "B", "C"] * 8 + [" ", "judge_id"]),
        st.sampled_from(["Alpha Ale", "beta  bock", "Gamma Gose"] * 8 + ["Delta Dunkel", ""]),
        st.sampled_from(["1", "1.0", "2.5", "3.5", "4.9", "5.0"] * 8 + ["5.1", "0.9", "3.25", "x", ""]),
    ),
    max_size=10,
).map(lambda rows: "judge_id,beer_name,raw_score\n" + "".join(",".join(r) + "\n" for r in rows))
scorecard_bytes = st.one_of(
    st.binary(max_size=120),
    st.tuples(scorecard_rows, st.sampled_from(["utf-8", "utf-8-sig", "latin-1", "utf-16"])).map(
        lambda pair: pair[0].encode(pair[1], errors="replace")
    ),
    st.tuples(scorecard_rows, st.binary(max_size=8)).map(lambda pair: pair[0].encode() + pair[1]),
)

PROPERTY_SCORECARDS = (
    "judge_id,beer_name,raw_score\n"
    "A,Alpha Ale,4.0\nB,Alpha Ale,3.5\nC,Alpha Ale,2.0\nA,Beta Bock,2.0\nB,Beta Bock,4.5\n"
    "A,Gamma Gose,1.5\nC,Gamma Gose,3.0\n"
)
# beverage-list-shaped text, mostly valid cells, so examples reach the join,
# validation and the analysis
beverage_rows = st.lists(
    st.tuples(
        st.sampled_from(["P", "Q", "R"] * 4 + [" ", ""]),
        st.sampled_from(["Alpha Ale", "beta  bock", "Gamma Gose"] * 4 + ["Delta Dunkel", ""]),
        st.sampled_from(["Pale Ale", "Bock", "Gose", "", "Imperial Stout"]),
        st.sampled_from(["5.0", "4.2", "0.3", "13"] * 4 + ["0", "101", "nan", "inf", "-1", "x", "", "1e308"]),
        st.sampled_from(["", "", "real_flavour", "other;artificial_flavour", "bogus"]),
    ),
    max_size=8,
).map(lambda rows: "brewery,beer_name,beer_style,abv_percent,tags\n" + "".join(",".join(r) + "\n" for r in rows))
beverage_bytes = st.one_of(
    st.binary(max_size=120),
    st.tuples(beverage_rows, st.sampled_from(["utf-8", "utf-8-sig", "latin-1", "utf-16"])).map(
        lambda pair: pair[0].encode(pair[1], errors="replace")
    ),
    st.tuples(beverage_rows, st.binary(max_size=8)).map(lambda pair: pair[0].encode() + pair[1]),
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from([0, 1, -1, 0.5, 1e308, -1e308, 2**64, "", "x"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
PROPERTY_CONFIG = {
    "seed": 3,
    "clock_start": 600,
    "clock_end": 660,
    "round_duration": 5,
    "federation": [
        {"id": "A", "is_expert": True, "leader_probability": 0.5, "score_noise_sd": 0.5,
         "score_bias": {"Gose": 0.5}},
        {"id": "B", "is_expert": True, "leader_probability": 0.5},
        {"id": "C", "freeload_probability": 0.5, "availability_probability": 0.5},
    ],
    "pool": [
        {"brewery": "P", "beer_name": f"Batch {i}", "beer_style": style, "abv_percent": 4.5 + i}
        for i, style in enumerate(["Gose", "Stout", "Pils"])
    ],
}
# where one arbitrary JSON value replaces (or adds) a field of a valid config
CONFIG_FIELDS = [
    (key,) for key in (*PROPERTY_CONFIG, "blackout_windows", "cost_params", "base_quality_range",
                       "include_amateurs", "pool_csv", "unknown")
] + [
    ("federation", 0, key) for key in (*PROPERTY_CONFIG["federation"][0], "availability_probability",
                                       "freeload_probability", "score_floor_affinity")
] + [("federation", 0, "score_bias", "Gose"), ("cost_params", "politeness_decay")] + [
    ("pool", 0, key) for key in (*PROPERTY_CONFIG["pool"][0], "tags", "ingredients")
]


@st.composite
def session_configs(draw):
    if draw(st.integers(0, 3)) == 0:
        return draw(json_values)
    body = json.loads(json.dumps(PROPERTY_CONFIG))
    *parents, key = draw(st.sampled_from(CONFIG_FIELDS))
    target = body
    for step in parents:
        target = target[step] if isinstance(target, list) else target.setdefault(step, {})
    target[key] = draw(json_values)
    if key == "pool_csv":
        del body["pool"]
    return body


def replaced(body, path):
    """A strategy for ``body`` with the value at ``path`` (keys and list
    indices) replaced by one arbitrary JSON value."""
    def put(value):
        copy = json.loads(json.dumps(body))
        *parents, key = path
        target = copy
        for step in parents:
            target = target[step]
        target[key] = value
        return copy
    return json_values.map(put)


def json_files(body, paths):
    """Arbitrary JSON values, or ``body`` with one of ``paths`` replaced."""
    return st.one_of(json_values, *(replaced(body, path) for path in paths))


REC_BODY = {
    "model_id": "m",
    "profiles": [{"profile_id": "A", "recommendations": [
        {"beverage_name": "Alpha Ale", "rank": 1, "justification": ""},
        {"beverage_name": "Gamma Gose", "rank": 2},
    ]}],
}
SLOT = ("profiles", 0, "recommendations", 0)


def rec_files():
    return json_files(REC_BODY, [
        ("model_id",), ("profiles",), ("profiles", 0), ("profiles", 0, "profile_id"),
        ("profiles", 0, "recommendations"), SLOT, *((*SLOT, key) for key in ("beverage_name", "rank", "justification")),
    ])


FAMILIES_BODY = [
    {"name": "Dark", "patterns": ["stout", "bock"]},
    {"name": "Specialty and hybrid styles", "patterns": [], "fallback": True},
]


@st.composite
def family_files(draw):
    if draw(st.booleans()):  # arbitrary families ahead of the fallback, mostly valid
        family = st.fixed_dictionaries({"name": st.text(max_size=8), "patterns": st.lists(st.text(max_size=6), max_size=3)})
        return draw(st.lists(family, max_size=4)) + FAMILIES_BODY[1:]
    return draw(json_files(FAMILIES_BODY, [
        (0,), (0, "name"), (0, "patterns"), (0, "patterns", 0), (0, "fallback"), (0, "unknown"),
        (1, "name"), (1, "fallback"), (1, "patterns"),
    ]))


class TestInputProperties:
    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=scorecard_bytes, lenient=st.booleans())
    def test_any_scorecard_bytes_exit_0_or_4(self, data, lenient):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cards = tmp / "scorecards.csv"
            cards.write_bytes(data)
            argv = analyze_argv(cards, write_text(tmp / "beverages.csv", PROPERTY_BEVERAGES), tmp / "rep")
            assert cli.main(["--json-errors", *argv, *(["--lenient"] if lenient else [])]) in (0, 4)

    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=beverage_bytes, lenient=st.booleans())
    def test_any_beverage_bytes_exit_0_or_4(self, data, lenient):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            beverages = tmp / "beverages.csv"
            beverages.write_bytes(data)
            argv = analyze_argv(write_text(tmp / "scorecards.csv", PROPERTY_SCORECARDS), beverages, tmp / "rep")
            assert cli.main(["--json-errors", *argv, *(["--lenient"] if lenient else [])]) in (0, 4)

    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(body=session_configs())
    def test_any_json_config_exits_0_2_or_3(self, body):
        with tempfile.TemporaryDirectory() as tmp:
            config = write_text(Path(tmp) / "session.json", json.dumps(body))
            assert cli.main(["--json-errors", "simulate", str(config), "--out", str(Path(tmp) / "sim")]) in (0, 2, 3)

    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(body=rec_files(), strict=st.booleans())
    def test_any_json_rec_file_exits_0_or_strict_5(self, body, strict):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            write_text(tmp / "recs" / "model.json", json.dumps(body))
            tables = (write_text(tmp / "scorecards.csv", PROPERTY_SCORECARDS),
                      write_text(tmp / "beverages.csv", PROPERTY_BEVERAGES))
            argv = ["--json-errors", *eval_argv(*tables, tmp / "recs"), *(["--strict"] if strict else [])]
            assert cli.main(argv) in ((0, 5) if strict else (0,))

    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(body=family_files())
    def test_any_json_families_exits_0_or_2(self, body):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            families = write_text(tmp / "families.json", json.dumps(body))
            tables = (write_text(tmp / "scorecards.csv", PROPERTY_SCORECARDS),
                      write_text(tmp / "beverages.csv", PROPERTY_BEVERAGES))
            argv = [*analyze_argv(*tables, tmp / "rep"), "--lenient", "--families", str(families)]
            assert cli.main(["--json-errors", *argv]) in (0, 2)
