import csv
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
from beerfed.receval import ModelRecommendations, RecommendationSet, RecommendationSlot, recommendations_to_json

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
    sets = {
        judge: RecommendationSet(
            model_id, judge, [RecommendationSlot(n, i + 1) for i, n in enumerate(picks)]
        )
        for judge, picks in picks_by_judge.items()
    }
    path = tmp_path / f"{model_id}.json"
    path.write_text(
        recommendations_to_json(ModelRecommendations(model_id, sets)), encoding="utf-8"
    )
    return path


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
        calls = []
        top_k_set = receval.top_k_set
        monkeypatch.setattr(receval, "top_k_set", lambda card, k: calls.append(k) or top_k_set(card, k))
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
        assert calls == [5, 5, 5]  # once per judge A, B, C, not once per (model, judge)


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
