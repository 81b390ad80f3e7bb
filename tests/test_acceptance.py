"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers once its assertions hold (run with -s or -rP to see
them; a pytest failure is the FAIL line)."""

import csv
import importlib.resources
import json
import math
import time

import numpy as np
import pytest

from beerfed import cli
from beerfed.errors import ConfigurationError
from beerfed.io import (
    load_session_config,
    parse_beverages_csv,
    parse_scorecards_csv,
    round_log_lines,
)
from beerfed.model import Beverage
from beerfed.protocol import (
    CostParams,
    ParticipantProfile,
    SessionConfig,
    _elect,
    _leader_table,
    communication_costs,
    run_session,
)
from beerfed.receval import evaluate_model
from beerfed.scoring import ScoreMatrix, build_score_matrix, judge_stats, normalize
from genutil import index_of, random_rec_instance, random_scores, review_rows, write_rec_file
from oracles import oracle_metrics, oracle_round_possible, oracle_sample_sd, oracle_spearman, round_dict


def ok(n, message):
    print(f"PASS  criterion {n}: {message}")


def bundled(name):
    return importlib.resources.files("beerfed.data") / name


# --------------------------------------------------------------------------
# criterion 1: Table-style structural reproduction


def _table1_fixture(tmp_path):
    names = [f"Cask {i:02d}" for i in range(24)]
    bev_path = tmp_path / "beverages.csv"
    with open(bev_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["brewery", "beer_name", "beer_style", "abv_percent"])
        for i, n in enumerate(names):
            w.writerow([f"House {i % 8}", n, "Test Ale", 5.0])

    rng = np.random.default_rng(31)
    card_path = tmp_path / "scorecards.csv"
    judged = {}
    with open(card_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["judge_id", "beer_name", "raw_score"])
        for judge in ("A", "B", "C"):
            scores = random_scores(rng, len(names))
            judged[judge] = dict(zip(names, scores))
            for n, s in zip(names, scores):
                w.writerow([judge, n, f"{round(s*10)//10}.{round(s*10)%10}"])

    def tops(judge, n=5):
        ordered = sorted(judged[judge].items(), key=lambda kv: (-kv[1], kv[0]))
        return [name for name, _ in ordered[:n]]

    recdir = tmp_path / "recs"
    recdir.mkdir()

    def emit(model_id, picks_by_judge):
        write_rec_file(recdir / f"{model_id}.json", model_id, picks_by_judge)

    emit("model-01", {j: tops(j) for j in "ABC"})
    emit("model-02", {j: names[5:10] for j in "ABC"})
    emit("model-03", {j: names[10:15] for j in "ABC"})
    # the 13/15 model: one profile is a slot short, another repeats a pick
    emit(
        "model-04",
        {"A": tops("A")[:4], "B": tops("B")[:4] + [tops("B")[0]], "C": tops("C")},
    )
    emit("model-05", {j: names[::5][:5] for j in "ABC"})
    emit("model-06", {j: list(reversed(tops(j, 10)))[:5] for j in "ABC"})
    return bev_path, card_path, recdir


def test_c01_table_structural_reproduction(tmp_path):
    bev_path, card_path, recdir = _table1_fixture(tmp_path)
    out = tmp_path / "metrics.csv"
    t0 = time.monotonic()
    rc = cli.main(
        ["eval-recs", str(recdir / "*.json"), str(card_path), str(bev_path), "--out", str(out)]
    )
    elapsed = time.monotonic() - t0
    assert rc == 0
    assert elapsed < 1.0

    rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))
    assert rows[0] == ["Model", "Mean rating", "Mean percentile", "Hit@5", "nDCG@5", "Coverage"]
    assert len(rows) == 7  # header + six models
    by_model = {r[0]: r for r in rows[1:]}
    assert abs(float(by_model["model-04"][5]) - 0.867) <= 5e-4

    full = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
    cov = next(r["coverage"] for r in full if r["model"] == "model-04")
    assert cov == 13 / 15
    ok(1, f"6-row table in column order, model-04 coverage {by_model['model-04'][5]} (exact 13/15), {elapsed:.3f}s")


# --------------------------------------------------------------------------
# criterion 2: metric quantization over 1,000 random instances


def test_c02_metric_quantization():
    rng = np.random.default_rng(2026)
    targets = {round(v, 9) for v in (5 / 15, 2 / 15, 3 / 15, 15 / 15, 13 / 15)}
    seen = set()
    for _ in range(1000):
        recs, _, cards, names = random_rec_instance(rng, n_judges=3, k=5)
        report = evaluate_model(recs, index_of(cards, names), model_id="m")
        for value in (report.hit_rate, report.coverage):
            if value is None:
                continue
            assert abs(value * 15 - round(value * 15)) <= 1e-9
            seen.add(round(value, 9))
    missing = targets - seen
    assert not missing
    ok(2, "hit*15 and coverage*15 integral over 1000 instances; all five table values occurred")


# --------------------------------------------------------------------------
# criterion 3: metric oracle equivalence on 500 small instances


def test_c03_metric_oracle_equivalence():
    rng = np.random.default_rng(777)
    checked = 0
    for _ in range(500):
        recs, slots, cards, names = random_rec_instance(
            rng, n_judges=int(rng.integers(1, 4)), n_beverages=int(rng.integers(7, 9))
        )
        expected = oracle_metrics(slots, cards, names)
        report = evaluate_model(recs, index_of(cards, names), model_id="m")
        pairs = [
            (report.coverage, expected["coverage"]),
            (report.mean_rating, expected["mean_rating"]),
            (report.mean_percentile, expected["mean_percentile"]),
            (report.hit_rate, expected["hit"]),
            (report.ndcg, expected["ndcg"]),
        ]
        for mine, theirs in pairs:
            if theirs is None:
                assert mine is None
            else:
                assert abs(mine - theirs) <= 1e-9
        checked += 1
    assert checked == 500
    ok(3, "all five metrics match brute-force recomputation to 1e-9 on 500 instances")


# --------------------------------------------------------------------------
# criterion 4: leader-election calibration


def test_c04_leader_election_calibration():
    rng = np.random.default_rng(20260401)
    experts = [("A", 0.1), ("B", 0.8), ("C", 0.1)]
    table = _leader_table([p for _, p in experts])
    n = 100_000
    tally = {"A": 0, "B": 0, "C": 0}
    t0 = time.monotonic()
    for _ in range(n):
        tally[experts[_elect(table, rng)][0]] += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    freq = {k: v / n for k, v in tally.items()}
    assert 0.7962 <= freq["B"] <= 0.8038
    for pid, p in experts:
        bound = 3 * math.sqrt(p * (1 - p) / n)
        assert abs(freq[pid] - p) <= bound
    ok(4, f"frequencies {freq} within 3-sigma bounds in {elapsed:.3f}s")


# --------------------------------------------------------------------------
# criterion 5: protocol invariants over 200 random sessions


def _random_config(rng):
    n_experts = int(rng.integers(1, 4))
    probs = rng.random(n_experts) + 0.05
    probs = probs / probs.sum()
    probs = [float(p) for p in probs]
    probs[-1] = 1.0 - sum(probs[:-1])
    experts = [
        ParticipantProfile(
            f"E{i}",
            is_expert=True,
            leader_probability=probs[i],
            availability_probability=float(rng.uniform(0.5, 1.0)),
            freeload_probability=float(rng.uniform(0.0, 0.6)),
            score_noise_sd=float(rng.uniform(0.0, 1.2)),
            score_floor_affinity=float(rng.choice([0.0, 0.1])),
        )
        for i in range(n_experts)
    ]
    amateurs = [
        ParticipantProfile(
            f"D{i}",
            availability_probability=float(rng.uniform(0.0, 1.0)),
            freeload_probability=float(rng.uniform(0.0, 1.0)),
            score_noise_sd=float(rng.uniform(0.0, 1.2)),
        )
        for i in range(int(rng.integers(0, 4)))
    ]
    pool = [
        Beverage(f"b{i}", "Pool Co", f"Pool {i}", "Test Ale", "Pale ale & IPA",
                 round(float(rng.uniform(0.5, 12.5)), 1))
        for i in range(int(rng.integers(3, 11)))
    ]
    clock_start = int(rng.integers(0, 600))
    clock_end = clock_start + int(rng.integers(60, 400))
    blackouts = []
    for _ in range(int(rng.integers(0, 3))):
        lo = int(rng.integers(clock_start, clock_end - 10))
        hi = int(rng.integers(lo + 1, clock_end + 1))
        blackouts.append((lo, hi))
    return dict(
        federation=experts + amateurs,
        pool=pool,
        seed=int(rng.integers(0, 2**63)),
        clock_start=clock_start,
        clock_end=clock_end,
        round_duration=int(rng.integers(3, 16)),
        blackout_windows=blackouts,
        cost_params=CostParams(
            politeness_initial=float(rng.uniform(0.0, 1.0)),
            politeness_decay=float(rng.uniform(0.05, 0.95)),
            broadcast_base=float(rng.uniform(0.1, 2.0)),
            comprehension_base=float(rng.uniform(0.1, 2.0)),
            comprehension_growth=float(rng.uniform(0.0, 0.5)),
        ),
    )


def test_c05_protocol_invariants():
    rng = np.random.default_rng(555)
    sessions = rejected = 0
    rounds_seen = 0
    for _ in range(200):
        fields = _random_config(rng)
        if not oracle_round_possible(fields["federation"]):  # a lone expert
            with pytest.raises(ConfigurationError, match="no round can take place"):
                run_session(SessionConfig(**fields))
            rejected += 1
            continue
        config = SessionConfig(**fields)
        result = run_session(config)

        sampled = [r.beverage_id for r in result.rounds]
        assert len(sampled) == len(set(sampled))  # no replacement

        for record in result.rounds:
            logged = round_dict(record)
            procurers, reviewers = set(logged["procurers"]), set(logged["reviewers"])
            assert not any(lo <= record.clock < hi for lo, hi in config.blackout_windows)
            assert len(procurers) >= 1
            assert procurers <= reviewers
            assert logged["leader_id"] not in procurers
            assert logged["leader_id"] in reviewers
            # one procured item per round, strictly fewer than reviewers
            # whenever anyone else showed up
            if len(reviewers) > 1:
                assert 1 < len(reviewers)
            # one review per reviewer
            assert sorted(review["judge_id"] for review in logged["reviews"]) == sorted(reviewers)
            assert len(record.scores) == len(logged["reviews"])

        rerun = run_session(config)
        assert list(round_log_lines(rerun)) == list(round_log_lines(result))
        sessions += 1
        rounds_seen += len(result.rounds)
    assert sessions + rejected == 200 and sessions > rejected > 0
    ok(5, f"{sessions} sessions / {rounds_seen} rounds ({rejected} with no possible round rejected): no-replacement, blackout soundness, freeloader accounting, byte-identical reruns")


# --------------------------------------------------------------------------
# criterion 6: normalization properties


def test_c06_normalization_properties():
    rng = np.random.default_rng(606)
    for _ in range(300):
        n_j = int(rng.integers(1, 5))
        n_b = int(rng.integers(2, 12))
        cells = np.full((n_j, n_b), np.nan)
        for i in range(n_j):
            filled = rng.random(n_b) < 0.8
            filled[rng.integers(n_b)] = True
            row = [int(v) / 10 for v in rng.integers(10, 51, size=n_b)]
            if len({row[k] for k in range(n_b) if filled[k]}) < 2:
                filled[:] = True
                row[0], row[1] = 1.0, 5.0
            for k in range(n_b):
                if filled[k]:
                    cells[i, k] = row[k]
        m = ScoreMatrix([f"J{i}" for i in range(n_j)], [f"b{k}" for k in range(n_b)], cells)
        n = normalize(m)
        for i in range(n_j):
            raw, out = m.cells[i], n.cells[i]
            mask = ~np.isnan(raw)
            vals = out[mask]
            assert vals.min() == 0.0 and vals.max() == 1.0
            assert ((vals >= 0.0) & (vals <= 1.0)).all()
            idx = np.where(mask)[0]
            for a in idx:
                for b in idx:
                    assert np.sign(raw[a] - raw[b]) == np.sign(out[a] - out[b])

    exact = normalize(ScoreMatrix(["J"], ["x", "y", "z"], np.array([[1.0, 5.0, 3.8]])))
    assert exact.cells[0, 2] == 0.7
    ok(6, "order preserved, rows attain {0,1}, and (1,5,3.8) -> 0.7 exactly")


# --------------------------------------------------------------------------
# criterion 7: agreement / divisiveness hand checks


def test_c07_hand_checks():
    from beerfed.scoring import agreement, divisiveness

    m = ScoreMatrix(
        ["J0", "J1"],
        [f"b{i}" for i in range(5)],
        np.array([[1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 5.0, 4.0]]),
    )
    rho = agreement(m).values[0, 1]
    assert abs(rho - 0.9) <= 1e-12
    assert abs(rho - oracle_spearman([1, 2, 3, 4, 5], [1, 2, 3, 5, 4])) <= 1e-12

    spread = ScoreMatrix(["a", "b", "c"], ["bev"], np.array([[4.0], [4.1], [2.5]]))
    (entry,) = divisiveness(spread)
    assert abs(entry.sd - 0.8963) <= 5e-4
    assert abs(entry.sd - oracle_sample_sd([4.0, 4.1, 2.5])) <= 1e-12
    ok(7, f"spearman {rho!r} (0.9 +/- 1e-12), sd {entry.sd:.6f} (0.8963 +/- 5e-4)")


# --------------------------------------------------------------------------
# criterion 8: bundled judge-mean calibration


def test_c08_judge_mean_calibration():
    config = load_session_config(bundled("calibration_session.json"))
    result = run_session(config)
    result2 = run_session(load_session_config(bundled("calibration_session.json")))
    assert list(round_log_lines(result)) == list(round_log_lines(result2))

    matrix = build_score_matrix(result.dataset)
    stats = judge_stats(matrix)
    means = {s.judge_id: s.mean for s in stats}
    assert set(means) == {"A", "B", "C"}
    for judge, mean in means.items():
        assert 3.5 <= mean <= 4.0, (judge, mean)
    b_row = matrix.cells[matrix.judges.index("B")]
    ones = int((b_row == 1.0).sum())
    assert ones >= 1
    ok(8, f"deterministic; means {{{', '.join(f'{j}: {m:.3f}' for j, m in sorted(means.items()))}}}; judge B floor scores: {ones}")


# --------------------------------------------------------------------------
# criterion 9: cost model monotonicity


def test_c09_cost_monotonicity():
    from fractions import Fraction

    rng = np.random.default_rng(909)
    for i in range(50):
        # fast-decaying politeness terms fall below one float ulp of the
        # base within 100 rounds, so strict float inequality is only
        # observable for moderate decay; the exact-arithmetic check below
        # covers the full (0, 1) range
        slow_decay = i % 2 == 0
        decay = float(rng.uniform(0.8, 0.99)) if slow_decay else float(rng.uniform(0.01, 0.99))
        params = CostParams(
            politeness_initial=float(rng.uniform(0.05, 2.0)),
            politeness_decay=decay,
            broadcast_base=float(rng.uniform(0.1, 3.0)),
            comprehension_base=float(rng.uniform(0.1, 3.0)),
            comprehension_growth=float(rng.uniform(0.01, 1.0)),
        )
        costs = [communication_costs(t, params) for t in range(100)]
        p0 = Fraction(params.politeness_initial)
        gamma = Fraction(params.politeness_decay)
        beta = Fraction(params.comprehension_growth)
        exact_b = [Fraction(params.broadcast_base) * (1 + p0 * gamma**t) for t in range(100)]
        exact_c = [Fraction(params.comprehension_base) * (1 + beta * t) for t in range(100)]
        for t in range(99):
            assert exact_b[t + 1] < exact_b[t]
            assert exact_c[t + 1] > exact_c[t]
            assert costs[t + 1][1] > costs[t][1]
            if slow_decay:
                assert costs[t + 1][0] < costs[t][0]
            else:
                assert costs[t + 1][0] <= costs[t][0]
            assert abs(costs[t][0] - float(exact_b[t])) <= 1e-9 * max(1.0, float(exact_b[t]))
    ok(9, "broadcast strictly decreasing and comprehension strictly increasing on 50 random parameter sets x 100 rounds (exact arithmetic; float-strict where representable)")


# --------------------------------------------------------------------------
# criterion 10: end-to-end simulate -> analyze -> eval-recs


def test_c10_end_to_end(tmp_path):
    t0 = time.monotonic()
    sim = tmp_path / "sim"
    rc = cli.main(["simulate", str(bundled("calibration_session.json")), "--out", str(sim)])
    assert rc == 0

    rep = tmp_path / "rep"
    rc = cli.main(["analyze", str(sim / "scorecards.csv"), str(sim / "beverages.csv"), "--out-dir", str(rep)])
    assert rc == 0
    tables = {p.name for p in rep.iterdir()}
    assert tables == {
        "style_counts.csv", "abv_bands.csv", "judge_stats.csv", "agreement.csv",
        "top10.csv", "bottom10.csv", "per_style.csv", "divisive.csv", "report.json",
    }

    # six synthetic recommenders built from the generated scorecards
    cards = {}
    beverages = parse_beverages_csv(sim / "beverages.csv")
    name_of = {b.id: b.name for b in beverages}
    for review in review_rows(parse_scorecards_csv(sim / "scorecards.csv", beverages)):  # by display name
        cards.setdefault(review.judge_id, {})[name_of[review.beverage_id]] = review.raw_score

    def tops(judge, n=5, worst=False):
        ordered = sorted(cards[judge].items(), key=lambda kv: (-kv[1], kv[0]))
        if worst:
            ordered = ordered[::-1]
        return [name for name, _ in ordered[:n]]

    recdir = tmp_path / "recs"
    recdir.mkdir()
    specs = {
        "model-01": {j: tops(j) for j in cards},
        "model-02": {j: tops(j, worst=True) for j in cards},
        "model-03": {j: tops(j, 10)[5:10] for j in cards},
        "model-04": {j: tops(j)[:4] for j in cards},
        "model-05": {j: [tops(j)[0]] * 5 for j in cards},
        "model-06": {j: tops(j)[:3] + ["Phantom Pour", "Mystery Mash"] for j in cards},
    }
    for model_id, picks_by_judge in specs.items():
        write_rec_file(recdir / f"{model_id}.json", model_id, picks_by_judge)

    out = tmp_path / "metrics.csv"
    rc = cli.main(
        ["eval-recs", str(recdir / "*.json"), str(sim / "scorecards.csv"), str(sim / "beverages.csv"), "--out", str(out)]
    )
    assert rc == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0

    table = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))
    assert len(table) == 7
    by_model = {r[0]: r for r in table[1:]}
    assert by_model["model-01"][3] == "1.000"  # perfect recommender hits everything
    assert by_model["model-04"][5] == "0.800"
    ok(10, f"simulate -> analyze -> eval-recs on 60 beverages in {elapsed:.2f}s, all tables present")
