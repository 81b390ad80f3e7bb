import json
import os
import subprocess
import sys
from dataclasses import asdict
from itertools import permutations
from pathlib import Path

import pytest

import beerfed
from beerfed import receval
from beerfed.errors import IngestError
from beerfed.receval import (
    JudgeIndex,
    MetricReport,
    RecommendationSet,
    RecommendationSlot,
    VerdictReason,
    evaluate_model,
    load_recommendations,
    normalize_name,
    validate_recs,
)
from beerfed.scoring import normalize
from genutil import index_of, random_rec_instance, score_matrix
from oracles import oracle_metrics, top_k_set

NAMES = {"Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta", "Eta", "Theta"}


def slots_of(*names, ranks=None):
    ranks = ranks or range(1, len(names) + 1)
    return [RecommendationSlot(n, r) for n, r in zip(names, ranks)]


def recs_of(*names, ranks=None, profile="J0"):
    return RecommendationSet("model-x", profile, slots_of(*names, ranks=ranks))


def card(**scores):
    return {normalize_name(k): v for k, v in scores.items()}


def report(recs, cards, names=NAMES, k=5, **kw):
    return evaluate_model(recs, index_of(cards, names, k), model_id="m", **kw)


def assert_matches_oracle(recs, slots, cards, names, index, tie_mode):
    """The index's report equals the brute-force oracle's, which reads the
    scorecards ``cards`` as a plain mapping."""
    got = evaluate_model(recs, index, model_id="m", tie_mode=tie_mode)
    expected = oracle_metrics(slots, cards, set(names), index.k, tie_mode)
    assert (got.coverage, got.mean_rating, got.mean_percentile, got.hit_rate, got.ndcg) == (
        expected["coverage"], expected["mean_rating"], expected["mean_percentile"], expected["hit"], expected["ndcg"],
    )


def top_names(index, judge):
    """The names in ``judge``'s fixed top-k set of ``index``."""
    row = index._top[index.judges.index(judge)]
    return {key for key, hit in zip(index._column, row) if hit}


class TestValidateRecs:
    def test_all_valid(self):
        verdicts = validate_recs(recs_of("Alpha", "Beta", "Gamma", "Delta", "Epsilon"), NAMES)
        assert [v.reason for v in verdicts] == [VerdictReason.OK] * 5
        assert all(v.valid for v in verdicts)

    def test_short_set_padded_with_missing(self):
        # one verdict per given slot; the fifth slot is missing, by count
        verdicts = validate_recs(recs_of("Alpha", "Beta", "Gamma", "Delta"), NAMES)
        assert len(verdicts) == 4 and max(0, 5 - len(verdicts)) == 1
        assert [v.reason for v in verdicts] == [VerdictReason.OK] * 4
        assert sum(v.valid for v in verdicts) == 4

    def test_duplicate_marks_later_occurrence_only(self):
        recs = recs_of("Alpha", "Beta", "Gamma", "Beta", "Delta")
        verdicts = validate_recs(recs, NAMES)
        assert verdicts[1].reason == VerdictReason.OK
        assert verdicts[3].reason == VerdictReason.DUPLICATE

    def test_name_matching_is_fuzzy_on_case_and_whitespace(self):
        verdicts = validate_recs(recs_of("  alpha ", "BETA", "gAmMa", "Delta", "Epsilon"), NAMES)
        assert all(v.valid for v in verdicts)

    def test_off_list_name(self):
        verdicts = validate_recs(recs_of("Omega", "Beta", "Gamma", "Delta", "Epsilon"), NAMES)
        assert verdicts[0].reason == VerdictReason.NOT_IN_LIST

    def test_bad_ranks(self):
        recs = RecommendationSet(
            "m",
            "J0",
            [
                RecommendationSlot("Alpha", 0),
                RecommendationSlot("Beta", 6),
                RecommendationSlot("Gamma", None),
                RecommendationSlot("Delta", 2),
                RecommendationSlot("Epsilon", 2),
            ],
        )
        verdicts = validate_recs(recs, NAMES)
        assert [v.reason for v in verdicts] == [
            VerdictReason.BAD_RANK,
            VerdictReason.BAD_RANK,
            VerdictReason.BAD_RANK,
            VerdictReason.OK,
            VerdictReason.BAD_RANK,  # rank 2 reused
        ]

    def test_oversized_set_keeps_extra_verdicts(self):
        recs = recs_of("Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta", ranks=[1, 2, 3, 4, 5, 5])
        verdicts = validate_recs(recs, NAMES)
        assert len(verdicts) == 6
        assert verdicts[5].reason == VerdictReason.BAD_RANK

    def test_huge_k_returns_in_bounded_memory(self):
        # the child's address space is capped, so a verdict per unused slot
        # fails here instead of exhausting memory
        script = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
            "from beerfed.receval import RecommendationSet, RecommendationSlot, validate_recs\n"
            "recs = RecommendationSet('m', 'J0', [RecommendationSlot('Alpha', 1), RecommendationSlot('Beta', 10**9)])\n"
            "print([v.reason.value for v in validate_recs(recs, {'Alpha', 'Beta'}, k=10**9)])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(beerfed.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.strip() == "['OK', 'OK']"


class TestCoverage:
    def scorecards(self):
        base = card(Alpha=5.0, Beta=4.0, Gamma=3.0, Delta=2.0, Epsilon=1.0)
        return {f"J{i}": dict(base) for i in range(3)}

    def test_full_coverage(self):
        recs = {f"J{i}": recs_of("Alpha", "Beta", "Gamma", "Delta", "Epsilon", profile=f"J{i}") for i in range(3)}
        assert report(recs, self.scorecards()).coverage == 1.0

    def test_thirteen_of_fifteen(self):
        recs = {
            "J0": recs_of("Alpha", "Beta", "Gamma", "Delta"),  # one missing
            "J1": recs_of("Alpha", "Beta", "Gamma", "Delta", "Alpha"),  # one duplicate
            "J2": recs_of("Alpha", "Beta", "Gamma", "Delta", "Epsilon"),
        }
        assert report(recs, self.scorecards()).coverage == pytest.approx(13 / 15, abs=0)
        assert report(recs, self.scorecards()).coverage * 15 == pytest.approx(13, abs=1e-9)

    def test_zero_coverage(self):
        assert report({}, self.scorecards()).coverage == 0.0


class TestMeanRating:
    def test_single_valid_slot(self):
        recs = {"J0": recs_of("Alpha", ranks=[1])}
        cards = {"J0": card(Alpha=4.8, Beta=2.0)}
        assert report(recs, cards).mean_rating == pytest.approx(4.8)

    def test_two_slots_average(self):
        recs = {"J0": recs_of("Alpha", "Beta")}
        cards = {"J0": card(Alpha=4.0, Beta=3.0)}
        assert report(recs, cards).mean_rating == pytest.approx(3.5)

    def test_all_invalid_is_undefined(self):
        recs = {"J0": recs_of("Nope", "Nada")}
        cards = {"J0": card(Alpha=4.0, Beta=3.0)}
        assert report(recs, cards).mean_rating is None

    def test_unscored_valid_slot_excluded(self):
        recs = {"J0": recs_of("Alpha", "Beta")}
        cards = {"J0": card(Alpha=4.0)}  # judge never scored Beta
        assert report(recs, cards).mean_rating == pytest.approx(4.0)


class TestMeanPercentile:
    def test_unique_top_is_one(self):
        recs = {"J0": recs_of("Alpha", ranks=[1])}
        cards = {"J0": card(Alpha=5.0, Beta=4.0, Gamma=3.0, Delta=2.0)}
        assert report(recs, cards).mean_percentile == pytest.approx(1.0)

    def test_unique_bottom_is_zero(self):
        recs = {"J0": recs_of("Delta", ranks=[1])}
        cards = {"J0": card(Alpha=5.0, Beta=4.0, Gamma=3.0, Delta=2.0)}
        assert report(recs, cards).mean_percentile == pytest.approx(0.0)

    def test_midrank_tie(self):
        # tied with one other, both above the remaining two of n=4
        recs = {"J0": recs_of("Alpha", ranks=[1])}
        cards = {"J0": card(Alpha=4.0, Beta=4.0, Gamma=3.0, Delta=2.0)}
        assert report(recs, cards).mean_percentile == pytest.approx((2 + 0.5) / 3)

    def test_judge_mean_then_judges_mean(self):
        recs = {
            "J0": recs_of("Alpha", ranks=[1]),  # percentile 1.0
            "J1": recs_of("Delta", ranks=[1]),  # percentile 0.0
        }
        base = card(Alpha=5.0, Beta=4.0, Gamma=3.0, Delta=2.0)
        cards = {"J0": dict(base), "J1": dict(base)}
        assert report(recs, cards).mean_percentile == pytest.approx(0.5)


class TestHitAtK:
    def cards(self):
        return {
            f"J{i}": card(Alpha=5.0, Beta=4.0, Gamma=3.0, Delta=2.0, Epsilon=1.5, Zeta=1.0)
            for i in range(3)
        }

    def test_exact_top_five_everywhere(self):
        recs = {f"J{i}": recs_of("Alpha", "Beta", "Gamma", "Delta", "Epsilon", profile=f"J{i}") for i in range(3)}
        assert report(recs, self.cards()).hit_rate == 1.0

    def test_five_of_fifteen(self):
        recs = {
            "J0": recs_of("Alpha", "Beta", "Gamma", "Delta", "Epsilon"),
            "J1": recs_of("Zeta", ranks=[1]),
            "J2": recs_of("Zeta", ranks=[1]),
        }
        assert report(recs, self.cards()).hit_rate == pytest.approx(5 / 15)

    def test_two_of_fifteen(self):
        recs = {
            "J0": recs_of("Alpha", "Zeta"),
            "J1": recs_of("Beta", ranks=[1]),
            "J2": recs_of("Zeta", ranks=[1]),
        }
        assert report(recs, self.cards()).hit_rate == pytest.approx(2 / 15)

    def test_tie_at_cut_is_deterministic_by_name(self):
        scorecard = card(Alpha=5.0, Beta=4.0, Gamma=3.0, Delta=2.0, Epsilon=2.0, Zeta=2.0)
        # three items tied at the 5th place; fixed mode keeps the first two
        # by name (delta, epsilon), threshold mode admits all three
        assert top_k_set(scorecard, 5) == {"alpha", "beta", "gamma", "delta", "epsilon"}
        recs = {"J0": recs_of("Zeta", ranks=[1])}
        cards = {"J0": scorecard}
        assert report(recs, cards).hit_rate == 0.0
        assert report(recs, cards, tie_mode="threshold").hit_rate == pytest.approx(1 / 5)


class TestNdcgAtK:
    def cards(self):
        return {"J0": card(Alpha=5.0, Beta=4.0, Gamma=3.0, Delta=2.0, Epsilon=1.0)}

    def test_ideal_order_is_one(self):
        recs = {"J0": recs_of("Alpha", "Beta", "Gamma", "Delta", "Epsilon")}
        assert report(recs, self.cards()).ndcg == pytest.approx(1.0)

    def test_ascending_order_value_frozen_from_oracle(self):
        # brute force over all 120 orderings confirms the ascending
        # recommendation order minimizes DCG; its nDCG is frozen below
        scores = {"alpha": 5.0, "beta": 4.0, "gamma": 3.0, "delta": 2.0, "epsilon": 1.0}
        items = sorted(scores)  # alpha..epsilon
        best = {}
        values = []
        for perm in permutations(items):
            slots = [(n, i + 1) for i, n in enumerate(perm)]
            v = oracle_metrics({"J0": slots}, {"J0": scores}, NAMES, k=5)["ndcg"]
            values.append((v, perm))
        values.sort()
        min_value, min_perm = values[0]
        assert list(min_perm) == ["epsilon", "delta", "gamma", "beta", "alpha"]
        assert min_value == pytest.approx(0.7222433789799553, abs=1e-12)

        recs = {"J0": recs_of("Epsilon", "Delta", "Gamma", "Beta", "Alpha")}
        assert report(recs, self.cards()).ndcg == pytest.approx(min_value, abs=1e-12)

    def test_bounded_by_one(self, rng):
        for _ in range(40):
            recs, _, cards, names = random_rec_instance(rng)
            v = report(recs, cards, names).ndcg
            assert v is None or -1e-12 <= v <= 1.0 + 1e-12


class TestEvaluateModel:
    def cards(self):
        base = card(Alpha=5.0, Beta=4.0, Gamma=3.0, Delta=2.0, Epsilon=1.0, Zeta=1.0)
        return {f"J{i}": dict(base) for i in range(3)}

    def test_perfect_recommender(self):
        recs = {f"J{i}": recs_of("Alpha", "Beta", "Gamma", "Delta", "Epsilon", profile=f"J{i}") for i in range(3)}
        report = evaluate_model(recs, index_of(self.cards(), NAMES), model_id="perfect")
        assert report.coverage == 1.0
        assert report.hit_rate == 1.0
        assert report.ndcg == pytest.approx(1.0)
        assert report.mean_rating == pytest.approx(3.0)
        # mean percentile of the judge's own top five (epsilon ties zeta):
        # (1.0 + 0.8 + 0.6 + 0.4 + 0.1) / 5
        assert report.mean_percentile == pytest.approx(0.58)

    def test_thirteen_slot_shape(self):
        recs = {
            "J0": recs_of("Alpha", "Beta", "Gamma", "Delta"),
            "J1": recs_of("Alpha", "Beta", "Gamma", "Delta", "Alpha"),
            "J2": recs_of("Alpha", "Beta", "Gamma", "Delta", "Epsilon"),
        }
        report = evaluate_model(recs, index_of(self.cards(), NAMES), model_id="m")
        assert report.coverage == pytest.approx(13 / 15, abs=0)
        # a set for a profile without a scorecard is not read
        extra = {**recs, "J9": recs_of("Alpha", "Beta", profile="J9")}
        assert evaluate_model(extra, index_of(self.cards(), NAMES), model_id="m") == report

    def test_empty_recommendations_only_coverage_defined(self):
        report = evaluate_model({}, index_of(self.cards(), NAMES), model_id="empty")
        assert report.coverage == 0.0
        assert report.mean_rating is None
        assert report.mean_percentile is None
        assert report.hit_rate is None
        assert report.ndcg is None

    def test_model_id_is_required_and_keyword_only(self):
        recs = {"J0": recs_of("Alpha", ranks=[1])}
        index = index_of(self.cards(), NAMES)
        with pytest.raises(TypeError):
            evaluate_model(recs, index)
        with pytest.raises(TypeError):
            evaluate_model(recs, index, "m")

    def test_quantization_guard_rejects_corrupt_state(self):
        with pytest.raises(ValueError):
            MetricReport("bad", 4.0, 0.5, hit_rate=0.3, ndcg=0.8, coverage=1.0, n_profiles=3, k=5)

    def test_replacing_invalid_slot_never_hurts(self, rng):
        for _ in range(30):
            recs, _, cards, names = random_rec_instance(rng)
            judge = sorted(cards)[0]
            slots = list(recs[judge].slots)
            verdicts = validate_recs(recs[judge], names)
            invalid = [v for v in verdicts if not v.valid]
            if not invalid:
                continue
            index = index_of(cards, names)
            before = evaluate_model(recs, index, model_id="m")
            idx = invalid[0].slot_index
            used_ranks = {s.rank for i, s in enumerate(slots) if i != idx}
            free_rank = next(r for r in range(1, 6) if r not in used_ranks)
            used_names = {normalize_name(s.beverage_name) for i, s in enumerate(slots) if i != idx}
            replacement = next(
                n for n in sorted(names) if normalize_name(n) not in used_names
            )
            slots[idx] = RecommendationSlot(replacement, free_rank)
            patched = dict(recs)
            patched[judge] = RecommendationSet("m", judge, slots)
            after = evaluate_model(patched, index, model_id="m")
            assert after.coverage >= before.coverage
            if before.hit_rate is not None:
                assert after.hit_rate >= before.hit_rate - 1e-12
            if before.ndcg is not None:
                assert after.ndcg >= before.ndcg - 1e-12

    def test_rank_permutation_changes_only_ndcg(self, rng):
        # permute rank assignments among the valid slots (moving an invalid
        # rank onto another slot would change validity itself)
        for _ in range(20):
            recs, _, cards, names = random_rec_instance(rng)
            index = index_of(cards, names)
            before = evaluate_model(recs, index, model_id="m")
            permuted = {}
            for judge, rset in recs.items():
                slots = list(rset.slots)
                ok = [v.slot_index for v in validate_recs(rset, names) if v.valid]
                ranks = [slots[i].rank for i in ok]
                rng.shuffle(ranks)
                for i, r in zip(ok, ranks):
                    slots[i] = RecommendationSlot(slots[i].beverage_name, int(r), slots[i].justification)
                permuted[judge] = RecommendationSet("m", judge, slots)
            after = evaluate_model(permuted, index, model_id="m")
            assert after.coverage == pytest.approx(before.coverage)
            if before.hit_rate is None:
                assert after.hit_rate is None
            else:
                assert after.hit_rate == pytest.approx(before.hit_rate)
            if before.mean_rating is None:
                assert after.mean_rating is None
            else:
                assert after.mean_rating == pytest.approx(before.mean_rating)
            if before.mean_percentile is None:
                assert after.mean_percentile is None
            else:
                assert after.mean_percentile == pytest.approx(before.mean_percentile)


class TestRecommendationFiles:
    BODY = """{
  "model_id": "model-01",
  "profiles": [
    {
      "profile_id": "A",
      "recommendations": [
        {"beverage_name": "Alpha", "justification": "fits", "rank": 1},
        {"beverage_name": "Beta", "justification": "", "rank": 2}
      ]
    }
  ]
}
"""

    @staticmethod
    def load(tmp_path, body):
        path = tmp_path / "recs.json"
        path.write_text(body, encoding="utf-8")
        return load_recommendations(path)

    def test_parse_and_canonical_roundtrip(self, tmp_path):
        recs = self.load(tmp_path, self.BODY)
        assert recs.model_id == "model-01"
        assert recs.sets["A"].slots[0].rank == 1
        assert recs.sets["A"].slots[0].justification == "fits"
        # what the loader keeps, written back in the file schema, loads to the same sets
        canonical = json.dumps(
            {
                "model_id": recs.model_id,
                "profiles": [
                    {"profile_id": pid, "recommendations": [asdict(slot) for slot in rec_set.slots]}
                    for pid, rec_set in recs.sets.items()
                ],
            },
            sort_keys=True,
        )
        assert self.load(tmp_path, canonical) == recs

    def test_malformed_json_raises(self, tmp_path):
        with pytest.raises(IngestError, match="recs.json: invalid JSON"):
            self.load(tmp_path, "{not json")

    def test_missing_keys_raise(self, tmp_path):
        with pytest.raises(IngestError, match="recs.json: expected an object with model_id and profiles"):
            self.load(tmp_path, '{"profiles": []}')

    def test_non_integer_rank_becomes_bad_rank_not_crash(self, tmp_path):
        body = (
            '{"model_id": "m", "profiles": [{"profile_id": "A", "recommendations":'
            ' [{"beverage_name": "Alpha", "rank": "second"}]}]}'
        )
        recs = self.load(tmp_path, body)
        verdicts = validate_recs(recs.sets["A"], NAMES)
        assert verdicts[0].reason == VerdictReason.BAD_RANK

    def test_load_from_disk(self, tmp_path):
        recs = self.load(tmp_path, self.BODY)
        assert recs.model_id == "model-01"
        assert recs.sets["A"].slots[0].rank == 1


class TestOracleEquivalence:
    def test_random_instances_match_brute_force(self, rng):
        # exact equality: the evaluator sums the same terms in the same order
        for _ in range(120):
            recs, slots, cards, names = random_rec_instance(
                rng, n_judges=int(rng.integers(1, 4)), n_beverages=int(rng.integers(7, 9))
            )
            for tie_mode in ("fixed", "threshold"):
                expected = oracle_metrics(slots, cards, names, tie_mode=tie_mode)
                report = evaluate_model(recs, index_of(cards, names), model_id="m", tie_mode=tie_mode)
                assert report.coverage == expected["coverage"]
                assert report.mean_rating == expected["mean_rating"]
                assert report.mean_percentile == expected["mean_percentile"]
                assert report.hit_rate == expected["hit"]
                assert report.ndcg == expected["ndcg"]

    def test_each_set_validated_once(self, rng, monkeypatch):
        calls = []
        core = receval._reasons

        def counting(recs, resolve, k):
            calls.append(recs.profile_id)
            return core(recs, resolve, k)

        monkeypatch.setattr(receval, "_reasons", counting)
        recs, _, cards, names = random_rec_instance(rng, n_judges=4)
        del recs["J2"]  # a profile without a set is never validated
        evaluate_model(recs, index_of(cards, names), model_id="m")
        assert sorted(calls) == ["J0", "J1", "J3"]


class TestJudgeIndex:
    def test_is_immutable_with_sorted_judges(self):
        cards = {"B": card(Alpha=3.0), "A": card(Beta=4.0, Gamma=2.0)}
        index = index_of(cards, NAMES)
        assert index.judges == ("A", "B") and index.k == 5
        with pytest.raises(AttributeError):
            index.k = 3

    @pytest.mark.parametrize("tie_mode", ["fixed", "threshold"])
    def test_index_and_plain_mapping_give_equal_reports(self, rng, tie_mode):
        # the index's top-k sets and reports against the oracles'
        for trial in range(80):
            recs, slots, cards, names = random_rec_instance(rng, n_judges=int(rng.integers(1, 5)))
            if trial % 2:  # heavily tied: three score levels per card
                cards = {j: {n: int(rng.integers(30, 33)) / 10 for n in c} for j, c in cards.items()}
            if trial % 5 == 0:
                cards["J0"] = {}  # an empty card
            elif trial % 5 == 1:
                cards["J0"] = dict.fromkeys(cards["J0"], 3.5)  # all ties
            elif trial % 5 == 2:  # for k 3 and 5, the cut falls inside a tie of five
                last_first = list(reversed(cards["J0"]))
                cards["J0"] = {n: 4.5 if i < 2 else 4.0 if i < 7 else 2.0 for i, n in enumerate(last_first)}
            for k in (3, 5, 40):  # 40 exceeds every card
                index = index_of(cards, names, k)
                for judge in index.judges:
                    assert top_names(index, judge) == top_k_set(cards[judge], k)
                assert_matches_oracle(recs, slots, cards, names, index, tie_mode)

    def test_each_scorecard_sorted_once_per_index(self, rng, monkeypatch):
        built = []  # the judges of each index construction
        init = JudgeIndex.__init__
        monkeypatch.setattr(JudgeIndex, "__init__", lambda self, matrix, *rest: built.append(len(matrix.judges))
                            or init(self, matrix, *rest))
        recs, _, cards, names = random_rec_instance(rng, n_judges=4)
        index = index_of(cards, names)
        for _ in range(3):
            evaluate_model(recs, index, model_id="m")
        assert built == [4]


class TestMatrixIndex:
    """The index of a score matrix against the brute-force oracle, which
    reads the scorecards as a mapping."""

    @pytest.mark.parametrize("tie_mode", ["fixed", "threshold"])
    def test_matrix_and_mapping_indexes_agree(self, rng, tie_mode):
        for trial in range(60):
            # sets of 7 slots: oversized at k 3 and 5; k 40 exceeds every card
            recs, slots, cards, names = random_rec_instance(rng, n_judges=int(rng.integers(1, 5)), k=7)
            if trial % 2:  # heavily tied: three score levels per card
                cards = {j: {n: int(rng.integers(30, 33)) / 10 for n in c} for j, c in cards.items()}
            if trial % 3 == 0:  # some cells unscored
                cards = {j: {n: v for n, v in c.items() if rng.random() < 0.7} for j, c in cards.items()}
            for k in (3, 5, 40):
                index = index_of(cards, names, k)
                assert index.judges == tuple(sorted(cards))
                for judge in index.judges:
                    assert top_names(index, judge) == top_k_set(cards[judge], k)
                assert_matches_oracle(recs, slots, cards, names, index, tie_mode)

    def test_shared_name_is_valid_but_unrated(self):
        # two producers' beverages normalize to one name that no judge scored
        names = ["Alpha", "Beta", "Gamma", "Twin Ale", " twin  ALE", "Delta"]
        cards = {"J0": card(Alpha=4.0, Beta=3.0, Gamma=2.0, Delta=1.0), "J1": card(Alpha=1.0, Beta=2.5)}
        recs = {j: recs_of("Twin Ale", "Alpha", "Beta", profile=j) for j in cards}
        slots = {j: [(s.beverage_name, s.rank) for s in recs[j].slots] for j in cards}
        index = JudgeIndex(score_matrix(cards, names), names, 5)
        assert [v.reason for v in validate_recs(recs["J0"], set(names))] == [VerdictReason.OK] * 3
        assert top_names(index, "J0") == {"alpha", "beta", "gamma", "delta"}  # the unrated name is in no set
        assert_matches_oracle(recs, slots, cards, names, index, "fixed")
        assert evaluate_model(recs, index, model_id="m").coverage == 6 / 10  # the unrated pick still counts

        scored = score_matrix(cards, names)
        scored.cells[0, 3] = 3.5  # a score for one of the two: which beverage it means is unknown
        with pytest.raises(ValueError, match="sharing a normalized name"):
            JudgeIndex(scored, names, 5)

    @pytest.mark.parametrize("tie_mode", ["fixed", "threshold"])
    def test_normalized_degenerate_rows(self, rng, tie_mode):
        recs, slots, cards, names = random_rec_instance(rng, n_judges=3)
        names = sorted(names)
        cards["J1"] = dict.fromkeys(cards["J1"], 3.0)  # one score only: a degenerate row
        matrix = normalize(score_matrix(cards, names), lenient=True)
        judges = sorted(cards, reverse=True)
        normalized = {j: {normalize_name(n): v for n, v in zip(names, row.tolist()) if v == v}
                      for j, row in zip(judges, matrix.cells)}
        assert set(normalized["J1"].values()) == {0.5}
        for k in (3, 5):
            assert_matches_oracle(recs, slots, normalized, names, JudgeIndex(matrix, names, k), tie_mode)
