import json
import math
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from beerfed.errors import ConfigurationError
from beerfed.io import round_log_lines
from beerfed.model import Beverage, Dataset
from beerfed.protocol import (
    OMIT_BLACKOUT,
    OMIT_NO_PARTICIPANTS,
    CostParams,
    Omitted,
    ParticipantProfile,
    RoundRecord,
    SessionConfig,
    SessionExhausted,
    SessionResult,
    communication_costs,
    default_federation,
    elect_leader,
    generate_score,
    new_session_state,
    run_round,
    run_session,
)
from oracles import oracle_run_session


def pool_of(n, family="Pale ale & IPA"):
    return [
        Beverage(f"p{i}", "Pool Co", f"Pool {i}", "Test Ale", family, 5.0)
        for i in range(n)
    ]


def expert(pid, prob, **kw):
    return ParticipantProfile(pid, is_expert=True, leader_probability=prob, **kw)


class TestElectLeader:
    def test_degenerate_distribution(self, rng):
        experts = [("A", 0.0), ("B", 1.0), ("C", 0.0)]
        assert all(elect_leader(experts, rng) == "B" for _ in range(50))

    def test_sum_above_one_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            elect_leader([("A", 0.5), ("B", 0.6)], rng)

    def test_sum_below_one_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            elect_leader([("A", 0.5), ("B", 0.4)], rng)

    def test_empty_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            elect_leader([], rng)

    def test_frequencies_match_weights(self):
        # independent tally over a fixed-seed stream
        rng = np.random.Generator(np.random.PCG64(99))
        experts = [("A", 0.1), ("B", 0.8), ("C", 0.1)]
        n = 20_000
        tally = Counter(elect_leader(experts, rng) for _ in range(n))
        for pid, p in experts:
            bound = 3 * math.sqrt(p * (1 - p) / n)
            assert abs(tally[pid] / n - p) <= bound

    def test_advances_rng_deterministically(self):
        a = np.random.Generator(np.random.PCG64(5))
        b = np.random.Generator(np.random.PCG64(5))
        seq_a = [elect_leader([("A", 0.3), ("B", 0.7)], a) for _ in range(100)]
        seq_b = [elect_leader([("A", 0.3), ("B", 0.7)], b) for _ in range(100)]
        assert seq_a == seq_b


class TestGenerateScore:
    def test_zero_noise_is_identity(self, rng):
        profile = ParticipantProfile("A")
        bev = pool_of(1)[0]
        assert generate_score(profile, bev, 3.7, rng) == 3.7

    def test_clamped_at_scale_top(self, rng):
        profile = ParticipantProfile("A", score_bias={"Pale ale & IPA": 1.0})
        bev = pool_of(1)[0]
        assert generate_score(profile, bev, 5.0, rng) == 5.0

    def test_bias_applies_per_family(self, rng):
        profile = ParticipantProfile("A", score_bias={"Stout & porter": 0.5})
        ipa = pool_of(1)[0]
        stout = Beverage("s", "Pool Co", "S", "Stout", "Stout & porter", 9.0)
        assert generate_score(profile, ipa, 3.0, rng) == 3.0
        assert generate_score(profile, stout, 3.0, rng) == 3.5

    def test_result_on_grid_and_in_range(self, rng):
        profile = ParticipantProfile("B", score_noise_sd=1.5, score_floor_affinity=0.1)
        bev = pool_of(1)[0]
        for _ in range(500):
            s = generate_score(profile, bev, 3.8, rng)
            assert 1.0 <= s <= 5.0
            assert round(s * 10) == pytest.approx(s * 10)

    def test_noisy_profile_reaches_scale_floor(self):
        rng = np.random.Generator(np.random.PCG64(7))
        profile = ParticipantProfile("B", score_noise_sd=1.5)
        bev = pool_of(1)[0]
        scores = [generate_score(profile, bev, 3.5, rng) for _ in range(1000)]
        assert 1.0 in scores

    def test_base_quality_out_of_range_rejected(self, rng):
        with pytest.raises(ValueError):
            generate_score(ParticipantProfile("A"), pool_of(1)[0], 0.5, rng)


class TestCommunicationCosts:
    def test_formula_at_round_zero(self):
        params = CostParams(politeness_initial=0.5, politeness_decay=0.9, broadcast_base=1.0)
        assert communication_costs(0, params) == (1.5, 1.0)

    def test_broadcast_decays(self):
        params = CostParams(politeness_initial=0.5, politeness_decay=0.9, broadcast_base=1.0)
        assert communication_costs(1, params)[0] == pytest.approx(1.45)
        assert communication_costs(1, params)[0] < communication_costs(0, params)[0]

    def test_flat_comprehension_when_growth_zero(self):
        params = CostParams(comprehension_growth=0.0)
        values = {communication_costs(t, params)[1] for t in range(50)}
        assert values == {1.0}

    def test_decay_of_one_rejected(self):
        with pytest.raises(ConfigurationError):
            CostParams(politeness_decay=1.0)

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            communication_costs(-1, CostParams())


def simple_config(pool, seed=11, **kw):
    federation = kw.pop("federation", None) or [
        expert("A", 0.1),
        expert("B", 0.8),
        expert("C", 0.1),
    ]
    defaults = dict(
        clock_start=600,
        clock_end=1400,
        round_duration=5,
    )
    defaults.update(kw)
    return SessionConfig(federation=federation, pool=pool, seed=seed, **defaults)


class TestRunRound:
    def test_blackout_round_is_omitted(self):
        config = simple_config(pool_of(3), clock_start=600, blackout_windows=[(720, 780)])
        state = new_session_state(config)
        state.clock = 750  # 12:30, mid-lunch
        outcome = run_round(state)
        assert outcome == Omitted(750, OMIT_BLACKOUT)
        assert state.skips == []  # dropped from the record entirely
        assert len(state.pool) == 3

    def test_empty_pool_exhausts(self):
        state = new_session_state(simple_config(pool_of(0)))
        with pytest.raises(SessionExhausted):
            run_round(state)

    def test_no_available_participants_skips(self):
        federation = [
            expert("A", 1.0),
            ParticipantProfile("D", availability_probability=0.0),
        ]
        config = simple_config(pool_of(2), federation=federation)
        state = new_session_state(config)
        outcome = run_round(state)
        assert outcome == Omitted(600, OMIT_NO_PARTICIPANTS)
        assert state.skips == [outcome]

    def test_freeloader_accounting_hand_case(self):
        # 8 participants; the leader plus 3 available others review, 2 of
        # those freeload, so 4 reviews and a single procured sample.
        federation = [
            expert("L", 1.0),
            ParticipantProfile("F1", availability_probability=1.0, freeload_probability=1.0),
            ParticipantProfile("F2", availability_probability=1.0, freeload_probability=1.0),
            ParticipantProfile("P1", availability_probability=1.0, freeload_probability=0.0),
            ParticipantProfile("X1", availability_probability=0.0),
            ParticipantProfile("X2", availability_probability=0.0),
            ParticipantProfile("X3", availability_probability=0.0),
            ParticipantProfile("X4", availability_probability=0.0),
        ]
        config = simple_config(pool_of(2), federation=federation)
        record = run_round(new_session_state(config))
        assert isinstance(record, RoundRecord)
        assert record.leader_id == "L"
        assert record.reviewers == {"L", "F1", "F2", "P1"}
        assert len(record.reviews) == 4
        assert record.procurers == {"P1"}
        assert len(record.procurers) == 1 < len(record.reviewers)
        assert "L" not in record.procurers

    def test_all_freeloaders_promotes_one(self):
        federation = [
            expert("L", 1.0),
            ParticipantProfile("F1", availability_probability=1.0, freeload_probability=1.0),
            ParticipantProfile("F2", availability_probability=1.0, freeload_probability=1.0),
        ]
        record = run_round(new_session_state(simple_config(pool_of(1), federation=federation)))
        assert len(record.procurers) == 1
        assert record.procurers <= {"F1", "F2"}


class TestRunSession:
    def test_pool_exhaustion_yields_all_beverages(self):
        config = simple_config(pool_of(60))
        result = run_session(config)
        assert len(result.rounds) == 60
        sampled = [r.beverage_id for r in result.rounds]
        assert len(set(sampled)) == 60

    def test_same_seed_is_byte_identical(self):
        config = simple_config(pool_of(25), seed=77)
        log_a = round_log_lines(run_session(config))
        log_b = round_log_lines(run_session(config))
        assert log_a == log_b

    def test_different_seed_differs(self):
        a = round_log_lines(run_session(simple_config(pool_of(25), seed=1)))
        b = round_log_lines(run_session(simple_config(pool_of(25), seed=2)))
        assert a != b

    def test_blackout_covering_window_yields_no_rounds(self):
        config = simple_config(
            pool_of(5), clock_start=600, clock_end=700, blackout_windows=[(600, 700)]
        )
        result = run_session(config)
        assert result.rounds == []

    def test_round_costs_follow_round_index(self):
        config = simple_config(pool_of(10))
        result = run_session(config)
        for record in result.rounds:
            assert (record.broadcast_cost, record.comprehension_cost) == communication_costs(
                record.index, config.cost_params
            )

    def test_amateur_reviews_excluded_from_dataset(self):
        federation = default_federation()
        config = simple_config(pool_of(10), federation=federation)
        result = run_session(config)
        assert result.dataset.judges == ["A", "B", "C"]
        assert {r.judge_id for r in result.dataset.reviews} <= {"A", "B", "C"}
        # the round log still carries everyone
        all_reviewers = {r.judge_id for rec in result.rounds for r in rec.reviews}
        assert all_reviewers - {"A", "B", "C"}

    def test_amateurs_included_when_asked(self):
        config = simple_config(pool_of(10), federation=default_federation())
        config.include_amateurs = True
        result = run_session(config)
        assert result.dataset.judges == ["A", "B", "C", "D", "E", "F", "G", "H"]

    def test_clock_end_stops_session(self):
        config = simple_config(pool_of(100), clock_start=600, clock_end=650, round_duration=10)
        result = run_session(config)
        assert len(result.rounds) == 5

    def test_invalid_probability_sum_rejected_before_rounds(self):
        config = simple_config(pool_of(2), federation=[expert("A", 0.5), expert("B", 0.6)])
        with pytest.raises(ConfigurationError):
            run_session(config)

    def test_blackouts_outside_clock_rejected(self):
        with pytest.raises(ConfigurationError):
            run_session(simple_config(pool_of(2), blackout_windows=[(100, 200)]))


@pytest.mark.parametrize("seed", range(10))
def test_numpy_pcg64_block_draws_equal_scalar_draws(seed):
    # the batched draw order rests on this: one array draw of n values
    # gives the same values, and leaves the same state, as n scalar draws
    chunks = random.Random(seed).choices([("standard_normal", n) for n in (0, 1, 5, 100)]
                                         + [("random", n) for n in (0, 1, 5, 100)], k=40)
    block, scalar = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
    for method, n in chunks:
        values = getattr(block, method)(n)
        assert values.tolist() == [getattr(scalar, method)() for _ in range(n)]
        assert block.bit_generator.state == scalar.bit_generator.state


FAMILIES = ["Pale ale & IPA", "Stout & porter", "Gose"]


def random_config(seed):
    """A small valid session with random probabilities, floor affinities,
    blackouts, amateurs and, now and then, a bias or noise sd so large that
    the score overflows before it is clamped."""
    r = random.Random(seed)
    federation = []
    for i in range(r.randint(1, 9)):
        federation.append(ParticipantProfile(
            f"M{i}",
            is_expert=i == 0 or r.random() < 0.4,
            availability_probability=r.choice([0.0, 0.4, 0.8, 1.0]),
            freeload_probability=r.choice([0.0, 0.5, 1.0]),
            score_floor_affinity=r.choice([0.0, 0.0, 0.0, 0.1, 0.5, 1.0]),
            score_noise_sd=1e308 if r.random() < 0.03 else r.choice([0.0, 0.6, 1.5]),
            score_bias={f: r.choice([1.7e308, -1.7e308]) if r.random() < 0.03 else r.choice([-1.0, 0.5])
                        for f in r.sample(FAMILIES, r.randint(0, 2))},
        ))
    weights = [r.choice([0.0, 1.0, 2.5]) if p.is_expert else 0.0 for p in federation]
    weights[0] = 1.0
    federation = [replace(p, leader_probability=w / sum(weights)) for p, w in zip(federation, weights)]
    end = r.randint(30, 300)
    blackouts = [(b, min(end, b + r.randint(1, 40))) for b in sorted(r.sample(range(end), r.randint(0, 2)))]
    pool = [Beverage(f"p{i}", "Pool Co", f"Pool {i}", "x", r.choice(FAMILIES), 5.0) for i in range(r.randint(0, 60))]
    return SessionConfig(federation=federation, pool=pool, seed=r.getrandbits(64), clock_start=0,
                         clock_end=end, round_duration=r.randint(1, 6), blackout_windows=blackouts,
                         include_amateurs=r.random() < 0.5)


@pytest.mark.filterwarnings("error")
def test_run_session_matches_per_reviewer_oracle():
    seen = Counter()
    for seed in range(150):
        config = random_config(seed)
        result = run_session(config)
        lines, reviews, skips = oracle_run_session(config)
        assert round_log_lines(result) == lines
        assert [(r.judge_id, r.beverage_id, r.raw_score) for r in result.dataset.reviews] == reviews
        assert [(s.clock, s.reason) for s in result.skips] == skips
        # what the random configs exercised
        by_id = {p.id: p for p in config.federation}
        rounds = [json.loads(line) for line in lines]
        with_floor = [any(by_id[j].score_floor_affinity > 0 for j in rec["reviewers"]) for rec in rounds]
        seen["mixed floor and no-floor rounds"] += len(set(with_floor)) == 2
        seen["blackouts"] += bool(config.blackout_windows) and bool(rounds)
        seen["skips"] += bool(skips)
        seen["freeloader promoted"] += any(by_id[rec["procurers"][0]].freeload_probability == 1.0 for rec in rounds)
        seen["amateurs kept"] += config.include_amateurs and any(not by_id[j].is_expert for j, *_ in reviews)
        seen["huge bias or sd"] += any(
            p.score_noise_sd > 1e300 or any(abs(b) > 1e300 for b in p.score_bias.values()) for p in config.federation
        ) and bool(rounds)
    assert min(seen.values()) >= 5 and len(seen) == 6, seen


def test_round_log_writer_matches_json_dumps():
    ids = ['quote"d', "back\\slash", "caf\u00e9 \u4e2d", "ctl\x00\x1f\n\t\x7f", "line\u2028sep", "\U0001f37a"]
    federation = [expert(pid, 1.0 if i == 0 else 0.0) for i, pid in enumerate(ids)]
    pool = [Beverage(pid + "!", "Pool Co", f"Pool {i}", "Test Ale", "Gose", 5.0) for i, pid in enumerate(ids)]
    costs = CostParams(politeness_initial=1e308, broadcast_base=1e308, comprehension_growth=1e308)
    config = simple_config(pool, federation=federation, cost_params=costs)
    result = run_session(config)
    empty = RoundRecord(9, 0, ids[0], ids[1], frozenset(), (), (), 0.5, 2.0)
    result = SessionResult(config, [*result.rounds, empty], [], Dataset())
    expected = [json.dumps(r.to_json_dict(), sort_keys=True) for r in result.rounds]
    assert round_log_lines(result) == expected
    assert len(expected) == len(ids) + 1 and all("Infinity" in line for line in expected[2:-1])
