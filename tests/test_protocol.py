import json
import math
import random
from collections import Counter
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from beerfed import protocol
from beerfed.errors import ConfigurationError
from beerfed.io import round_log_lines
from beerfed.model import Beverage
from beerfed.protocol import (
    OMIT_NO_PARTICIPANTS,
    CostParams,
    Omitted,
    ParticipantProfile,
    RoundRecord,
    SessionConfig,
    SessionResult,
    _elect,
    _leader_table,
    communication_costs,
    run_session,
)
from genutil import dataset_of, review_rows
from oracles import oracle_round_possible, oracle_run_session, round_dict


def pool_of(n, family="Pale ale & IPA"):
    return [
        Beverage(f"p{i}", "Pool Co", f"Pool {i}", "Test Ale", family, 5.0)
        for i in range(n)
    ]


def expert(pid, prob, **kw):
    return ParticipantProfile(pid, is_expert=True, leader_probability=prob, **kw)


def default_federation():
    """Three experts with the standard 0.1 / 0.8 / 0.1 leader weights plus
    five calibration amateurs (whose reviews are excluded from analytics)."""
    experts = [
        ParticipantProfile("A", is_expert=True, leader_probability=0.1, score_noise_sd=0.35),
        ParticipantProfile("B", is_expert=True, leader_probability=0.8, score_noise_sd=0.9,
                           score_floor_affinity=0.06),
        ParticipantProfile("C", is_expert=True, leader_probability=0.1, score_noise_sd=0.55),
    ]
    amateurs = [
        ParticipantProfile(pid, availability_probability=0.75,
                           freeload_probability=0.5, score_noise_sd=0.8)
        for pid in ("D", "E", "F", "G", "H")
    ]
    return experts + amateurs


class TestElectLeader:
    def test_degenerate_distribution(self, rng):
        table = _leader_table([0.0, 1.0, 0.0])
        assert all(_elect(table, rng) == 1 for _ in range(50))

    def test_sum_above_one_rejected(self):
        with pytest.raises(ConfigurationError, match="must sum to 1"):
            run_session(simple_config(pool_of(2), federation=[expert("A", 0.5), expert("B", 0.6)]))

    def test_sum_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="must sum to 1"):
            run_session(simple_config(pool_of(2), federation=[expert("A", 0.5), expert("B", 0.4)]))

    def test_empty_rejected(self):
        federation = [ParticipantProfile("D"), ParticipantProfile("E")]
        with pytest.raises(ConfigurationError, match="at least one expert"):
            run_session(simple_config(pool_of(2), federation=federation))

    def test_frequencies_match_weights(self):
        # independent tally over a fixed-seed stream
        rng = np.random.Generator(np.random.PCG64(99))
        weights = [0.1, 0.8, 0.1]
        table = _leader_table(weights)
        n = 20_000
        tally = Counter(_elect(table, rng) for _ in range(n))
        for i, p in enumerate(weights):
            bound = 3 * math.sqrt(p * (1 - p) / n)
            assert abs(tally[i] / n - p) <= bound

    def test_advances_rng_deterministically(self):
        a = np.random.Generator(np.random.PCG64(5))
        b = np.random.Generator(np.random.PCG64(5))
        table = _leader_table([0.3, 0.7])
        seq_a = [_elect(table, a) for _ in range(100)]
        seq_b = [_elect(table, b) for _ in range(100)]
        assert seq_a == seq_b


def shared_profile_scores(base, beverages=1, **profile):
    """Every score of a session in which A always leads and B always
    reviews, both with one score profile, on a pool whose base quality is
    ``base``: two reviews per beverage, in round order. A round has at least
    two reviewers, the leader and one other member present."""
    federation = [expert("A", 1.0, **profile), ParticipantProfile("B", **profile)]
    config = simple_config(pool_of(beverages), seed=7, federation=federation, base_quality_range=(base, base),
                           clock_start=0, clock_end=1440, round_duration=1)
    rounds = run_session(config).rounds
    assert len(rounds) == beverages and all(r.reviewer_positions.tolist() == [0, 1] for r in rounds)
    assert all(r.scores.dtype == np.uint8 for r in rounds)
    return (np.concatenate([r.scores for r in rounds]) / 10).tolist()  # in points


class TestGenerateScore:
    """Scores as ``run_session`` draws them, for one shared reviewer profile."""

    def test_zero_noise_is_identity(self):
        assert shared_profile_scores(3.7, beverages=3) == [3.7] * 6

    def test_base_and_bias_are_summed_before_the_noise(self):
        # replay the draws ahead of A's normal: base quality, election, B's
        # availability and freeload, the beverage. A noise of -2**52 cancels
        # the bias to within an ulp of it, so the grouping decides the score
        rng = np.random.Generator(np.random.PCG64(7))
        rng.random(), rng.random(), rng.random(1), rng.random(1), rng.integers(1)
        z = rng.standard_normal()
        assert z < 0
        bias, sd = 2.0**52, 2.0**52 / -z
        expected, regrouped = (round(min(5.0, max(1.0, value)) * 10) / 10 for value in
                               ((3.7 + bias) + z * sd, 3.7 + (bias + z * sd)))
        assert expected != regrouped
        federation = [expert("A", 1.0, score_bias={"Pale ale & IPA": bias}, score_noise_sd=sd), ParticipantProfile("B")]
        config = simple_config(pool_of(1), seed=7, federation=federation, base_quality_range=(3.7, 3.7))
        assert run_session(config).rounds[0].scores.tolist() == [round(expected * 10), 37]

    def test_clamped_at_scale_top(self):
        assert shared_profile_scores(5.0, score_bias={"Pale ale & IPA": 1.0}) == [5.0] * 2

    def test_bias_applies_per_family(self):
        federation = [expert("A", 1.0, score_bias={"Stout & porter": 0.5}), ParticipantProfile("B")]
        stout = Beverage("s", "Pool Co", "S", "Stout", "Stout & porter", 9.0)
        config = simple_config([pool_of(1)[0], stout], federation=federation, base_quality_range=(3.0, 3.0))
        scores = {(r.beverage_id, review["judge_id"]): review["raw_score"] for r in run_session(config).rounds
                  for review in round_dict(r)["reviews"]}
        assert scores == {("p0", "A"): 3.0, ("p0", "B"): 3.0, ("s", "A"): 3.5, ("s", "B"): 3.0}

    def test_result_on_grid_and_in_range(self):
        scores = shared_profile_scores(3.8, beverages=250, score_noise_sd=1.5, score_floor_affinity=0.1)
        assert len(scores) == 500
        for s in scores:
            assert 1.0 <= s <= 5.0
            assert round(s * 10) == pytest.approx(s * 10)

    def test_noisy_profile_reaches_scale_floor(self):
        scores = shared_profile_scores(3.5, beverages=500, score_noise_sd=1.5)
        assert 1.0 in scores

    def test_base_quality_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError, match="base_quality_range"):
            run_session(simple_config(pool_of(1), base_quality_range=(0.5, 0.5)))


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
            simple_config(pool_of(1), cost_params=CostParams(politeness_decay=1.0))

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


class TestSessionChecksItsRecords:
    """The config checks the profiles and cost params it holds; they are
    plain NamedTuples, and each rule keeps the message it had when the
    record checked itself."""

    PROFILE_RULES = [
        ("leader_probability", 2.0, "A: leader_probability must lie in [0, 1], got 2.0"),
        ("freeload_probability", -0.1, "A: freeload_probability must lie in [0, 1], got -0.1"),
        ("availability_probability", 1.5, "A: availability_probability must lie in [0, 1], got 1.5"),
        ("score_floor_affinity", math.nan, "A: score_floor_affinity must lie in [0, 1], got nan"),
        ("score_noise_sd", -1.0, "A: score_noise_sd must be >= 0"),
    ]
    COST_RULES = [
        ("politeness_initial", -0.5, "politeness_initial must be >= 0"),
        ("politeness_decay", 1.0, "politeness_decay must lie strictly in (0, 1)"),
        ("politeness_decay", 0.0, "politeness_decay must lie strictly in (0, 1)"),
        ("broadcast_base", -1.0, "cost bases must be >= 0"),
        ("comprehension_base", -1.0, "cost bases must be >= 0"),
        ("comprehension_growth", -0.05, "comprehension_growth must be >= 0"),
    ]

    @staticmethod
    def message(build):
        with pytest.raises(ConfigurationError) as info:
            build()
        return str(info.value)

    @pytest.mark.parametrize("field, value, message", PROFILE_RULES, ids=[r[0] for r in PROFILE_RULES])
    def test_profile_rule_raises_when_the_config_is_built(self, field, value, message):
        federation = [expert("A", 0.1)._replace(**{field: value}), expert("B", 0.8), expert("C", 0.1)]
        assert self.message(lambda: simple_config(pool_of(2), federation=federation)) == message
        assert self.message(lambda: replace(simple_config(pool_of(2)), federation=federation)) == message
        assert getattr(federation[0], field) is value  # the profile itself holds any value

    @pytest.mark.parametrize("field, value, message", COST_RULES,
                             ids=[f"{field}={value}" for field, value, _ in COST_RULES])
    def test_cost_rule_raises_when_the_config_is_built(self, field, value, message):
        cost = CostParams(**{field: value})
        assert self.message(lambda: simple_config(pool_of(2), cost_params=cost)) == message
        assert self.message(lambda: replace(simple_config(pool_of(2)), cost_params=cost)) == message

    def test_profiles_are_checked_in_federation_order_before_their_ids(self):
        federation = [expert("A", 1.0), ParticipantProfile("B", freeload_probability=2.0),
                      ParticipantProfile("A", leader_probability=-1.0)]
        assert self.message(lambda: simple_config(pool_of(2), federation=federation)) == \
            "B: freeload_probability must lie in [0, 1], got 2.0"
        assert self.message(lambda: simple_config(pool_of(2), federation=[federation[0], federation[2]])) == \
            "A: leader_probability must lie in [0, 1], got -1.0"
        assert self.message(lambda: simple_config(pool_of(2), federation=[federation[0], federation[0]])) == \
            "participant ids must be unique"

    def test_cost_rules_run_before_the_overflow_check(self):
        # unchecked, 1e10**159 would overflow a float and a decay of -2.0 would make round 3's broadcast
        # cost -3.0: communication_costs checks its params as the config does
        for round_index, decay in ((159, 1e10), (3, -2.0)):
            assert self.message(lambda: communication_costs(round_index, CostParams(politeness_decay=decay))) == \
                "politeness_decay must lie strictly in (0, 1)"
        assert self.message(lambda: simple_config(pool_of(200), cost_params=CostParams(politeness_decay=1e10))) == \
            "politeness_decay must lie strictly in (0, 1)"

    def test_cost_params_are_checked_once_per_config(self, monkeypatch):
        # the overflow check and run_session take every round's costs unchecked from the checked config
        checks = []
        check = protocol._check_cost_params
        monkeypatch.setattr(protocol, "_check_cost_params", lambda params: checks.append(params) or check(params))
        config = simple_config(pool_of(200), clock_start=0, clock_end=1440, round_duration=1)
        assert checks == [config.cost_params]
        result = run_session(config)
        assert len(result.rounds) == 200 and checks == [config.cost_params]
        assert [(r.broadcast_cost, r.comprehension_cost) for r in result.rounds] == [
            communication_costs(t, config.cost_params) for t in range(200)]  # the public function checks each call
        assert len(checks) == 201
        replace(config, seed=3)
        assert len(checks) == 202

    def test_defaults_are_shared_and_immutable(self):
        a, b = ParticipantProfile("A"), ParticipantProfile("B")
        assert a.score_bias == {} and a.score_bias is b.score_bias
        with pytest.raises(TypeError):
            a.score_bias["Gose"] = 1.0
        assert simple_config(pool_of(1)).cost_params == CostParams() == (0.5, 0.9, 1.0, 1.0, 0.05)


class TestRunRound:
    """Single rounds: sessions whose clock window spans one or two rounds."""

    def test_blackout_round_is_omitted(self):
        config = simple_config(pool_of(3), clock_start=750, clock_end=760, blackout_windows=[(750, 755)])
        result = run_session(config)
        assert result.skips == []  # dropped from the record entirely
        assert [(r.index, r.clock) for r in result.rounds] == [(0, 755)]
        # the blacked-out round drew nothing and took no beverage
        unblocked = run_session(simple_config(pool_of(3), clock_start=755, clock_end=760))
        assert list(map(round_dict, result.rounds)) == list(map(round_dict, unblocked.rounds))

    def test_empty_pool_exhausts(self):
        result = run_session(simple_config(pool_of(0)))
        assert (result.rounds, result.skips) == ([], [])
        # the pool runs out before the clock window closes
        result = run_session(simple_config(pool_of(1), clock_end=610))
        assert [r.clock for r in result.rounds] == [600] and result.skips == []

    def test_no_available_participants_skips(self):
        federation = [
            expert("A", 1.0),
            ParticipantProfile("D", availability_probability=1e-12),  # a round is possible, if never likely
        ]
        result = run_session(simple_config(pool_of(2), federation=federation, clock_end=605))
        assert result.rounds == []
        assert result.skips == [Omitted(600, OMIT_NO_PARTICIPANTS)]

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
        (record,) = run_session(simple_config(pool_of(2), federation=federation, clock_end=605)).rounds
        assert isinstance(record, RoundRecord)
        logged = round_dict(record)
        assert logged["leader_id"] == "L"
        assert set(logged["reviewers"]) == {"L", "F1", "F2", "P1"}
        assert len(logged["reviews"]) == len(record.scores) == 4
        assert set(logged["procurers"]) == {"P1"}
        assert len(logged["procurers"]) == 1 < len(logged["reviewers"])
        assert "L" not in logged["procurers"]
        # the codes: read-only arrays, compared by the ids and scores they stand for
        assert record.reviewer_positions.tolist() == [0, 1, 2, 3] and record.procurer_positions.tolist() == [3]
        with pytest.raises(ValueError, match="read-only"):
            record.scores[0] = 10
        copy = record._replace(members=tuple(list(record.members)), scores=record.scores.copy())
        assert round_dict(copy) == logged and copy.members is not record.members
        assert round_dict(record._replace(scores=record.scores + 1)) != logged

    def test_all_freeloaders_promotes_one(self):
        federation = [
            expert("L", 1.0),
            ParticipantProfile("F1", availability_probability=1.0, freeload_probability=1.0),
            ParticipantProfile("F2", availability_probability=1.0, freeload_probability=1.0),
        ]
        (record,) = run_session(simple_config(pool_of(1), federation=federation, clock_end=605)).rounds
        procurers = round_dict(record)["procurers"]
        assert len(procurers) == 1
        assert set(procurers) <= {"F1", "F2"}


class TestRunSession:
    def test_pool_exhaustion_yields_all_beverages(self):
        config = simple_config(pool_of(60))
        result = run_session(config)
        assert len(result.rounds) == 60
        sampled = [r.beverage_id for r in result.rounds]
        assert len(set(sampled)) == 60

    def test_same_seed_is_byte_identical(self):
        config = simple_config(pool_of(25), seed=77)
        log_a = list(round_log_lines(run_session(config)))
        log_b = list(round_log_lines(run_session(config)))
        assert log_a == log_b

    def test_different_seed_differs(self):
        a = list(round_log_lines(run_session(simple_config(pool_of(25), seed=1))))
        b = list(round_log_lines(run_session(simple_config(pool_of(25), seed=2))))
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
        assert result.dataset.judges == ("A", "B", "C")
        assert {r.judge_id for r in review_rows(result.dataset)} <= {"A", "B", "C"}
        # the round log still carries everyone
        all_reviewers = {judge for rec in result.rounds for judge in round_dict(rec)["reviewers"]}
        assert all_reviewers - {"A", "B", "C"}

    def test_amateurs_included_when_asked(self):
        config = simple_config(pool_of(10), federation=default_federation(), include_amateurs=True)
        result = run_session(config)
        assert result.dataset.judges == ("A", "B", "C", "D", "E", "F", "G", "H")

    def test_clock_end_stops_session(self):
        config = simple_config(pool_of(100), clock_start=600, clock_end=650, round_duration=10)
        result = run_session(config)
        assert len(result.rounds) == 5

    def test_config_is_frozen_and_holds_tuples(self):
        config = simple_config(pool_of(3), blackout_windows=[(700, 710)])
        with pytest.raises(FrozenInstanceError):
            config.seed = 12
        assert [type(config.federation), type(config.pool), type(config.blackout_windows)] == [tuple] * 3
        assert config.blackout_windows == ((700, 710),) and config.seed == 11

    def test_invalid_probability_sum_rejected_before_rounds(self):
        with pytest.raises(ConfigurationError):
            run_session(simple_config(pool_of(2), federation=[expert("A", 0.5), expert("B", 0.6)]))

    def test_blackouts_outside_clock_rejected(self):
        with pytest.raises(ConfigurationError):
            run_session(simple_config(pool_of(2), blackout_windows=[(100, 200)]))

    @pytest.mark.parametrize("second,message", [
        (Beverage("q::ale", "Q", "ale", "Stout", "Stout & porter", 6.0),
         "pool entry 1: ambiguous beverage name 'ale': 'ale' for 'Q' and, at pool entry 0, 'Ale' for 'P'"),
        (Beverage("p::ale", "P2", "Ale 2", "Stout", "Stout & porter", 6.0),
         "pool entry 1: duplicate beverage id 'p::ale': 'Ale 2' for 'P2' and, at pool entry 0, 'Ale' for 'P'"),
        (None, "pool entry 1: duplicate beverage id 'p::ale': 'Ale' for 'P' and, at pool entry 0, 'Ale' for 'P'"),
    ], ids=["name", "id", "same-object"])
    def test_pool_clash_rejected_naming_both_entries(self, second, message):
        # a Python-API config used to pass with two names a scorecard cannot
        # tell apart, and to reject a shared id without naming either entry;
        # None lists the first beverage object twice
        first = Beverage("p::ale", "P", "Ale", "IPA", "Pale ale & IPA", 5.0)
        with pytest.raises(ConfigurationError) as info:
            run_session(simple_config([first, second or first]))
        assert str(info.value) == message


@pytest.mark.parametrize("seed", range(10))
def test_numpy_pcg64_block_draws_equal_scalar_draws(seed):
    # the batched draw order rests on this: one array draw of n values, or a
    # normal draw into an out slice of n, gives the same values, and leaves
    # the same state, as n scalar draws
    chunks = random.Random(seed).choices([("standard_normal", n) for n in (0, 1, 5, 100)]
                                         + [("random", n) for n in (0, 1, 5, 100)], k=40)
    block, into, scalar = (np.random.Generator(np.random.PCG64(seed)) for _ in range(3))
    for method, n in chunks:
        values = getattr(block, method)(n)
        assert values.tolist() == [getattr(scalar, method)() for _ in range(n)]
        assert block.bit_generator.state == scalar.bit_generator.state
        if method == "standard_normal":
            column = np.full(200, np.nan)
            into.standard_normal(out=column[50:50 + n])
            assert column[50:50 + n].tolist() == values.tolist() and np.isnan(np.delete(column, range(50, 50 + n))).all()
        else:
            into.random(n)
        assert into.bit_generator.state == scalar.bit_generator.state


FAMILIES = ["Pale ale & IPA", "Stout & porter", "Gose"]


def random_config(seed):
    """The fields of a small session with random probabilities, floor
    affinities, blackouts, amateurs and, now and then, a bias or noise sd so
    large that the score overflows before it is clamped."""
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
    federation = [p._replace(leader_probability=w / sum(weights)) for p, w in zip(federation, weights)]
    end = r.randint(30, 300)
    blackouts = [(b, min(end, b + r.randint(1, 40))) for b in sorted(r.sample(range(end), r.randint(0, 2)))]
    pool = [Beverage(f"p{i}", "Pool Co", f"Pool {i}", "x", r.choice(FAMILIES), 5.0) for i in range(r.randint(0, 60))]
    return dict(federation=federation, pool=pool, seed=r.getrandbits(64), clock_start=0,
                clock_end=end, round_duration=r.randint(1, 6), blackout_windows=blackouts,
                include_amateurs=r.random() < 0.5)


@pytest.mark.filterwarnings("error")
def test_run_session_matches_per_reviewer_oracle():
    seen = Counter()
    for seed in range(150):
        fields = random_config(seed)
        if not oracle_round_possible(fields["federation"]):
            with pytest.raises(ConfigurationError, match="no round can take place"):
                run_session(SessionConfig(**fields))
            seen["no round possible, rejected"] += 1
            continue
        config = SessionConfig(**fields)
        result = run_session(config)
        lines, reviews, skips = oracle_run_session(config)
        assert list(round_log_lines(result)) == lines
        assert [(r.judge_id, r.beverage_id, r.raw_score) for r in review_rows(result.dataset)] == reviews
        assert [(s.clock, s.reason) for s in result.skips] == skips
        for r in result.rounds:
            assert not any(a.flags.writeable for a in (r.reviewer_positions, r.procurer_positions, r.scores))
            assert r.scores.dtype == np.uint8
        assert result.dataset.reviews.score.dtype == np.uint8 and not result.dataset.reviews.score.flags.writeable
        kept = [p.is_expert or config.include_amateurs for p in config.federation]
        assert result.dataset.reviews.score.tolist() == [
            s for r in result.rounds for i, s in zip(r.reviewer_positions.tolist(), r.scores.tolist()) if kept[i]
        ]
        # what the random configs exercised
        by_id = {p.id: p for p in config.federation}
        rounds = [json.loads(line) for line in lines]
        with_floor = [any(by_id[j].score_floor_affinity > 0 for j in rec["reviewers"]) for rec in rounds]
        seen["mixed floor and no-floor rounds"] += len(set(with_floor)) == 2
        seen["no member with floor affinity"] += not any(p.score_floor_affinity > 0 for p in config.federation) and bool(rounds)
        seen["blackouts"] += bool(config.blackout_windows) and bool(rounds)
        seen["skips"] += bool(skips)
        seen["freeloader promoted"] += any(by_id[rec["procurers"][0]].freeload_probability == 1.0 for rec in rounds)
        seen["amateurs kept"] += config.include_amateurs and any(not by_id[j].is_expert for j, *_ in reviews)
        seen["huge bias or sd"] += any(
            p.score_noise_sd > 1e300 or any(abs(b) > 1e300 for b in p.score_bias.values()) for p in config.federation
        ) and bool(rounds)
    assert min(seen.values()) >= 5 and len(seen) == 8, seen


def test_round_log_writer_matches_json_dumps():
    ids = ['quote"d', "back\\slash", "caf\u00e9 \u4e2d", "ctl\x00\x1f\n\t\x7f", "line\u2028sep", "\U0001f37a"]
    federation = [expert(pid, 1.0 if i == 0 else 0.0) for i, pid in enumerate(ids)]
    pool = [Beverage(pid + "!", "Pool Co", f"Pool {i}", "Test Ale", "Gose", 5.0) for i, pid in enumerate(ids)]
    config = simple_config(pool, federation=federation)
    result = run_session(config)
    no_codes = np.empty(0, np.intp)
    empty = RoundRecord(9, 0, result.rounds[0].members, 0, ids[1], no_codes, no_codes, np.empty(0, np.uint8), 0.5, 2.0)
    # a config's costs stay finite, so rounds built by hand carry non-finite ones
    rounds = [r._replace(broadcast_cost=math.inf, comprehension_cost=math.nan) if r.index >= 2 else r
              for r in result.rounds]
    result = SessionResult(config, [*rounds, empty], [], dataset_of([], [], []))
    expected = [json.dumps(round_dict(r), sort_keys=True) for r in result.rounds]
    assert list(round_log_lines(result)) == expected
    assert len(expected) == len(ids) + 1 and all("Infinity" in line and "NaN" in line for line in expected[2:-1])


def test_round_log_of_every_score_matches_json_dumps():
    # rounds built by hand may hold any of the 41 scores, in tenths, and positions of any integer dtype
    config = simple_config(pool_of(21), federation=[expert("A", 1.0), expert("B", 0.0)])
    dtypes = [np.intp, np.int32, np.int8]
    rounds = [RoundRecord(t, 600 + 5 * t, ("A", "B"), 0, f"p{t}", both[:1], both,
                          np.array([10 + 2 * t, min(11 + 2 * t, 50)], np.uint8), 1.5, 1.0)
              for t, both in enumerate(np.array([0, 1], dtypes[t % 3]) for t in range(21))]
    lines = list(round_log_lines(SessionResult(config, rounds, [], dataset_of([], [], []))))
    assert lines == [json.dumps(round_dict(r), sort_keys=True) for r in rounds]
    assert {s for r in rounds for s in r.scores.tolist()} == set(range(10, 51))
    assert '"raw_score": 1.0}' in lines[0] and '"raw_score": 1.1}' in lines[0] and '"raw_score": 5.0}' in lines[-1]


def test_round_log_sorts_ids_that_federation_order_does_not():
    # federation order is not sorted-id order ("M10" < "M2"), some ids need
    # JSON escapes, amateurs are logged but not kept, some reviewers have
    # floor affinity; rounds built by hand carry costs overflowed to Infinity
    ids = ["M2", "M10", 'q"uote', "M1", "café", "Z", "back\\slash", "M20", "\U0001f37a", "M11", "a", "ctl\x00\n"]
    federation = [
        ParticipantProfile(pid, is_expert=i % 3 == 0, leader_probability=0.25 if i % 3 == 0 else 0.0,
                           availability_probability=0.7, freeload_probability=0.4, score_noise_sd=0.8,
                           score_floor_affinity=0.3 if i % 4 == 1 else 0.0)
        for i, pid in enumerate(ids)
    ]
    config = simple_config(pool_of(40), seed=5, federation=federation)
    result = run_session(config)
    lines = list(round_log_lines(result))
    assert lines == [json.dumps(round_dict(r), sort_keys=True) for r in result.rounds]
    assert lines == oracle_run_session(config)[0]
    rounds = [json.loads(line) for line in lines]
    in_federation_order = [[j for j in ids if j in rec["reviewers"]] for rec in rounds]
    assert sum(rec["reviewers"] != order for rec, order in zip(rounds, in_federation_order)) > 30
    assert any(rec["procurers"] != [j for j in ids if j in rec["procurers"]] for rec in rounds)
    logged = {j for rec in rounds for j in rec["reviewers"]}
    assert set(result.dataset.judges) == set(ids[::3]) and logged == set(ids)
    assert any(s == 1.0 for rec in rounds for s in (r["raw_score"] for r in rec["reviews"]))
    assert len(rounds) == 40
    overflowed = [r._replace(broadcast_cost=math.inf, comprehension_cost=math.inf) if r.index % 2 else r
                  for r in result.rounds]
    lines = list(round_log_lines(result._replace(rounds=overflowed)))
    assert lines == [json.dumps(round_dict(r), sort_keys=True) for r in overflowed]
    assert sum("Infinity" in line for line in lines) == 20
