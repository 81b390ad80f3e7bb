"""Seeded engine for round-based collaborative tasting sessions.

A session runs a rotating-leader protocol: each round an expert is elected
leader by a categorical draw, the available federation members procure one
beverage from the pool (without replacement), everyone present reviews it
(freeloaders review without procuring), and the two communication costs are
charged. ``run_session`` holds the round loop and its blackout and skip
rules.

Determinism contract: all randomness comes from a single PCG64 generator
seeded with the session's 64-bit seed, consumed in this fixed order:

1. at session start, one uniform base-quality draw per pool beverage, in
   pool order;
2. per attempted round (blackout checks consume nothing):
   a. one uniform for leader election,
   b. one uniform per non-leader federation member (federation order) for
      availability (the leader is always present and draws nothing),
   c. one uniform per available non-leader (federation order) for the
      freeload decision,
   d. if everyone freeloaded, one integer draw to promote a procurer,
   e. one integer draw selecting the beverage from the remaining pool,
   f. per reviewer in federation order: one standard-normal score-noise
      draw, plus one uniform iff that profile's score_floor_affinity > 0.

Identical configs (seed included) therefore produce byte-identical logs.

Steps 2b, 2c and 2f take their draws as arrays: PCG64 gives the same values,
and leaves the same state, for ``rng.random(n)`` or
``rng.standard_normal(n)`` as for n scalar calls (O'Neill 2014, "PCG",
HMC-CS-2014-0905; pinned on the installed numpy by the tests). Step 2f
draws its normals in blocks, each ending at a reviewer with floor affinity,
who then draws the uniform: a round in which no reviewer has floor affinity
draws one block of normals, and every round consumes the stream in exactly
the order above.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigurationError
from .model import Beverage, Dataset, ReviewTable, positions

PROB_SUM_TOL = 1e-9

OMIT_NO_PARTICIPANTS = "SKIPPED_NO_PARTICIPANTS"

MINUTES_PER_DAY = 24 * 60


def _check_probability(value: float, what: str) -> None:
    if not (0.0 <= value <= 1.0):
        raise ConfigurationError(f"{what} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class ParticipantProfile:
    id: str
    is_expert: bool = False
    leader_probability: float = 0.0
    freeload_probability: float = 0.0
    availability_probability: float = 1.0
    score_bias: Mapping[str, float] = field(default_factory=dict)
    score_noise_sd: float = 0.0
    score_floor_affinity: float = 0.0

    def __post_init__(self):
        _check_probability(self.leader_probability, f"{self.id}: leader_probability")
        _check_probability(self.freeload_probability, f"{self.id}: freeload_probability")
        _check_probability(self.availability_probability, f"{self.id}: availability_probability")
        _check_probability(self.score_floor_affinity, f"{self.id}: score_floor_affinity")
        if self.score_noise_sd < 0:
            raise ConfigurationError(f"{self.id}: score_noise_sd must be >= 0")


@dataclass(frozen=True)
class CostParams:
    politeness_initial: float = 0.5
    politeness_decay: float = 0.9
    broadcast_base: float = 1.0
    comprehension_base: float = 1.0
    comprehension_growth: float = 0.05

    def __post_init__(self):
        if self.politeness_initial < 0:
            raise ConfigurationError("politeness_initial must be >= 0")
        if not (0.0 < self.politeness_decay < 1.0):
            raise ConfigurationError("politeness_decay must lie strictly in (0, 1)")
        if self.broadcast_base < 0 or self.comprehension_base < 0:
            raise ConfigurationError("cost bases must be >= 0")
        if self.comprehension_growth < 0:
            raise ConfigurationError("comprehension_growth must be >= 0")


def communication_costs(round_index: int, params: CostParams) -> tuple[float, float]:
    """Per-round message costs: broadcasting decays as politeness wears off,
    comprehension grows linearly as the session goes on.

    broadcast      = broadcast_base * (1 + p0 * decay**t)
    comprehension  = comprehension_base * (1 + growth * t)
    """
    if round_index < 0:
        raise ValueError(f"round index must be >= 0, got {round_index}")
    broadcast = params.broadcast_base * (
        1.0 + params.politeness_initial * params.politeness_decay**round_index
    )
    comprehension = params.comprehension_base * (
        1.0 + params.comprehension_growth * round_index
    )
    return broadcast, comprehension


@dataclass
class SessionConfig:
    federation: list[ParticipantProfile]
    pool: list[Beverage]
    seed: int
    clock_start: int = 17 * 60
    clock_end: int = 23 * 60
    round_duration: int = 5
    blackout_windows: list[tuple[int, int]] = field(default_factory=list)
    cost_params: CostParams = field(default_factory=CostParams)
    base_quality_range: tuple[float, float] = (2.5, 4.8)
    include_amateurs: bool = False

    def experts(self) -> list[ParticipantProfile]:
        return [p for p in self.federation if p.is_expert]

    def validate(self) -> None:
        if not isinstance(self.seed, int) or not (0 <= self.seed < 2**64):
            raise ConfigurationError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        ids = [p.id for p in self.federation]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("participant ids must be unique")
        experts = self.experts()
        if not experts:
            raise ConfigurationError("federation needs at least one expert")
        total = sum(p.leader_probability for p in experts)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ConfigurationError(
                f"expert leader probabilities must sum to 1, got {total!r}"
            )
        # a round needs an elected leader and one present non-leader
        if not any(
            p.leader_probability > 0
            and any(q is not p and q.availability_probability > 0 for q in self.federation)
            for p in experts
        ):
            raise ConfigurationError(
                "no round can take place: no expert who can lead (leader_probability > 0) "
                "has another member with availability_probability > 0"
            )
        if self.round_duration <= 0:
            raise ConfigurationError("round_duration must be positive")
        if not (0 <= self.clock_start < self.clock_end <= MINUTES_PER_DAY):
            raise ConfigurationError(
                "clock window must satisfy 0 <= start < end <= 1440 minutes"
            )
        for lo, hi in self.blackout_windows:
            if not (self.clock_start <= lo < hi <= self.clock_end):
                raise ConfigurationError(
                    f"blackout window [{lo}, {hi}) must lie within the session clock "
                    f"[{self.clock_start}, {self.clock_end})"
                )
        lo, hi = self.base_quality_range
        if not (1.0 <= lo <= hi <= 5.0):
            raise ConfigurationError("base_quality_range must satisfy 1 <= lo <= hi <= 5")
        names = [b.id for b in self.pool]
        if len(set(names)) != len(names):
            raise ConfigurationError("pool beverage ids must be unique")


def _leader_table(probabilities: Sequence[float]) -> list[float]:
    """Cumulative leader probabilities, summed in order."""
    acc, table = 0.0, []
    for p in probabilities:
        acc += p
        table.append(acc)
    return table


def _elect(table: list[float], rng: np.random.Generator) -> int:
    """The first position whose cumulative probability exceeds one uniform
    draw, or the last when the draw reaches the total."""
    return min(bisect_right(table, rng.random()), len(table) - 1)


def _draw_scores(
    base_quality: float,
    bias: np.ndarray,
    noise_sd: np.ndarray,
    floor_affinity: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Step 2f for one beverage's reviewers, given as arrays in federation
    order: each score is clamp(round_0.1(base + style bias + gaussian
    noise), 1, 5), or the scale floor with probability score_floor_affinity.

    The normals are drawn in blocks that end at each reviewer with floor
    affinity, who then draws its uniform, so the stream is consumed in the
    documented per-reviewer order.
    """
    floor = np.zeros(len(noise_sd), dtype=bool)
    noise, start = [], 0
    for i in np.flatnonzero(floor_affinity > 0).tolist():
        noise.append(rng.standard_normal(i + 1 - start))
        floor[i] = rng.random() < floor_affinity[i]
        start = i + 1
    noise.append(rng.standard_normal(len(noise_sd) - start))
    # a huge bias or noise sd overflows to +-inf, which the clamp absorbs;
    # fmax/fmin clamp a NaN to the floor, as Python's max/min did
    with np.errstate(over="ignore", invalid="ignore"):
        value = (base_quality + bias) + np.concatenate(noise) * noise_sd
    value[floor] = 1.0
    return np.rint(np.fmin(5.0, np.fmax(1.0, value)) * 10) / 10


@dataclass(frozen=True)
class Omitted:
    clock: int
    reason: str


@dataclass
class RoundRecord:
    """One round as logged; its reviews are two parallel columns, every
    reviewer in federation order and that reviewer's score."""

    index: int
    clock: int
    leader_id: str
    beverage_id: str
    procurers: frozenset[str]
    review_judges: tuple[str, ...]
    review_scores: tuple[float, ...]
    broadcast_cost: float
    comprehension_cost: float

    @property
    def reviewers(self) -> frozenset[str]:
        return frozenset(self.review_judges)


@dataclass
class SessionResult:
    config: SessionConfig
    rounds: list[RoundRecord]
    skips: list[Omitted]
    dataset: Dataset


def run_session(config: SessionConfig) -> SessionResult:
    """Run a full session: a round is attempted every round_duration minutes
    from clock_start until the pool is empty or the clock window closes.

    A round whose clock falls in a blackout window is dropped from the
    record entirely and draws nothing. A round in which no non-leader
    member turns up takes no beverage and is kept in ``skips`` as
    SKIPPED_NO_PARTICIPANTS. Round indices, and so the communication
    costs, count only the rounds that take place.
    """
    config.validate()
    rng = np.random.Generator(np.random.PCG64(config.seed))
    lo, hi = config.base_quality_range
    base_quality = {b.id: lo + (hi - lo) * rng.random() for b in config.pool}
    # the federation as arrays in federation order: each member's
    # probabilities and score parameters, each pool style family's bias per
    # member, and the experts' cumulative leader table
    federation = config.federation
    ids = [p.id for p in federation]
    availability = np.array([p.availability_probability for p in federation], dtype=float)
    freeload = np.array([p.freeload_probability for p in federation], dtype=float)
    noise_sd = np.array([p.score_noise_sd for p in federation], dtype=float)
    floor_affinity = np.array([p.score_floor_affinity for p in federation], dtype=float)
    bias = {family: np.array([p.score_bias.get(family, 0.0) for p in federation], dtype=float)
            for family in {b.style_family for b in config.pool}}
    experts = [i for i, p in enumerate(federation) if p.is_expert]
    leader_table = _leader_table([federation[i].leader_probability for i in experts])
    others_of = {i: np.delete(np.arange(len(federation)), i) for i in experts}  # every other position
    pool = list(config.pool)
    rounds: list[RoundRecord] = []
    skips: list[Omitted] = []
    for clock in range(config.clock_start, config.clock_end, config.round_duration):
        if not pool:
            break
        if any(start <= clock < end for start, end in config.blackout_windows):
            continue

        leader = experts[_elect(leader_table, rng)]
        others = others_of[leader]
        present = np.zeros(len(ids), dtype=bool)
        present[others] = rng.random(len(others)) < availability[others]
        available = np.flatnonzero(present)
        if not len(available):
            skips.append(Omitted(clock, OMIT_NO_PARTICIPANTS))
            continue

        procurers = available[rng.random(len(available)) >= freeload[available]]
        if not len(procurers):
            # Someone has to fetch the sample: promote one freeloader.
            procurers = available[[int(rng.integers(len(available)))]]

        beverage = pool.pop(int(rng.integers(len(pool))))

        present[leader] = True
        reviewers = np.flatnonzero(present)
        scores = _draw_scores(
            base_quality[beverage.id], bias[beverage.style_family][reviewers],
            noise_sd[reviewers], floor_affinity[reviewers], rng,
        )

        broadcast, comprehension = communication_costs(len(rounds), config.cost_params)
        rounds.append(RoundRecord(
            index=len(rounds),
            clock=clock,
            leader_id=ids[leader],
            beverage_id=beverage.id,
            procurers=frozenset(ids[i] for i in procurers.tolist()),
            review_judges=tuple(ids[i] for i in reviewers.tolist()),
            review_scores=tuple(scores.tolist()),
            broadcast_cost=broadcast,
            comprehension_cost=comprehension,
        ))

    judge_ids = [
        p.id
        for p in config.federation
        if p.is_expert or config.include_amateurs
    ]
    # the session's reviews as columns: round r's reviews name beverage r
    judge = positions(list(chain.from_iterable(r.review_judges for r in rounds)), judge_ids)
    beverage = np.repeat(np.arange(len(rounds)), [len(r.review_judges) for r in rounds])
    score = np.fromiter(chain.from_iterable(r.review_scores for r in rounds), float, len(judge))
    keep = judge >= 0
    untagged = np.zeros(np.count_nonzero(keep), dtype=np.intp)
    reviews = ReviewTable(tuple(judge_ids), tuple(r.beverage_id for r in rounds), (frozenset(),), (None,),
                          judge[keep], beverage[keep], untagged, untagged, score[keep])
    by_id = {b.id: b for b in config.pool}
    beverages = [by_id[record.beverage_id] for record in rounds]
    dataset = Dataset(beverages=beverages, reviews=reviews, judges=judge_ids)
    return SessionResult(config=config, rounds=rounds, skips=skips, dataset=dataset)
