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

Steps 1, 2b, 2c and 2f draw arrays: PCG64 gives the same values, and
leaves the same state, for ``rng.random(n)``, ``rng.standard_normal(n)`` or
a normal draw into an ``out`` slice of n as for n scalar calls (O'Neill
2014, "PCG", HMC-CS-2014-0905; pinned on the installed numpy by the tests).
Step 2f draws its normals in blocks, each ending at a reviewer with floor
affinity, who then draws the uniform, so every round consumes the stream in
exactly the order above. The round loop only draws; once it ends, the whole
session is scored in one array pass over its reviews.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError
from .model import Beverage, Dataset, ReviewTable, _clash

PROB_SUM_TOL = 1e-9

OMIT_NO_PARTICIPANTS = "SKIPPED_NO_PARTICIPANTS"

MINUTES_PER_DAY = 24 * 60


class ParticipantProfile(NamedTuple):
    """A federation member's probabilities and score parameters, checked by its ``SessionConfig``."""

    id: str
    is_expert: bool = False
    leader_probability: float = 0.0
    freeload_probability: float = 0.0
    availability_probability: float = 1.0
    score_bias: Mapping[str, float] = MappingProxyType({})
    score_noise_sd: float = 0.0
    score_floor_affinity: float = 0.0


class CostParams(NamedTuple):
    """The communication cost parameters, checked by the ``SessionConfig`` that holds them."""

    politeness_initial: float = 0.5
    politeness_decay: float = 0.9
    broadcast_base: float = 1.0
    comprehension_base: float = 1.0
    comprehension_growth: float = 0.05


def _check_cost_params(cost: CostParams) -> None:
    if cost.politeness_initial < 0:
        raise ConfigurationError("politeness_initial must be >= 0")
    if not (0.0 < cost.politeness_decay < 1.0):
        raise ConfigurationError("politeness_decay must lie strictly in (0, 1)")
    if cost.broadcast_base < 0 or cost.comprehension_base < 0:
        raise ConfigurationError("cost bases must be >= 0")
    if cost.comprehension_growth < 0:
        raise ConfigurationError("comprehension_growth must be >= 0")


def _costs(round_index: int, params: CostParams) -> tuple[float, float]:
    """``communication_costs`` unchecked, for params a ``SessionConfig`` has checked."""
    return (params.broadcast_base * (1.0 + params.politeness_initial * params.politeness_decay**round_index),
            params.comprehension_base * (1.0 + params.comprehension_growth * round_index))


def communication_costs(round_index: int, params: CostParams) -> tuple[float, float]:
    """Per-round message costs: broadcasting decays as politeness wears off,
    comprehension grows linearly as the session goes on. The params are
    checked as a ``SessionConfig`` checks them.

    broadcast      = broadcast_base * (1 + p0 * decay**t)
    comprehension  = comprehension_base * (1 + growth * t)
    """
    if round_index < 0:
        raise ValueError(f"round index must be >= 0, got {round_index}")
    _check_cost_params(params)
    return _costs(round_index, params)


@dataclass(frozen=True)
class SessionConfig:
    """A session's settings, its profiles and cost params included, checked when built:
    an instance that exists is one ``run_session`` accepts. The three sequences are stored as tuples."""

    federation: tuple[ParticipantProfile, ...]
    pool: tuple[Beverage, ...]
    seed: int
    clock_start: int = 17 * 60
    clock_end: int = 23 * 60
    round_duration: int = 5
    blackout_windows: tuple[tuple[int, int], ...] = ()
    cost_params: CostParams = CostParams()
    base_quality_range: tuple[float, float] = (2.5, 4.8)
    include_amateurs: bool = False

    def __post_init__(self):
        for name in ("federation", "pool", "blackout_windows"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for p in self.federation:
            for name in ("leader_probability", "freeload_probability", "availability_probability", "score_floor_affinity"):
                if not (0.0 <= (value := getattr(p, name)) <= 1.0):
                    raise ConfigurationError(f"{p.id}: {name} must lie in [0, 1], got {value!r}")
            if p.score_noise_sd < 0:
                raise ConfigurationError(f"{p.id}: score_noise_sd must be >= 0")
        _check_cost_params(self.cost_params)
        if not isinstance(self.seed, int) or not (0 <= self.seed < 2**64):
            raise ConfigurationError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        ids = [p.id for p in self.federation]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("participant ids must be unique")
        experts = [p for p in self.federation if p.is_expert]
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
        seen, names = {}, {}  # scorecards join on names, so no two may normalize alike
        for i, beverage in enumerate(self.pool):
            if clash := _clash(seen, names, beverage, f"pool entry {i}"):
                raise ConfigurationError(f"pool entry {i}: {clash}")
        # the logged costs of the longest session the clock and pool allow: a session's are a prefix of them
        clocks = range(self.clock_start, self.clock_end, self.round_duration)
        rounds = min(len(self.pool), sum(not any(lo <= c < hi for lo, hi in self.blackout_windows) for c in clocks))
        costs = [_costs(t, self.cost_params) for t in range(rounds)]
        if not all(map(math.isfinite, (sum(b for b, _ in costs), sum(c for _, c in costs), *(b + c for b, c in costs)))):
            raise ConfigurationError(f"cost_params: the communication costs of a {len(costs)}-round session overflow")


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


class Omitted(NamedTuple):
    clock: int
    reason: str


class RoundRecord(NamedTuple):
    """One round as logged, in codes: the leader, procurers and reviewers
    are positions into ``members`` (the session's federation ids, shared by
    every round), the reviewers ascending, which is review order, and
    ``scores`` holds each reviewer's score in uint8 tenths. From ``run_session`` the arrays are
    read-only, the reviewers and scores slices of the session's columns."""

    index: int
    clock: int
    members: tuple[str, ...]
    leader_position: int
    beverage_id: str
    procurer_positions: np.ndarray
    reviewer_positions: np.ndarray
    scores: np.ndarray
    broadcast_cost: float
    comprehension_cost: float


class SessionResult(NamedTuple):
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
    rng = np.random.Generator(np.random.PCG64(config.seed))
    lo, hi = config.base_quality_range
    base_quality = lo + (hi - lo) * rng.random(len(config.pool))
    # the federation as arrays in federation order: each member's
    # probabilities and score parameters, each pool style family's bias per
    # member, and the experts' cumulative leader table
    federation = config.federation
    ids = tuple(p.id for p in federation)
    availability = np.array([p.availability_probability for p in federation], dtype=float)
    freeload = np.array([p.freeload_probability for p in federation], dtype=float)
    noise_sd = np.array([p.score_noise_sd for p in federation], dtype=float)
    floor_affinity = np.array([p.score_floor_affinity for p in federation], dtype=float)
    floored = floor_affinity > 0 if floor_affinity.any() else None  # who draws step 2f's uniform; None: nobody
    families: dict[str, int] = {}
    family = np.array([families.setdefault(b.style_family, len(families)) for b in config.pool], dtype=np.intp)
    bias = np.array([[p.score_bias.get(f, 0.0) for f in families] for p in federation], dtype=float)
    experts = [i for i, p in enumerate(federation) if p.is_expert]
    leader_table = _leader_table([federation[i].leader_probability for i in experts])
    others_of = {i: np.delete(np.arange(len(federation)), i) for i in experts}  # every other position
    pool = list(range(len(config.pool)))
    # the loop only draws: each review's reviewer, round, normal and floor draw go to session
    # columns with room for every member in every round the clock and pool allow, and each
    # round's clock, leader, procurers, pool position and slice of the columns to ``taken``
    most = min(len(pool), len(range(config.clock_start, config.clock_end, config.round_duration))) * len(ids)
    reviewer, round_of, noise, floor = np.empty(most, np.intp), np.empty(most, np.intp), np.empty(most), np.zeros(most, bool)
    taken, skips, reviewed = [], [], 0
    for clock in range(config.clock_start, config.clock_end, config.round_duration):
        if not pool:
            break
        if any(start <= clock < end for start, end in config.blackout_windows):
            continue

        leader = experts[_elect(leader_table, rng)]
        others = others_of[leader]
        present = np.zeros(len(ids), dtype=bool)
        present[others] = rng.random(len(others)) < availability[others]
        available = present.nonzero()[0]
        if not len(available):
            skips.append(Omitted(clock, OMIT_NO_PARTICIPANTS))
            continue

        procurers = available[rng.random(len(available)) >= freeload[available]]
        if not len(procurers):
            # Someone has to fetch the sample: promote one freeloader.
            procurers = available[[int(rng.integers(len(available)))]]
        procurers.flags.writeable = False
        beverage = pool.pop(int(rng.integers(len(pool))))

        present[leader] = True
        here = present.nonzero()[0]
        part = slice(reviewed, reviewed + len(here))
        reviewer[part], round_of[part], start = here, len(taken), reviewed
        for i in () if floored is None else (reviewed + floored[here].nonzero()[0]).tolist():
            rng.standard_normal(out=noise[start:i + 1])
            floor[i] = rng.random() < floor_affinity[reviewer[i]]
            start = i + 1
        rng.standard_normal(out=noise[start:part.stop])
        taken.append((clock, leader, procurers, beverage, part))
        reviewed = part.stop

    # the session scored in one pass over its reviews: each score, in tenths, is
    # rint(10 * clamp(base + style bias + gaussian noise, 1, 5)), or the
    # scale floor where the floor draw fell under the reviewer's affinity
    reviewer, round_of = reviewer[:reviewed], round_of[:reviewed]
    pooled = np.array([t[3] for t in taken], dtype=np.intp)[round_of]
    # a huge bias or noise sd overflows to +-inf, which the clamp absorbs;
    # fmax/fmin clamp a NaN to the floor, as Python's max/min did
    with np.errstate(over="ignore", invalid="ignore"):
        value = (base_quality[pooled] + bias[reviewer, family[pooled]]) + noise[:reviewed] * noise_sd[reviewer]
    value[floor[:reviewed]] = 1.0
    score = np.rint(np.fmin(5.0, np.fmax(1.0, value)) * 10).astype(np.uint8)
    reviewer.flags.writeable = score.flags.writeable = False
    rounds = [RoundRecord(t, clock, ids, leader, config.pool[b].id, procurers, reviewer[part], score[part],
                          *_costs(t, config.cost_params))
              for t, (clock, leader, procurers, b, part) in enumerate(taken)]
    # each reviewer's federation position mapped to its place among the
    # kept judges (-1: not kept); round r's reviews name beverage r
    kept = [i for i, p in enumerate(federation) if p.is_expert or config.include_amateurs]
    judge_of = np.full(len(ids), -1, dtype=np.intp)
    judge_of[kept] = np.arange(len(kept))
    judge = judge_of[reviewer]
    keep = judge >= 0
    untagged = np.zeros(np.count_nonzero(keep), dtype=np.intp)
    reviews = ReviewTable((), (frozenset(),), (None,), judge[keep], round_of[keep], untagged, untagged, score[keep])
    dataset = Dataset(beverages=[config.pool[t[3]] for t in taken], reviews=reviews, judges=[ids[i] for i in kept])
    return SessionResult(config=config, rounds=rounds, skips=skips, dataset=dataset)
