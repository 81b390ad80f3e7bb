"""Seeded input generation for the benchmark workloads.

Every input the program sees is written here with the stdlib ``csv`` and
``json`` modules and numpy's PCG64 generator, never with beerfed's own
serializers, so a change to ``beerfed.io`` or ``beerfed.receval`` cannot
change a workload.

paper   the bundled calibration session (3 experts + 5 amateurs, a
        60-beverage pool) with six c10-style models built from the
        scorecards ``simulate`` writes. Import dominates every call.
stress  100 equal-weight experts, a 1,440-beverage pool, 1,440 one-minute
        rounds (144,000 reviews, a dense 100x1440 matrix, 4,950 Spearman
        pairs) and 20 random all-valid 5-slot models.
sparse  40 half-available experts (every 4th punishes hard) plus 20
        freeloading amateurs kept as judges, two blackouts, Kendall
        agreement on a matrix with missing cells, z-score normalization,
        and 20 models drawn from the whole pool with about 30% of profiles
        mutated, plus one malformed file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent / "data"
K = 5

DEFAULT_SEEDS = {"paper": 2, "stress": 7, "sparse": 11}

# one raw style per default family, so the pool cycles through all ten
STYLES = (
    "Gose",
    "American Wild Ale",
    "Imperial Stout",
    "Farmhouse Saison",
    "Hefeweizen",
    "Belgian Tripel",
    "Raspberry Fruit Beer",
    "West Coast IPA",
    "Czech Pilsner",
    "Smoked Rauchbier",
)
ADJECTIVES = (
    "Amber Ashen Bitter Bold Brisk Bright Cloudy Copper Crooked Dark Dusky "
    "Early Faded Fierce Gilded Golden Hazy Hidden Hollow Idle Iron Jolly "
    "Late Lucky Mellow Misty Muddy Noble Odd Pale Quiet Rusty Silent Smoky "
    "Stormy Sunny Tart Velvet Wild Young"
).split()
NOUNS = (
    "Anchor Badger Barrel Beacon Bramble Canyon Cellar Comet Crown Delta "
    "Ember Falcon Fable Forge Garden Harbor Harvest Heron Lantern Ledger "
    "Meadow Mirage Orchard Otter Pilgrim Quarry Raven Ridge River Saddle "
    "Signal Spire Thistle Timber Umbra Valley Vignette Willow Yarrow Zephyr"
).split()


@dataclass(frozen=True)
class Inputs:
    """Paths of one workload's generated inputs and the flags it runs with."""

    config: Path
    recs_dir: Path
    analyze_flags: tuple[str, ...]
    eval_flags: tuple[str, ...]
    models: int  # readable recommendation files, one eval-table row each


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_pool(path: Path, rng: np.random.Generator, n: int) -> list[str]:
    combos = [f"{a} {b}" for a in ADJECTIVES for b in NOUNS]
    order = rng.permutation(len(combos))[:n]
    names = [combos[i] for i in order]
    producers = rng.integers(0, n // 4 - n // 20, size=n)  # some exceed 4 each
    abv = rng.uniform(2.5, 13.5, size=n)  # a few land outside the observed range
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["brewery", "beer_name", "beer_style", "abv_percent"])
        for i, name in enumerate(names):
            w.writerow([f"Brewery {producers[i]:03d}", name, STYLES[i % len(STYLES)], f"{abv[i]:.1f}"])
    return names


def _write_model(path: Path, model_id: str, picks: dict[str, list[tuple[str, object]]]) -> None:
    _write_json(
        path,
        {
            "model_id": model_id,
            "profiles": [
                {
                    "profile_id": judge,
                    "recommendations": [
                        {"beverage_name": name, "rank": rank, "justification": ""}
                        for name, rank in slots
                    ],
                }
                for judge, slots in sorted(picks.items())
            ],
        },
    )


def _ranked(names: list[str]) -> list[tuple[str, object]]:
    return [(n, i + 1) for i, n in enumerate(names)]


def _paper(root: Path, seed: int) -> Inputs:
    config = json.loads((DATA / "calibration_session.json").read_text(encoding="utf-8"))
    config["seed"] = seed
    _write_json(root / "session.json", config)
    shutil.copyfile(DATA / "calibration_beverages.csv", root / config["pool_csv"])
    return Inputs(root / "session.json", root / "recs", (), (), 6)


def write_paper_models(recs_dir: Path, scorecards_csv: Path) -> None:
    """The six c10 models, built from a simulated scorecard file."""
    cards: dict[str, dict[str, float]] = {}
    with open(scorecards_csv, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            cards.setdefault(row["judge_id"], {})[row["beer_name"]] = float(row["raw_score"])

    def tops(judge: str, n: int = K, worst: bool = False) -> list[str]:
        ordered = sorted(cards[judge].items(), key=lambda kv: (-kv[1], kv[0]))
        return [name for name, _ in (ordered[::-1] if worst else ordered)[:n]]

    specs = {
        "model-01": {j: tops(j) for j in cards},
        "model-02": {j: tops(j, worst=True) for j in cards},
        "model-03": {j: tops(j, 10)[5:10] for j in cards},
        "model-04": {j: tops(j)[:4] for j in cards},
        "model-05": {j: [tops(j)[0]] * K for j in cards},
        "model-06": {j: tops(j)[:3] + ["Phantom Pour", "Mystery Mash"] for j in cards},
    }
    recs_dir.mkdir(parents=True, exist_ok=True)
    for model_id, picks in specs.items():
        _write_model(recs_dir / f"{model_id}.json", model_id, {j: _ranked(p) for j, p in picks.items()})


def _stress(root: Path, seed: int) -> Inputs:
    rng = np.random.Generator(np.random.PCG64(seed))
    names = _write_pool(root / "pool.csv", rng, 1440)
    experts = [f"E{i:03d}" for i in range(100)]
    _write_json(
        root / "session.json",
        {
            "seed": seed,
            "pool_csv": "pool.csv",
            "clock_start": 0,
            "clock_end": 1440,
            "round_duration": 1,
            "federation": [
                {"id": e, "is_expert": True, "leader_probability": 0.01,
                 "availability_probability": 1.0, "score_noise_sd": 0.6}
                for e in experts
            ],
        },
    )
    recs = root / "recs"
    recs.mkdir()
    for m in range(20):
        picks = {j: _ranked([names[i] for i in rng.choice(len(names), K, replace=False)]) for j in experts}
        _write_model(recs / f"model-{m:02d}.json", f"model-{m:02d}", picks)
    return Inputs(root / "session.json", recs, (), (), 20)


def _mutate(rng: np.random.Generator, slots: list[tuple[str, object]]) -> list[tuple[str, object]]:
    kind = int(rng.integers(3))
    if kind == 0:  # a pick repeated
        i = int(rng.integers(1, K))
        slots[i] = (slots[0][0], slots[i][1])
    elif kind == 1:  # ranks out of range, reused, or not integers
        i = int(rng.integers(K))
        slots[i] = (slots[i][0], [0, K + 1, slots[(i + 1) % K][1], "first"][int(rng.integers(4))])
    else:  # a short set
        del slots[int(rng.integers(1, K)):]
    return slots


def _sparse(root: Path, seed: int) -> Inputs:
    rng = np.random.Generator(np.random.PCG64(seed))
    names = _write_pool(root / "pool.csv", rng, 1440)
    experts = [
        {"id": f"E{i:02d}", "is_expert": True, "leader_probability": 0.025,
         "availability_probability": 0.5, "score_noise_sd": 0.6,
         **({"score_floor_affinity": 0.06} if i % 4 == 3 else {})}
        for i in range(40)
    ]
    amateurs = [
        {"id": f"A{i:02d}", "availability_probability": 0.75,
         "freeload_probability": 0.5, "score_noise_sd": 0.8}
        for i in range(20)
    ]
    _write_json(
        root / "session.json",
        {
            "seed": seed,
            "pool_csv": "pool.csv",
            "clock_start": 0,
            "clock_end": 1440,
            "round_duration": 1,
            "blackout_windows": [[720, 780], [1140, 1200]],
            "include_amateurs": True,
            "federation": experts + amateurs,
        },
    )
    judges = [p["id"] for p in experts + amateurs]
    recs = root / "recs"
    recs.mkdir()
    for m in range(20):
        picks = {}
        for j in judges:
            slots = _ranked([names[i] for i in rng.choice(len(names), K, replace=False)])
            picks[j] = _mutate(rng, slots) if rng.random() < 0.3 else slots
        _write_model(recs / f"model-{m:02d}.json", f"model-{m:02d}", picks)
    (recs / "model-zz.json").write_text('{"model_id": "broken", "profiles": [\n', encoding="utf-8")
    return Inputs(
        root / "session.json",
        recs,
        ("--agreement", "kendall", "--norm", "zscore"),
        ("--normalized", "--hit-ties", "threshold"),
        20,
    )


BUILDERS = {"paper": _paper, "stress": _stress, "sparse": _sparse}


def generate(workload: str, seed: int, root: Path) -> Inputs:
    """Write one workload's inputs for ``seed`` into a fresh ``root``."""
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    return BUILDERS[workload](root, seed)


def tree_digest(root: Path) -> str:
    """One sha256 over every file under root, by relative path and bytes."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


def self_check(workload: str, seed: int, scratch: Path) -> str | None:
    """Generate twice with ``seed`` and once with another seed; returns an
    error message unless the first two match byte for byte and the third
    differs."""
    digests = []
    for i, s in enumerate((seed, seed, seed + 1)):
        root = scratch / f"gen{i}"
        generate(workload, s, root)
        digests.append(tree_digest(root))
        shutil.rmtree(root)
    if digests[0] != digests[1]:
        return f"{workload}: seed {seed} gave different inputs on two generations"
    if digests[0] == digests[2]:
        return f"{workload}: seeds {seed} and {seed + 1} gave identical inputs"
    return None
