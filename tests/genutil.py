"""Seeded random-instance generators shared by property and acceptance tests."""

import json

import numpy as np

from beerfed.model import Beverage, Dataset, Review, normalize_name
from beerfed.receval import JudgeIndex, RecommendationSet, RecommendationSlot
from beerfed.scoring import ScoreMatrix

FAMILIES = [
    "Pale ale & IPA",
    "Sour & wild ale",
    "Stout & porter",
    "Lager & pils",
    "Specialty and hybrid styles",
]


def with_reviews(dataset, reviews):
    """The dataset's beverages and judges with ``reviews`` in place of its
    own (a dataset's reviews are read-only)."""
    return Dataset(dataset.beverages, list(reviews), dataset.judges)


def random_scores(rng, n, lo=10, hi=50):
    """n raw scores on the 0.1 grid."""
    return [int(rng.integers(lo, hi + 1)) / 10 for _ in range(n)]


def random_dataset(rng, n_judges=3, n_beverages=8, missing_rate=0.0):
    """A structurally valid dataset with random scores; every beverage keeps
    at least two reviews regardless of the missing rate."""
    judges = [f"J{i}" for i in range(n_judges)]
    beverages = [
        Beverage(
            id=f"bev{i:02d}",
            producer=f"Producer {i % 5}",
            name=f"Beverage {i:02d}",
            raw_style="Test Ale",
            style_family=FAMILIES[int(rng.integers(len(FAMILIES)))],
            abv=round(float(rng.uniform(3.0, 9.0)), 1),
        )
        for i in range(n_beverages)
    ]
    reviews = []
    for b in beverages:
        keep = [j for j in judges if rng.random() >= missing_rate]
        while len(keep) < min(2, n_judges):
            j = judges[int(rng.integers(n_judges))]
            if j not in keep:
                keep.append(j)
        for j in keep:
            reviews.append(Review(j, b.id, random_scores(rng, 1)[0]))
    return Dataset(beverages=beverages, reviews=reviews, judges=judges)


def random_rec_instance(rng, n_judges=3, k=5, n_beverages=None):
    """One recommendation-evaluation instance:

    returns (recs_by_profile, slots_by_profile, scorecards, names) where
    slots_by_profile mirrors the recommendation sets as plain tuples for
    the oracle. Judges mix exact-top-k lists, bottom-k lists and random
    picks, and slot mutations (drops, duplicates, off-list names, bad
    ranks) hit a fraction of profiles so coverage varies over m/(J*k).
    """
    if n_beverages is None:
        n_beverages = int(rng.integers(max(k + 2, 8), 26))
    names = [f"Item {i:02d}" for i in range(n_beverages)]
    judges = [f"J{i}" for i in range(n_judges)]
    scorecards = {
        j: {f"item {i:02d}": s for i, s in enumerate(random_scores(rng, n_beverages))}
        for j in judges
    }

    recs_by_profile = {}
    slots_by_profile = {}
    for j in judges:
        card = scorecards[j]
        ordered = sorted(card.items(), key=lambda kv: (-kv[1], kv[0]))
        mode = rng.random()
        if mode < 0.25:
            picks = [n for n, _ in ordered[:k]]
        elif mode < 0.45:
            picks = [n for n, _ in ordered[-k:]]
        else:
            idx = rng.choice(n_beverages, size=k, replace=False)
            picks = [f"item {i:02d}" for i in idx]
        display = {f"item {i:02d}": f"Item {i:02d}" for i in range(n_beverages)}
        slots = [RecommendationSlot(display[n], rank + 1) for rank, n in enumerate(picks)]

        r = rng.random()
        if r < 0.12 and slots:
            slots = slots[:-1]  # short set: one slot missing
        elif r < 0.2:
            slots[-1] = RecommendationSlot(slots[0].beverage_name, k)  # duplicate name
        elif r < 0.26:
            slots[-1] = RecommendationSlot("Off List Special", k)  # not in list
        elif r < 0.3:
            slots[-1] = RecommendationSlot(slots[-1].beverage_name, k + 3)  # bad rank
        recs_by_profile[j] = RecommendationSet("model", j, slots)
        slots_by_profile[j] = [(s.beverage_name, s.rank) for s in slots]

    return recs_by_profile, slots_by_profile, scorecards, set(names)


def write_rec_file(path, model_id, picks_by_judge):
    """Write a recommendation file: each judge's picks as slots ranked
    1, 2, ... in list order."""
    profiles = [
        {"profile_id": judge, "recommendations": [{"beverage_name": n, "rank": i + 1} for i, n in enumerate(picks)]}
        for judge, picks in picks_by_judge.items()
    ]
    path.write_text(json.dumps({"model_id": model_id, "profiles": profiles}), encoding="utf-8")
    return path


def score_matrix(cards, names):
    """The score matrix of scorecards ``cards`` ({judge: {normalized name:
    score}}) with one column per beverage of ``names``, in list order, and
    its rows out of judge order."""
    keys = {normalize_name(n) for n in names}
    assert all(key in keys for card in cards.values() for key in card), "a scored name is not on the list"
    judges = sorted(cards, reverse=True)
    cells = [[cards[j].get(normalize_name(n), np.nan) for n in names] for j in judges]
    return ScoreMatrix(judges, [f"b{c}" for c in range(len(names))], np.array(cells).reshape(len(judges), -1))


def index_of(cards, names, k=5):
    """The JudgeIndex that evaluates against scorecards ``cards`` ({judge:
    {normalized name: score}}) and the master list ``names`` for k."""
    names = sorted(names)
    return JudgeIndex(score_matrix(cards, names), names, k)
