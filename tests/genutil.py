"""Seeded random-instance generators and table builders shared by the tests."""

import csv
import json
import random
from collections import namedtuple

import numpy as np

from beerfed.model import Beverage, Dataset, ReviewTable, normalize_name
from beerfed.receval import JudgeIndex, RecommendationSet
from beerfed.scoring import ScoreMatrix

FAMILIES = [
    "Pale ale & IPA",
    "Sour & wild ale",
    "Stout & porter",
    "Lager & pils",
    "Specialty and hybrid styles",
]


# cells csv.writer quotes (",", '"', a bare "\r", "\n") or treats with care
# (a leading space, the empty string, a cell of two quotes), and non-ASCII text
HOSTILE_CELLS = [",x", 'a"b', "c\rd", "e\nf", "\r\n", " g", "", '""', "Ærø 日本 🍺"]

# one review as tests build and read it
Row = namedtuple("Row", "judge_id beverage_id raw_score note_tags note_text", defaults=(frozenset(), None))


def positions(values, order):
    """Each value's place in ``order`` (its last, if repeated), or -1."""
    where = {v: i for i, v in enumerate(order)}
    return np.array([where.get(v, -1) for v in values], dtype=np.intp)


def tenths(scores):
    """Scores in points (such as 3.7) as the uint8 tenths a ReviewTable
    holds; a score that is not exactly ``t / 10`` for a t in [0, 255] has
    none and fails the assertion."""
    scores = np.asarray(scores, dtype=float)
    with np.errstate(invalid="ignore"):  # NaN and infinities fail the assertion
        codes = np.rint(scores * 10).astype(np.uint8)
    assert (codes / 10 == scores).all(), f"{scores} holds a score that is not t / 10"
    return codes


def review_table(rows, beverage_ids, judges):
    """The ReviewTable of ``rows``, each (judge, beverage, score[, tags[,
    note]]) as a ``Row`` takes them, each score in points (``tenths``
    makes the table's column), the rest coded against a dataset's lists: a
    judge by its place in ``judges`` (a judge off the list is a KeyError:
    no code can name it), a beverage id by its place in ``beverage_ids`` or,
    off that list, by the list's length plus its place in ``unknown``, the
    ids off the list in first-seen order; tag sets and notes in first-seen
    order."""
    rows = [Row(*row) for row in rows]
    listed = set(beverage_ids)
    unknown = tuple(dict.fromkeys(r.beverage_id for r in rows if r.beverage_id not in listed))
    place = {j: i for i, j in enumerate(judges)}
    coded = [[getattr(r, key) for r in rows] for key in ("note_tags", "note_text")]
    vocabularies = [tuple(dict.fromkeys(column)) for column in coded]
    return ReviewTable(unknown, *vocabularies, np.array([place[r.judge_id] for r in rows], dtype=np.intp),
                       positions([r.beverage_id for r in rows], [*beverage_ids, *unknown]),
                       *map(positions, coded, vocabularies), tenths([r.raw_score for r in rows]))


def dataset_of(beverages, rows, judges):
    """The Dataset of ``beverages``, ``judges`` and the reviews ``rows``,
    coded against those two lists as ``review_table`` codes them."""
    return Dataset(beverages, review_table(rows, [b.id for b in beverages], judges), judges)


def review_rows(dataset):
    """The dataset's reviews as ``Row``s, in row order, each naming its
    judge and its beverage's id (or, for a beverage off the list, the
    unknown name it holds), and its score in points, ``tenths / 10``."""
    table = dataset.reviews
    ids = [*(b.id for b in dataset.beverages), *table.unknown]
    return [
        Row(dataset.judges[j], ids[b], score, table.tag_sets[t], table.note_texts[n])
        for j, b, score, t, n in zip(*(column.tolist() for column in
                                       (table.judge, table.beverage, table.score / 10, table.tags, table.notes)))
    ]


def dataset_content(dataset):
    """What two datasets built from the same data share: their beverages,
    their review rows in order and their judges."""
    return dataset.beverages, review_rows(dataset), dataset.judges


def with_reviews(dataset, rows):
    """The dataset's beverages and judges with the reviews ``rows`` in
    place of its own, coded against its lists (a dataset's reviews are
    read-only)."""
    return dataset_of(dataset.beverages, rows, dataset.judges)


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
            reviews.append((j, b.id, random_scores(rng, 1)[0]))
    return dataset_of(beverages, reviews, judges)


def festival_files(tmp_path, judges, beverages, per_judge):
    """Write a festival-shaped scorecard and beverage list in ``tmp_path``:
    judges ``J0``, ``J1``, ... each score ``per_judge`` distinct beverages
    out of ``beer 0`` ... (brewery ``br{b//4}``, style IPA, ABV 5.0) with
    one of 2.5, 3.0, 3.5, 4.0 and 4.5, all drawn with
    ``random.Random(beverages)``. Returns the (scorecards, beverages)
    paths."""
    rng = random.Random(beverages)
    cards, pool = tmp_path / "festival_scorecards.csv", tmp_path / "festival_beverages.csv"
    with open(pool, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows([("brewery", "beer_name", "beer_style", "abv_percent"),
                                 *((f"br{b // 4}", f"beer {b}", "IPA", "5.0") for b in range(beverages))])
    with open(cards, "w", newline="", encoding="utf-8") as f:
        out = csv.writer(f)
        out.writerow(("judge_id", "beer_name", "raw_score"))
        for j in range(judges):
            for b in rng.sample(range(beverages), per_judge):
                out.writerow((f"J{j}", f"beer {b}", rng.choice(("2.5", "3.0", "3.5", "4.0", "4.5"))))
    return cards, pool


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
        slots = [(display[n], rank + 1) for rank, n in enumerate(picks)]

        r = rng.random()
        if r < 0.12 and slots:
            slots = slots[:-1]  # short set: one slot missing
        elif r < 0.2:
            slots[-1] = (slots[0][0], k)  # duplicate name
        elif r < 0.26:
            slots[-1] = ("Off List Special", k)  # not in list
        elif r < 0.3:
            slots[-1] = (slots[-1][0], k + 3)  # bad rank
        recs_by_profile[j] = rec_set(slots)
        slots_by_profile[j] = slots

    return recs_by_profile, slots_by_profile, scorecards, set(names)


def rec_set(slots):
    """The RecommendationSet of ``slots``, (name, rank) pairs in slot order."""
    names, ranks = zip(*slots) if slots else ((), ())
    return RecommendationSet(names, ranks)


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


POOL_PIECES = ["Ale", "Stout", "x", " ", ",", '"', "\n", "::", "é", "Ærø", "日本", "🍺"]


def random_session_config(rng):
    """A session config body for ``simulate``: 1-6 members with random
    availability and freeload probabilities, leader probabilities spread
    over the experts, a window of 1-200 rounds of 1, 5 or 20 minutes, and
    1-12 pool entries whose text holds commas, quotes, line breaks, "::",
    non-ASCII and case or whitespace variants of one name."""
    members = []
    for i in range(int(rng.integers(1, 7))):
        availability = [0.0, 0.01, 0.02, 0.5, 1.0, float(rng.random())][int(rng.integers(6))]
        members.append({
            "id": f"m{i}", "is_expert": i == 0 or bool(rng.random() < 0.5),
            "availability_probability": availability, "freeload_probability": float(rng.random()),
            "score_noise_sd": float(rng.choice([0.0, 0.3, 1.0])),
            "score_floor_affinity": float(rng.choice([0.0, 0.0, 0.2])),
        })
    experts = [m for m in members if m["is_expert"]]
    weights = rng.random(len(experts)) * (rng.random(len(experts)) < 0.7)
    weights[int(rng.integers(len(experts)))] += 0.1  # at least one expert can lead
    for member, weight in zip(experts, (weights / weights.sum()).tolist()):
        member["leader_probability"] = weight

    def text():  # never blank
        drawn = "".join(POOL_PIECES[int(i)] for i in rng.integers(len(POOL_PIECES), size=int(rng.integers(1, 5))))
        return drawn if drawn.strip() else drawn + "x"

    variants = ["Night Ale", "night ale", "NIGHT  ALE", " Night\nAle "]
    pool = []
    for _ in range(int(rng.integers(1, 13))):
        name = variants[int(rng.integers(len(variants)))] if rng.random() < 0.1 else text()
        pool.append({"brewery": text() if rng.random() < 0.5 else f"Brewery {int(rng.integers(3))}",
                     "beer_name": name, "beer_style": text(),
                     "abv_percent": float(100 - rng.uniform(0, 100)) if rng.random() < 0.9 else 100.0})
    duration = [1, 5, 20][int(rng.integers(3))]
    window = duration * min(int(rng.integers(1, 201)), 1440 // duration)  # within one day
    start = int(rng.integers(0, 1440 - window + 1))
    return {"seed": int(rng.integers(2**32)), "federation": members, "pool": pool, "clock_start": start,
            "clock_end": start + window, "round_duration": duration, "include_amateurs": bool(rng.random() < 0.3)}
