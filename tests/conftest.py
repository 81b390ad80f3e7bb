import numpy as np
import pytest

from beerfed.model import Beverage, NoteTag
from genutil import dataset_of


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _bev(i, producer, name, style, family, abv, tags=frozenset()):
    return Beverage(
        id=f"b{i}",
        producer=producer,
        name=name,
        raw_style=style,
        style_family=family,
        abv=abv,
        note_tags=tags,
    )


@pytest.fixture
def tiny_dataset():
    """Six beverages, three judges, full scorecards; stouts aggregate on top
    and the sour carries real/artificial tagged reviews."""
    beverages = [
        _bev(0, "Alpha Brewing", "Night Ledger", "Imperial Stout", "Stout & porter", 11.0),
        _bev(1, "Alpha Brewing", "Coal Harbour", "Dry Stout", "Stout & porter", 4.4),
        _bev(2, "Beta Brauerei", "Mango Meridian", "Fruited Sour", "Sour & wild ale", 4.5),
        _bev(3, "Beta Brauerei", "Tin Whistle", "West Coast IPA", "Pale ale & IPA", 6.8),
        _bev(4, "Gamma Ales", "Quiet Field", "Helles Lager", "Lager & pils", 4.9),
        _bev(5, "Gamma Ales", "Hedge Maze", "Saison", "Saison & farmhouse", 5.9),
    ]
    scores = {
        # judge: scores for b0..b5 (stouts highest on aggregate)
        "A": [4.8, 4.2, 3.9, 3.1, 2.6, 3.4],
        "B": [5.0, 4.4, 4.8, 2.8, 1.6, 3.6],
        "C": [4.6, 4.1, 2.9, 3.3, 2.7, 3.8],
    }
    tag_for = {
        ("B", "b2"): frozenset({NoteTag.REAL_FLAVOUR}),
        ("C", "b2"): frozenset({NoteTag.ARTIFICIAL_FLAVOUR}),
        ("A", "b3"): frozenset({NoteTag.OTHER}),
    }
    reviews = [
        (j, f"b{i}", s, tag_for.get((j, f"b{i}"), frozenset()))
        for j, row in scores.items()
        for i, s in enumerate(row)
    ]
    return dataset_of(beverages, reviews, ["A", "B", "C"])
