"""Independent brute-force reference implementations used by the tests.

Everything here is written with plain dict/loop arithmetic, deliberately
sharing no code with the package, so tests can cross-check the pipeline
against a second derivation of the same definitions.
"""

import csv
import io
import json
import math
import re

import numpy as np


def oname(s):
    return " ".join(s.split()).lower()


def oracle_classify_band(abv):
    for band, lo, hi in [("low", 0.0, 4.5), ("medium", 4.5, 6.5), ("high", 6.5, 9.0), ("very_high", 9.0, 100.0)]:
        if lo < abv <= hi:
            return band
    raise ValueError(abv)


def oracle_sample_sd(values):
    n = len(values)
    mean = sum(values) / n
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))


def oracle_normalize(cells, lenient=False):
    """cells: {judge: {beverage: raw}} -> same shape, min-max per judge."""
    out = {}
    for judge, row in cells.items():
        if not row:
            out[judge] = {}
            continue
        lo, hi = min(row.values()), max(row.values())
        if hi == lo:
            if not lenient:
                raise ValueError(f"degenerate row {judge}")
            out[judge] = {b: 0.5 for b in row}
        else:
            out[judge] = {b: (v - lo) / (hi - lo) for b, v in row.items()}
    return out


def oracle_aggregate(cells):
    """cells: {judge: {beverage: value}} -> {beverage: mean over judges that scored it}."""
    totals, counts = {}, {}
    for row in cells.values():
        for b, v in row.items():
            totals[b] = totals.get(b, 0.0) + v
            counts[b] = counts.get(b, 0) + 1
    return {b: totals[b] / counts[b] for b in totals}


def _rank_with_ties(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mid = (i + j) / 2 + 1
        for t in range(i, j + 1):
            ranks[order[t]] = mid
        i = j + 1
    return ranks


def oracle_spearman(x, y):
    rx, ry = _rank_with_ties(x), _rank_with_ties(y)
    n = len(x)
    mx, my = sum(rx) / n, sum(ry) / n
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return num / den


def oracle_kendall_tau_b(x, y):
    """Kendall's tau-b by enumerating every pair of items: (concordant -
    discordant) / sqrt((pairs - x ties) * (pairs - y ties)), where a pair
    tied in both counts in both tie totals; NaN if either side is all ties."""
    n = len(x)
    concordant = discordant = x_ties = y_ties = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx, dy = x[i] - x[j], y[i] - y[j]
            if dx == 0:
                x_ties += 1
            if dy == 0:
                y_ties += 1
            if dx * dy > 0:
                concordant += 1
            elif dx * dy < 0:
                discordant += 1
    pairs = n * (n - 1) // 2
    if x_ties == pairs or y_ties == pairs:
        return float("nan")
    return (concordant - discordant) / math.sqrt((pairs - x_ties) * (pairs - y_ties))


def oracle_score_matrix(judges, beverage_ids, reviews):
    """judges x beverages raw scores by a per-review loop: the first review
    of a (judge, beverage) pair wins, reviews naming an unknown judge or
    beverage are skipped, and unscored cells are NaN."""
    cells = [[math.nan] * len(beverage_ids) for _ in judges]
    row_of = {j: i for i, j in enumerate(judges)}
    col_of = {b: i for i, b in enumerate(beverage_ids)}
    for review in reviews:
        if review.judge_id in row_of and review.beverage_id in col_of:
            row = cells[row_of[review.judge_id]]
            col = col_of[review.beverage_id]
            if math.isnan(row[col]):
                row[col] = review.raw_score
    return cells


def oracle_valid_slots(slots_by_profile, judges, names, k=5):
    """Re-derive slot validity by direct enumeration.

    slots_by_profile: {judge: [(beverage_name, rank), ...]}
    returns ({judge: [(rank, normalized_name)]}, total_valid)
    """
    known = {oname(n) for n in names}
    valid = {}
    total = 0
    for judge in judges:
        seen_names, seen_ranks = set(), set()
        picks = []
        for name, rank in slots_by_profile.get(judge, []):
            nn = oname(name)
            ok = (
                bool(nn)
                and nn in known
                and nn not in seen_names
                and isinstance(rank, int)
                and not isinstance(rank, bool)
                and 1 <= rank <= k
                and rank not in seen_ranks
            )
            if ok:
                picks.append((rank, nn))
                seen_ranks.add(rank)
            seen_names.add(nn)
        valid[judge] = picks
        total += len(picks)
    return valid, total


def oracle_metrics(slots_by_profile, scorecards, names, k=5, tie_mode="fixed"):
    """All five recommendation metrics by direct enumeration.

    scorecards: {judge: {normalized_name: raw_score}}; returns a dict with
    keys coverage, mean_rating, mean_percentile, hit, ndcg (None where the
    metric is undefined). Hit@k counts a slot whose beverage is in the
    judge's k-sized top list (tie_mode "fixed": ties at the cut broken by
    name) or is beaten by fewer than k of the judge's beverages
    ("threshold").
    """
    judges = sorted(scorecards)
    valid, total = oracle_valid_slots(slots_by_profile, judges, names, k)
    coverage = total / (len(judges) * k)
    if total == 0:
        return {"coverage": 0.0, "mean_rating": None, "mean_percentile": None,
                "hit": None, "ndcg": None}

    ratings = []
    for judge in judges:
        for _, nn in valid[judge]:
            if nn in scorecards[judge]:
                ratings.append(scorecards[judge][nn])
    mean_rating = sum(ratings) / len(ratings) if ratings else None

    per_judge_pct = []
    for judge in judges:
        card = scorecards[judge]
        n = len(card)
        vals = []
        for _, nn in valid[judge]:
            if n < 2 or nn not in card:
                continue
            s = card[nn]
            lower = sum(1 for v in card.values() if v < s)
            equal_others = sum(1 for other, v in card.items() if v == s and other != nn)
            vals.append((lower + 0.5 * equal_others) / (n - 1))
        if vals:
            per_judge_pct.append(sum(vals) / len(vals))
    mean_percentile = sum(per_judge_pct) / len(per_judge_pct) if per_judge_pct else None

    hits = 0
    for judge in judges:
        card = scorecards[judge]
        if tie_mode == "fixed":
            top = {n for n, _ in sorted(card.items(), key=lambda kv: (-kv[1], kv[0]))[:k]}
        else:
            top = {n for n, s in card.items() if sum(1 for v in card.values() if v > s) < k}
        hits += sum(1 for _, nn in valid[judge] if nn in top)
    hit = hits / (len(judges) * k)

    ndcgs = []
    for judge in judges:
        card = scorecards[judge]
        rel_at = {rank: card.get(nn, 0.0) for rank, nn in valid[judge]}
        dcg = sum(rel_at.get(pos, 0.0) / math.log2(pos + 1) for pos in range(1, k + 1))
        ideal = sorted(card.values(), reverse=True)[:k]
        idcg = sum(v / math.log2(pos + 1) for pos, v in enumerate(ideal, start=1))
        ndcgs.append(dcg / idcg if idcg > 0 else 0.0)
    ndcg = sum(ndcgs) / len(ndcgs)

    return {"coverage": coverage, "mean_rating": mean_rating,
            "mean_percentile": mean_percentile, "hit": hit, "ndcg": ndcg}


def _collapse(s):
    return " ".join(s.split())


def _note_tags(note):
    """Tags implied by a note: real / artificial by whole word, else other."""
    tags = {tag for word, tag in (("real", "real_flavour"), ("artificial", "artificial_flavour"))
            if re.search(rf"\b{word}\b", note, re.IGNORECASE)}
    return tags or {"other"}


def oracle_load_dataset(beverages, scorecards_path):
    """The scorecard ingest one row at a time, for well-formed files: each
    row becomes (judge, beverage id, score, tag values, note) on its own,
    blank rows are skipped, tags come from the tags cell or else from the
    note, and a name joins the beverage whose collapsed casefolded name
    equals its own (an unmatched name keeps that key as its reference).

    ``beverages`` is the parsed beverage list (objects with id and name);
    returns (judges sorted, list of review tuples)."""
    with open(scorecards_path, encoding="utf-8-sig", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if any((v or "").strip() for v in r.values())]
    reviews = []
    for row in rows:
        key = _collapse(row["beer_name"]).casefold()
        matches = [b.id for b in beverages if _collapse(b.name).casefold() == key]
        tags = {p.strip() for p in (row.get("tags") or "").split(";") if p.strip()}
        note = (row.get("note") or "").strip() or None
        if not tags and note:
            tags = _note_tags(note)
        score = float(row["raw_score"].strip())
        reviews.append((row["judge_id"].strip(), matches[0] if matches else key, score, tags, note))
    return sorted({r[0] for r in reviews}), reviews


def oracle_validate_dataset(beverages, judges, reviews):
    """The dataset shape rules by a per-review loop; reviews are
    (judge, beverage id, ...) tuples and the result is the sorted list of
    (code, subject, message) findings."""
    found = set()
    ids = {b.id for b in beverages}
    pair_counts, review_counts = {}, {}
    for judge, beverage, *_ in reviews:
        pair_counts[judge, beverage] = pair_counts.get((judge, beverage), 0) + 1
        dangling = []
        if beverage in ids:
            review_counts[beverage] = review_counts.get(beverage, 0) + 1
        else:
            dangling.append(f"unknown beverage {beverage!r}")
        if judge not in judges:
            dangling.append(f"unknown judge {judge!r}")
        if dangling:
            found.add(("DANGLING_REF", f"{judge}:{beverage}", "review references " + " and ".join(dangling)))
    for (judge, beverage), n in pair_counts.items():
        if n > 1:
            found.add(("DUP_REVIEW", f"{judge}:{beverage}", f"{n} reviews for the same (judge, beverage) pair"))
    for b in beverages:
        n = review_counts.get(b.id, 0)
        if n < 2:
            found.add(("MISSING_REVIEWS", b.id, f"beverage has {n} review(s), expected at least 2"))
        if not 0.5 <= b.abv <= 12.5:
            found.add(("ABV_RANGE_WARN", b.id, f"abv {b.abv} outside the observed range [0.5, 12.5]"))
    producers = [b.producer for b in beverages]
    for producer in set(producers):
        if producers.count(producer) > 4:
            found.add(("PRODUCER_LIMIT_WARN", producer,
                       f"producer presents {producers.count(producer)} beverages, limit is 4"))
    return sorted(found)


def oracle_scorecards_csv(beverages, reviews):
    """Scorecard CSV text written one review at a time: a beverage's
    display name (or its reference if unknown), the score to one decimal,
    the optional tags / note columns only when some review has one."""
    name_of = {b.id: b.name for b in beverages}
    with_tags = any(r[3] for r in reviews)
    with_notes = any(r[4] for r in reviews)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["judge_id", "beer_name", "raw_score"] + ["tags"] * with_tags + ["note"] * with_notes)
    for judge, beverage, score, tags, note in reviews:
        row = [judge, name_of.get(beverage, beverage), "%.1f" % score]
        row += [";".join(sorted(tags))] * with_tags + [note or ""] * with_notes
        writer.writerow(row)
    return out.getvalue()


def oracle_tag_report(beverages, reviews):
    """{family: (real scores, artificial scores)} for families with at
    least one tagged review, scores in review order."""
    family_of = {b.id: b.style_family for b in beverages}
    out = {}
    for _, beverage, score, tags, _ in reviews:
        if beverage in family_of:
            for i, tag in enumerate(("real_flavour", "artificial_flavour")):
                if tag in tags:
                    out.setdefault(family_of[beverage], ([], []))[i].append(score)
    return out


def oracle_run_session(config):
    """A session in the documented draw order, one scalar draw at a time:
    each reviewer's score from its own normal draw (then a uniform iff it
    has floor affinity), clamped and rounded with Python floats, and each
    round logged through ``json.dumps``. Returns (round-log lines, kept
    reviews as (judge, beverage, score), skips as (clock, reason))."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    lo, hi = config.base_quality_range
    base = {b.id: lo + (hi - lo) * rng.random() for b in config.pool}
    pool = list(config.pool)
    federation = config.federation
    experts = [p for p in federation if p.is_expert]
    kept = {p.id for p in federation if p.is_expert or config.include_amateurs}
    cost = config.cost_params
    lines, reviews, skips = [], [], []
    clock, index = config.clock_start, 0
    while clock < config.clock_end and pool:
        now, clock = clock, clock + config.round_duration
        if any(a <= now < b for a, b in config.blackout_windows):
            continue
        r, acc, leader = rng.random(), 0.0, experts[-1]
        for p in experts:
            acc += p.leader_probability
            if r < acc:
                leader = p
                break
        available = [p for p in federation if p.id != leader.id and rng.random() < p.availability_probability]
        if not available:
            skips.append((now, "SKIPPED_NO_PARTICIPANTS"))
            continue
        procurers = [p.id for p in available if not rng.random() < p.freeload_probability]
        if not procurers:
            procurers = [available[int(rng.integers(len(available)))].id]
        beverage = pool.pop(int(rng.integers(len(pool))))
        present = {leader.id} | {p.id for p in available}
        cells = []
        for p in federation:
            if p.id not in present:
                continue
            value = base[beverage.id] + p.score_bias.get(beverage.style_family, 0.0) + rng.standard_normal() * p.score_noise_sd
            if p.score_floor_affinity > 0 and rng.random() < p.score_floor_affinity:
                value = 1.0
            score = round(min(5.0, max(1.0, value)) * 10) / 10.0
            cells.append({"judge_id": p.id, "beverage_id": beverage.id, "raw_score": score})
            if p.id in kept:
                reviews.append((p.id, beverage.id, score))
        lines.append(json.dumps({
            "index": index,
            "clock": now,
            "leader_id": leader.id,
            "beverage_id": beverage.id,
            "procurers": sorted(procurers),
            "reviewers": sorted(present),
            "reviews": cells,
            "broadcast_cost": cost.broadcast_base * (1.0 + cost.politeness_initial * cost.politeness_decay**index),
            "comprehension_cost": cost.comprehension_base * (1.0 + cost.comprehension_growth * index),
        }, sort_keys=True))
        index += 1
    return lines, reviews, skips
