"""Independent brute-force reference implementations used by the tests.

Everything here is written with plain dict/loop arithmetic, deliberately
sharing no code with the package, so tests can cross-check the pipeline
against a second derivation of the same definitions.
"""

import math


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
