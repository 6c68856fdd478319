"""Close-error pair statistics: measure spread at matched test error.

The spread of a measure C over run pairs with |err_r - err_s| <= delta is
summarized by the median |log C_r - log C_s| (CMS); the seed-adjusted excess
(eCMS) subtracts the same-config different-seed spread from the cross-config
spread and clips at zero. Pair statistics use log ratios, so rescaling every
C by a constant cancels exactly.
"""

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .rng import choose_rows, key_seed, stream_words

UNDEFINED = None  # rendered as "Undefined" in reports


def median(values):
    """Middle of the sorted values, or the mean of the middle two for even counts.

    The same convention and bits as statistics.median, without importing it:
    that module pulls in decimal and fractions, about 0.5 MiB per process.
    """
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


@dataclass(frozen=True)
class FragilityConfig:
    deltas: tuple = (0.01, 0.02, 0.05)
    pair_budget: int = 10000  # 0 = unlimited
    subsample_seed: int = 0

    def __post_init__(self):
        if any(d <= 0 for d in self.deltas):
            raise ConfigError(f"fragility deltas must be positive, got {self.deltas!r}")
        if self.pair_budget < 0:
            raise ConfigError(f"fragility pair_budget must be >= 0, got {self.pair_budget!r}")
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))


@dataclass
class CellScore:
    cms: float = UNDEFINED
    cms_seed: float = UNDEFINED
    cms_inter: float = UNDEFINED
    ecms: float = UNDEFINED
    n_pairs: int = 0
    n_seed_pairs: int = 0
    n_inter_pairs: int = 0
    n_runs_used: int = 0
    n_runs_excluded: int = 0


# Memory bounds of score_group: pairs per scan block and per spread pass, and
# subsample words per fill (BLOCK) and per choose_rows call (CHUNK).
BLOCK = 1 << 16
CHUNK = 1 << 10

# pair class -> (its CellScore count field, its CellScore median field)
CLASSES = {"all": ("n_pairs", "cms"), "seed": ("n_seed_pairs", "cms_seed"),
           "inter": ("n_inter_pairs", "cms_inter")}

# The audit keeps to numpy loops that earlier stages already run (a new loop
# maps 64-256 KiB of numpy's code), so config and seed ids are compared as floats.


def _table(records, measures):
    """(errs, configs, seeds, values, used): the runs with any eligible
    (positive, finite) value in scan order, by (test error, run id); config
    and seed ids as floats; the run x measure values, NaN where ineligible;
    and each measure's count of eligible runs."""
    values = np.array([[r.measures.get(m) for m in measures] for r in records],
                      dtype=float).reshape(len(records), len(measures))
    ok = (values > 0) & (values < math.inf)
    values[~ok] = math.nan
    keep = ok.any(axis=1)
    rows = sorted((i for i in range(len(records)) if keep[i]),
                  key=lambda i: (records[i].test_error, records[i].run_id))
    config_ids, seed_ids = {}, {}
    configs = [config_ids.setdefault(records[i].h_key(), len(config_ids)) for i in rows]
    seeds = [seed_ids.setdefault(records[i].seed, len(seed_ids)) for i in rows]
    errs = np.array([records[i].test_error for i in rows], dtype=float)
    return (errs, np.array(configs, dtype=float), np.array(seeds, dtype=float),
            values[rows], [int(np.count_nonzero(col)) for col in ok.T])


def _close_pairs(errs, delta):
    """(a, b): the pairs a < b of the sorted errs with errs[b] - errs[a] <= delta,
    in scan order. errs[b] - errs[a] rounds monotonically in errs[b], so the
    scan's own predicate, evaluated for all pairs at once, keeps exactly the
    scan's pairs."""
    n = len(errs)
    ids = np.arange(n, dtype=float)
    step = BLOCK // max(n, 1) or 1
    a, b = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for lo in range(0, n, step):
        rows, cols = np.nonzero((errs - errs[lo : lo + step, None] <= delta)
                                & (ids[lo : lo + step, None] < ids))
        a.append(rows + lo)
        b.append(cols)
    return np.concatenate(a), np.concatenate(b)


def _pairs(table, delta):
    """(a, b, classes): delta's close-error pairs, and a mask per pair class
    (None for "all")."""
    errs, configs, seeds = table[:3]
    a, b = _close_pairs(errs, delta)
    inter = configs[a] != configs[b]
    return a, b, {"all": None, "seed": ~inter & (seeds[a] != seeds[b]), "inter": inter}


def _ratios(va, vb, out=None):
    """max / min of each pair of values; va is overwritten."""
    hi = np.maximum(va, vb, out=out)
    return np.divide(hi, np.minimum(va, vb, out=va), out=hi)


def _medians(ratios, counts) -> list:
    """The median math.log(ratio) of each list of counts[i] ratios, or
    UNDEFINED; math.log, since np.log may round differently."""
    out, lo = [], 0
    for n in counts:
        out.append(median(map(math.log, ratios[lo : lo + n].tolist())) if n else UNDEFINED)
        lo += n
    return out


def _score_lists(out, table, found, measures, delta, budget) -> list:
    """Set delta's pair counts and the medians of the lists within the budget;
    return (delta, class, column, length) of the others."""
    values = table[3]
    a, b, classes = _pairs(table, delta)
    both = found[a] & found[b]  # pair x measure: in that measure's scan
    drawn = []
    for cls, (count_field, field_name) in CLASSES.items():
        member = both if classes[cls] is None else both & classes[cls][:, None]
        counts = [int(np.count_nonzero(col)) for col in member.T]
        full, size = [[]], 0
        for col, m in enumerate(measures):
            setattr(out[(m, delta)], count_field, counts[col])
            if budget and counts[col] > budget:
                drawn.append((delta, cls, col, counts[col]))
            else:
                if full[-1] and size + counts[col] > BLOCK:
                    full.append([])
                    size = 0
                full[-1].append(col)
                size += counts[col]
        for block in full:
            cols = np.array(block, dtype=np.intp)
            ids, pairs = np.nonzero(member[:, cols].T)  # by column, in scan order
            ratios = _ratios(values[a[pairs], cols[ids]], values[b[pairs], cols[ids]])
            medians = _medians(ratios, [counts[col] for col in block])
            for col, med in zip(block, medians):
                setattr(out[(measures[col], delta)], field_name, med)
    return drawn


def _score_drawn(out, table, found, measures, drawn, group, config) -> None:
    """Set the medians of the lists over the budget from budget pairs each,
    picked by scan position from the list's own stream."""
    if not drawn:
        return
    values, budget = table[3], config.pair_budget
    pairs = (None,)
    per_fill, per_chunk = BLOCK // budget or 1, CHUNK // budget or 1
    for lo in range(0, len(drawn), per_fill):
        block = drawn[lo : lo + per_fill]
        words = stream_words(
            [key_seed(config.subsample_seed, f"{group}|{measures[col]}|{delta!r}|{cls}")
             for delta, cls, col, _ in block], budget)
        for start in range(0, len(block), per_chunk):
            chunk = block[start : start + per_chunk]
            picks = choose_rows(words[start : start + per_chunk], [n for *_, n in chunk])
            ratios = np.empty(picks.shape)
            for row, (delta, cls, col, _) in enumerate(chunk):
                if pairs[0] != delta:
                    pairs = (delta, *_pairs(table, delta))
                _, a, b, classes = pairs
                member = found[a, col] & found[b, col]
                if classes[cls] is not None:
                    member = member & classes[cls]
                kept = np.flatnonzero(member)[picks[row]]
                _ratios(values[a[kept], col], values[b[kept], col], ratios[row])
            medians = _medians(ratios.reshape(-1), [budget] * len(chunk))
            for (delta, cls, col, _), med in zip(chunk, medians):
                setattr(out[(measures[col], delta)], CLASSES[cls][1], med)


def score_group(group: str, records, measures, config: FragilityConfig) -> dict:
    """CellScore per (measure, delta) for one group's records.

    Per measure, the runs with a positive finite value are put in scan order,
    sorted by (test error, run id). One two-index scan per delta visits every
    pair (a, b), a before b in scan order, whose test errors are within delta.
    Each pair's spread |log C_a - log C_b| goes to the "all" list, and to the
    "seed" list (same config, different seed) or the "inter" list (different
    config); a pair with the same config and the same seed is in neither. With
    a pair budget, a longer list is subsampled by position in scan order from
    its own stream, root.spawn_key(f"{group}|{measure}|{delta!r}|{cls}").

    A measure's scan is the group's scan restricted to its runs, which keeps
    the pairs and their order, so all measures share one pair list per delta.
    """
    measures = list(measures)
    table = _table(records, measures)
    found, used = ~np.isnan(table[3]), table[4]
    out = {(m, delta): CellScore(n_runs_used=used[col],
                                 n_runs_excluded=len(records) - used[col])
           for delta in config.deltas for col, m in enumerate(measures)}
    drawn = []
    for delta in config.deltas:
        drawn += _score_lists(out, table, found, measures, delta, config.pair_budget)
    _score_drawn(out, table, found, measures, drawn, group, config)
    for cell in out.values():
        if cell.cms_seed is not UNDEFINED and cell.cms_inter is not UNDEFINED:
            cell.ecms = max(0.0, cell.cms_inter - cell.cms_seed)
    return out


@dataclass
class AggregateScore:
    cms_med: float = UNDEFINED
    ecms_med: float = UNDEFINED
    cms_coverage: float = 0.0
    ecms_coverage: float = 0.0
    per_group: dict = field(default_factory=dict)  # group -> CellScore


def aggregate_groups(group_scores: dict) -> dict:
    """Across-group medians with Undefined groups omitted; coverage fractions.

    group_scores: {group: {(measure, delta): CellScore}}.
    """
    cells = {}
    for group, scores in group_scores.items():
        for key, cell in scores.items():
            cells.setdefault(key, {})[group] = cell
    total = max(len(group_scores), 1)
    out = {}
    for key, per_group in cells.items():
        agg = AggregateScore(per_group=dict(sorted(per_group.items())))
        cms_vals = [c.cms for c in per_group.values() if c.cms is not UNDEFINED]
        ecms_vals = [c.ecms for c in per_group.values() if c.ecms is not UNDEFINED]
        if cms_vals:
            agg.cms_med = median(cms_vals)
        if ecms_vals:
            agg.ecms_med = median(ecms_vals)
        agg.cms_coverage = len(cms_vals) / total
        agg.ecms_coverage = len(ecms_vals) / total
        out[key] = agg
    return out


def score_records(records, measures, config: FragilityConfig):
    """Full scoring: group -> cells, plus across-group aggregates."""
    by_group = {}
    for r in records:
        by_group.setdefault(r.group, []).append(r)
    group_scores = {
        g: score_group(g, rows, measures, config)
        for g, rows in sorted(by_group.items())
    }
    return group_scores, aggregate_groups(group_scores)


def _fmt(x, text=False) -> str:
    if x is UNDEFINED:
        return "Undefined"
    return f"{x:.3f}" if text else repr(float(x))


def _row_order(aggregates, measures, delta):
    def key(m):
        agg = aggregates.get((m, delta))
        cms_med = agg.cms_med if agg else UNDEFINED
        return (cms_med is UNDEFINED, cms_med if cms_med is not UNDEFINED else 0.0, m)

    return sorted(measures, key=key)


def emit_table_csv(aggregates: dict, groups, measures, delta: float) -> str:
    """Long-format CSV: one cms row and one ecms row per measure (stacked)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["measure", "delta", "stat", "aggregate", "coverage"]
                    + list(groups))
    for m in _row_order(aggregates, measures, delta):
        agg = aggregates.get((m, delta)) or AggregateScore()
        for stat in ("cms", "ecms"):
            med = agg.cms_med if stat == "cms" else agg.ecms_med
            cov = agg.cms_coverage if stat == "cms" else agg.ecms_coverage
            row = [m, repr(float(delta)), stat, _fmt(med), repr(cov)]
            for g in groups:
                cell = agg.per_group.get(g)
                val = UNDEFINED if cell is None else (
                    cell.cms if stat == "cms" else cell.ecms)
                row.append(_fmt(val))
            writer.writerow(row)
    return buf.getvalue()


def emit_table_text(aggregates: dict, groups, measures, delta: float) -> str:
    """Plain-text rendering; per cell the CMS sits on top of the eCMS line."""
    cols = ["measure", "agg"] + list(groups)
    rows = []
    for m in _row_order(aggregates, measures, delta):
        agg = aggregates.get((m, delta)) or AggregateScore()
        top, bottom = [m, _fmt(agg.cms_med, text=True)], ["", _fmt(agg.ecms_med, text=True)]
        for g in groups:
            cell = agg.per_group.get(g)
            top.append(_fmt(cell.cms if cell else UNDEFINED, text=True))
            bottom.append(_fmt(cell.ecms if cell else UNDEFINED, text=True))
        rows.append((top, bottom))
    widths = [max(len(col), *(len(r[k][i]) for r in rows for k in (0, 1)))
              if rows else len(col) for i, col in enumerate(cols)]
    lines = [f"# delta = {delta}  (top: CMS, bottom: eCMS)"]
    lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for top, bottom in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(top, widths)))
        lines.append("  ".join(c.ljust(w) for c, w in zip(bottom, widths)))
    return "\n".join(lines) + "\n"


def defined_cells(aggregates: dict) -> int:
    """The number of cells with a defined CMS or eCMS median."""
    return sum(a.cms_med is not UNDEFINED or a.ecms_med is not UNDEFINED
               for a in aggregates.values())
