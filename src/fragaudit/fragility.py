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

from .errors import ConfigError
from .rng import Rng

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


def _eligible(records, measure):
    """Records carrying a positive finite value of the measure."""
    out = []
    for r in records:
        v = r.measures.get(measure)
        if v is not None and v > 0 and v == v and v != float("inf"):
            out.append(r)
    return out


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
    """
    root = Rng(config.subsample_seed)
    budget = config.pair_budget
    out = {}
    for measure in measures:
        rows = sorted(_eligible(records, measure),
                      key=lambda r: (r.test_error, r.run_id))
        n = len(rows)
        errs = [r.test_error for r in rows]
        vals = [r.measures[measure] for r in rows]
        config_ids = {}
        configs = [config_ids.setdefault(r.h_key(), len(config_ids)) for r in rows]
        seeds = [r.seed for r in rows]
        for delta in config.deltas:
            all_s, seed_s, inter_s = [], [], []
            for a in range(n):
                err_a, val_a, config_a, seed_a = errs[a], vals[a], configs[a], seeds[a]
                for b in range(a + 1, n):
                    if errs[b] - err_a > delta:
                        break
                    val_b = vals[b]
                    # |log C_a - log C_b| as log(max/min): orientation-free in floats
                    v = math.log(val_a / val_b) if val_a >= val_b else \
                        math.log(val_b / val_a)
                    all_s.append(v)
                    if configs[b] != config_a:
                        inter_s.append(v)
                    elif seeds[b] != seed_a:
                        seed_s.append(v)
            cell = CellScore(n_pairs=len(all_s), n_seed_pairs=len(seed_s),
                             n_inter_pairs=len(inter_s), n_runs_used=n,
                             n_runs_excluded=len(records) - n)
            for cls, field_name, spreads in (("all", "cms", all_s),
                                             ("seed", "cms_seed", seed_s),
                                             ("inter", "cms_inter", inter_s)):
                if budget and len(spreads) > budget:
                    stream = root.spawn_key(f"{group}|{measure}|{delta!r}|{cls}")
                    spreads = [spreads[k] for k in stream.choose(len(spreads), budget)]
                if spreads:
                    setattr(cell, field_name, median(spreads))
            if cell.cms_seed is not UNDEFINED and cell.cms_inter is not UNDEFINED:
                cell.ecms = max(0.0, cell.cms_inter - cell.cms_seed)
            out[(measure, delta)] = cell
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
