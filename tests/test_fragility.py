"""score_group vs hand fixtures and a brute-force all-pairs oracle."""

import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragaudit import fragility
from fragaudit.fragility import FragilityConfig, aggregate_groups, emit_table_csv, \
    emit_table_text, median, score_group, score_records
from fragaudit.records import RunRecord
from fragaudit.rng import Rng


def rec(i, err, C=None, h=("sgdm", 0.1), seed=0, group="g"):
    measures = {} if C is None else {"M": C}
    return RunRecord(
        run_id=f"r{i:03d}", group=group, dataset="d", arch="a",
        optimizer=h[0], lr=h[1], stop_rule="train_acc_100", n_train=64,
        seed=seed, test_error=err, measures=measures,
    )


def cell(records, delta=0.01):
    """The unbudgeted score_group cell of measure M at one delta."""
    cfg = FragilityConfig(deltas=(delta,), pair_budget=0)
    return score_group("g", records, ("M",), cfg)[("M", float(delta))]


FIELDS = ("cms", "cms_seed", "cms_inter", "ecms", "n_pairs", "n_seed_pairs",
          "n_inter_pairs", "n_runs_used")


def _fields(cell_score):
    return {name: getattr(cell_score, name) for name in FIELDS}


def _brute_force(records, measure, delta, budget=0, subsample_seed=0, group="g"):
    """Independent oracle: all-pairs enumeration + statistics.median.

    Pairs are listed in scan order, by (test error, run id), so that a budget
    picks the same pairs as score_group's subsample streams.
    """
    rows = sorted((r for r in records
                   if r.measures.get(measure) is not None
                   and 0 < r.measures[measure] < math.inf),
                  key=lambda r: (r.test_error, r.run_id))
    spreads = {"all": [], "seed": [], "inter": []}
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if abs(rows[i].test_error - rows[j].test_error) <= delta:
                hi = max(rows[i].measures[measure], rows[j].measures[measure])
                lo = min(rows[i].measures[measure], rows[j].measures[measure])
                v = math.log(hi / lo)
                spreads["all"].append(v)
                if rows[i].h_key() == rows[j].h_key():
                    if rows[i].seed != rows[j].seed:
                        spreads["seed"].append(v)
                else:
                    spreads["inter"].append(v)
    out = {"n_pairs": len(spreads["all"]), "n_seed_pairs": len(spreads["seed"]),
           "n_inter_pairs": len(spreads["inter"]), "n_runs_used": len(rows)}
    for cls, name in (("all", "cms"), ("seed", "cms_seed"), ("inter", "cms_inter")):
        vals = spreads[cls]
        if budget and len(vals) > budget:
            stream = Rng(subsample_seed).spawn_key(f"{group}|{measure}|{delta!r}|{cls}")
            vals = [vals[k] for k in stream.choose(len(vals), budget)]
        out[name] = statistics.median(vals) if vals else None
    cs, ci = out["cms_seed"], out["cms_inter"]
    out["ecms"] = max(0.0, ci - cs) if (cs is not None and ci is not None) else None
    return out


def _random_records(seed, n_runs):
    rng = Rng(seed)
    lrs = [0.01, 0.1]
    records = []
    for i in range(n_runs):
        h = ("sgdm" if rng.below(2) else "adam", lrs[rng.below(2)])
        records.append(rec(i, round(rng.uniform() * 0.2, 3),
                           math.exp(rng.gaussian()), h=h, seed=rng.below(4)))
    return records


def test_close_error_pairs_fixture():
    records = [rec(0, 0.10, 1.0), rec(1, 0.105, 1.0), rec(2, 0.13, 1.0)]
    assert cell(records, 0.01).n_pairs == 1


def test_close_error_pairs_all_equal():
    records = [rec(i, 0.2, 1.0, seed=i) for i in range(5)]
    assert cell(records, 0.01).n_pairs == 10


def test_close_error_pairs_single_record():
    c = cell([rec(0, 0.1, 1.0)], 0.05)
    assert c.n_pairs == 0 and c.n_runs_used == 1
    assert (c.cms, c.cms_seed, c.cms_inter, c.ecms) == (None, None, None, None)


def test_pairs_monotone_in_delta():
    rng = Rng(3)
    records = [rec(i, rng.uniform() * 0.3, 1.0, seed=i) for i in range(20)]
    cfg = FragilityConfig(deltas=(0.01, 0.02, 0.05), pair_budget=0)
    scores = score_group("g", records, ("M",), cfg)
    counts = [scores[("M", d)].n_pairs for d in cfg.deltas]
    assert counts == sorted(counts) and counts[0] < counts[-1]
    assert counts == [_brute_force(records, "M", d)["n_pairs"] for d in cfg.deltas]


def test_cms_single_pair_natural_log():
    records = [rec(0, 0.2, 1.0, seed=0), rec(1, 0.2, math.e, seed=1)]
    assert cell(records).cms == pytest.approx(1.0, abs=1e-15)


def test_cms_fixture_ln4():
    records = [rec(0, 0.10, 2.0, seed=0), rec(1, 0.105, 8.0, seed=1),
               rec(2, 0.13, 5.0, seed=2)]
    c = cell(records)
    assert c.n_pairs == 1
    assert c.cms == pytest.approx(math.log(4.0), abs=1e-12)


def test_cms_undefined_without_pairs():
    records = [rec(0, 0.1, 2.0), rec(1, 0.5, 3.0)]
    c = cell(records)
    assert c.cms is None and c.n_pairs == 0 and c.n_runs_used == 2


def test_cms_constant_measure_is_zero():
    records = [rec(i, 0.2, 7.5, seed=i) for i in range(6)]
    assert cell(records).cms == 0.0


def test_split_pairs_fixtures():
    # two seeds of one config -> one seed pair
    records = [rec(0, 0.2, 1.0, seed=0), rec(1, 0.2, 1.0, seed=1)]
    c = cell(records)
    assert (c.n_seed_pairs, c.n_inter_pairs) == (1, 0)
    # two configs, one seed each -> one inter pair
    records = [rec(0, 0.2, 1.0, h=("sgdm", 0.1)), rec(1, 0.2, 1.0, h=("adam", 0.1))]
    c = cell(records)
    assert (c.n_seed_pairs, c.n_inter_pairs) == (0, 1)
    # 2-config x 2-seed block -> 2 seed pairs, 4 inter pairs
    records = [rec(i, 0.2, 1.0, h=h, seed=s)
               for i, (h, s) in enumerate(
                   [(("sgdm", 0.1), 0), (("sgdm", 0.1), 1),
                    (("adam", 0.1), 0), (("adam", 0.1), 1)])]
    c = cell(records)
    assert (c.n_pairs, c.n_seed_pairs, c.n_inter_pairs) == (6, 2, 4)


def test_duplicate_config_and_seed_in_neither_class():
    records = [rec(0, 0.2, 1.0, seed=5), rec(1, 0.2, 2.0, seed=5)]
    c = cell(records)
    assert (c.n_seed_pairs, c.n_inter_pairs) == (0, 0)
    assert c.cms_seed is None and c.cms_inter is None and c.ecms is None
    assert c.n_pairs == 1  # still a close-error pair
    assert c.cms == pytest.approx(math.log(2.0), abs=1e-15)


def test_ecms_hand_construction():
    # log-measures A=(0, 0.2) B=(0.5, 0.7): seed median 0.2, inter median 0.5
    records = [
        rec(0, 0.2, math.exp(0.0), h=("sgdm", 0.1), seed=0),
        rec(1, 0.2, math.exp(0.2), h=("sgdm", 0.1), seed=1),
        rec(2, 0.2, math.exp(0.5), h=("adam", 0.1), seed=0),
        rec(3, 0.2, math.exp(0.7), h=("adam", 0.1), seed=1),
    ]
    c = cell(records)
    assert c.cms_seed == pytest.approx(0.2, abs=1e-12)
    assert c.cms_inter == pytest.approx(0.5, abs=1e-12)
    assert c.ecms == pytest.approx(0.3, abs=1e-12)


def test_ecms_clips_at_zero():
    records = [
        rec(0, 0.2, 1.0, h=("sgdm", 0.1), seed=0),
        rec(1, 0.2, math.exp(0.9), h=("sgdm", 0.1), seed=1),
        rec(2, 0.2, 1.0, h=("adam", 0.1), seed=0),
        rec(3, 0.2, math.exp(0.95), h=("adam", 0.1), seed=1),
    ]
    c = cell(records)
    assert c.cms_inter < c.cms_seed
    assert c.ecms == 0.0


def test_ecms_undefined_without_seed_pairs():
    records = [rec(0, 0.2, 1.0, h=("sgdm", 0.1)), rec(1, 0.2, 2.0, h=("adam", 0.1))]
    c = cell(records)
    assert c.ecms is None and c.cms_seed is None and c.cms_inter is not None


def test_median_conventions():
    # log-measures 0, 1, 3 at errors 0.100, 0.105, 0.112
    records = [rec(0, 0.100, 1.0, seed=0), rec(1, 0.105, math.e, seed=1),
               rec(2, 0.112, math.exp(3.0), seed=2)]
    c = cell(records, 0.01)  # spreads 1, 2: the mean of the two middle values
    assert c.n_pairs == 2
    assert c.cms == pytest.approx(1.5, abs=1e-15)
    c = cell(records, 0.02)  # spreads 1, 2, 3: the middle value
    assert c.n_pairs == 3
    assert c.cms == pytest.approx(2.0, abs=1e-15)


def test_zero_tagged_runs_dropped_per_measure():
    records = [rec(0, 0.2, 1.0, seed=0), rec(1, 0.2, 2.0, seed=1),
               rec(2, 0.2, None, seed=2), rec(3, 0.2, 0.0, seed=3),
               rec(4, 0.2, math.nan, seed=4), rec(5, 0.2, math.inf, seed=5)]
    c = cell(records)
    assert (c.n_runs_used, c.n_runs_excluded, c.n_pairs) == (2, 4, 1)
    assert c.cms == pytest.approx(math.log(2.0))


@pytest.mark.parametrize("seed", range(25))
def test_oracle_equivalence_unbudgeted(seed):
    records = _random_records(seed, 2 + seed % 40)
    cfg = FragilityConfig(deltas=(0.01, 0.02, 0.05), pair_budget=0)
    scores = score_group("g", records, ("M",), cfg)
    for delta in cfg.deltas:
        assert _fields(scores[("M", delta)]) == _brute_force(records, "M", delta)


@pytest.mark.parametrize("seed", range(10))
def test_oracle_equivalence_budgeted(seed):
    records = _random_records(100 + seed, 30 + seed)
    budget = 3 + 2 * seed
    cfg = FragilityConfig(deltas=(0.01, 0.02, 0.05), pair_budget=budget,
                          subsample_seed=seed)
    scores = score_group("g", records, ("M",), cfg)
    for delta in cfg.deltas:
        want = _brute_force(records, "M", delta, budget, seed)
        assert _fields(scores[("M", delta)]) == want
    # at the widest delta the budget engages in every pair class
    assert min(want["n_seed_pairs"], want["n_inter_pairs"]) > budget


def _three_measure_records(seed, n_runs):
    """_random_records with two more measures: N, with holes (missing, zero,
    NaN), and P, a power of two per run."""
    records = _random_records(seed, n_runs)
    for i, r in enumerate(records):
        r.measures["N"] = (None, 0.0, math.nan, 3.0 + i)[i % 4] if i % 3 else 1.5 ** i
        r.measures["P"] = 2.0 ** (i % 7)
    return records


@pytest.mark.parametrize("block, chunk", [(1 << 16, 1 << 10), (7, 5), (40, 12), (1, 1)])
@pytest.mark.parametrize("budget", [0, 5, 40])
def test_blocks_and_chunks_change_no_bit(monkeypatch, block, chunk, budget):
    # BLOCK 7 with 45 runs scans one row of pairs at a time, fills one list's
    # words at a time and splits the unsampled lists into blocks of columns
    monkeypatch.setattr(fragility, "BLOCK", block)
    monkeypatch.setattr(fragility, "CHUNK", chunk)
    records = _three_measure_records(5, 45)
    cfg = FragilityConfig(deltas=(0.02, 0.05), pair_budget=budget, subsample_seed=8)
    scores = score_group("g", records, ("M", "N", "P"), cfg)
    for m in ("M", "N", "P"):
        for delta in cfg.deltas:
            want = _brute_force(records, m, delta, budget, 8)
            assert _fields(scores[(m, delta)]) == want, (m, delta)
            assert scores[(m, delta)].n_runs_excluded == len(records) - want["n_runs_used"]


def _rounding_disagreements(delta):
    """(a, b) with a < b where the scan's test b - a > delta and the window
    search's b > a + delta disagree, split by which one keeps the pair."""
    scan_keeps, search_keeps = [], []
    for i in range(1, 1000):
        a = i / 1009
        s = a + delta
        for b in (math.nextafter(s, -math.inf), s, math.nextafter(s, math.inf)):
            if (b - a > delta) != (b > s):
                (search_keeps if b - a > delta else scan_keeps).append((a, b))
    return scan_keeps, search_keeps


@pytest.mark.parametrize("delta", [0.01, 0.02, 0.05])
def test_pairs_follow_the_scan_where_a_window_search_would_round_otherwise(delta):
    scan_keeps, search_keeps = _rounding_disagreements(delta)
    assert search_keeps  # b - a rounds above delta, a + delta rounds above b
    for keeps, pairs in ((1, scan_keeps[:15]), (0, search_keeps[:15])):
        for a, b in pairs:
            records = [rec(0, a, 2.0, seed=0), rec(1, b, 8.0, seed=1),
                       rec(2, b + 0.5, 1.0, seed=2)]
            c = cell(records, delta)
            assert c.n_pairs == keeps, (a, b)
            assert _fields(c) == _brute_force(records, "M", delta)


def test_budgeted_subsampling_reproducible():
    records = _random_records(7, 40)
    cfg = FragilityConfig(deltas=(0.05,), pair_budget=20, subsample_seed=11)
    a = score_group("g", records, ("M",), cfg)
    b = score_group("g", records, ("M",), cfg)
    cell_a, cell_b = a[("M", 0.05)], b[("M", 0.05)]
    assert (cell_a.cms, cell_a.ecms) == (cell_b.cms, cell_b.ecms)
    assert cell_a.n_pairs > 20  # budget actually engaged


def test_scale_freeness_bit_exact_for_pow2():
    records = _random_records(13, 30)
    base = score_group("g", records, ("M",), FragilityConfig())
    for a in (2.0, 0.5, 1024.0, 2.0 ** -7):
        scaled = [rec(i, r.test_error, a * r.measures["M"],
                      h=(r.optimizer, r.lr), seed=r.seed)
                  for i, r in enumerate(records)]
        out = score_group("g", scaled, ("M",), FragilityConfig())
        for key in base:
            assert out[key].cms == base[key].cms  # bit-identical
            assert out[key].ecms == base[key].ecms


def test_scale_freeness_close_for_general_scale():
    records = _random_records(17, 30)
    base = score_group("g", records, ("M",), FragilityConfig())
    scaled = [rec(i, r.test_error, 3.7 * r.measures["M"],
                  h=(r.optimizer, r.lr), seed=r.seed)
              for i, r in enumerate(records)]
    out = score_group("g", scaled, ("M",), FragilityConfig())
    for key in base:
        assert out[key].cms == pytest.approx(base[key].cms, abs=1e-12)


def test_partition_property():
    records = _random_records(19, 30)
    c = cell(records, 0.05)
    dup = sum(
        1 for i in range(len(records)) for j in range(i + 1, len(records))
        if abs(records[i].test_error - records[j].test_error) <= 0.05
        and records[i].h_key() == records[j].h_key()
        and records[i].seed == records[j].seed
    )
    assert dup > 0 and c.n_seed_pairs > 0 and c.n_inter_pairs > 0
    assert c.n_seed_pairs + c.n_inter_pairs + dup == c.n_pairs


def test_aggregate_medians_and_coverage():
    scores = {
        "g1": {("M", 0.01): type("C", (), {"cms": 0.1, "ecms": None,
                                           "cms_seed": None, "cms_inter": None})()},
        "g2": {("M", 0.01): type("C", (), {"cms": None, "ecms": None,
                                           "cms_seed": None, "cms_inter": None})()},
        "g3": {("M", 0.01): type("C", (), {"cms": 0.5, "ecms": 0.2,
                                           "cms_seed": None, "cms_inter": None})()},
    }
    agg = aggregate_groups(scores)[("M", 0.01)]
    assert agg.cms_med == pytest.approx(0.3)
    assert agg.cms_coverage == pytest.approx(2 / 3)
    assert agg.ecms_med == pytest.approx(0.2)
    assert agg.ecms_coverage == pytest.approx(1 / 3)


def test_single_group_aggregate_is_itself():
    records = _random_records(23, 20)
    groups, agg = score_records(records, ("M",), FragilityConfig(deltas=(0.05,)))
    cell = groups["g"][("M", 0.05)]
    assert agg[("M", 0.05)].cms_med == cell.cms


def test_emit_tables_order_and_undefined():
    records = []
    for i in range(8):
        h = ("sgdm", 0.1) if i < 4 else ("adam", 0.1)
        r = rec(i, 0.2, None, h=h, seed=i % 4)
        r.measures = {"CONST": 5.0, "WILD": math.exp(i), "PARAMS": 2.0}
        records.append(r)
    lonely = rec(99, 0.9, None, h=("sgdm", 0.1))
    lonely.measures = {"CONST": 5.0, "WILD": 1.0, "PARAMS": 2.0}
    records.append(lonely)
    measures = ("WILD", "CONST", "PARAMS", "MISSING")
    groups, agg = score_records(records, measures, FragilityConfig(deltas=(0.01,)))
    csv_text = emit_table_csv(agg, sorted(groups), measures, 0.01)
    lines = csv_text.splitlines()
    first_measure = lines[1].split(",")[0]
    assert first_measure in ("CONST", "PARAMS")  # zero-spread rows sort first
    assert "Undefined" in csv_text  # MISSING has no values anywhere
    txt = emit_table_text(agg, sorted(groups), measures, 0.01)
    assert "Undefined" in txt
    # byte-stable across reruns
    groups2, agg2 = score_records(records, measures, FragilityConfig(deltas=(0.01,)))
    assert emit_table_csv(agg2, sorted(groups2), measures, 0.01) == csv_text


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
                min_size=2, max_size=12),
       st.floats(min_value=0.005, max_value=0.1))
def test_scan_matches_brute_force_pairs(errors, delta):
    # distinct powers of two: each pair's spread is |i - j| ln 2
    records = [rec(i, e, 2.0 ** i, h=("sgdm", (0.1, 0.01)[i % 2]), seed=i // 4)
               for i, e in enumerate(errors)]
    assert _fields(cell(records, delta)) == _brute_force(records, "M", delta)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=1, max_size=40))
def test_median_equals_statistics_median(values):
    got, want = median(values), statistics.median(values)
    assert repr(got) == repr(want)
    assert median(list(range(len(values)))) == statistics.median(range(len(values)))
