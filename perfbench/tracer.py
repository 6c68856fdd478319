"""Span and counter recorder for the traced run, installed from outside the package.

The tracer replaces public functions of the fragaudit modules with wrappers
that record a span (name, start, end, parent, thread) per call, or only bump a
counter for functions called millions of times. Nothing under src/ changes:
each wrapped binding is listed explicitly, including the copies that
`from .x import f` leaves in importing modules.

Per-layer metrics are derived afterwards from the spans: a span's self time is
its duration minus the part of it that its child spans cover.
"""

import functools
import itertools
import os
import statistics
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent_id, thread_ident)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters = []  # one Counter per thread; summed in counts()
        self._lock = threading.Lock()
        self._main_stack = self._stack()
        self._restore = []

    # --- recording -----------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
            self._local.counts = Counter()
            with self._lock:
                self._counters.append(self._local.counts)
        return st

    def add(self, key: str, n=1) -> None:
        self._stack()
        self._local.counts[key] += n

    def counts(self) -> Counter:
        total = Counter()
        with self._lock:
            for c in self._counters:
                total.update(c)
        return total

    def _open(self):
        st = self._stack()
        # A worker thread's first span hangs under the main thread's open span.
        parent = st[-1] if st else (self._main_stack[-1] if self._main_stack else 0)
        sid = next(self._ids)
        st.append(sid)
        return st, sid, parent

    @contextmanager
    def span(self, name: str):
        st, sid, parent = self._open()
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            st.pop()
            self.spans.append((sid, name, t0, t1, parent, threading.get_ident()))

    def timed(self, name: str, fn, hook=None):
        """Wrap fn in a span; hook(tracer, args, result) adds counters after it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st, sid, parent = tracer._open()
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.pop()
                tracer.spans.append((sid, name, t0, t1, parent, threading.get_ident()))
            if hook is not None:
                hook(tracer, args, out)
            return out

        return wrapper

    def counted(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.add(key)
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # --- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every fragaudit layer."""
        from fragaudit import cli, data, evidence, exppp, fragility, measures, net, \
            optim, persist, rng

        def timed(owners, attr, name, hook=None):
            for owner in owners:
                self.patch(owner, attr, self.timed(name, getattr(owner, attr), hook))

        # net: every binding through which the package calls these functions.
        timed([net, measures, exppp], "forward_batch", "net.forward_batch")
        timed([net, exppp], "backward_batch", "net.backward_batch")
        timed([net, optim], "evaluate_wb", "net.evaluate_wb")
        timed([cli], "save_checkpoint", "net.checkpoint_io", _checkpoint_bytes)
        timed([cli], "load_checkpoint", "net.checkpoint_io", _checkpoint_bytes)
        for attr in ("write_json", "write_jsonl", "write_csv"):
            timed([persist], attr, "persist.write", _written_bytes)

        timed([optim, cli], "train", "optim.train", _run_status)
        timed([optim], "sgdm_step", "optim.step")
        timed([optim], "adam_step", "optim.step")
        self.patch(exppp, "sgdm_step", self.counted("exppp.steps", exppp.sgdm_step))

        timed([measures, cli, exppp], "compute_all", "measures.compute_all",
              _measure_errors)
        timed([measures], "sigma_search", "measures.sigma_search")
        timed([measures], "spectral_norm", "measures.spectral_norm", _spectral_iters)
        timed([measures], "margins", "measures.margins")
        timed([measures], "path_norm", "measures.path_norm")

        kernels = rng._kernels
        self.patch(kernels, "fill_u64", self._fill_u64(kernels.fill_u64))
        timed([kernels], "fill_u64_multi", "rng.fill_u64_multi", _multi_words)
        timed([rng.Rng], "choose", "rng.choose")

        timed([fragility], "score_group", "fragility.score_group", _pair_counts)
        timed([fragility], "emit_table_csv", "fragility.emit")
        timed([fragility], "emit_table_text", "fragility.emit")

        timed([evidence], "prior_predictions", "evidence.prior_predictions", _draws)
        timed([evidence], "estimate_consistency_mass", "evidence.consistency_mass",
              _hits)
        self.patch(evidence, "gibbs_sample_consistent",
                   self._gibbs(evidence.gibbs_sample_consistent))
        timed([evidence], "bound_vs_error_experiment", "evidence.experiment")

        timed([exppp], "verify_equivalence", "exppp.verify_equivalence")
        timed([exppp], "inflation_demo", "exppp.inflation_demo")

        for attr in ("synth_blobs", "synth_images", "split_train_test",
                     "corrupt_labels", "subsample"):
            timed([data], attr, f"data.{attr}")
        for attr in ("synth_blobs", "split_train_test", "corrupt_labels"):
            timed([evidence], attr, f"data.{attr}")
        timed([optim], "subsample", "data.subsample")

    def _fill_u64(self, fn):
        """Single-word fills (one per Rng.below) are counted; longer ones timed."""
        tracer = self
        timed = self.timed("rng.fill_u64", fn)

        @functools.wraps(fn)
        def wrapper(state, out):
            n = out.shape[0]
            tracer.add("rng.fill_u64.words", n)
            if n == 1:
                return fn(state, out)
            tracer.add("rng.fill_u64.timed_words", n)
            return timed(state, out)

        return wrapper

    def _gibbs(self, fn):
        """Rejection sampling: attempts used, or all of max_attempts when it gives up."""
        from fragaudit.errors import RejectionExhausted

        tracer = self
        timed = self.timed("evidence.gibbs", fn, _attempts)

        @functools.wraps(fn)
        def wrapper(spec, ds, max_attempts, *args, **kwargs):
            try:
                return timed(spec, ds, max_attempts, *args, **kwargs)
            except RejectionExhausted:
                tracer.add("evidence.gibbs.attempts", max_attempts)
                raise

        return wrapper

    # --- analysis ------------------------------------------------------------

    def self_times(self) -> dict:
        """span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for sid, _, t0, t1, parent, _ in self.spans:
            children[parent].append((t0, t1))
        out = {}
        for sid, _, t0, t1, _, _ in self.spans:
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[sid] = (t1 - t0) - covered
        return out


def check_nesting(tracer: Tracer) -> list:
    """Problems with the span tree; an empty list means it is sound.

    Every child lies inside its parent's interval, and the self times of a span
    and its same-thread descendants sum to no more than the span's wall time.
    """
    problems = []
    selfs = tracer.self_times()
    by_id = {s[0]: s for s in tracer.spans}
    subtree = defaultdict(float)
    # Spans are appended as they close, so each child precedes its parent.
    for sid, name, t0, t1, parent, thread in tracer.spans:
        subtree[sid] += selfs[sid]
        if selfs[sid] < 0:
            problems.append(f"{name}: negative self time {selfs[sid]!r}")
        if subtree[sid] > (t1 - t0) * (1 + 1e-9) + 1e-9:
            problems.append(f"{name}: self times {subtree[sid]!r} exceed wall {t1 - t0!r}")
        if parent == 0:
            continue
        p = by_id.get(parent)
        if p is None:
            problems.append(f"{name}: parent {parent} never closed")
        elif not p[2] <= t0 <= t1 <= p[3]:
            problems.append(f"{name}: interval outside its parent {p[1]}")
        elif p[5] == thread:
            subtree[parent] += subtree[sid]
    return problems


def _file_size(path) -> int:
    return os.stat(path).st_size


def _checkpoint_bytes(tracer, args, _out):
    tracer.add("bytes:net.checkpoint_io", _file_size(args[0]))


def _written_bytes(tracer, args, _out):
    tracer.add("bytes:persist.write", _file_size(args[0]))


def _run_status(tracer, _args, out):
    status = out.record.status
    if status.startswith("ok"):
        key = "ok"
    elif status in ("stop_rule_not_met", "diverged"):
        key = status
    else:
        key = "error"
    tracer.add(f"optim.runs.{key}")


def _measure_errors(tracer, _args, out):
    tracer.add("measures.errors", len(out.errors))


def _spectral_iters(tracer, _args, out):
    tracer.add("measures.spectral_norm.iters", out[2])


def _multi_words(tracer, args, _out):
    tracer.add("rng.fill_u64_multi.words", args[1].size)


def _pair_counts(tracer, args, out):
    budget = args[3].pair_budget
    for cell in out.values():
        tracer.add("fragility.pairs", cell.n_pairs)
        tracer.add("fragility.pairs_kept",
                   min(cell.n_pairs, budget) if budget else cell.n_pairs)
        sizes = (cell.n_pairs, cell.n_seed_pairs, cell.n_inter_pairs)
        if budget and max(sizes) > budget:
            tracer.add("fragility.cells_subsampled")


def _draws(tracer, args, _out):
    tracer.add("evidence.draws", len(args[2]))


def _hits(tracer, _args, out):
    tracer.add("evidence.hits", out.hits)


def _attempts(tracer, _args, out):
    tracer.add("evidence.gibbs.attempts", out[1])


# Per-layer metric name -> unit. Counts and bytes are exact: they must repeat
# bit for bit between runs of one workload and seed.
STAGE_NAMES = ("sweep", "measure", "audit", "exppp", "evidence")
UNITS = {}
for _name in ("optim.train.calls", "optim.steps", "optim.runs.ok",
              "optim.runs.stop_rule_not_met", "optim.runs.diverged", "optim.runs.error",
              "net.backward_batch.calls", "net.evaluate_wb.calls",
              "net.forward_batch.calls", "measures.compute_all.calls",
              "measures.sigma_search.calls", "measures.sigma_search.forwards",
              "measures.spectral_norm.calls", "measures.spectral_norm.iters",
              "measures.errors", "rng.fill_u64.words", "rng.fill_u64_multi.words",
              "rng.choose.calls", "fragility.pairs", "fragility.cells_subsampled",
              "evidence.prior_predictions.calls", "evidence.draws", "evidence.hits",
              "evidence.gibbs.attempts", "exppp.verify_equivalence.calls",
              "exppp.steps"):
    UNITS[_name] = "count"
UNITS["net.checkpoint_io.bytes"] = "bytes"
UNITS["persist.write.bytes"] = "bytes"
UNITS["fragility.pairs_kept_frac"] = "frac"
for _name in ("optim.train.self_s", "optim.step.s", "net.backward_batch.s",
              "net.evaluate_wb.s", "net.forward_batch.s", "net.checkpoint_io.s",
              "persist.write.s", "measures.compute_all.self_s",
              "measures.sigma_search.self_s", "measures.spectral_norm.s",
              "measures.margins.s", "measures.path_norm.s", "rng.fill_u64.s",
              "rng.fill_u64_multi.s", "rng.choose.s", "fragility.score_group.self_s",
              "fragility.emit.s", "evidence.prior_predictions.s", "evidence.gibbs.s",
              "exppp.verify_equivalence.self_s", "exppp.inflation_demo.self_s",
              "data.build.s"):
    UNITS[_name] = "s"
for _name in ("optim.train.p50_ms", "optim.train.p95_ms",
              "measures.compute_all.p50_ms", "measures.compute_all.p95_ms"):
    UNITS[_name] = "ms"
UNITS["rng.fill_u64.words_per_s"] = "1/s"
UNITS["rng.fill_u64_multi.words_per_s"] = "1/s"
UNITS["evidence.draws_per_s"] = "1/s"
for _stage in STAGE_NAMES:
    UNITS[f"cli.{_stage}.self_s"] = "s"
EXACT_UNITS = ("count", "bytes", "frac")


def _quantile_ms(durations, q: float) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[round(q * 100) - 1] * 1e3


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric in UNITS, 0 where the layer did not run."""
    selfs = tracer.self_times()
    calls, wall, self_s, durs = Counter(), Counter(), Counter(), defaultdict(list)
    name_of = {}
    for sid, name, t0, t1, _, _ in tracer.spans:
        name_of[sid] = name
        calls[name] += 1
        wall[name] += t1 - t0
        self_s[name] += selfs[sid]
        durs[name].append(t1 - t0)
    counts = tracer.counts()
    sigma_forwards = sum(1 for _, name, _, _, parent, _ in tracer.spans
                         if name == "net.forward_batch"
                         and name_of.get(parent) == "measures.sigma_search")
    m = {}
    for key in ("optim.train", "measures.compute_all", "measures.sigma_search",
                "net.backward_batch", "net.evaluate_wb", "net.forward_batch",
                "measures.spectral_norm", "rng.choose", "evidence.prior_predictions",
                "exppp.verify_equivalence"):
        m[f"{key}.calls"] = calls[key]
    for key in ("optim.train", "measures.compute_all", "measures.sigma_search",
                "fragility.score_group", "exppp.verify_equivalence",
                "exppp.inflation_demo"):
        m[f"{key}.self_s"] = self_s[key]
    for key in ("net.backward_batch", "net.evaluate_wb", "net.forward_batch",
                "net.checkpoint_io", "persist.write", "measures.spectral_norm",
                "measures.margins", "measures.path_norm", "rng.fill_u64",
                "rng.fill_u64_multi", "rng.choose", "fragility.emit",
                "evidence.prior_predictions", "evidence.gibbs"):
        m[f"{key}.s"] = wall[key]
    m["optim.step.s"] = wall["optim.step"]
    for key in ("optim.train", "measures.compute_all"):
        m[f"{key}.p50_ms"] = _quantile_ms(sorted(durs[key]), 0.50)
        m[f"{key}.p95_ms"] = _quantile_ms(sorted(durs[key]), 0.95)
    m["optim.steps"] = calls["optim.step"]
    for status in ("ok", "stop_rule_not_met", "diverged", "error"):
        m[f"optim.runs.{status}"] = counts[f"optim.runs.{status}"]
    m["net.checkpoint_io.bytes"] = counts["bytes:net.checkpoint_io"]
    m["persist.write.bytes"] = counts["bytes:persist.write"]
    m["measures.sigma_search.forwards"] = sigma_forwards
    for key in ("measures.spectral_norm.iters", "measures.errors", "rng.fill_u64.words",
                "rng.fill_u64_multi.words", "fragility.pairs",
                "fragility.cells_subsampled", "evidence.draws", "evidence.hits",
                "evidence.gibbs.attempts", "exppp.steps"):
        m[key] = counts[key]
    pairs = counts["fragility.pairs"]
    m["fragility.pairs_kept_frac"] = counts["fragility.pairs_kept"] / pairs if pairs else 0.0
    m["rng.fill_u64.words_per_s"] = _rate(counts["rng.fill_u64.timed_words"],
                                          wall["rng.fill_u64"])
    m["rng.fill_u64_multi.words_per_s"] = _rate(counts["rng.fill_u64_multi.words"],
                                                wall["rng.fill_u64_multi"])
    m["evidence.draws_per_s"] = _rate(counts["evidence.draws"],
                                      wall["evidence.prior_predictions"])
    m["data.build.s"] = sum(t1 - t0 for _, name, t0, t1, parent, _ in tracer.spans
                            if name.startswith("data.")
                            and not name_of.get(parent, "").startswith("data."))
    for stage in STAGE_NAMES:
        m[f"cli.{stage}.self_s"] = self_s[f"cli.{stage}"]
    missing = set(UNITS) ^ set(m)
    if missing:
        raise RuntimeError(f"metric table out of step with UNITS: {sorted(missing)}")
    return m


def _rate(n, seconds) -> float:
    return n / seconds if seconds > 0 else 0.0
