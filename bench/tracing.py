"""Spans and counters around depgap's public functions, installed from outside.

Nothing under src/ knows about this module. `Tracer.install()` replaces each
traced function with a wrapper in every depgap module that bound the name
(`depgap.aldg` holds its own `t_statistic_at_sample_points`, for example),
and `uninstall()` puts the originals back. Spans stay in memory; `layers()`
turns them into per-layer self times and counts.

A span's self time is its duration minus the part of that interval its
child spans cover. Work that a thread pool runs has no parent in its own
thread; it is charged to the innermost main-thread span that encloses it,
so a pool's fan-out and assembly time is what remains of that span.
"""

import bisect
import hashlib
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict

from workloads import MEASURES

# (module, attribute, span name). The package attribute `depgap.aldg` is the
# function aldg, so modules are always looked up in sys.modules.
SPANS = (
    ("depgap.cli", "main", "cli.self"),
    ("depgap.cli", "ingest", "cli.ingest"),
    ("depgap.cli", "read_pairs", "cli.read_pairs"),
    ("depgap.measures", "pairwise_matrix", "measures.pairwise"),
    ("depgap.measures", "measure", None),  # named measures.<tag> per call
    ("depgap.aldg", "aldg", "aldg.aldg"),
    ("depgap.aldg", "threshold_uniform_error", "aldg.threshold"),
    ("depgap.kde", "t_statistic_at_sample_points", "kde.t_points"),
    ("depgap.inference", "permutation_test", "inference.permutation_test"),
)
# Counted, not timed: one call is one shuffled T evaluation.
COUNTED = (("depgap.aldg", "_shuffled_t_values", "aldg.shuffles"),)


def _margin_key(values, h):
    data = values.copy()
    data.sort()
    return hashlib.blake2b(data.tobytes(), digest_size=16).digest(), float(h)


class Tracer:
    def __init__(self):
        self.records = []  # [name, thread id, start, end, in-thread parent index]
        self.counts = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._margins = set()
        self._open_pairwise = 0
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = [name, threading.get_ident(), 0.0, 0.0, stack[-1] if stack else None]
        with self._lock:
            index = len(self.records)
            self.records.append(record)
        stack.append(index)
        record[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            stack.pop()

    def _count(self, key, amount=1):
        with self._lock:
            self.counts[key] += amount

    def _note_margins(self, sample, cfg):
        keys = (_margin_key(sample.xs, cfg.h_x), _margin_key(sample.ys, cfg.h_y))
        with self._lock:
            if all(k in self._margins for k in keys):
                self.counts["kde.repeat_margin_calls"] += 1
            self._margins.update(keys)
            self.counts["kde.window_tests"] += 2 * sample.n * sample.n

    def _wrap(self, name, fn):
        tracer = self
        if name == "kde.t_points":
            def wrapper(*args, **kwargs):
                sample = args[0] if args else kwargs["sample"]
                cfg = args[1] if len(args) > 1 else kwargs["cfg"]
                # A span of its own, so hashing the margins is not charged
                # to the caller's self time.
                tracer._span("trace.bookkeeping", tracer._note_margins, (sample, cfg), {})
                return tracer._span(name, fn, args, kwargs)
        elif name is None:
            def wrapper(*args, **kwargs):
                kind = args[0] if args else kwargs["kind"]
                tag = kind if isinstance(kind, str) else kind.tag
                if tracer._open_pairwise:
                    tracer._count("measures.pairs")
                return tracer._span("measures." + tag, fn, args, kwargs)
        elif name == "measures.pairwise":
            def wrapper(*args, **kwargs):
                tracer._open_pairwise += 1
                try:
                    result = tracer._span(name, fn, args, kwargs)
                finally:
                    tracer._open_pairwise -= 1
                tracer._count("measures.pair_failures", len(result.diagnostics))
                return result
        elif name == "cli.ingest":
            def wrapper(*args, **kwargs):
                table = tracer._span(name, fn, args, kwargs)
                tracer._count("cli.ingest_fields", len(table.gene_ids) * len(table.cell_ids))
                return table
        elif name == "inference.permutation_test":
            signature = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer._count("inference.perms", bound.arguments["n_perms"])
                return tracer._span(name, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return tracer._span(name, fn, args, kwargs)
        return wrapper

    def _counting(self, key, fn):
        def wrapper(*args, **kwargs):
            self._count(key)
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def _replace(self, original, wrapper):
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("depgap"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def install(self):
        """Wrap every traced function; return the names that were not found,
        whose metrics then read 0."""
        missing = []
        for module, attr, name in SPANS + COUNTED:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                missing.append(f"{module}.{attr}")
            elif (module, attr, name) in COUNTED:
                self._replace(original, self._counting(name, original))
            else:
                self._replace(original, self._wrap(name, original))
        return missing

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self, main_thread):
        """Self time and call count per span name, summed over threads."""
        records = self.records
        children = defaultdict(list)
        main = sorted(
            (r[2], i) for i, r in enumerate(records) if r[1] == main_thread
        )
        main_starts = [s for s, _ in main]
        for i, (_, thread, start, end, parent) in enumerate(records):
            if parent is None and thread != main_thread:
                k = bisect.bisect_right(main_starts, start) - 1
                while k >= 0 and records[main[k][1]][3] < end:
                    k -= 1
                parent = main[k][1] if k >= 0 else None
            if parent is not None:
                children[parent].append((start, end))
        self_s = defaultdict(float)
        calls = Counter()
        for i, (name, _, start, end, _) in enumerate(records):
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(i, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            self_s[name] += (end - start) - covered
            calls[name] += 1
        return self_s, calls

    def layers(self, main_thread):
        """The per-layer metrics of this benchmark, as {name: (value, unit)}."""
        self_s, calls = self.self_times(main_thread)
        counts = self.counts
        t_calls = calls["kde.t_points"]
        window_tests = counts["kde.window_tests"]
        out = {
            "cli.ingest_s": (self_s["cli.ingest"], "s"),
            "cli.ingest_fields": (counts["cli.ingest_fields"], "count"),
            "cli.read_pairs_s": (self_s["cli.read_pairs"], "s"),
            "cli.self_s": (self_s["cli.self"], "s"),
            "measures.pairwise_s": (self_s["measures.pairwise"], "s"),
            "measures.pairs": (counts["measures.pairs"], "count"),
            "measures.pair_failures": (counts["measures.pair_failures"], "count"),
        }
        for tag in MEASURES:
            out[f"measures.{tag}_s"] = (self_s["measures." + tag], "s")
            out[f"measures.{tag}_calls"] = (calls["measures." + tag], "count")
        out.update({
            "aldg.aldg_s": (self_s["aldg.aldg"], "s"),
            "aldg.calls": (calls["aldg.aldg"], "count"),
            "aldg.threshold_s": (self_s["aldg.threshold"], "s"),
            "aldg.shuffles": (counts["aldg.shuffles"], "count"),
            "kde.t_points_s": (self_s["kde.t_points"], "s"),
            "kde.t_points_calls": (t_calls, "count"),
            "kde.window_tests": (window_tests, "count"),
            "kde.ns_per_window_test": (
                self_s["kde.t_points"] * 1e9 / window_tests if window_tests else 0.0, "ns"),
            "kde.repeat_margin_share": (
                counts["kde.repeat_margin_calls"] / t_calls if t_calls else 0.0, "ratio"),
            "inference.permutation_test_s": (self_s["inference.permutation_test"], "s"),
            "inference.perms": (counts["inference.perms"], "count"),
        })
        return out
